"""Differential tests: the greedy subroutine and ``Permutation``, both on
LR's server pool, against the versions they replaced
(``reference_subroutines``; greedy against both its full scan and its
pointer walk through ``next_free``/``prev_free``), plus the property that LR,
greedy and ``Permutation`` each serve one of the request's two free
neighbours.

At float-rounding ties the references' first pool index among equal
computed costs can lie beyond those neighbours, so on the "rounding" shape
both subroutines run on the case's integer image, as the package runs them,
and are held to their stated reference, ``assert_least_price``, instead:
there every price is exact."""

import random
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

import reference_subroutines as ref
from lr_step import lr_step
from ordered_pool import in_order
from matchline.generators import gen_uniform
from matchline.lr import LRState
from matchline.offline import monotone_cost
from matchline.subroutines import Greedy, Permutation
from matchline.tape import AdviceTape

# "rounding": servers near 0, requests near 10**16, where a float distance
# rounds many positions below the request to the same value
SHAPES = ("in-span", "out-of-span", "duplicates", "float", "rounding")

REFERENCES = {
    Greedy: (ref.Greedy, ref.PoolGreedy),
    Permutation: (ref.PerGapPermutation, ref.Permutation),
}


def make_case(shape: str, n: int, rng: random.Random):
    """Servers (unsorted) and requests of one shape."""
    if shape == "float":
        servers = [rng.uniform(0.0, 10.0) for _ in range(n)]
        return servers, [rng.uniform(-5.0, 15.0) for _ in range(n)]
    if shape == "rounding":
        servers = [rng.choice((0.5, 1.0, 1.5, 3.0)) * rng.randint(1, 3) for _ in range(n)]
        return servers, [1e16 + rng.choice((-8.0, 0.0, 2.0, 4.0)) for _ in range(n)]
    top = max(1, n // 3) if shape == "duplicates" else 4 * n
    servers = [rng.randint(0, top) for _ in range(n)]
    if shape == "out-of-span":
        return servers, [rng.randint(-6 * n, 10 * n) for _ in range(n)]
    return servers, [rng.randint(min(servers), max(servers)) for _ in range(n)]


def assert_same(servers, requests, rng: random.Random, cls):
    n = len(servers)
    for ids in (None, rng.sample(range(3 * n), n)):
        new = cls(*in_order(servers, ids))
        olds = [old_cls(servers, ids) for old_cls in REFERENCES[cls]]
        for r in requests:
            served = new.serve(r)
            assert [old.serve(r) for old in olds] == [served] * len(olds)


def free_neighbours(free, r) -> list:
    """The nearest free position at or below r and the nearest at or above
    it (None where there is none)."""
    return [max((p for p in free if p <= r), default=None),
            min((p for p in free if p >= r), default=None)]


def price(cls, history, used, s):
    """What ``cls`` minimises over the free servers s: Greedy the computed
    distance to the last request, Permutation cost(history, used + {s})."""
    if cls is Greedy:
        return abs(history[-1] - s)
    return monotone_cost(used + [s], history)


def integer_image(servers, requests):
    """Both lists times the largest denominator among them, as ints."""
    d = max(Fraction(x).denominator for x in servers + requests)
    return [int(Fraction(x) * d) for x in servers], [int(Fraction(x) * d) for x in requests]


def assert_least_price(servers, requests, rng: random.Random, cls):
    # the stated reference where float rounding ties a farther server's price
    # with a neighbour's and the references' first pool index wins: on the
    # integer image, each served server is the smallest free id at one of
    # the two free neighbours' positions, and its price is the least over
    # all free servers
    servers, requests = integer_image(servers, requests)
    n = len(servers)
    for ids in (None, rng.sample(range(3 * n), n)):
        free = dict(zip(range(n) if ids is None else ids, servers))
        sub, used, history = cls(*in_order(servers, ids)), [], []
        for r in requests:
            history.append(r)
            sid = sub.serve(r)
            s = free[sid]
            assert s in free_neighbours(free.values(), r)
            assert sid == min(i for i, p in free.items() if p == s)
            least = min(price(cls, history, used, p) for p in free.values())
            assert price(cls, history, used, s) == least
            del free[sid]
            used.append(s)


def check(cls, shape, servers, requests, rng: random.Random):
    if shape == "rounding":
        assert_least_price(servers, requests, rng, cls)
    else:
        assert_same(servers, requests, rng, cls)


def test_same_servers_on_every_shape():
    rng = random.Random(2026)
    for n in range(1, 41):
        for shape in SHAPES:
            for _ in range(6):
                check(Greedy, shape, *make_case(shape, n, rng), rng)


@given(
    st.sampled_from(SHAPES),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=2**32),
)
def test_same_servers_property(shape, n, seed):
    rng = random.Random(seed)
    check(Greedy, shape, *make_case(shape, n, rng), rng)


def test_permutation_same_servers_on_every_shape():
    rng = random.Random(2027)
    for n in range(1, 26):
        for shape in SHAPES:
            for _ in range(6):
                check(Permutation, shape, *make_case(shape, n, rng), rng)


@given(
    st.sampled_from(SHAPES),
    st.integers(min_value=1, max_value=25),
    st.integers(min_value=0, max_value=2**32),
)
def test_permutation_same_servers_property(shape, n, seed):
    rng = random.Random(seed)
    check(Permutation, shape, *make_case(shape, n, rng), rng)


def test_permutation_same_servers_beyond_float_precision():
    # the shapes of test_permutation_exact_on_integers_beyond_float_precision:
    # integers up to 10**15 lifted by RESCALE's n^3 scaling, and up to 10**17
    rng = random.Random(2028)
    for n in range(1, 11):
        for seed in range(6):
            inst = gen_uniform(n, (0, 10**15), seed, integer_mode=True)
            s1 = inst.servers[0]
            scaled = [n**3 * (p - s1) + 1 for p in inst.servers]
            requests = [n**3 * (r - s1) + 1 for r in inst.requests]
            assert_same(scaled, requests, rng, Permutation)
            inst = gen_uniform(n, (0, 10**17), seed, integer_mode=True)
            assert_same(inst.servers, inst.requests, rng, Permutation)


def test_permutation_same_servers_at_n_120():
    rng = random.Random(2029)
    assert_same(*make_case("out-of-span", 120, rng), rng, Permutation)


@given(
    st.sampled_from(SHAPES),
    st.integers(min_value=1, max_value=25),
    st.integers(min_value=0, max_value=2**32),
)
def test_lr_greedy_and_permutation_serve_a_free_neighbour(shape, n, seed):
    # each serves a server at the nearest free position at or below the
    # request or at the nearest at or above it, LR on arbitrary bits; greedy's
    # server has the least computed distance over the free servers
    rng = random.Random(seed)
    servers, requests = make_case(shape, n, rng)
    pool, bits = LRState(*in_order(servers)), AdviceTape(rng.choices((0, 1), k=n))
    serves = {
        "lr": lambda r: lr_step(pool, r, bits),
        "greedy": Greedy(*in_order(servers)).serve,
        "permutation": Permutation(*in_order(servers)).serve,
    }
    for name, serve in serves.items():
        free = list(servers)
        for r in requests:
            s = servers[serve(r)]
            assert s in free_neighbours(free, r), name
            if name == "greedy":
                assert abs(r - s) == min(abs(r - p) for p in free)
            free.remove(s)
