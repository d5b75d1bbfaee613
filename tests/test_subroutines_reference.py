"""Differential tests: the greedy subroutine and ``Permutation``, both on
LR's server pool, against the versions they replaced
(``reference_subroutines``; greedy against both its full scan and its
pointer walk through ``LRState``'s methods), plus the two-candidate property
of ``Permutation``."""

import random

from hypothesis import given
from hypothesis import strategies as st

import reference_subroutines as ref
from matchline.generators import gen_uniform
from matchline.model import costs_equal
from matchline.offline import monotone_cost
from matchline.subroutines import Greedy, Permutation

# "rounding": servers near 0, requests near 10**16, where a float distance
# rounds many positions below the request to the same value
SHAPES = ("in-span", "out-of-span", "duplicates", "float", "rounding")


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


def assert_same(
    servers,
    requests,
    rng: random.Random,
    new_cls=Greedy,
    old_classes=(ref.Greedy, ref.PoolGreedy),
):
    n = len(servers)
    for ids in (None, rng.sample(range(3 * n), n)):
        new, olds = new_cls(servers, ids), [cls(servers, ids) for cls in old_classes]
        for r in requests:
            served = new.serve(r)
            assert [old.serve(r) for old in olds] == [served] * len(olds)


def assert_same_permutation(servers, requests, rng: random.Random):
    assert_same(
        servers, requests, rng, Permutation, (ref.PerGapPermutation, ref.Permutation)
    )


def assert_permutation_least_cost(servers, requests, rng: random.Random):
    # the stated reference where float rounding ties a farther server's cost
    # with a neighbour's and the references' first pool index wins: each
    # served server costs, within costs_equal, the least
    # cost(history, used + {s}) over all free s
    n = len(servers)
    for ids in (None, rng.sample(range(3 * n), n)):
        free = dict(zip(range(n) if ids is None else ids, servers))
        sub, used, history = Permutation(servers, ids), [], []
        for r in requests:
            history.append(r)
            s = free.pop(sub.serve(r))
            cost = monotone_cost(used + [s], history)
            least = min([cost] + [monotone_cost(used + [p], history) for p in free.values()])
            assert costs_equal(cost, least, len(history))
            used.append(s)


def check_permutation(shape, servers, requests, rng: random.Random):
    if shape == "rounding":
        assert_permutation_least_cost(servers, requests, rng)
    else:
        assert_same_permutation(servers, requests, rng)


def test_same_servers_on_every_shape():
    rng = random.Random(2026)
    for n in range(1, 41):
        for shape in SHAPES:
            for _ in range(6):
                assert_same(*make_case(shape, n, rng), rng)


@given(
    st.sampled_from(SHAPES),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=2**32),
)
def test_same_servers_property(shape, n, seed):
    rng = random.Random(seed)
    assert_same(*make_case(shape, n, rng), rng)


def test_permutation_same_servers_on_every_shape():
    rng = random.Random(2027)
    for n in range(1, 26):
        for shape in SHAPES:
            for _ in range(6):
                check_permutation(shape, *make_case(shape, n, rng), rng)


@given(
    st.sampled_from(SHAPES),
    st.integers(min_value=1, max_value=25),
    st.integers(min_value=0, max_value=2**32),
)
def test_permutation_same_servers_property(shape, n, seed):
    rng = random.Random(seed)
    check_permutation(shape, *make_case(shape, n, rng), rng)


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
            assert_same_permutation(scaled, requests, rng)
            inst = gen_uniform(n, (0, 10**17), seed, integer_mode=True)
            assert_same_permutation(inst.servers, inst.requests, rng)


def test_permutation_same_servers_at_n_120():
    rng = random.Random(2029)
    assert_same_permutation(*make_case("out-of-span", 120, rng), rng)


@given(
    st.sampled_from(SHAPES),
    st.integers(min_value=1, max_value=25),
    st.integers(min_value=0, max_value=2**32),
)
def test_permutation_serves_a_nearest_free_server(shape, n, seed):
    # the chosen server is the nearest free one at or below the request or
    # the nearest at or above it
    servers, requests = make_case(shape, n, random.Random(seed))
    sub = Permutation(servers)
    free = list(servers)
    for r in requests:
        nearest = [max((p for p in free if p <= r), default=None),
                   min((p for p in free if p >= r), default=None)]
        s = servers[sub.serve(r)]
        assert s in nearest
        free.remove(s)
