import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from matchline.model import integer_image, validate_instance
from matchline.offline import monotone_cost, monotone_optimal
from matchline.subroutines import (
    SUBROUTINE_NAMES,
    Permutation,
    SubroutineError,
    make_subroutine,
)
from ordered_pool import in_order
from test_pool_reference import make_case


def test_greedy_picks_nearest():
    assert make_subroutine("greedy", [0, 10]).serve([4]) == [0]


def test_greedy_tie_breaks_left():
    assert make_subroutine("greedy", [3, 5]).serve([4]) == [0]  # server at 3


def test_greedy_forced_last_server():
    assert make_subroutine("greedy", [7]).serve([100]) == [0]


def test_greedy_never_reuses():
    sub = make_subroutine("greedy", [1, 2, 3])
    assert set(sub.serve([2, 2, 2])) == {0, 1, 2}
    with pytest.raises(SubroutineError):
        sub.serve([2])


def test_permutation_single_request_optimum():
    assert make_subroutine("permutation", [1, 2]).serve([1.6]) == [1]  # |1.6-2| < |1.6-1|


def test_permutation_serves_newly_used_server():
    assert make_subroutine("permutation", [1, 2]).serve([1.6, 0.9]) == [1, 0]


def test_permutation_singleton_pool():
    sub = make_subroutine("permutation", [5])
    assert sub.serve([123]) == [0]
    with pytest.raises(SubroutineError, match="no available server"):
        sub.serve([5])


def test_permutation_respects_custom_ids():
    assert make_subroutine("permutation", [10, 20], ids=[7, 9]).serve([19]) == [9]


def test_clairvoyant_replays_offline_optimum():
    assert make_subroutine("clairvoyant", [3, 4]).serve([4, 3]) == [1, 0]


def test_clairvoyant_monotone_on_geometric_block():
    assert make_subroutine("clairvoyant", [1, 2, 3]).serve([2.5, 2.75, 2.875]) == [0, 1, 2]


def test_clairvoyant_rejects_requests_beyond_sealed():
    # a pool serves its block's one sequence: a second call would hand out
    # its servers twice
    sub = make_subroutine("clairvoyant", [1])
    assert sub.serve([1]) == [0]
    with pytest.raises(SubroutineError, match="one sequence only"):
        sub.serve([1])


def test_unknown_name_rejected():
    with pytest.raises(SubroutineError):
        make_subroutine("oracle", [1])


def test_clairvoyant_cost_is_block_optimal():
    servers = [1, 4, 9, 12]
    requests = [11, 2, 2, 7]
    served = make_subroutine("clairvoyant", servers).serve(requests)
    cost = sum(abs(r - servers[j]) for r, j in zip(requests, served))
    assert cost == monotone_cost(servers, requests)


def test_greedy_cost_at_least_optimal():
    servers = [1, 2, 3, 4]
    requests = [4, 3, 2, 1]
    inst = validate_instance(servers, requests)
    served = make_subroutine("greedy", servers).serve(requests)
    cost = sum(abs(r - servers[j]) for r, j in zip(requests, served))
    assert cost >= monotone_optimal(inst).cost


@given(
    st.sampled_from(SUBROUTINE_NAMES),
    st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=7),
    st.data(),
)
def test_every_serve_returns_a_fresh_pool_member(name, servers, data):
    n = len(servers)
    requests = data.draw(
        st.lists(st.integers(min_value=-10, max_value=50), min_size=n, max_size=n)
    )
    served = make_subroutine(name, *in_order(servers)).serve(requests)
    assert sorted(served) == sorted(range(n))  # injective, within the pool


@pytest.mark.parametrize("name", ["greedy", "permutation"])
@given(
    shape=st.sampled_from(("duplicates", "out-of-span", "float")),
    n=st.integers(min_value=1, max_value=20),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_greedy_and_permutation_serve_online(name, shape, n, seed):
    # no choice reads a later request: for every split t, the first t ids of
    # a sequence are those its first t requests get alone, and one pool
    # served the two parts in two calls serves the whole as one call does
    instance = validate_instance(*make_case(shape, n, random.Random(seed)))
    servers, requests = integer_image(instance)
    whole = make_subroutine(name, servers).serve(requests)
    for t in range(n + 1):
        assert make_subroutine(name, servers).serve(requests[:t]) == whole[:t]
        sub = make_subroutine(name, servers)
        assert sub.serve(requests[:t]) + sub.serve(requests[t:]) == whole


@st.composite
def priced_states(draw):
    """A Permutation's state at its t-th request: t sorted requests seen,
    t - 1 sorted used positions, and the two candidates L <= H, each drawn
    from a small range (ties) or from the used positions."""
    coord = st.integers(min_value=-6, max_value=6)
    t = draw(st.integers(min_value=1, max_value=10))
    history = sorted(draw(st.lists(coord, min_size=t, max_size=t)))
    used = sorted(draw(st.lists(coord, min_size=t - 1, max_size=t - 1)))
    pick = st.one_of(coord, st.sampled_from(used)) if used else coord
    low, high = sorted((draw(pick), draw(pick)))
    return history, used, low, high


@given(priced_states())
@example(([3], [], 1, 5))  # t = 1
@example(([0, 2, 2, 7], [1, 2, 9], 2, 2))  # a == b; L and H used positions
@example(([1, 1, 1], [1, 4], 1, 4))  # ties in history; L and H used
@example(([0, 5, 5, 6], [2, 3, 5], 1, 6))  # a window of every used slot
def test_window_price_decides_as_the_two_full_sums(state):
    history, used, low, high = state
    # the price before the window: the whole sorted history against the
    # sorted used positions plus the candidate, for each candidate
    full = [
        sum(abs(h - u) for h, u in zip(history, sorted(used + [s]))) for s in (low, high)
    ]
    sub = Permutation([0])
    sub.history, sub.used = list(history), list(used)
    assert sub._lower_wins(low, high) == (full[0] <= full[1])
    assert (sub.history, sub.used) == (history, used)


def test_permutation_exact_on_integers_beyond_float_precision():
    # sums past 2**53 (RESCALE's n^3 scaling lifts 10**15 there); the
    # running optimum must stay an exact integer
    from matchline.divide import rescale_run
    from matchline.experiment import run_algorithm
    from matchline.generators import gen_uniform

    inst = gen_uniform(3, (0, 10**15), 0, integer_mode=True)
    assert rescale_run(inst, 1, "permutation").matching.cost >= monotone_optimal(inst).cost
    inst = gen_uniform(3, (0, 10**17), 0, integer_mode=True)
    assert run_algorithm(inst, "permutation")["cost"] >= monotone_optimal(inst).cost


def test_permutation_on_large_float_coordinates():
    from matchline.experiment import run_algorithm
    from matchline.generators import gen_uniform

    inst = gen_uniform(4, (0.0, 1e15), 7)
    outcome = run_algorithm(inst, "permutation")
    assert outcome["cost"] >= monotone_optimal(inst).cost


@pytest.mark.parametrize("algo", ["greedy", "permutation"])
def test_greedy_and_permutation_take_the_nearer_server_past_2_53(algo):
    # the first request, 0.5, lies 2^60 - 0.5 from server 1 and 2^60 + 1.5
    # from server 0; as floats both distances round to 2^60, and the tie
    # once went down to server 0
    from matchline.experiment import run_algorithm

    big = 2**60
    inst = validate_instance([-big - 1, big, big + 7], [0.5, big + 7, big])
    outcome = run_algorithm(inst, algo)
    assert outcome["matching"].assignment == (1, 2, 0)
    # (2^60 - 0.5) + 0 + (2^61 + 1), rounded once
    assert outcome["cost"] == float(Fraction(6 * big + 1, 2))


@pytest.mark.parametrize("name", SUBROUTINE_NAMES)
def test_pools_refuse_ids_of_another_length(name):
    # zip would truncate the pool: greedy once served 7 from [1, 2, 3] and
    # then ran out of servers
    with pytest.raises(ValueError, match="3 servers but 1 ids"):
        make_subroutine(name, [1, 2, 3], ids=[7])
    with pytest.raises(ValueError, match="1 servers but 2 ids"):
        make_subroutine(name, [1], ids=[7, 8])


@pytest.mark.parametrize(
    "name, servers, ids, sealed, match",
    [
        # a pool sorts nothing: servers out of (position, id) order, by
        # position or by id at one position, are refused, not reordered
        *(
            (name, servers, ids, [3, 8, 3, 5] if name == "clairvoyant" else None, "order")
            for name in SUBROUTINE_NAMES
            for servers, ids in (
                ([7, 3, 3, 9], [40, 12, 10, 31]),
                ([3, 3, 7, 9], [12, 10, 40, 31]),
                ([3, 3, 7, 9], [10, 10, 40, 31]),
                ([2, 1], None),
            )
        ),
        # greedy and permutation serve until their pool runs out: the
        # request past it is refused
        ("greedy", [1, 2], None, [5, 6, 7], "no available server"),
        ("permutation", [1, 2], None, [5, 6, 7], "no available server"),
        # clairvoyant is served its block's whole sequence, sealed: its plan's
        # ranks are the whole pool's, so a shorter sequence would be served
        # the pool's lowest servers: the server at 1 for the request at 100
        ("clairvoyant", [1], None, [1, 2], "longer than the pool"),
        ("clairvoyant", [1, 100], None, [100], "shorter than the pool"),
    ],
)
def test_make_subroutine_refuses(name, servers, ids, sealed, match):
    # sealed: the sequence the pool is then served
    with pytest.raises(SubroutineError, match=match):
        make_subroutine(name, servers, ids).serve(sealed)
