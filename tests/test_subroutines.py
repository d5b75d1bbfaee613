from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from matchline.model import validate_instance
from matchline.offline import monotone_cost, monotone_optimal
from matchline.subroutines import (
    SUBROUTINE_NAMES,
    SubroutineError,
    make_subroutine,
)
from ordered_pool import in_order


def test_greedy_picks_nearest():
    sub = make_subroutine("greedy", [0, 10], sealed=None)
    assert sub.serve(4) == 0


def test_greedy_tie_breaks_left():
    sub = make_subroutine("greedy", [3, 5])
    assert sub.serve(4) == 0  # server at 3


def test_greedy_forced_last_server():
    sub = make_subroutine("greedy", [7])
    assert sub.serve(100) == 0


def test_greedy_never_reuses():
    sub = make_subroutine("greedy", [1, 2, 3])
    used = {sub.serve(2), sub.serve(2), sub.serve(2)}
    assert used == {0, 1, 2}
    with pytest.raises(SubroutineError):
        sub.serve(2)


def test_permutation_single_request_optimum():
    sub = make_subroutine("permutation", [1, 2])
    assert sub.serve(1.6) == 1  # |1.6-2| < |1.6-1|


def test_permutation_serves_newly_used_server():
    sub = make_subroutine("permutation", [1, 2])
    assert sub.serve(1.6) == 1
    assert sub.serve(0.9) == 0


def test_permutation_singleton_pool():
    sub = make_subroutine("permutation", [5])
    assert sub.serve(123) == 0
    with pytest.raises(SubroutineError, match="no available server"):
        sub.serve(5)


def test_permutation_respects_custom_ids():
    sub = make_subroutine("permutation", [10, 20], ids=[7, 9])
    assert sub.serve(19) == 9


def test_clairvoyant_replays_offline_optimum():
    sub = make_subroutine("clairvoyant", [3, 4], sealed=[4, 3])
    assert sub.serve(4) == 1
    assert sub.serve(3) == 0


def test_clairvoyant_monotone_on_geometric_block():
    sealed = [2.5, 2.75, 2.875]
    sub = make_subroutine("clairvoyant", [1, 2, 3], sealed=sealed)
    assert [sub.serve(r) for r in sealed] == [0, 1, 2]


def test_clairvoyant_rejects_unsealed_request():
    sub = make_subroutine("clairvoyant", [1, 2], sealed=[1, 2])
    with pytest.raises(SubroutineError):
        sub.serve(5)


def test_clairvoyant_rejects_requests_beyond_sealed():
    sub = make_subroutine("clairvoyant", [1], sealed=[1])
    sub.serve(1)
    with pytest.raises(SubroutineError):
        sub.serve(1)


def test_clairvoyant_requires_sealed_sequence():
    with pytest.raises(SubroutineError):
        make_subroutine("clairvoyant", [1, 2])


def test_unknown_name_rejected():
    with pytest.raises(SubroutineError):
        make_subroutine("oracle", [1])


def test_clairvoyant_cost_is_block_optimal():
    servers = [1, 4, 9, 12]
    sealed = [11, 2, 2, 7]
    sub = make_subroutine("clairvoyant", servers, sealed=sealed)
    cost = sum(abs(r - servers[sub.serve(r)]) for r in sealed)
    assert cost == monotone_cost(servers, sealed)


def test_greedy_cost_at_least_optimal():
    servers = [1, 2, 3, 4]
    requests = [4, 3, 2, 1]
    inst = validate_instance(servers, requests)
    sub = make_subroutine("greedy", servers)
    cost = sum(abs(r - servers[sub.serve(r)]) for r in requests)
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
    sealed = requests if name == "clairvoyant" else None
    sub = make_subroutine(name, *in_order(servers), sealed=sealed)
    served = [sub.serve(r) for r in requests]
    assert sorted(served) == sorted(range(n))  # injective, within the pool


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
    sealed = [2] if name == "clairvoyant" else None
    with pytest.raises(ValueError, match="3 servers but 1 ids"):
        make_subroutine(name, [1, 2, 3], ids=[7], sealed=sealed)
    with pytest.raises(ValueError, match="1 servers but 2 ids"):
        make_subroutine(name, [1], ids=[7, 8], sealed=sealed)


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
        # greedy and permutation are online: neither reads the future
        ("greedy", [1, 2], None, [5, 6], "takes no sealed"),
        ("permutation", [1, 2], None, [5, 6], "takes no sealed"),
        ("clairvoyant", [1], None, [1, 2], "longer than the pool"),
        # a shorter sealed sequence would be served the pool's lowest
        # servers: the server at 1 for the request at 100
        ("clairvoyant", [1, 100], None, [100], "shorter than the pool"),
    ],
)
def test_make_subroutine_refuses(name, servers, ids, sealed, match):
    with pytest.raises(SubroutineError, match=match):
        make_subroutine(name, servers, ids, sealed)
