import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from exact_cost import exact_cost
from lr_partition import classify_lr
from matchline.generators import gen_uniform
from matchline.model import make_matching, validate_instance
from matchline.offline import (
    BRUTE_FORCE_MAX_N,
    OracleError,
    _moves,
    all_optimal_assignments,
    apply_switch,
    brute_force_optimal,
    enumerate_assignments,
    monotone_assignment,
    monotone_cost,
    monotone_optimal,
    monotone_order,
    order_condition_violations,
)


def test_brute_force_symmetric_pair():
    inst = validate_instance([1, 2], [1.5, 1.5])
    assert brute_force_optimal(inst).cost == 1


def test_brute_force_hand_enumeration():
    inst = validate_instance([1, 2, 3], [2.5, 2.75, 2.875])
    assert brute_force_optimal(inst).cost == pytest.approx(2.375)


def test_brute_force_duplicate_requests():
    inst = validate_instance([1, 2, 3, 4], [3, 3, 1, 4])
    # 1->s1, 3->s2, 3->s3, 4->s4
    assert brute_force_optimal(inst).cost == 1


def test_brute_force_rejects_large_n():
    inst = validate_instance(list(range(1, 15)), list(range(14)))
    with pytest.raises(OracleError):
        brute_force_optimal(inst)


def test_move_table_lists_every_move_once_after_its_successor():
    # every (subset, free server) pair once, n * 2^(n-1) in all, each subset
    # in the layer of its popcount, and each successor finished before the
    # subsets that read it
    for n in range(1, BRUTE_FORCE_MAX_N + 1):
        full = (1 << n) - 1
        finished, pairs, moves = {full}, set(), 0
        for k, subsets in _moves(n):
            for mask, j, successor, rest in subsets:
                assert mask.bit_count() == k and mask not in finished, (n, mask)
                for j, successor in ((j, successor), *rest):
                    assert not mask >> j & 1 and successor == mask | 1 << j, (n, mask, j)
                    assert successor in finished, (n, mask, j)
                    pairs.add((mask, j))
                    moves += 1
                finished.add(mask)
        assert moves == len(pairs) == n << (n - 1), n
        assert len(finished) == full + 1, n


def test_no_move_table_is_built_at_import():
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import matchline.cli, matchline.offline as o; print(o._moves.cache_info().currsize)"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.stdout == "0\n", done.stderr


def test_brute_force_matches_literal_enumeration():
    for seed in range(30):
        inst = gen_uniform(5, (0, 20), seed, integer_mode=True)
        literal = min(make_matching(inst, p).cost for p in enumerate_assignments(inst))
        assert brute_force_optimal(inst).cost == literal


def test_brute_force_prefers_lexicographic_ties():
    inst = validate_instance([0, 10], [5, 5])
    assert brute_force_optimal(inst).assignment == (0, 1)


def test_brute_force_ties_split_by_rounding_resolve_lexicographically():
    # both requests lie right of both servers, so both assignments cost the
    # same in exact arithmetic; at 1e15 their float sums round 1/16 apart,
    # and the exact costs are one float, the exact cost rounded once
    inst = validate_instance(
        [112957170176163.03, 130852166903432.48],
        [597260890246121, 178045423525621.03],
    )
    exact = exact_cost(inst, [0, 1])
    assert exact == exact_cost(inst, [1, 0])
    assert make_matching(inst, [0, 1]).cost == make_matching(inst, [1, 0]).cost == float(exact)
    assert brute_force_optimal(inst).assignment == (0, 1)
    assert all_optimal_assignments(inst) == [(0, 1), (1, 0)]


def test_monotone_duplicate_requests():
    inst = validate_instance([1, 2, 3, 4], [3, 3, 1, 4])
    m = monotone_optimal(inst)
    assert m.assignment == (1, 2, 0, 3)
    assert m.cost == 1


def test_monotone_singleton():
    inst = validate_instance([5], [5])
    assert monotone_optimal(inst).cost == 0


def test_monotone_identity_on_sorted_requests():
    inst = validate_instance([1, 2, 3], [2.5, 2.75, 2.875])
    m = monotone_optimal(inst)
    assert m.assignment == (0, 1, 2)
    assert m.cost == pytest.approx(2.375)


def test_monotone_tie_rule_follows_arrival_order():
    # equal requests take increasing server indices in arrival order
    assignment = monotone_assignment([7, 7, 7])
    assert assignment == [0, 1, 2]
    assignment = monotone_assignment([7, 3, 7])
    assert assignment == [1, 0, 2]


@given(st.integers(min_value=1, max_value=40), st.data())
def test_monotone_assignment_inverts_monotone_order(n, data):
    # the duplicates shape: n requests on the max(1, n // 3) + 1 positions
    # 0..max(1, n // 3), so most positions are shared
    top = max(1, n // 3)
    requests = data.draw(st.lists(st.integers(0, top), min_size=n, max_size=n))
    order = monotone_order(requests)
    assignment = monotone_assignment(requests)
    assert sorted(order) == list(range(n))
    assert [assignment[t] for t in order] == list(range(n))
    # by position, and equal positions in arrival order
    ranked = [(requests[t], t) for t in order]
    assert ranked == sorted(ranked)


def test_monotone_cost_on_pools():
    assert monotone_cost([1, 2, 3], [3, 1, 2]) == 0
    assert monotone_cost([0, 10], [5, 5]) == 10


def test_monotone_cost_refuses_pools_of_unequal_size():
    # zip used to truncate: three servers against one request cost 0
    for servers, requests in (([1, 2, 3], [1]), ([1], [1, 2]), ([], [4])):
        with pytest.raises(OracleError, match="unequal size"):
            monotone_cost(servers, requests)


def test_classify_lr_straddle():
    inst = validate_instance([0, 10], [4, 6])
    m = monotone_optimal(inst)
    part = classify_lr(inst, m)
    assert part.left_set == frozenset({0})
    assert part.right_set == frozenset({1})


def test_classify_lr_on_server_counts_left():
    inst = validate_instance([4], [4])
    part = classify_lr(inst, monotone_optimal(inst))
    assert part.left_set == frozenset({0})


def test_classify_lr_monotone_example():
    inst = validate_instance([1, 2, 3], [2.5, 2.75, 2.875])
    part = classify_lr(inst, monotone_optimal(inst))
    assert part.left_set == frozenset({0, 1})
    assert part.right_set == frozenset({2})


def test_switch_both_requests_left_of_servers():
    inst = validate_instance([5, 6], [1, 2])
    m = monotone_optimal(inst)
    swapped = apply_switch(inst, m, 0, 1)
    assert swapped.cost == m.cost == 8
    assert swapped.assignment != m.assignment


def test_switch_both_requests_right_of_servers():
    inst = validate_instance([1, 2], [5, 6])
    m = monotone_optimal(inst)
    assert apply_switch(inst, m, 0, 1).cost == 8


def test_switch_rejects_straddling_pair():
    inst = validate_instance([1, 10], [2, 9])
    m = monotone_optimal(inst)
    with pytest.raises(OracleError):
        apply_switch(inst, m, 0, 1)


def test_order_violations_empty_on_optima():
    for seed in range(20):
        inst = gen_uniform(5, (0, 15), seed, integer_mode=True)
        for perm in all_optimal_assignments(inst):
            assert order_condition_violations(inst, perm) == []


def test_order_violations_flag_bad_matchings():
    # r0=0 matched far right across r1's server: a detectable crossing
    inst = validate_instance([1, 10], [0, 9])
    assert order_condition_violations(inst, [1, 0])
    # the mirror: r0 = 11 matched far left across r1's server
    inst = validate_instance([1, 10], [11, 2])
    assert order_condition_violations(inst, [0, 1]) == [(0, 1)]


def test_monotone_equals_brute_force_to_the_last_bit_on_floats():
    # both optima are exact totals on the integer image, each rounded once;
    # as float sums in their own orders they differed in the last bits on
    # 397 of these 2 000 instances
    for seed in range(2000):
        inst = gen_uniform(6, (0.0, 1e6), seed)
        assert monotone_optimal(inst).cost == brute_force_optimal(inst).cost


@given(st.integers(min_value=2, max_value=6), st.data())
def test_monotone_equals_brute_force(n, data):
    coords = st.integers(min_value=0, max_value=30)
    servers = data.draw(st.lists(coords, min_size=n, max_size=n))
    requests = data.draw(st.lists(coords, min_size=n, max_size=n))
    inst = validate_instance(servers, requests)
    assert monotone_optimal(inst).cost == brute_force_optimal(inst).cost
