"""Acceptance suite: one check per headline property, one summary line each.

Each test records a single PASS/FAIL line (echoed in the terminal summary,
and immediately under -s) and then asserts. Heavier shared suites are built
once per session.
"""

import math
import sys

import pytest

import conftest

from matchline.divide import divide_run, rescale_run
from matchline.generators import gen_family, gen_uniform, rho_zero, verify_family
from matchline.lr import lr_oracle, lr_run
from matchline.model import validate_instance
from matchline.offline import (
    all_optimal_assignments,
    apply_switch,
    brute_force_optimal,
    monotone_optimal,
    order_condition_violations,
)
from matchline.tape import word_width


def report(name: str, ok: bool) -> None:
    line = f"acceptance: {name}: {'PASS' if ok else 'FAIL'}"
    conftest.ACCEPTANCE_LINES.append(line)
    sys.stdout.write(line + "\n")


_brute_cache: dict = {}


def brute_cost(instance):
    key = (instance.servers, instance.requests)
    if key not in _brute_cache:
        _brute_cache[key] = brute_force_optimal(instance).cost
    return _brute_cache[key]


@pytest.fixture(scope="module")
def divide_suite():
    """All divide runs for the exactness grid: 200 seeds per (n, k), each
    with requests inside the servers' span and far outside it."""
    records = []
    for n in range(2, 11):
        for seed in range(200):
            for request_range in ("span", (-3 * n, 6 * n)):
                instance = gen_uniform(
                    n, (0, 3 * n), seed, integer_mode=True, request_range=request_range
                )
                opt = brute_cost(instance)
                for k in range(1, n + 1):
                    result = divide_run(instance, k, "clairvoyant")
                    records.append((instance, k, result, opt))
    return records


@pytest.fixture(scope="module")
def decomposition_suite():
    records = []
    for n in range(4, 11):
        ks = sorted({2, math.ceil(n / 2), n})
        for seed in range(15):
            instance = gen_uniform(
                n, (0, 3 * n), seed, integer_mode=True, request_range="span"
            )
            for k in ks:
                for sub in ("greedy", "permutation", "clairvoyant"):
                    records.append((instance, k, divide_run(instance, k, sub)))
    return records


def test_01_lr_optimality():
    ok = True
    for n in range(2, 11):
        for seed in range(500):
            instance = gen_uniform(n, (0, 4 * n), seed, integer_mode=True)
            result = lr_run(instance, lr_oracle(instance))
            if result.matching.cost != brute_cost(instance) or result.bits_read > n - 1:
                ok = False
    report("1 LR optimality and bit budget (500 seeds, n=2..10)", ok)
    assert ok


def test_02_lr_bit_tightness_on_family():
    ok = True
    for n in range(2, 9):
        for member in gen_family(n):
            instance = member.instance()
            result = lr_run(instance, lr_oracle(instance))
            if result.matching.cost != pytest.approx(brute_cost(instance), abs=1e-9):
                ok = False
        rho = validate_instance(list(range(1, n + 1)), rho_zero(n))
        if lr_run(rho, lr_oracle(rho)).bits_read != n - 1:
            ok = False
    report("2 LR optimal on the hard family; n-1 bits on rho_0 (n=2..8)", ok)
    assert ok


def test_03_family_structure():
    ok = all(len(gen_family(n)) == 2 ** (n - 1) for n in range(1, 13))
    for n in range(2, 9):
        if not all(check.ok for check in verify_family(n)):
            ok = False
    report("3 family cardinality 2^(n-1) and forced top-server assignment", ok)
    assert ok


def test_04_divide_exactness(divide_suite):
    ok = all(result.matching.cost == opt for _, _, result, opt in divide_suite)
    report(
        "4 DIVIDE_k exact with clairvoyant A (200 seeds per n=2..10, k=1..n; "
        "requests in and out of span)",
        ok,
    )
    assert ok


def test_05_advice_budget(divide_suite):
    ok = True
    for instance, k, result, _ in divide_suite:
        budget = 2 * (k - 1) * word_width(instance.span_bound) + 4 * (
            k - 1
        ) * word_width(instance.n)
        if result.oracle_bits_read > budget:
            ok = False
        if k == 1 and result.oracle_bits_read != 0:
            ok = False
    report("5 advice budget <= 2(k-1)w(N) + 4(k-1)w(n); k=1 reads 0", ok)
    assert ok


def test_06_decomposition_identity(decomposition_suite):
    ok = all(
        result.matching.cost == result.lr_cost + sum(result.block_costs)
        for _, _, result in decomposition_suite
    )
    report("6 cost decomposes into LR part plus per-block A parts", ok)
    assert ok


def _marking_invariants_hold(instance, result):
    if result.marks.marked_left & result.marks.marked_right:
        return False
    for b, (start, stop) in enumerate(result.plan.groups):
        unmarked_servers = sum(
            1 for j in range(start, stop) if j not in result.marks.marked
        )
        unmarked_requests = sum(
            1 for verdict, blk in result.verdicts if verdict == "block" and blk == b
        )
        if unmarked_requests != unmarked_servers:
            return False
    return True


def test_07_marking_invariants(divide_suite, decomposition_suite):
    ok = all(
        _marking_invariants_hold(instance, result)
        for instance, _, result, _ in divide_suite
    ) and all(
        _marking_invariants_hold(instance, result)
        for instance, _, result in decomposition_suite
    )
    report("7 marked sets disjoint; per-block unmarked counts conserved", ok)
    assert ok


def test_08_rescale_consistency():
    ok = True
    for n in range(2, 9):
        slack = n * n**-3
        for seed in range(15):
            for request_range in ("span", (-10.0, 20.0)):
                instance = gen_uniform(n, (0.0, 10.0), seed, request_range=request_range)
                for k in (1, 2, n):
                    result = rescale_run(instance, k, "clairvoyant")
                    if result.cost > brute_cost(instance) + slack + 1e-9:
                        ok = False
    for seed in range(25):
        for request_range in ("span", (-18, 36)):
            instance = gen_uniform(
                6, (0, 18), seed, integer_mode=True, request_range=request_range
            )
            for k in (1, 3, 6):
                if (
                    rescale_run(instance, k, "clairvoyant").cost
                    != divide_run(instance, k, "clairvoyant").matching.cost
                ):
                    ok = False
    report(
        "8 RESCALE within n^-2 slack on reals; exact match on integers "
        "(requests in and out of span)",
        ok,
    )
    assert ok


def test_09_oracle_equivalence():
    ok = True
    for n in range(2, 9):
        for seed in range(72):
            instance = gen_uniform(n, (0, 4 * n), seed, integer_mode=True)
            if monotone_optimal(instance).cost != brute_cost(instance):
                ok = False
            real = gen_uniform(n, (0.0, 20.0), seed)
            if monotone_optimal(real).cost != pytest.approx(
                brute_force_optimal(real).cost, abs=1e-9
            ):
                ok = False
    report("9 monotone optimum equals brute force (1000+ instances, n=2..8)", ok)
    assert ok


def test_10_order_structure_of_optima():
    ok = True
    count = 0
    for n in range(2, 8):
        for seed in range(34):
            count += 1
            instance = gen_uniform(n, (0, 3 * n), seed, integer_mode=True)
            for perm in all_optimal_assignments(instance):
                if order_condition_violations(instance, perm):
                    ok = False
            matching = monotone_optimal(instance)
            for i in range(n):
                for j in range(i + 1, n):
                    ri, rj = instance.requests[i], instance.requests[j]
                    si = instance.servers[matching.assignment[i]]
                    sj = instance.servers[matching.assignment[j]]
                    if max(ri, rj) <= min(si, sj) or min(ri, rj) >= max(si, sj):
                        if apply_switch(instance, matching, i, j).cost != matching.cost:
                            ok = False
    assert count == 204
    report("10 order structure of optima; switches preserve cost", ok)
    assert ok
