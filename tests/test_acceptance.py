"""Acceptance suite: one check per headline property, one summary line each.

Each test records a single PASS/FAIL line (echoed in the terminal summary,
and immediately under -s) and then asserts. The properties themselves are
the predicates and suites of ``matchline.verification``, run here at larger
sizes than ``matchline verify`` uses. Heavier shared suites are built once
per session.
"""

import math
import sys
from fractions import Fraction

import pytest

import conftest
from exact_cost import exact_cost

from matchline import verification
from matchline.divide import divide_run, rescale_run
from matchline.generators import gen_family, gen_uniform, rho_zero
from matchline.lr import lr_oracle, lr_run
from matchline.model import validate_instance
from matchline.offline import brute_force_optimal, monotone_optimal


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


def drawn_sizes_and_seeds(monkeypatch) -> list:
    """Record the (n, seed) of every instance the verification suites draw."""
    drawn = []

    def recording(n, position_range, seed, *args, **kwargs):
        drawn.append((n, seed))
        return gen_uniform(n, position_range, seed, *args, **kwargs)

    monkeypatch.setattr(verification, "gen_uniform", recording)
    return drawn


def test_01_lr_optimality(monkeypatch):
    drawn = drawn_sizes_and_seeds(monkeypatch)
    ok = verification.verify_lr_optimal(n_max=10, seeds=500) == 0
    assert drawn == [(n, seed) for n in range(2, 11) for seed in range(500)]
    report("1 LR optimality and bit budget (500 seeds, n=2..10)", ok)
    assert ok


def test_02_lr_bit_tightness_on_family():
    ok = True
    for n in range(2, 9):
        for member in gen_family(n):
            instance = member.instance()
            result = lr_run(instance, lr_oracle(instance))
            if not verification.lr_is_optimal(result, brute_cost(instance)):
                ok = False
        rho = validate_instance(list(range(1, n + 1)), rho_zero(n))
        if lr_run(rho, lr_oracle(rho)).bits_read != n - 1:
            ok = False
    report("2 LR optimal on the hard family; n-1 bits on rho_0 (n=2..8)", ok)
    assert ok


def test_03_family_structure():
    # cardinality and distinct oracle tapes for n = 1..12, the forced
    # top-server assignment for n = 2..12
    ok = verification.verify_family_suite(n_max=12) == 0
    report(
        "3 family cardinality 2^(n-1), one distinct (n-1)-bit oracle tape per member, "
        "forced top-server assignment",
        ok,
    )
    assert ok


def test_04_divide_exactness(divide_suite):
    ok = all(
        verification.divide_is_exact(result, opt) for _, _, result, opt in divide_suite
    )
    report(
        "4 DIVIDE_k exact with clairvoyant A (200 seeds per n=2..10, k=1..n; "
        "requests in and out of span)",
        ok,
    )
    assert ok


def test_05_advice_budget(divide_suite):
    ok = all(verification.advice_within_budget(result) for _, _, result, _ in divide_suite)
    report(
        "5 advice budget <= (k-1)(w(N) + 2w(n)), one q word per boundary; k=1 reads 0",
        ok,
    )
    assert ok


def test_06_decomposition_identity(decomposition_suite):
    ok = all(
        result.matching.cost == result.lr_cost + sum(result.block_costs)
        for _, _, result in decomposition_suite
    )
    report("6 cost decomposes into LR part plus per-block A parts", ok)
    assert ok


def test_07_marking_invariants(divide_suite, decomposition_suite):
    ok = all(
        verification.marking_is_consistent(result) for _, _, result, _ in divide_suite
    ) and all(
        verification.marking_is_consistent(result)
        for _, _, result in decomposition_suite
    )
    report("7 marked sets disjoint; per-block unmarked counts conserved", ok)
    assert ok


def test_08_rescale_consistency():
    ok = True
    for n in range(2, 9):
        slack = Fraction(1, n * n)  # n * n^-3
        for seed in range(15):
            for request_range in ("span", (-10.0, 20.0)):
                instance = gen_uniform(n, (0.0, 10.0), seed, request_range=request_range)
                bound = exact_cost(instance, brute_force_optimal(instance).assignment) + slack
                for k in (1, 2, n):
                    matching = rescale_run(instance, k, "clairvoyant").matching
                    if exact_cost(instance, matching.assignment) > bound:
                        ok = False
    for seed in range(25):
        for request_range in ("span", (-18, 36)):
            instance = gen_uniform(
                6, (0, 18), seed, integer_mode=True, request_range=request_range
            )
            for k in (1, 3, 6):
                if (
                    rescale_run(instance, k, "clairvoyant").matching.cost
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
            if monotone_optimal(real).cost != brute_force_optimal(real).cost:
                ok = False
    report("9 monotone optimum equals brute force (1000+ instances, n=2..8)", ok)
    assert ok


def test_10_order_structure_of_optima(monkeypatch):
    drawn = drawn_sizes_and_seeds(monkeypatch)
    ok = verification.verify_order_properties(n_max=7, seeds=34) == 0
    assert len(drawn) == 204
    assert drawn == [(n, seed) for n in range(2, 8) for seed in range(34)]
    report("10 order structure of optima; switches preserve cost", ok)
    assert ok
