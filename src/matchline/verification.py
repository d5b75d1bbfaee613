"""The checkable properties, and the suites behind ``matchline verify``.

Each property is one predicate on a run or an instance. The suites run them
over seeded grids (the family suite over every member, so it takes no seeds)
and return the number of failed checks (0 = pass); the CLI sizes the grids
for quick runs, and the pytest acceptance module calls the same predicates
and suites at its larger sizes.
"""

from __future__ import annotations

from .divide import DivideResult, divide_run
from .generators import VERIFY_FAMILY_MAX_N, gen_family, gen_uniform, verify_family
from .lr import LRResult, lr_oracle, lr_run
from .model import Instance
from .offline import (
    BRUTE_FORCE_MAX_N,
    OracleError,
    all_optimal_assignments,
    apply_switch,
    brute_force_optimal,
    monotone_optimal,
    order_condition_violations,
    switch_allowed,
)
from .tape import word_width


#: the largest n the props suite checks: it enumerates all n! assignments
PROPS_MAX_N = 7
#: the largest n the family suite checks the cardinality and oracle tapes at;
#: the forced top server is checked up to VERIFY_FAMILY_MAX_N
FAMILY_SUITE_MAX_N = 12


def _noop(*_args, **_kwargs):
    pass


def _check_n_max(n_max: int, cap: int) -> None:
    """Reject a grid past the suite's cap before any work."""
    if n_max > cap:
        raise OracleError(f"n_max={n_max} too large: this suite checks n <= {cap}")


def lr_is_optimal(result: LRResult, opt) -> bool:
    """LR's matching costs the optimum and it read at most n - 1 bits."""
    n = len(result.matching.assignment)
    return result.matching.cost == opt and result.bits_read <= n - 1


def divide_is_exact(result: DivideResult, opt) -> bool:
    """DIVIDE_k's matching costs the optimum."""
    return result.matching.cost == opt


def advice_within_budget(result: DivideResult) -> bool:
    """DIVIDE_k read at most (k-1)(w(N) + 2w(n)) bits, none at k = 1."""
    k, N, n = result.plan.k, result.plan.span_bound, result.plan.n
    return result.oracle_bits_read <= (k - 1) * (word_width(N) + 2 * word_width(n))


def family_tapes_are_distinct(n: int) -> bool:
    """lr_oracle maps I_n one-to-one onto {0,1}^(n-1): I_n has 2^(n-1)
    members, each gets a tape of exactly n - 1 bits that LR reads whole, and
    no two members share one."""
    members, tapes = gen_family(n), set()
    for member in members:
        instance = member.instance()
        tape = lr_oracle(instance)
        if len(tape) != n - 1 or lr_run(instance, tape).bits_read != n - 1:
            return False
        tapes.add(tape.bits)
    return len(tapes) == len(members) == 2 ** (n - 1)


def marking_is_consistent(result: DivideResult) -> bool:
    """The two marked sets are disjoint, and each block's subroutine got as
    many requests as its group has unmarked servers."""
    marks = result.marks
    if marks.marked_left & marks.marked_right:
        return False
    marked = marks.marked
    return all(
        sum(1 for j in range(start, stop) if j not in marked) == len(own)
        for (start, stop), own in zip(result.plan.groups, result.arrivals)
    )


def optima_are_ordered(instance: Instance) -> bool:
    """No optimal matching violates the order condition."""
    return not any(
        order_condition_violations(instance, perm)
        for perm in all_optimal_assignments(instance)
    )


def switches_preserve_cost(instance: Instance) -> bool:
    """Every allowed switch of the monotone optimum keeps its cost."""
    matching = monotone_optimal(instance)
    n = instance.n
    return all(
        apply_switch(instance, matching, i, j).cost == matching.cost
        for i in range(n)
        for j in range(i + 1, n)
        if switch_allowed(instance, matching, i, j)
    )


def verify_lr_optimal(n_max: int = 8, seeds: int = 50, log=_noop) -> int:
    """LR with oracle advice is exactly optimal and reads <= n-1 bits."""
    _check_n_max(n_max, BRUTE_FORCE_MAX_N)
    failures = 0
    for n in range(2, n_max + 1):
        for seed in range(seeds):
            instance = gen_uniform(n, (0, 4 * n), seed, integer_mode=True)
            result = lr_run(instance, lr_oracle(instance))
            opt = brute_force_optimal(instance).cost
            if not lr_is_optimal(result, opt):
                failures += 1
                log(f"  FAIL n={n} seed={seed}: cost={result.matching.cost} opt={opt}")
        log(f"  lr-optimal n={n}: {seeds} instances checked")
    return failures


def verify_divide_exact(n_max: int = 8, seeds: int = 30, log=_noop) -> int:
    """DIVIDE_k with the clairvoyant subroutine matches the exact optimum,
    within its advice budget, with consistent marking."""
    _check_n_max(n_max, BRUTE_FORCE_MAX_N)
    failures = 0
    for n in range(2, n_max + 1):
        for seed in range(seeds):
            instance = gen_uniform(
                n, (0, 4 * n), seed, integer_mode=True, request_range="span"
            )
            opt = brute_force_optimal(instance).cost
            for k in range(1, n + 1):
                result = divide_run(instance, k, "clairvoyant")
                for name, ok in (
                    ("cost", divide_is_exact(result, opt)),
                    ("budget", advice_within_budget(result)),
                    ("marking", marking_is_consistent(result)),
                ):
                    if not ok:
                        failures += 1
                        log(
                            f"  FAIL {name} n={n} k={k} seed={seed}: "
                            f"cost={result.matching.cost} opt={opt}"
                        )
        log(f"  divide-exact n={n}: all k, {seeds} instances each")
    return failures


def verify_family_suite(n_max: int = 8, log=_noop) -> int:
    """Family cardinality with one distinct oracle tape per member, and the
    forced top-server assignment, on every member."""
    _check_n_max(n_max, FAMILY_SUITE_MAX_N)
    failures = 0
    for n in range(1, n_max + 1):
        if not family_tapes_are_distinct(n):
            failures += 1
            log(f"  FAIL cardinality or oracle tapes at n={n}")
    for n in range(2, min(n_max, VERIFY_FAMILY_MAX_N) + 1):
        bad = [c for c in verify_family(n) if not c.ok]
        failures += len(bad)
        log(f"  family n={n}: {2 ** (n - 1)} members, {len(bad)} failures")
    return failures


def verify_order_properties(n_max: int = 6, seeds: int = 30, log=_noop) -> int:
    """Order structure of optima and cost-preserving switches."""
    _check_n_max(n_max, PROPS_MAX_N)
    failures = 0
    for n in range(2, n_max + 1):
        for seed in range(seeds):
            instance = gen_uniform(n, (0, 3 * n), seed, integer_mode=True)
            for name, ok in (
                ("order", optima_are_ordered(instance)),
                ("switch", switches_preserve_cost(instance)),
            ):
                if not ok:
                    failures += 1
                    log(f"  FAIL {name} property n={n} seed={seed}")
        log(f"  props n={n}: {seeds} instances checked")
    return failures
