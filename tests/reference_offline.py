"""The exhaustive oracles as they were before the distance table: the subset
DP recomputes ``abs(r - servers[j])`` and tests every server against the
mask at each step, and the enumeration prices each permutation through
``total_cost``, the pricing function the package then had, kept here with
them. Kept verbatim as the differential reference for
``matchline.offline.brute_force_optimal`` and
``matchline.offline.all_optimal_assignments``; nothing in the package uses
it.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from matchline.model import Instance, InstanceError, Matching
from matchline.offline import OracleError
from reference_common import costs_equal, make_matching

BRUTE_FORCE_MAX_N = 12


def brute_force_optimal(instance: Instance) -> Matching:
    """Minimum-cost matching over all permutations.

    Cost ties (equal under ``costs_equal``) are broken toward the
    lexicographically smallest permutation so the output is deterministic.
    The subset DP explores exactly the space of all bijections;
    ``enumerate_assignments`` is the literal factorial loop used to validate
    it on small inputs.
    """
    n = instance.n
    if n > BRUTE_FORCE_MAX_N:
        raise OracleError(f"n={n} too large for exhaustive optimum")
    servers, requests = instance.servers, instance.requests

    full = (1 << n) - 1
    # best[mask] = optimal cost of matching requests[popcount(mask):] to the
    # servers outside mask.
    best = [0] * (1 << n)
    for mask in range(full - 1, -1, -1):
        i = mask.bit_count()
        r = requests[i]
        acc = None
        for j in range(n):
            if mask >> j & 1:
                continue
            c = abs(r - servers[j]) + best[mask | 1 << j]
            if acc is None or c < acc:
                acc = c
        best[mask] = acc
    # Lexicographically smallest optimal permutation, greedy reconstruction.
    assignment = []
    mask = 0
    for i in range(n):
        r = requests[i]
        target = best[mask]
        for j in range(n):
            if mask >> j & 1:
                continue
            c = abs(r - servers[j]) + best[mask | 1 << j]
            if costs_equal(c, target, n):
                assignment.append(j)
                mask |= 1 << j
                break
    return make_matching(instance, assignment)


def enumerate_assignments(instance: Instance) -> Iterator[tuple]:
    """All permutations, literally (for oracle cross-checks, n <= 8)."""
    if instance.n > 8:
        raise OracleError("literal enumeration capped at n=8")
    return itertools.permutations(range(instance.n))


def total_cost(instance: Instance, assignment: Sequence[int]) -> int | float:
    """Sum of |r_i - s_{pi(i)}| over all requests."""
    n = instance.n
    if len(assignment) != n or set(assignment) != set(range(n)):
        raise InstanceError("assignment is not a bijection on the servers")
    return sum(abs(r - instance.servers[j]) for r, j in zip(instance.requests, assignment))


def all_optimal_assignments(instance: Instance) -> list[tuple]:
    """Every minimum-cost assignment, by literal enumeration."""
    perms = enumerate_assignments(instance)
    costs = [(total_cost(instance, perm), perm) for perm in perms]
    opt = min(c for c, _ in costs)
    return [perm for c, perm in costs if costs_equal(c, opt, instance.n)]
