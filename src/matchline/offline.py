"""Offline optimal matchings and the exchange transforms.

Two independent routes to the optimum are kept side by side:

* ``brute_force_optimal`` minimizes over every bijection (exact subset DP,
  equivalent to enumerating all n! permutations, with a literal enumerator
  available for cross-checks);
* ``monotone_optimal`` sorts the requests and matches them to the sorted
  servers in order.

Tests assert the two agree; production callers use the monotone route.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from .model import Instance, Matching, costs_equal, make_matching, total_cost

BRUTE_FORCE_MAX_N = 12


class OracleError(ValueError):
    pass


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


def all_optimal_assignments(instance: Instance) -> list[tuple]:
    """Every minimum-cost assignment, by literal enumeration."""
    perms = enumerate_assignments(instance)
    costs = [(total_cost(instance, perm), perm) for perm in perms]
    opt = min(c for c, _ in costs)
    return [perm for c, perm in costs if costs_equal(c, opt, instance.n)]


def monotone_assignment(requests: Sequence) -> list[int]:
    """Order-preserving optimal assignment: i-th smallest request -> s_i.

    Equal request positions keep arrival order, so among ties the earlier
    arrival receives the smaller server index. Servers are the sorted server
    list of the instance, addressed by rank.
    """
    order = sorted(range(len(requests)), key=requests.__getitem__)  # stable
    assignment = [0] * len(requests)
    for rank, i in enumerate(order):
        assignment[i] = rank
    return assignment


def monotone_cost(servers: Sequence, requests: Sequence) -> int | float:
    """Optimal offline cost for equal-size pools on the line."""
    return sum(
        abs(r - s) for r, s in zip(sorted(requests), sorted(servers))
    )


def monotone_optimal(instance: Instance) -> Matching:
    return make_matching(instance, monotone_assignment(instance.requests))


def switch_allowed(instance: Instance, matching: Matching, i: int, j: int) -> bool:
    """Whether requests i and j lie on the same side of both their servers
    (both weakly left of both servers, or both weakly right)."""
    ri, rj = instance.requests[i], instance.requests[j]
    si, sj = instance.servers[matching.assignment[i]], instance.servers[matching.assignment[j]]
    return max(ri, rj) <= min(si, sj) or min(ri, rj) >= max(si, sj)


def apply_switch(instance: Instance, matching: Matching, i: int, j: int) -> Matching:
    """Swap the servers of requests i and j; cost-preserving by construction.

    Allowed only where ``switch_allowed`` holds.
    """
    if not switch_allowed(instance, matching, i, j):
        raise OracleError(
            "switch precondition violated: requests straddle the servers"
        )
    assignment = list(matching.assignment)
    assignment[i], assignment[j] = assignment[j], assignment[i]
    return make_matching(instance, assignment)


def order_condition_violations(instance: Instance, assignment: Sequence[int]) -> list:
    """Index pairs violating the order structure of optimal matchings.

    An optimal matching admits no pair with r_i <= s_{pi(j)} < s_{pi(i)} and
    r_j > s_{pi(j)}, nor the mirrored pair. Returns the offending (i, j)
    pairs; empty on every optimum.
    """
    bad = []
    n = instance.n
    for i in range(n):
        ri, si = instance.requests[i], instance.servers[assignment[i]]
        for j in range(n):
            if i == j:
                continue
            rj, sj = instance.requests[j], instance.servers[assignment[j]]
            if ri <= sj < si and rj > sj:
                bad.append((i, j))
            if ri >= sj > si and rj < sj:
                bad.append((i, j))
    return bad
