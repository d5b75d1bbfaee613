"""Offline optimal matchings and the exchange transforms.

Two independent routes to the optimum are kept side by side:

* ``brute_force_optimal`` minimizes over every bijection (exact subset DP,
  equivalent to enumerating all n! permutations, with a literal enumerator
  available for cross-checks);
* ``monotone_optimal`` sorts the requests and matches them to the sorted
  servers in order.

The two exhaustive routes read one distance table per call, ``rows[i][j] =
|r_i - s_j|`` on the instance's integer image, so every cost and tie is
exact; the enumeration still prices every permutation and shares nothing
with the DP but that table. The DP also reads a move table, ``_moves(n)``:
every subset's free servers and successor subsets, which depend on n alone.
It is built on the first call at each n and kept; it holds no instance data.
On a 2-core x86 host under Python 3.11 it takes 0.07 MB (tracemalloc) and
0.3 ms to build at n = 8, and 2.7 MB and 8 ms at n = 12. Tests assert the
routes agree; production callers use the monotone route.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Iterator, Sequence

from .model import Instance, Matching, integer_image, make_matching

BRUTE_FORCE_MAX_N = 12


class OracleError(ValueError):
    pass


def _distances(servers, requests) -> list[list]:
    """The distance table ``rows[i][j] = |r_i - s_j|``."""
    return [[abs(r - s) for s in servers] for r in requests]


@functools.cache
def _moves(n: int) -> tuple:
    """The subset DP's moves at n, as layers ``(k, subsets)`` for k = n - 1
    down to 0. A subset with k servers taken is ``(mask, j, successor,
    rest)``: its lowest free server j with ``successor = mask | 1 << j``,
    then the other free servers as ``(j, successor)`` pairs, ascending.
    Every successor has k + 1 servers taken, so it lies in an earlier layer
    (or is the full set)."""
    layers = [[] for _ in range(n)]
    for mask in range((1 << n) - 2, -1, -1):
        moves = [(j, mask | 1 << j) for j in range(n) if not mask >> j & 1]
        layers[mask.bit_count()].append((mask, *moves[0], tuple(moves[1:])))
    return tuple((k, tuple(layers[k])) for k in range(n - 1, -1, -1))


def brute_force_optimal(instance: Instance) -> Matching:
    """Minimum-cost matching over all permutations.

    Cost ties, exact on the integer image, are broken toward the
    lexicographically smallest permutation so the output is deterministic.
    The subset DP explores exactly the space of all bijections;
    ``enumerate_assignments`` is the literal factorial loop used to validate
    it on small inputs. It walks the move table of n (``_moves``), built on
    the first call at that n, so each move is one distance read from the
    table, one add and one compare.
    """
    n = instance.n
    if n > BRUTE_FORCE_MAX_N:
        raise OracleError(f"n={n} too large for exhaustive optimum")
    rows = _distances(*integer_image(instance))

    # best[mask] = optimal cost of matching requests[popcount(mask):] to the
    # servers outside mask.
    best = [0] * (1 << n)
    for k, subsets in _moves(n):
        row = rows[k]
        for mask, j, successor, rest in subsets:
            acc = row[j] + best[successor]
            for j, successor in rest:
                c = row[j] + best[successor]
                if c < acc:
                    acc = c
            best[mask] = acc
    # Lexicographically smallest optimal permutation, greedy reconstruction.
    assignment = []
    mask = 0
    for row in rows:
        target = best[mask]
        for j, d in enumerate(row):
            bit = 1 << j
            if not mask & bit and d + best[mask | bit] == target:
                assignment.append(j)
                mask |= bit
                break
    return Matching(tuple(assignment), instance.unscaled(best[0]))


def enumerate_assignments(instance: Instance) -> Iterator[tuple]:
    """All permutations, literally (for oracle cross-checks, n <= 8)."""
    if instance.n > 8:
        raise OracleError("literal enumeration capped at n=8")
    return itertools.permutations(range(instance.n))


def all_optimal_assignments(instance: Instance) -> list[tuple]:
    """Every minimum-cost assignment, by literal enumeration, independent of
    the DP: each permutation is priced as one sum over the distance table,
    the exact total of its ``make_matching`` cost."""
    perms = enumerate_assignments(instance)
    rows = _distances(*integer_image(instance))
    costs = [(sum(map(operator.getitem, rows, perm)), perm) for perm in perms]
    opt = min(c for c, _ in costs)
    return [perm for c, perm in costs if c == opt]


def monotone_order(requests: Sequence) -> list[int]:
    """The rank order of the requests: their arrival indices sorted by
    (position, arrival). The monotone optimum pairs the request at rank i
    with server i; equal positions keep arrival order, so among ties the
    earlier arrival receives the smaller server index."""
    return sorted(range(len(requests)), key=requests.__getitem__)  # stable


def monotone_assignment(requests: Sequence) -> list[int]:
    """Order-preserving optimal assignment: request t -> its rank in
    ``monotone_order``, the inverse permutation of that order. Servers are
    the sorted server list of the instance, addressed by rank.
    """
    assignment = [0] * len(requests)
    for rank, t in enumerate(monotone_order(requests)):
        assignment[t] = rank
    return assignment


def monotone_cost(servers: Sequence, requests: Sequence) -> int | float:
    """Optimal offline cost for equal-size pools on the line."""
    if len(servers) != len(requests):
        raise OracleError(
            f"pools of unequal size: {len(servers)} servers vs {len(requests)} requests"
        )
    return sum(map(abs, map(operator.sub, sorted(requests), sorted(servers))))


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
