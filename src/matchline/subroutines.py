"""Advice-free online matching algorithms usable inside DIVIDE_k blocks.

Each subroutine owns a fixed server pool and serves requests one at a time,
always returning a still-available server from that pool. ``clairvoyant`` is a
test double that replays the offline optimum of its sealed request sequence;
it exists to make DIVIDE_k's block decomposition exactly checkable.
"""

from __future__ import annotations

import bisect
from typing import Sequence

from .lr import LRState
from .model import costs_equal
from .offline import monotone_assignment

SUBROUTINE_NAMES = ("greedy", "permutation", "clairvoyant")


class SubroutineError(RuntimeError):
    pass


class _PoolSubroutine:
    """Common bookkeeping: pool of (position, server id), availability."""

    def __init__(self, servers: Sequence, ids: Sequence[int] | None = None):
        ids = range(len(servers)) if ids is None else ids
        self.pool = sorted(zip(servers, ids))
        self.available = [True] * len(self.pool)

    def _claim(self, pool_index: int) -> int:
        if not self.available[pool_index]:
            raise SubroutineError("server already used")
        self.available[pool_index] = False
        return self.pool[pool_index][1]

    def serve(self, request) -> int:
        raise NotImplementedError


class Greedy:
    """Nearest available server; ties toward smaller position, then id.

    Runs on LR's server pool (``LRState``): one bisect splits the servers at
    the request and the "next free" pointers give the nearest free server on
    each side, O(log n) amortised per request.
    """

    def __init__(self, servers: Sequence, ids: Sequence[int] | None = None):
        self.pool = LRState.for_servers(servers, ids)

    def serve(self, request) -> int:
        pool = self.pool
        positions, end = pool.positions, len(pool.positions)
        i = bisect.bisect_left(positions, request)
        j = pool.next_free(i)  # least position >= request, smallest id there
        left = pool.prev_free(i)
        if left >= 0:
            # distances are compared as computed: where rounding makes a free
            # position farther below no farther away, the smaller one wins
            dist = abs(request - positions[left])
            while True:
                first = bisect.bisect_left(positions, positions[left], 0, left)
                below = pool.prev_free(first)
                if below < 0 or abs(request - positions[below]) > dist:
                    break
                left, dist = below, abs(request - positions[below])
            if j == end or dist <= abs(request - positions[j]):
                j = pool.next_free(first)  # smallest free id at that position
        elif j == end:
            raise SubroutineError("no available server")
        return pool.take(j)


class Permutation(_PoolSubroutine):
    """Classical Permutation algorithm.

    Maintains the offline optimum over the requests seen so far against the
    full pool and serves each request with the one server the new optimum
    uses beyond the previous one. Candidate servers are tried in pool order,
    which realizes the lexicographic tie rule.
    """

    def __init__(self, servers, ids=None):
        super().__init__(servers, ids)
        self.history: list = []
        self.used: list[int] = []  # pool indices used by the running optimum

    def _subset_cost(self, pool_indices, requests) -> float:
        positions = sorted(self.pool[i][0] for i in pool_indices)
        return sum(abs(r - s) for r, s in zip(sorted(requests), positions))

    def _opt_cost(self, requests) -> int | float:
        # min-cost order-preserving matching of the sorted requests into the
        # sorted pool, server subset free (O(t * pool) DP)
        reqs = sorted(requests)
        t, p = len(reqs), len(self.pool)
        inf = float("inf")
        row = [0] * (p + 1)  # zero requests; int, so integer sums stay exact
        for i in range(t - 1, -1, -1):
            new = [inf] * (p + 1)
            for j in range(p - 1, -1, -1):
                take = abs(reqs[i] - self.pool[j][0]) + row[j + 1]
                skip = new[j + 1]
                new[j] = take if take < skip else skip
            row = new
        return row[0]

    def serve(self, request) -> int:
        self.history.append(request)
        opt = self._opt_cost(self.history)
        t = len(self.history)
        for idx in range(len(self.pool)):
            if idx in self.used:
                continue
            c = self._subset_cost(self.used + [idx], self.history)
            if c <= opt or costs_equal(c, opt, t):
                self.used.append(idx)
                return self._claim(idx)
        raise SubroutineError("no server extends the running optimum")


class Clairvoyant(_PoolSubroutine):
    """Replays monotone_optimal on the sealed request sequence (test-only)."""

    def __init__(self, servers, ids=None, sealed: Sequence = ()):
        super().__init__(servers, ids)
        self.sealed = list(sealed)
        if len(self.sealed) > len(self.pool):
            raise SubroutineError("sealed sequence longer than the pool")
        self.plan = monotone_assignment(self.sealed)  # request t -> pool rank
        self.step = 0

    def serve(self, request) -> int:
        if self.step >= len(self.sealed):
            raise SubroutineError("request beyond the sealed sequence")
        if request != self.sealed[self.step]:
            raise SubroutineError(
                f"request {request!r} not at position {self.step} of the sealed sequence"
            )
        rank = self.plan[self.step]
        self.step += 1
        return self._claim(rank)


def make_subroutine(name: str, servers, ids=None, sealed=None):
    if name == "greedy":
        return Greedy(servers, ids)
    if name == "permutation":
        return Permutation(servers, ids)
    if name == "clairvoyant":
        if sealed is None:
            raise SubroutineError("clairvoyant needs the sealed request sequence")
        return Clairvoyant(servers, ids, sealed)
    raise SubroutineError(f"unknown subroutine {name!r}")
