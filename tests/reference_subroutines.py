"""Subroutines as they were before their rewrites, kept verbatim as the
differential references for ``matchline.subroutines``; nothing in the
package uses them.

- ``Greedy``, before it moved onto LR's server pool: a sorted (position, id)
  list with an availability flag per entry, scanned in full on every request.
- ``PoolGreedy``, before its pointer walk was inlined: ``next_free`` and
  ``prev_free`` calls (``LRState``'s methods then, kept here on
  ``_WalkingPool``), ``take``, and a bisect per request for the first slot at
  a position. Like ``Greedy`` it walks on past the lower free neighbour while
  float rounding ties the distance, which the package's greedy no longer
  does.
- ``Permutation``, before it priced servers from per-gap sums: an O(t * m) DP
  for the running optimum, then a fresh sort per candidate server.
- ``PerGapPermutation``, before it priced only the two free neighbours of the
  request on LR's server pool: every free server priced from per-gap prefix
  sums over the sorted history, the first pool index among the least costs.
"""

from __future__ import annotations

import bisect
from typing import Sequence

from reference_common import costs_equal
from reference_pool import LRState
from matchline.subroutines import SubroutineError


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


class Greedy(_PoolSubroutine):
    """Nearest available server; ties toward smaller position, then id."""

    def serve(self, request) -> int:
        best = None
        for idx, ((pos, _sid), free) in enumerate(zip(self.pool, self.available)):
            if not free:
                continue
            key = (abs(request - pos), pos)
            if best is None or key < best[0]:
                best = (key, idx)
        if best is None:
            raise SubroutineError("no available server")
        return self._claim(best[1])


class _WalkingPool(LRState):
    """LR's server pool with the two pointer walks it had before
    ``neighbours`` replaced them."""

    def next_free(self, i: int) -> int:
        """Least free slot >= i; len(positions) when there is none."""
        right_of = self._right
        while right_of[i] != i:  # path halving
            right_of[i] = i = right_of[right_of[i]]
        return i

    def prev_free(self, i: int) -> int:
        """Greatest free slot < i; -1 when there is none."""
        left_of = self._left
        while left_of[i] != i:
            left_of[i] = i = left_of[left_of[i]]
        return i - 1


class PoolGreedy:
    """Nearest available server; ties toward smaller position, then id.

    Runs on LR's server pool (``LRState``): one bisect splits the servers at
    the request and the "next free" pointers give the nearest free server on
    each side, O(log n) amortised per request.
    """

    def __init__(self, servers: Sequence, ids: Sequence[int] | None = None):
        self.pool = _WalkingPool.for_servers(servers, ids)

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


class PerGapPermutation:
    """Classical Permutation algorithm (Khuller, Mitchell and Vazirani 1994;
    Kalyanasundaram and Pruhs 1993), (2m - 1)-competitive on m servers.

    The servers U it has used form an optimal server set for the requests
    seen so far. For a new request it serves a free server s for which
    U + {s} is optimal for the extended history R. Such an s exists: given
    an optimal server set for t - 1 requests, some optimal set for t
    requests adds one server to it (the lemma behind Permutation). So the
    minimum over the free servers of cost(R, U + {s}) is the running
    optimum, and no separate optimum is computed. Ties go to the first pool
    index (position, then id) whose cost is at or within ``costs_equal`` of
    that minimum.

    On the line an optimal matching of a fixed server set pairs the sorted
    requests with the sorted positions. With g the number of used positions
    strictly below s, that order pairs R[i] with U[i] for i < g, R[g] with
    s, and R[i] with U[i - 1] for i > g, so

        cost(R, U + {s}) = A[g] + |R[g] - s| + B[g],
        A[g] = sum_{i<g} |R[i] - U[i]|,  B[g] = sum_{i>g} |R[i] - U[i-1]|.

    One pass up and one down the sorted history give every A and B, and one
    pass over the pool prices every free server: O(t + m) for the t-th
    request on m servers, O(n^2) per run. Integer positions keep every sum
    an exact int.

    The chosen server is not always one of the two free servers nearest the
    request: where float rounding ties the costs of farther servers, the
    first pool index wins. So pricing only those two would change the ids
    served, and the full scan stays.
    """

    def __init__(self, servers, ids=None):
        ids = range(len(servers)) if ids is None else ids
        self.pool = sorted(zip(servers, ids))
        self.free = [True] * len(self.pool)
        self.history: list = []  # the requests seen so far, sorted
        self.used: list = []  # positions of the servers served so far, sorted

    def serve(self, request) -> int:
        history, used = self.history, self.used
        bisect.insort(history, request)
        t = len(history)
        below = [0] * t  # A[g]
        acc = 0
        for g in range(1, t):
            acc += abs(history[g - 1] - used[g - 1])
            below[g] = acc
        above = [0] * t  # B[g]
        acc = 0
        for g in range(t - 2, -1, -1):
            acc += abs(history[g + 1] - used[g])
            above[g] = acc
        candidates, costs = [], []
        g = 0
        for idx, ((s, _sid), free) in enumerate(zip(self.pool, self.free)):
            if free:
                while g < t - 1 and used[g] < s:
                    g += 1
                candidates.append(idx)
                costs.append(below[g] + abs(history[g] - s) + above[g])
        if not costs:
            raise SubroutineError("no available server")
        best = min(costs)
        for idx, c in zip(candidates, costs):
            if c <= best or costs_equal(c, best, t):
                break
        self.free[idx] = False
        s, sid = self.pool[idx]
        bisect.insort(used, s)
        return sid
