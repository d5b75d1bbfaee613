"""Two subroutines as they were before their rewrites, kept verbatim as the
differential references for ``matchline.subroutines``; nothing in the
package uses them.

- ``Greedy``, before it moved onto LR's server pool: a sorted (position, id)
  list with an availability flag per entry, scanned in full on every request.
- ``Permutation``, before it priced servers from per-gap sums: an O(t * m) DP
  for the running optimum, then a fresh sort per candidate server.
"""

from __future__ import annotations

from typing import Sequence

from matchline.model import costs_equal
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
