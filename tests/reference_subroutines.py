"""The greedy subroutine as it was before it moved onto LR's server pool: a
sorted (position, id) list with an availability flag per entry, scanned in
full on every request. Kept verbatim as the differential reference for
``matchline.subroutines.Greedy``; nothing in the package uses it.
"""

from __future__ import annotations

from typing import Sequence

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
