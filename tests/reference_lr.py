"""The LR oracle and server pool as they were before the rank rule and the
union-find pool: suffix lookahead with three ``monotone_cost`` re-sorts per
request, and a sorted list pool shrunk by ``list.pop``. Kept verbatim as the
differential reference for ``matchline.lr``; nothing in the package uses it.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from matchline.lr import LRError
from matchline.model import FLOAT_TOL, Instance
from matchline.offline import monotone_cost
from matchline.tape import AdviceTape


@dataclass
class LRState:
    """Unmatched server pool, ordered by (position, original index)."""

    positions: list = field(default_factory=list)
    indices: list = field(default_factory=list)
    bits_read: int = 0

    @classmethod
    def for_servers(cls, servers, indices=None) -> "LRState":
        indices = list(range(len(servers))) if indices is None else list(indices)
        order = sorted(range(len(servers)), key=lambda i: (servers[i], indices[i]))
        return cls([servers[i] for i in order], [indices[i] for i in order])

    def _take(self, pos: int) -> int:
        self.positions.pop(pos)
        return self.indices.pop(pos)


def lr_serve(state: LRState, request, tape: AdviceTape) -> int:
    """Match one request; returns the chosen server's original index."""
    if not state.positions:
        raise LRError("no unmatched servers left")
    lo = bisect.bisect_left(state.positions, request)
    hi = bisect.bisect_right(state.positions, request)
    if lo < hi:
        # a server equal to the request; smallest index among equals
        return state._take(lo)
    if lo == 0:
        # all unmatched servers are greater: least of them
        return state._take(0)
    if lo == len(state.positions):
        # all unmatched servers are less: largest of them
        return state._take(len(state.positions) - 1)
    bit = tape.read_bit()
    state.bits_read += 1
    if bit == 0:
        return state._take(lo - 1)
    return state._take(lo)


def _needs_bit(positions: list, request) -> bool:
    lo = bisect.bisect_left(positions, request)
    hi = bisect.bisect_right(positions, request)
    return lo == hi and 0 < lo < len(positions)


def lr_oracle(instance: Instance) -> AdviceTape:
    """Advice bits under which lr_run reproduces an optimal matching."""
    tol = 0 if instance.integer_mode else FLOAT_TOL
    tape = AdviceTape()
    state = LRState.for_servers(instance.servers)
    shadow = AdviceTape()  # consumed immediately by the simulated run
    cost_so_far = 0
    opt_total = monotone_cost(instance.servers, instance.requests)
    for t, request in enumerate(instance.requests):
        remaining_requests = instance.requests[t + 1 :]
        if _needs_bit(state.positions, request):
            lo = bisect.bisect_left(state.positions, request)
            left_pos = state.positions[lo - 1]
            opt_remaining = monotone_cost(
                state.positions, (request,) + tuple(remaining_requests)
            )
            without_left = state.positions[: lo - 1] + state.positions[lo:]
            cost_left = abs(request - left_pos) + monotone_cost(
                without_left, remaining_requests
            )
            bit = 0 if cost_left <= opt_remaining + tol else 1
            tape.write_bit(bit)
            shadow.write_bit(bit)
        j = lr_serve(state, request, shadow)
        cost_so_far += abs(request - instance.servers[j])
        # suffix consistency: the remaining sub-instance must still reach OPT
        rest = monotone_cost(state.positions, remaining_requests)
        if abs(cost_so_far + rest - opt_total) > tol:
            raise LRError("oracle lost optimality while emitting advice")
    return tape
