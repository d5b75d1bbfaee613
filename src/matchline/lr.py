"""Algorithm LR: 1-competitive online matching with one direction bit per
ambiguous request.

Serving rules, in order: exact-position match (smallest original index among
equals), forced left edge, forced right edge, otherwise read one bit (0 =
greatest unmatched server strictly below the request, 1 = least unmatched
server strictly above). The last move is always forced, so at most n-1 bits
are read.

The server pool keeps every server in one static order, (position, original
index), with union-find "next free to the left / right" pointers over it
(Tarjan), so each move costs a bisect plus near-constant pointer chasing.

The oracle writes the bits by the rank rule, the exchange argument behind
the monotone optimum: when request r falls strictly between its unmatched
neighbours at pool ranks lo-1 and lo, the bit is 0 exactly when fewer than lo
unserved requests sort before r by (position, arrival), i.e. when r's partner
in the monotone matching of what remains lies at or below pool rank lo-1.
Both counts live in one Fenwick tree over the merged server/request
coordinates (+1 per unmatched server, -1 per unserved request), so the oracle
runs in O(n log n). Its run is checked once at the end against
``monotone_cost``: exactly on integer coordinates, and on floats within the
rounding of two sums of n distances, relative to the optimum's size.
"""

from __future__ import annotations

import bisect
import sys
from dataclasses import dataclass, field

from .model import Instance, Matching, make_matching
from .offline import monotone_cost
from .tape import AdviceTape


class LRError(RuntimeError):
    pass


@dataclass
class LRState:
    """Server pool: every server, ordered by (position, original index), with
    "next free" pointers that skip the matched ones."""

    positions: list = field(default_factory=list)
    indices: list = field(default_factory=list)
    bits_read: int = 0
    # _right[i]: towards the least free slot >= i (len(positions): none);
    # _left[i]: towards the greatest free slot < i, shifted by one (0: none)
    _right: list = field(init=False, repr=False)
    _left: list = field(init=False, repr=False)

    def __post_init__(self):
        self._right = list(range(len(self.positions) + 1))
        self._left = list(range(len(self.positions) + 1))

    @classmethod
    def for_servers(cls, servers, indices=None) -> "LRState":
        indices = list(range(len(servers))) if indices is None else list(indices)
        order = sorted(range(len(servers)), key=lambda i: (servers[i], indices[i]))
        return cls([servers[i] for i in order], [indices[i] for i in order])


def lr_serve(state: LRState, request, tape: AdviceTape) -> int:
    """Match one request; returns the chosen server's original index."""
    positions, right_of, left_of = state.positions, state._right, state._left
    end = len(positions)
    i = right = bisect.bisect_left(positions, request)
    while right_of[right] != right:  # path halving
        right_of[right] = right = right_of[right_of[right]]
    if right < end and positions[right] == request:
        # a server equal to the request; smallest index among equals
        j = right
    else:
        left = i
        while left_of[left] != left:
            left_of[left] = left = left_of[left_of[left]]
        left -= 1
        if left < 0:
            if right == end:
                raise LRError("no unmatched servers left")
            # all unmatched servers are greater: least of them
            j = right
        elif right == end:
            # all unmatched servers are less: largest of them
            j = left
        else:
            bit = tape.read_bit()
            state.bits_read += 1
            j = left if bit == 0 else right
    right_of[j] = j + 1
    left_of[j + 1] = j
    return state.indices[j]


class _RankRule:
    """The oracle's side of the tape: each bit LR asks for is decided by the
    rank rule and recorded.

    ``tree`` is a Fenwick tree over coordinate keys 1..size holding +1 per
    unmatched server and -1 per unserved request, so its prefix sum below a
    request's key is (unmatched servers below r) - (unserved requests below
    r), i.e. lo - rank in the module docstring. Its length is a power of two
    plus one, so every update path ends at the same top slot.
    """

    def __init__(self, weights: list):
        top = 1 << (len(weights) - 1).bit_length()
        tree = weights + [0] * (top + 1 - len(weights))
        for k in range(1, top):
            tree[k + (k & -k)] += tree[k]
        self.tree = tree
        self.key = 0  # key of the request being served
        self.bits: list[int] = []

    def move(self, src: int, dst: int) -> None:
        """One unit of weight from key src to key dst (+1 at src, -1 at dst).

        The two update paths merge at their first common slot; the two
        changes cancel from there on, so the walk stops.
        """
        tree = self.tree
        while src != dst:
            if src < dst:
                tree[src] += 1
                src += src & -src
            else:
                tree[dst] -= 1
                dst += dst & -dst

    def read_bit(self) -> int:
        tree, key, below = self.tree, self.key - 1, 0
        while key:
            below += tree[key]
            key &= key - 1
        bit = 0 if below > 0 else 1
        self.bits.append(bit)
        return bit


def lr_oracle(instance: Instance) -> AdviceTape:
    """Advice bits under which lr_run reproduces an optimal matching."""
    servers, requests = instance.servers, instance.requests
    key = {v: k for k, v in enumerate(sorted({*servers, *requests}), 1)}
    weights = [0] * (len(key) + 1)
    for s in servers:
        weights[key[s]] += 1
    for r in requests:
        weights[key[r]] -= 1
    rule = _RankRule(weights)
    state = LRState.for_servers(servers)
    cost = 0
    for r in requests:
        rule.key = key[r]
        s = servers[lr_serve(state, r, rule)]
        cost += abs(r - s)
        rule.move(rule.key, key[s])
    opt = monotone_cost(servers, requests)
    # on floats the two sums of the same distances, taken in different
    # orders, may differ by n roundings each, relative to their size
    exact = isinstance(cost, int) and isinstance(opt, int)
    slack = 0 if exact else 2 * instance.n * sys.float_info.epsilon * max(cost, opt)
    if abs(cost - opt) > slack:
        raise LRError(f"oracle advice missed the optimum: cost {cost!r} vs {opt!r}")
    return AdviceTape(rule.bits)


@dataclass(frozen=True)
class LRResult:
    matching: Matching
    bits_read: int


def lr_run(instance: Instance, tape: AdviceTape) -> LRResult:
    """Serve the whole request sequence against the given advice tape."""
    state = LRState.for_servers(instance.servers)
    assignment = [lr_serve(state, r, tape) for r in instance.requests]
    return LRResult(make_matching(instance, assignment), state.bits_read)
