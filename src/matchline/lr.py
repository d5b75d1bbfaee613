"""Algorithm LR: 1-competitive online matching with one direction bit per
ambiguous request.

Serving rules, in order: exact-position match (smallest original index among
equals), forced left edge, forced right edge, otherwise read one bit (0 =
greatest unmatched server strictly below the request, 1 = least unmatched
server strictly above). The last move is always forced, so at most n-1 bits
are read.

The server pool keeps every server in one static order, (position, original
index), with union-find "next free to the left / right" pointers over it
(Tarjan). Its one search, ``LRState.neighbours``, finds a request's two free
neighbours with a bisect plus near-constant pointer chasing; LR and the
``greedy`` and ``permutation`` subroutines are each a rule over that pair.

The oracle writes the bits by the rank rule, the exchange argument behind
the monotone optimum: when request r falls strictly between its unmatched
neighbours at pool ranks lo-1 and lo, the bit is 0 exactly when fewer than lo
unserved requests sort before r by (position, arrival), i.e. when r's partner
in the monotone matching of what remains lies at or below pool rank lo-1.
Both counts live in one Fenwick tree over the merged server/request
coordinates (+1 per unmatched server, -1 per unserved request), so the oracle
runs in O(n log n). Its run is checked once at the end against
``monotone_cost`` under ``costs_equal``.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from .model import Instance, Matching, costs_equal, make_matching
from .offline import monotone_cost
from .tape import AdviceTape


class LRError(RuntimeError):
    pass


@dataclass
class LRState:
    """Server pool: every server, ordered by (position, original index), with
    "next free" pointers that skip the matched ones. ``neighbours`` is the
    one walk over them and ``take`` the one update.

    Slots are ordered by (position, id), so when position p holds a free
    server, ``neighbours(p)[1]`` is the slot of its smallest free id."""

    positions: list = field(default_factory=list)
    indices: list = field(default_factory=list)
    # _right[i]: towards the least free slot >= i (len(positions): none);
    # _left[i]: towards the greatest free slot < i, shifted by one (0: none)
    _right: list = field(init=False, repr=False)
    _left: list = field(init=False, repr=False)

    def __post_init__(self):
        self._right = list(range(len(self.positions) + 1))
        self._left = list(range(len(self.positions) + 1))

    @classmethod
    def for_servers(cls, servers, indices=None) -> "LRState":
        pool = sorted(zip(servers, range(len(servers)) if indices is None else indices))
        return cls([s for s, _ in pool], [i for _, i in pool])

    def neighbours(self, request) -> tuple[int, int]:
        """The request's two free neighbours: the greatest free slot whose
        position is < request (-1: none) and the least free slot whose
        position is >= request (len(positions): none)."""
        right_of, left_of = self._right, self._left
        low = high = bisect.bisect_left(self.positions, request)
        while right_of[high] != high:  # path halving
            right_of[high] = high = right_of[right_of[high]]
        while left_of[low] != low:
            left_of[low] = low = left_of[left_of[low]]
        return low - 1, high

    def take(self, j: int) -> int:
        """Match the server in slot j; returns its original index."""
        self._right[j] = j + 1
        self._left[j + 1] = j
        return self.indices[j]


def lr_serve(state: LRState, request, tape: AdviceTape) -> int:
    """Match one request; returns the chosen server's original index."""
    low, high = state.neighbours(request)
    end = len(state.positions)
    if high < end and state.positions[high] == request:
        # a server equal to the request; smallest index among equals
        j = high
    elif low < 0:
        if high == end:
            raise LRError("no unmatched servers left")
        # all unmatched servers are greater: least of them
        j = high
    elif high == end:
        # all unmatched servers are less: largest of them
        j = low
    else:
        j = low if tape.read_bit() == 0 else high
    return state.take(j)


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
    if not costs_equal(cost, opt, instance.n):
        raise LRError(f"oracle advice missed the optimum: cost {cost!r} vs {opt!r}")
    return AdviceTape(rule.bits)


@dataclass(frozen=True)
class LRResult:
    matching: Matching
    bits_read: int


def lr_run(instance: Instance, tape: AdviceTape) -> LRResult:
    """Serve the whole request sequence against the given advice tape;
    ``bits_read`` counts the tape reads this run made."""
    state = LRState.for_servers(instance.servers)
    start = tape.bits_read
    assignment = [lr_serve(state, r, tape) for r in instance.requests]
    return LRResult(make_matching(instance, assignment), tape.bits_read - start)
