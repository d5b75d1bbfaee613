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
    "next free" pointers that skip the matched ones."""

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

    # lr_serve and the greedy subroutine inline the next three for speed;
    # the permutation subroutine calls them

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

    def take(self, j: int) -> int:
        """Match the server in slot j; returns its original index."""
        self._right[j] = j + 1
        self._left[j + 1] = j
        return self.indices[j]


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
            j = left if tape.read_bit() == 0 else right
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
