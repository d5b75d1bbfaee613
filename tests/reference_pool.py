"""LR's server pool as it was before the sorted runs of free servers, kept
verbatim as the differential reference for ``matchline.lr.LRState``, with
the code that ran on it: ``lr_serve``, the rank-rule oracle over one
Fenwick tree of the merged coordinates, and the ``greedy`` and
``permutation`` subroutines. Nothing in the package uses it.

The pool keeps every server in one static order, (position, original
index), with union-find "next free to the left / right" pointers over it
(Tarjan); ``neighbours`` returns slot numbers and ``take`` a slot.
"""

from __future__ import annotations

import bisect
import operator
from dataclasses import dataclass, field
from typing import Sequence

from matchline.lr import LRError
from matchline.model import Instance
from matchline.subroutines import SubroutineError
from reference_common import costs_equal, monotone_cost
from writable_tape import AdviceTape


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


class Greedy:
    """Nearest available server; ties toward smaller position, then id.

    Runs on LR's server pool (``LRState``): ``neighbours`` gives the
    request's two free neighbours, the nearest free server below it and the
    nearest at or above it, O(log n) amortised per request. The lower one
    lies below the request and the upper one at or above, so each distance
    is a one-sided difference, equal to its ``abs``. A float difference is
    monotone in the position, so the nearer neighbour's computed distance is
    the least over the free servers. When the lower one wins, a smaller free
    id at its position can only exist when the slot below holds the same
    position, so only then does a second ``neighbours`` call look for it.
    """

    def __init__(self, servers: Sequence, ids: Sequence[int] | None = None):
        self.pool = LRState.for_servers(servers, ids)

    def serve(self, request) -> int:
        pool = self.pool
        positions = pool.positions
        low, j = pool.neighbours(request)
        if low >= 0:
            if j == len(positions) or request - positions[low] <= positions[j] - request:
                j = low
                if low and positions[low - 1] == positions[low]:
                    j = pool.neighbours(positions[low])[1]
        elif j == len(positions):
            raise SubroutineError("no available server")
        return pool.take(j)


class Permutation:
    """Classical Permutation algorithm (Khuller, Mitchell and Vazirani 1994;
    Kalyanasundaram and Pruhs 1993), (2m - 1)-competitive on m servers.

    The servers U it has used form an optimal server set for the requests R'
    seen so far, and a new request r is served by a free server s for which
    U + {s} is optimal for R = R' + {r}: some optimal set for t requests adds
    one server to any optimal set for t - 1 (the lemma behind Permutation).
    So the least cost(R, U + {s}) over the free s is the running optimum.

    Neighbour lemma: let L and H be the nearest free servers at or below r
    and at or above r. On exact costs every free s <= L costs at least as
    much as L, and every free s >= H at least as much as H.

    Proof. Two equal-size multisets on the line match optimally at the cost
    of the integral of |A(x) - B(x)|, where A(x) and B(x) count their points
    at or below x. Let D = R'(x) - U(x) and phi = |D - 1| - |D|: +1 where
    D <= 0, -1 where D >= 1. For a free s <= r, cost(R, U + {s}) exceeds
    cost(R', U) by the integral of phi over [s, r), so for s < L the cost of
    s exceeds that of L by the integral over [s, L). Optimality of U gives:
    (a) swapping a used u > s for s changes cost(R', U) by the integral of
        phi over [s, u), so that integral is >= 0;
    (b) D(L) <= 0: else U(L) < R'(L) <= |U|, so a least used u > L exists,
        D >= D(L) >= 1 on [L, u) as U(x) = U(L) there, and swapping u for
        L would save u - L.
    Let a be the greatest used position in (s, L], or s if there is none.
    If a < L, no used server lies in (a, L], so D <= D(L) <= 0 and phi = +1
    on [a, L). The integral over [s, L) is then the one over [s, a), >= 0
    by (a), plus L - a. The upper side is the mirror image.

    So only L (the smallest free id at its position) and H are priced, each
    as one sum of the sorted history against the sorted used positions plus
    it: O(t) for the t-th request, O(n^2) per run, exact on integers. L is
    served when its cost is <= H's or ``costs_equal`` to it.
    """

    def __init__(self, servers, ids=None):
        self.pool = LRState.for_servers(servers, ids)
        self.history: list = []  # the requests seen so far, sorted
        self.used: list = []  # positions of the servers served so far, sorted

    def _lower_wins(self, low, high) -> bool:
        """Whether cost(history, used + {low}) is <= the cost with high, or
        ``costs_equal`` to it; each pairs the two sorted lists in order."""
        used, costs = self.used, []
        for s in (low, high):
            g = bisect.bisect_left(used, s)
            used.insert(g, s)
            costs.append(sum(map(abs, map(operator.sub, self.history, used))))
            del used[g]
        return costs[0] <= costs[1] or costs_equal(*costs, len(self.history))

    def serve(self, request) -> int:
        pool = self.pool
        positions, end = pool.positions, len(pool.positions)
        bisect.insort(self.history, request)
        low, j = pool.neighbours(request)  # j: H
        if low >= 0 and (j == end or positions[j] != request):
            low = pool.neighbours(positions[low])[1]  # L: the smallest free id there
            if j == end or self._lower_wins(positions[low], positions[j]):
                j = low
        elif j == end:
            raise SubroutineError("no available server")
        bisect.insort(self.used, positions[j])
        return pool.take(j)
