"""Advice-free online matching algorithms usable inside DIVIDE_k blocks.

Each subroutine owns a fixed server pool and serves requests one at a time,
always returning a still-available server from that pool. ``greedy`` and
``permutation`` run on LR's server pool (``LRState``) and, like LR, serve one
of the two free neighbours of each request that ``LRState.neighbours``
returns, the nearest free server at or below it or the nearest at or above
it. ``greedy`` takes the nearer one,
O(log n) amortised; ``permutation`` prices the two, O(t) for the t-th request
and O(n^2) per run. Both serve the ids of the full scans they replaced except
at float-rounding ties. ``clairvoyant`` reads its block's future requests and
replays their offline optimum, so it is a verification device, not an online
algorithm, for DIVIDE_k's exact checks.
"""

from __future__ import annotations

import bisect
import operator
from typing import Sequence

from .lr import LRState
from .model import costs_equal
from .offline import monotone_assignment

SUBROUTINE_NAMES = ("greedy", "permutation", "clairvoyant")


class SubroutineError(RuntimeError):
    pass


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


class Clairvoyant:
    """Reads its block's future requests: a verification device, not online."""

    def __init__(self, servers, ids=None, sealed: Sequence = ()):
        ids = range(len(servers)) if ids is None else ids
        self.ids = [sid for _pos, sid in sorted(zip(servers, ids))]
        self.sealed = list(sealed)
        if len(self.sealed) > len(self.ids):
            raise SubroutineError("sealed sequence longer than the pool")
        # request t -> pool rank; a permutation, so no rank is served twice
        self.plan = monotone_assignment(self.sealed)
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
        return self.ids[rank]


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
