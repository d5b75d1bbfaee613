"""Advice-free online matching algorithms usable inside DIVIDE_k blocks.

Each subroutine owns a fixed server pool in (position, id) order, ids
defaulting to the places (``_ordered`` refuses any other order; nothing
sorts a pool), and serves requests one at a time, always returning a
still-available server from that pool. ``greedy`` and ``permutation`` run on
LR's server pool (``LRState``) and, like LR, serve one of the two free
neighbours of each request that ``LRState.neighbours`` finds, the nearest
free server at or below it or the nearest at or above it. ``greedy`` takes
the nearer one, O(log n) compares and one deletion of at most ``RUN``
entries per request; ``permutation`` prices the two, O(t) for the t-th
request and O(n^2) per run. Both serve the ids of the full scans they
replaced: the package hands every pool ints (an instance's integer image or
RESCALE's planning servers), so each distance and price is exact.
``clairvoyant``, alone given its block's sealed future requests, replays
their offline optimum, so it is a verification device, not an online
algorithm, for DIVIDE_k's exact checks.
"""

from __future__ import annotations

import bisect
import operator
from typing import Sequence

from .lr import LRState
from .offline import monotone_assignment

SUBROUTINE_NAMES = ("greedy", "permutation", "clairvoyant")


class SubroutineError(RuntimeError):
    pass


def _ordered(servers: Sequence, ids: Sequence[int] | None) -> Sequence[int]:
    """``ids`` (default: the places), once the (position, id) pairs strictly rise."""
    ids = range(len(servers)) if ids is None else ids
    if len(ids) != len(servers):
        raise ValueError(f"{len(servers)} servers but {len(ids)} ids")
    pairs = list(zip(servers, ids))
    if any(map(operator.ge, pairs, pairs[1:])):
        raise SubroutineError("servers out of (position, id) order")
    return ids


class Greedy:
    """Nearest available server; ties toward smaller position, then id.

    Runs on LR's server pool (``LRState``): the search of ``neighbours``,
    inlined, gives the request's two free neighbours, the nearest free server
    below it and the nearest at or above it, with two bisects; the take
    deletes one entry of a run of at most ``RUN``. The lower one lies below
    the request and the upper one at or above, so each distance is a
    one-sided difference, equal to its ``abs``. When the lower one wins, a
    smaller free id at its position exists only when the free entry just
    before it holds the same position, so only then does a ``neighbours``
    call look for it.
    Inlining the first search saves about 7% of a DIVIDE_k run with greedy
    at n = 3000.
    """

    def __init__(self, servers: Sequence, ids: Sequence[int] | None = None):
        """``servers`` in (position, id) order, or ``SubroutineError``."""
        self.pool = LRState(servers, _ordered(servers, ids))

    def serve(self, request) -> int:
        pool = self.pool
        runs, lasts = pool.runs, pool.lasts
        k = bisect.bisect_left(lasts, request)
        i = bisect.bisect_left(runs[k], request) if k < len(lasts) else 0
        # (k, i): the upper neighbour; (lk, li): the lower one
        if i:
            lk, li = k, i - 1
        elif k:
            lk = k - 1
            li = len(runs[lk]) - 1
        elif runs:  # every free server is at or above the request
            return pool.take(k, i)
        else:
            raise SubroutineError("no available server")
        low_run = runs[lk]
        low = low_run[li]
        if k == len(runs) or request - low <= runs[k][i] - request:
            # the lower one wins; the smallest free id at its position
            before = low_run[li - 1] if li else runs[lk - 1][-1] if lk else None
            if before == low:
                lk, li = pool.neighbours(low)
            return pool.take(lk, li)
        return pool.take(k, i)


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
    served when its cost is <= H's.
    """

    def __init__(self, servers, ids=None):
        """``servers`` in (position, id) order, or ``SubroutineError``."""
        self.pool = LRState(servers, _ordered(servers, ids))
        self.history: list = []  # the requests seen so far, sorted
        self.used: list = []  # positions of the servers served so far, sorted

    def _lower_wins(self, low, high) -> bool:
        """Whether cost(history, used + {low}) is <= the cost with high;
        each pairs the two sorted lists in order."""
        used, costs = self.used, []
        for s in (low, high):
            g = bisect.bisect_left(used, s)
            used.insert(g, s)
            costs.append(sum(map(abs, map(operator.sub, self.history, used))))
            del used[g]
        return costs[0] <= costs[1]

    def serve(self, request) -> int:
        pool = self.pool
        runs = pool.runs
        end = len(runs)
        bisect.insort(self.history, request)
        k, i = pool.neighbours(request)  # H
        if (i or k) and (k == end or runs[k][i] != request):
            low = runs[k][i - 1] if i else runs[k - 1][-1]
            if k == end or self._lower_wins(low, runs[k][i]):
                k, i = pool.neighbours(low)  # L: the smallest free id there
        elif k == end:
            raise SubroutineError("no available server")
        bisect.insort(self.used, runs[k][i])
        return pool.take(k, i)


class Clairvoyant:
    """Reads its block's future requests: a verification device, not online."""

    def __init__(self, servers, ids=None, sealed: Sequence = ()):
        """As ``Greedy``'s; the request at rank t in ``sealed`` gets ``ids[t]``."""
        self.ids = _ordered(servers, ids)
        self.sealed = list(sealed)
        if len(self.sealed) != len(self.ids):
            # the plan's ranks are the whole pool's: a shorter sequence would
            # be served the pool's lowest servers, not an optimal subset
            side = "longer" if len(self.sealed) > len(self.ids) else "shorter"
            raise SubroutineError(f"sealed sequence {side} than the pool")
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
    if name == "clairvoyant":
        if sealed is None:
            raise SubroutineError("clairvoyant needs the sealed request sequence")
        return Clairvoyant(servers, ids, sealed)
    if name not in SUBROUTINE_NAMES:
        raise SubroutineError(f"unknown subroutine {name!r}")
    if sealed is not None:
        raise SubroutineError(f"{name} is online: it takes no sealed sequence")
    return (Greedy if name == "greedy" else Permutation)(servers, ids)
