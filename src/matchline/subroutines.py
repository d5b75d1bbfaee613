"""Advice-free online matching algorithms usable inside DIVIDE_k blocks.

Each subroutine owns a fixed server pool in (position, id) order, ids
defaulting to the places (``_ordered`` refuses any other order; nothing
sorts a pool). ``serve(requests)`` serves a request sequence in order and
returns the id each request took, always a still-available server from that
pool. ``greedy`` and ``permutation`` keep their state between calls, so one
call on a + b serves as a call on a then one on b, and an online caller may
pass one request per call. Both run on LR's server pool (``LRState``) and,
like LR, serve one of the two free neighbours of each request that
``LRState.neighbours`` finds, the nearest free server at or below it or the
nearest at or above it. ``greedy`` takes the nearer one, O(log n) compares
and one deletion of at most ``RUN`` entries per request; ``permutation``
prices the two over the window of used servers between them, O(w + log n)
compares for a window of w, and keeps its sorted history and used
positions with two O(t) C-level inserts at the t-th request. Both serve
the ids of the full scans they replaced: the package hands every pool ints
(an instance's integer image or RESCALE's planning servers), so each
distance and price is exact. ``clairvoyant`` is served its block's whole
sequence in one call and replays its offline optimum, so it is a
verification device, not an online algorithm, for DIVIDE_k's exact checks.
"""

from __future__ import annotations

import bisect
import operator
from typing import Sequence

from .lr import LRState
from .offline import monotone_order


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
    below it and the nearest at or above it, with two bisects, and the delete
    of ``take``, inlined too, removes one entry of a run of at most ``RUN``:
    O(log n) compares per request, O(n log n) per run. The lower one lies below
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

    def serve(self, requests) -> list:
        pool = self.pool
        runs, ids, lasts = pool.runs, pool.ids, pool.lasts
        served = []
        for request in requests:
            k = bisect.bisect_left(lasts, request)
            i = bisect.bisect_left(runs[k], request) if k < len(lasts) else 0
            # (k, i): the upper neighbour; (lk, li): the lower one, if any
            if i or k:
                if i:
                    lk, li = k, i - 1
                else:
                    lk = k - 1
                    li = len(runs[lk]) - 1
                low_run = runs[lk]
                low = low_run[li]
                if k == len(runs) or request - low <= runs[k][i] - request:
                    # the lower one wins; the smallest free id at its position
                    before = low_run[li - 1] if li else runs[lk - 1][-1] if lk else None
                    if before == low:
                        lk, li = pool.neighbours(low)
                    k, i = lk, li
            elif not runs:
                raise SubroutineError("no available server")
            # LRState.take, inlined
            run = runs[k]
            del run[i]
            if run:
                if i == len(run):
                    lasts[k] = run[-1]
                served.append(ids[k].pop(i))
            else:
                del runs[k], lasts[k]
                served.append(ids.pop(k)[0])
        return served


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
    by pairing the sorted history with the sorted used positions plus it,
    exact on integers. L is served when its cost is <= H's. The two pairings
    agree outside the window of slots a..b, a and b the places of L and H
    among the used positions, so only that window is priced: O(b - a + 1)
    for a request, the used servers in [L, H). Nothing bounds the window
    (a stretch of used servers can fill it), and keeping ``history`` and
    ``used`` sorted costs two O(t) C-level inserts at the t-th request, so
    a run is still O(n^2) in the worst case.
    """

    def __init__(self, servers, ids=None):
        """``servers`` in (position, id) order, or ``SubroutineError``."""
        self.pool = LRState(servers, _ordered(servers, ids))
        self.history: list = []  # the requests seen so far, sorted
        self.used: list = []  # positions of the servers served so far, sorted

    def _lower_wins(self, low, high) -> bool:
        """Whether cost(history, used + {low}) is <= the cost with high;
        each pairs the two sorted lists in order. With a and b the places
        of low and high in ``used``, the two pairings agree outside slots
        a..b, so only the window history[a..b] is priced: against low and
        used[a..b-1], and against used[a..b-1] and high."""
        used, history = self.used, self.history
        a = bisect.bisect_left(used, low)
        b = bisect.bisect_left(used, high, a)
        window, h = used[a:b], history[a : b + 1]
        with_low = abs(h[0] - low) + sum(map(abs, map(operator.sub, h[1:], window)))
        with_high = sum(map(abs, map(operator.sub, h, window))) + abs(h[-1] - high)
        return with_low <= with_high

    def serve(self, requests) -> list:
        pool = self.pool
        runs, history, used = pool.runs, self.history, self.used
        served = []
        for request in requests:
            end = len(runs)
            bisect.insort(history, request)
            k, i = pool.neighbours(request)  # H
            if (i or k) and (k == end or runs[k][i] != request):
                low = runs[k][i - 1] if i else runs[k - 1][-1]
                if k == end or self._lower_wins(low, runs[k][i]):
                    k, i = pool.neighbours(low)  # L: the smallest free id there
            elif k == end:
                raise SubroutineError("no available server")
            bisect.insort(used, runs[k][i])
            served.append(pool.take(k, i))
        return served


class Clairvoyant:
    """Serves its block's whole sequence with the sequence's offline
    optimum: a verification device, not an online algorithm."""

    def __init__(self, servers, ids=None):
        """``servers`` in (position, id) order, or ``SubroutineError``."""
        self.ids = _ordered(servers, ids)
        self.served = False

    def serve(self, requests) -> list:
        """The request at rank i in ``requests`` (``monotone_order``) gets
        ``ids[i]``, scattered in one pass over that order. The ranks are the
        whole pool's, so ``requests`` must be as long as the pool (a shorter
        sequence would be served the pool's lowest servers, not an optimal
        subset), and a pool serves one sequence only."""
        if self.served:
            raise SubroutineError("clairvoyant serves one sequence only")
        if len(requests) != len(self.ids):
            side = "longer" if len(requests) > len(self.ids) else "shorter"
            raise SubroutineError(f"sequence {side} than the pool")
        self.served = True
        served = [0] * len(requests)
        for j, t in zip(self.ids, monotone_order(requests)):
            served[t] = j
        return served


#: each block subroutine by name
SUBROUTINES = {"greedy": Greedy, "permutation": Permutation, "clairvoyant": Clairvoyant}
SUBROUTINE_NAMES = tuple(SUBROUTINES)


def make_subroutine(name: str, servers, ids=None):
    if name not in SUBROUTINES:
        raise SubroutineError(f"unknown subroutine {name!r}")
    return SUBROUTINES[name](servers, ids)
