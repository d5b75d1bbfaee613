"""Advice-free online matching algorithms usable inside DIVIDE_k blocks.

Each subroutine owns a fixed server pool and serves requests one at a time,
always returning a still-available server from that pool. ``clairvoyant``
reads its block's future requests and replays their offline optimum, so it is
a verification device, not an online algorithm, for DIVIDE_k's exact checks.
"""

from __future__ import annotations

import bisect
from typing import Sequence

from .lr import LRState
from .model import costs_equal
from .offline import monotone_assignment

SUBROUTINE_NAMES = ("greedy", "permutation", "clairvoyant")


class SubroutineError(RuntimeError):
    pass


class Greedy:
    """Nearest available server; ties toward smaller position, then id.

    Runs on LR's server pool (``LRState``): one bisect splits the servers at
    the request and the "next free" pointers give the nearest free server on
    each side, O(log n) amortised per request.
    """

    def __init__(self, servers: Sequence, ids: Sequence[int] | None = None):
        self.pool = LRState.for_servers(servers, ids)

    def serve(self, request) -> int:
        pool = self.pool
        positions, end = pool.positions, len(pool.positions)
        i = bisect.bisect_left(positions, request)
        j = pool.next_free(i)  # least position >= request, smallest id there
        left = pool.prev_free(i)
        if left >= 0:
            # distances are compared as computed: where rounding makes a free
            # position farther below no farther away, the smaller one wins
            dist = abs(request - positions[left])
            while True:
                first = bisect.bisect_left(positions, positions[left], 0, left)
                below = pool.prev_free(first)
                if below < 0 or abs(request - positions[below]) > dist:
                    break
                left, dist = below, abs(request - positions[below])
            if j == end or dist <= abs(request - positions[j]):
                j = pool.next_free(first)  # smallest free id at that position
        elif j == end:
            raise SubroutineError("no available server")
        return pool.take(j)


class Permutation:
    """Classical Permutation algorithm (Khuller, Mitchell and Vazirani 1994;
    Kalyanasundaram and Pruhs 1993), (2m - 1)-competitive on m servers.

    The servers U it has used form an optimal server set for the requests
    seen so far. For a new request it serves a free server s for which
    U + {s} is optimal for the extended history R. Such an s exists: given
    an optimal server set for t - 1 requests, some optimal set for t
    requests adds one server to it (the lemma behind Permutation). So the
    minimum over the free servers of cost(R, U + {s}) is the running
    optimum, and no separate optimum is computed. Ties go to the first pool
    index (position, then id) whose cost is at or within ``costs_equal`` of
    that minimum.

    On the line an optimal matching of a fixed server set pairs the sorted
    requests with the sorted positions. With g the number of used positions
    strictly below s, that order pairs R[i] with U[i] for i < g, R[g] with
    s, and R[i] with U[i - 1] for i > g, so

        cost(R, U + {s}) = A[g] + |R[g] - s| + B[g],
        A[g] = sum_{i<g} |R[i] - U[i]|,  B[g] = sum_{i>g} |R[i] - U[i-1]|.

    One pass up and one down the sorted history give every A and B, and one
    pass over the pool prices every free server: O(t + m) for the t-th
    request on m servers, O(n^2) per run. Integer positions keep every sum
    an exact int.

    The chosen server is not always one of the two free servers nearest the
    request: where float rounding ties the costs of farther servers, the
    first pool index wins. So pricing only those two would change the ids
    served, and the full scan stays.
    """

    def __init__(self, servers, ids=None):
        ids = range(len(servers)) if ids is None else ids
        self.pool = sorted(zip(servers, ids))
        self.free = [True] * len(self.pool)
        self.history: list = []  # the requests seen so far, sorted
        self.used: list = []  # positions of the servers served so far, sorted

    def serve(self, request) -> int:
        history, used = self.history, self.used
        bisect.insort(history, request)
        t = len(history)
        below = [0] * t  # A[g]
        acc = 0
        for g in range(1, t):
            acc += abs(history[g - 1] - used[g - 1])
            below[g] = acc
        above = [0] * t  # B[g]
        acc = 0
        for g in range(t - 2, -1, -1):
            acc += abs(history[g + 1] - used[g])
            above[g] = acc
        candidates, costs = [], []
        g = 0
        for idx, ((s, _sid), free) in enumerate(zip(self.pool, self.free)):
            if free:
                while g < t - 1 and used[g] < s:
                    g += 1
                candidates.append(idx)
                costs.append(below[g] + abs(history[g] - s) + above[g])
        if not costs:
            raise SubroutineError("no available server")
        best = min(costs)
        for idx, c in zip(candidates, costs):
            if c <= best or costs_equal(c, best, t):
                break
        self.free[idx] = False
        s, sid = self.pool[idx]
        bisect.insort(used, s)
        return sid


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
