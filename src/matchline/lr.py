"""Algorithm LR: 1-competitive online matching with one direction bit per
ambiguous request.

Serving rules, in order: exact-position match (smallest original index among
equals), forced left edge, forced right edge, otherwise read one bit (0 =
greatest unmatched server strictly below the request, 1 = least unmatched
server strictly above). The last move is always forced, so at most n-1 bits
are read.

The server pool (``LRState``) is only a pool: the free servers themselves,
sorted by (position, original index), in runs of at most ``RUN`` entries.
Its one search, ``neighbours``, is a bisect over the runs' last positions
and one inside a run: it finds the least free entry at or above a request,
and the greatest free entry below it is the entry just before. LR and the
``greedy`` and ``permutation`` subroutines are each a rule over that pair.
``take`` deletes an entry, a C-level move of at most ``RUN`` pointers, and
drops a run once it is empty. A pool has one constructor, which sorts
nothing: every caller holds its servers in (position, id) order already.

The oracle writes the bits by the rank rule, the exchange argument behind
the monotone optimum: when request r falls strictly between its unmatched
neighbours, the bit is 0 exactly when the free servers below r outnumber
the unserved requests below r, i.e. when r's partner in the monotone
matching of what remains lies below r. Both counts are the oracle's own.
It serves with LR's cases, one pool search per request, and reads the
first off the handle (k, i) found: i plus the prefix of the runs before k
in its Fenwick tree over LR's runs. The second does not depend on LR's
choices, as every request is served on arrival whatever LR does, so
``_later_below`` counts them all up front, on a pool of the sorted
requests. Both run on the instance's integer image, so the oracle's run
is checked once at the end against ``monotone_cost`` with ``==``.

Cost: O(log n) compares per request, plus for the oracle O(log n) Fenwick
steps in each of its two trees, plus one deletion of at most ``RUN``
entries per take. Dropping an emptied run moves the entries after it in
the pool's three index lists and rebuilds the oracle's tree of that pool
in O(n/RUN) steps: at most (n/RUN)^2 of each over a whole run, about 10^6
at n = 10^6. At n = 10^6 on a 2-core host the oracle took about 11 s and
a run about 4.7 s in one session (``BENCH_24.json``; the host's speed
drifts between sessions).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .model import Instance, Matching, integer_image, make_matching
from .offline import monotone_cost
from .tape import AdviceTape


class LRError(RuntimeError):
    pass


#: most entries a run of a pool holds when it is built
RUN = 1024


class LRState:
    """Server pool: the free servers in (position, id) order, in runs of at
    most ``RUN`` entries: ``runs`` and ``ids`` hold the positions and the
    ids of what is still free, run by run, and ``lasts`` the last position
    of each run. No run is empty.

    An entry is named by its handle (k, i), offset i of run k. Entries are
    ordered by (position, id), so when position p holds a free server,
    ``neighbours(p)`` is the handle of its smallest free id. LR's run, its
    oracle, ``greedy``, ``permutation`` and DIVIDE_k's inner LR all use the
    pool through ``neighbours`` and ``take`` alone."""

    __slots__ = ("runs", "ids", "lasts")

    def __init__(self, positions, ids=None):
        """The pool of the servers ``ids`` (default: their places) at
        ``positions``, both already in (position, id) order: an
        ``Instance``'s servers with their places, a DIVIDE_k block's."""
        n = len(positions)
        if ids is None:
            ids = range(n)
        elif len(ids) != n:
            raise ValueError(f"{n} servers but {len(ids)} ids")
        # one loop, not three comprehensions: DIVIDE_k builds thousands of
        # tiny pools
        runs, runs_ids, lasts = self.runs, self.ids, self.lasts = [], [], []
        for a in range(0, n, RUN):
            run = list(positions[a : a + RUN])
            runs.append(run)
            runs_ids.append(list(ids[a : a + RUN]))
            lasts.append(run[-1])

    def neighbours(self, x) -> tuple[int, int]:
        """Handle of the least free entry whose position is >= x, (len(runs),
        0) when there is none. The greatest free entry < x is the one just
        before it: (k, i - 1), or the last of run k - 1 when i = 0."""
        lasts = self.lasts
        k = bisect_left(lasts, x)
        if k == len(lasts):
            return k, 0
        return k, bisect_left(self.runs[k], x)

    def take(self, k: int, i: int) -> int:
        """Match the server at handle (k, i); returns its original index.
        An emptied run drops, and the runs after it move down one."""
        run = self.runs[k]
        del run[i]
        if run:
            if i == len(run):
                self.lasts[k] = run[-1]
            return self.ids[k].pop(i)
        del self.runs[k], self.lasts[k]
        return self.ids.pop(k)[0]


def _fenwick(sizes) -> list:
    """Fenwick tree over ``sizes``: node c sums sizes c - lowbit(c) .. c - 1,
    so the sizes before k sum over k, k & (k - 1), ... down to 0."""
    tree = [0, *sizes]
    top = len(tree)
    for c in range(1, top):
        up = c + (c & -c)
        if up < top:
            tree[up] += tree[c]
    return tree


def _later_below(requests) -> list:
    """#{u >= t : r_u < r_t} for each t: each r_t in turn is counted, then
    taken, from a pool of the sorted requests (which of equal entries goes
    does not change a count of smaller ones)."""
    pool = LRState(sorted(requests))
    runs, lasts, take = pool.runs, pool.lasts, pool.take
    tree = _fenwick(map(len, runs))
    top = len(tree)
    belows = []
    for r in requests:
        k = bisect_left(lasts, r)
        run = runs[k]
        below = i = bisect_left(run, r)
        c = k
        while c:
            below += tree[c]
            c &= c - 1
        belows.append(below)
        take(k, i)
        if run:
            c = k + 1
            while c < top:
                tree[c] -= 1
                c += c & -c
        else:
            tree = _fenwick(map(len, runs))  # the runs after k moved down one
            top = len(tree)
    return belows


def lr_serve(state: LRState, request, tape: AdviceTape) -> int:
    """Match one request; returns the chosen server's original index.

    The search is ``LRState.neighbours``, inlined: that saves a call and a
    tuple per request. ``lr_oracle`` repeats this search and these cases in
    its own loop."""
    runs, lasts = state.runs, state.lasts
    k = bisect_left(lasts, request)
    if k == len(lasts):
        if not k:
            raise LRError("no unmatched servers left")
        # all unmatched servers are less: largest of them
        k -= 1
        return state.take(k, len(runs[k]) - 1)
    run = runs[k]
    i = bisect_left(run, request)
    if (i or k) and run[i] != request and not tape.read_bit():
        # strictly between two free servers, and the bit says left; an exact
        # match (smallest index among equals) or no server below takes (k, i)
        if i:
            i -= 1
        else:
            k -= 1
            i = len(runs[k]) - 1
    return state.take(k, i)


def lr_oracle(instance: Instance) -> AdviceTape:
    """Advice bits under which lr_run reproduces an optimal matching.

    Serves with ``lr_serve``'s cases after one search of LR's pool per
    request, and reads an ambiguous request's bit by the rank rule off the
    handle (k, i) found, against ``_later_below``'s count. Its Fenwick tree
    over LR's runs is built once, decremented from k + 1 by each take, and
    rebuilt when a take drops run k. About 11 s at n = 10^6
    (``BENCH_24.json``)."""
    servers, requests = integer_image(instance)
    state = LRState(servers)
    belows = _later_below(requests)
    runs, lasts, take = state.runs, state.lasts, state.take
    tree = _fenwick(map(len, runs))
    top = len(tree)
    bits = []
    cost = 0
    for r, below in zip(requests, belows):
        k = bisect_left(lasts, r)
        if k == len(lasts):
            # all free servers are less: largest of them (one is left, as
            # there are as many servers as requests)
            k -= 1
            run = runs[k]
            i = len(run) - 1
        else:
            run = runs[k]
            i = bisect_left(run, r)
            if (i or k) and run[i] != r:
                # strictly between two free servers: the rank rule
                rank, c = i, k
                while c:
                    rank += tree[c]
                    c &= c - 1
                if rank > below:
                    bits.append(0)
                    if i:
                        i -= 1
                    else:
                        k -= 1
                        run = runs[k]
                        i = len(run) - 1
                else:
                    bits.append(1)
        cost += abs(r - run[i])
        take(k, i)
        if run:
            c = k + 1
            while c < top:
                tree[c] -= 1
                c += c & -c
        else:
            tree = _fenwick(map(len, runs))  # the runs after k moved down one
            top = len(tree)
    opt = monotone_cost(servers, requests)
    if cost != opt:
        raise LRError(f"oracle advice missed the optimum on the image: {cost!r} vs {opt!r}")
    return AdviceTape(bits)


@dataclass(frozen=True)
class LRResult:
    matching: Matching
    bits_read: int


def lr_run(instance: Instance, tape: AdviceTape) -> LRResult:
    """Serve the whole request sequence against the given advice tape;
    ``bits_read`` counts the tape reads this run made. It serves and prices
    on the integer image, whose compares are the positions'."""
    image = servers, requests = integer_image(instance)
    state = LRState(servers)
    start = tape.bits_read
    assignment = [lr_serve(state, r, tape) for r in requests]
    return LRResult(make_matching(instance, assignment, image), tape.bits_read - start)
