"""Algorithm LR: 1-competitive online matching with one direction bit per
ambiguous request.

Serving rules, in order: exact-position match (smallest original index among
equals), forced left edge, forced right edge, otherwise read one bit (0 =
greatest unmatched server strictly below the request, 1 = least unmatched
server strictly above). The last move is always forced, so at most n-1 bits
are read.

The server pool (``LRState``) keeps the free servers themselves, sorted by
(position, original index), in runs of at most ``RUN`` entries. Its one
search, ``neighbours``, is a bisect over the runs' last positions and one
inside a run: it finds the least free entry at or above a request, and the
greatest free entry below it is the entry just before. LR and the
``greedy`` and ``permutation`` subroutines are each a rule over that pair.
``take`` deletes an entry, a C-level move of at most ``RUN`` pointers, and
drops a run once it is empty.

The oracle writes the bits by the rank rule, the exchange argument behind
the monotone optimum: when request r falls strictly between its unmatched
neighbours, the bit is 0 exactly when the free servers below r outnumber
the unserved requests below r, i.e. when r's partner in the monotone
matching of what remains lies below r. The oracle serves with LR's cases
and one pool search per request, and reads the first count off the handle
(k, i) that search found: i plus a Fenwick prefix over the sizes of the
runs before k. The second count does not depend on LR's choices, as every
request is served on arrival whatever LR does; so ``take_ranks`` takes all
of them up front, in one pass over a second pool, of the (request,
arrival) pairs, from which each arrival in turn removes itself. Its run is
checked once at the end against ``monotone_cost`` under ``costs_equal``.

Cost: O(log n) compares and Fenwick steps per request, plus one deletion of
at most ``RUN`` entries. Dropping an emptied run moves the entries after it
in the pool's three index lists, and rebuilds the Fenwick tree of a ranked
pool in O(n/RUN) steps: at most (n/RUN)^2 of each over a whole run, about
10^6 at n = 10^6. At n = 10^6 on a 2-core host the oracle took about
11 s and a run about 4.7 s in one session (``BENCH_24.json``; the host's
speed drifts between sessions).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .model import Instance, Matching, costs_equal, make_matching
from .offline import monotone_cost
from .tape import AdviceTape


class LRError(RuntimeError):
    pass


#: most entries a run of a pool holds when it is built
RUN = 1024


class LRState:
    """Server pool: the free servers, sorted by (position, id), in runs of at
    most ``RUN`` entries: ``runs`` and ``ids`` hold the positions and the
    ids of what is still free, run by run, and ``lasts`` the last position
    of each run. No run is empty.

    An entry is named by its handle (k, i), offset i of run k. Entries are
    ordered by (position, id), so when position p holds a free server,
    ``neighbours(p)`` is the handle of its smallest free id.

    ``tree`` is a Fenwick tree over the runs' sizes, built by the first
    rank the oracle reads or by ``take_ranks``, and kept from then on
    (rebuilt when a run drops, as the runs after it move down one). Pools
    that are never ranked (LR's run, ``greedy``, ``permutation``) never
    build it, which keeps a pool of a few servers about as cheap to build as
    two lists."""

    __slots__ = ("runs", "ids", "lasts", "tree")

    def __init__(self, positions: list, indices: list):
        """The pool of the servers ``indices`` at ``positions``, both already
        in (position, id) order."""
        n = len(positions)
        if len(indices) != n:
            raise ValueError(f"{n} servers but {len(indices)} ids")
        # one loop, not three comprehensions: DIVIDE_k builds thousands of
        # tiny pools
        runs, ids, lasts = self.runs, self.ids, self.lasts = [], [], []
        for a in range(0, n, RUN):
            run = positions[a : a + RUN]
            runs.append(run)
            ids.append(indices[a : a + RUN])
            lasts.append(run[-1])
        self.tree = []

    def _index(self) -> list:
        """Build ``tree`` from the runs' sizes: node c holds the summed sizes
        of runs c - lowbit(c) .. c - 1."""
        tree = [0, *map(len, self.runs)]
        top = len(tree)
        for c in range(1, top):
            up = c + (c & -c)
            if up < top:
                tree[up] += tree[c]
        self.tree = tree
        return tree

    @classmethod
    def for_servers(cls, servers, indices=None) -> "LRState":
        """The pool of ``servers``, whose ids are ``indices`` (default: their
        places in ``servers``). Without ids, a stable sort of the places by
        position gives the (position, id) order without a tuple per server."""
        n = len(servers)
        if indices is None:
            order = sorted(range(n), key=servers.__getitem__)
            return cls(list(map(servers.__getitem__, order)), order)
        if len(indices) != n:
            raise ValueError(f"{n} servers but {len(indices)} ids")
        pool = sorted(zip(servers, indices))
        return cls([s for s, _ in pool], [i for _, i in pool])

    def neighbours(self, x) -> tuple[int, int]:
        """Handle of the least free entry whose position is >= x, (len(runs),
        0) when there is none. The greatest free entry < x is the one just
        before it: (k, i - 1), or the last of run k - 1 when i = 0."""
        lasts = self.lasts
        k = bisect_left(lasts, x)
        if k == len(lasts):
            return k, 0
        return k, bisect_left(self.runs[k], x)

    def take_ranks(self, xs) -> list:
        """For each x of ``xs`` in turn, take the least free entry whose
        position is >= x; returns the rank of each, the number of free
        entries below it when it was taken."""
        runs, ids, lasts = self.runs, self.ids, self.lasts
        tree = self.tree or self._index()
        ranks = []
        for x in xs:
            k = bisect_left(lasts, x)
            try:
                run = runs[k]
            except IndexError:
                raise LRError(f"no free entry at or above {x!r}") from None
            rank = i = bisect_left(run, x)
            del run[i]
            c = k
            while c:
                rank += tree[c]
                c &= c - 1
            c, top = k + 1, len(tree)
            while c < top:
                tree[c] -= 1
                c += c & -c
            if run:
                del ids[k][i]
                if i == len(run):
                    lasts[k] = run[-1]
            else:
                del runs[k], lasts[k], ids[k]
                tree = self._index()  # the runs after k moved down one
            ranks.append(rank)
        return ranks

    def take(self, k: int, i: int) -> int:
        """Match the server at handle (k, i); returns its original index."""
        run = self.runs[k]
        del run[i]
        tree = self.tree
        if tree:
            c, top = k + 1, len(tree)
            while c < top:
                tree[c] -= 1
                c += c & -c
        if run:
            if i == len(run):
                self.lasts[k] = run[-1]
            return self.ids[k].pop(i)
        del self.runs[k], self.lasts[k]
        if tree:
            self._index()  # the runs after k moved down one
        return self.ids.pop(k)[0]


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

    Each request is served by ``lr_serve``'s cases after one search of LR's
    pool, and an ambiguous one's bit is read off the handle (k, i) that
    search found: the free servers below r number i plus the Fenwick prefix
    of the runs before k. The unserved requests below r, the other side of
    the rank rule, are those of r's arrival or later whatever LR chose, so
    they are counted for every request before the loop, by one
    ``take_ranks`` pass. O(log n) steps per request (about 11 s at
    n = 10^6, ``BENCH_24.json``)."""
    servers, requests = instance.servers, instance.requests
    state = LRState.for_servers(servers)
    # by (position, arrival): r is the least unserved entry >= r, as earlier
    # arrivals at r are served
    belows = LRState.for_servers(requests).take_ranks(requests)
    runs, lasts, take = state.runs, state.lasts, state.take
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
                tree = state.tree or state._index()
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
    opt = monotone_cost(servers, requests)
    if not costs_equal(cost, opt, instance.n):
        raise LRError(f"oracle advice missed the optimum: cost {cost!r} vs {opt!r}")
    return AdviceTape(bits)


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
