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

``lr_serve`` is LR's one loop: it serves a sequence of requests on a pool
and asks a caller's ``bit`` for each bit it reads. LR's run passes the
tape's ``bit_reader`` and its oracle a lookup of the sides below, both
C-level calls, so their requests run no Python frame but the loop's own;
DIVIDE_k passes the sides its classification fixed.

The oracle's bit is static: for an ambiguous request it is the side of the
request's partner in the monotone optimum of the whole instance (the
request's rank in ``monotone_order``, ties by arrival; a partner at the
request's own position counts as below). ``lr_oracle`` proves it. The
oracle reads every side off one pass over the requests in rank order,
serves them with ``lr_serve`` and writes the sides it read. It runs on the
instance's integer image, so its run is checked once at the end against
``monotone_cost`` with ``==``.

Cost: O(log n) compares per request, plus one deletion of at most ``RUN``
entries, which ``lr_serve`` makes in place rather than through ``take``;
the oracle adds one keyed sort of the requests, one pass over them in rank
order and a ``monotone_cost`` over lists that pass left sorted, whose
sorts are then linear.
Dropping an emptied run moves the runs after it in the pool's three lists,
O(n/RUN) pointers: at most (n/RUN)^2 over a whole run, about 10^6 at
n = 10^6. ``tests/test_growth.py`` counts the compares and the arithmetic
of LR's oracle and run and checks that they grow as n log n.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .model import Instance, Matching, integer_image
from .offline import monotone_cost, monotone_order
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
    ``neighbours(p)`` is the handle of its smallest free id. ``permutation``
    uses the pool through ``neighbours`` and ``take`` alone. ``lr_serve``,
    the loop of LR's run, its oracle and DIVIDE_k's inner LR, and
    ``greedy``'s loop inline the search and make ``take``'s delete in
    place, with no call per request; ``take`` is the definition that
    ``tests/test_pool_take.py`` holds both copies to."""

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


def lr_serve(state: LRState, requests, bit) -> tuple[list, list, int | float]:
    """Serve ``requests`` in order on the pool; returns the id each took,
    the bits read, in order, and the total distance on the pool's
    coordinates.

    ``bit(t)`` is the direction bit of request t: it is called once for
    each request that reads a bit, in arrival order, and never at an exact
    match or a forced move. The search is ``LRState.neighbours`` and the
    delete ``LRState.take``, both inlined: that saves two calls and a tuple
    per request."""
    runs, ids, lasts = state.runs, state.ids, state.lasts
    taken, bits = [], []
    cost = 0
    for t, r in enumerate(requests):
        k = bisect_left(lasts, r)
        if k == len(lasts):
            if not k:
                raise LRError("no unmatched servers left")
            # all free servers are less: largest of them
            k -= 1
            run = runs[k]
            i = len(run) - 1
        else:
            run = runs[k]
            i = bisect_left(run, r)
            if (i or k) and run[i] != r:
                # strictly between two free servers; an exact match
                # (smallest id among equals) or no server below takes (k, i)
                b = bit(t)
                bits.append(b)
                if not b:
                    if i:
                        i -= 1
                    else:
                        k -= 1
                        run = runs[k]
                        i = len(run) - 1
        cost += abs(r - run[i])
        # LRState.take, inlined
        del run[i]
        if run:
            if i == len(run):
                lasts[k] = run[-1]
            taken.append(ids[k].pop(i))
        else:
            del runs[k], lasts[k]
            taken.append(ids.pop(k)[0])
    return taken, bits, cost


def lr_oracle(instance: Instance) -> AdviceTape:
    """Advice bits under which lr_run reproduces an optimal matching, on the
    integer image.

    The bit of an ambiguous request r_t is the side of its partner in the
    monotone optimum M: the server whose rank is r_t's rank in
    ``monotone_order``, 1 when it lies above r_t, 0 when it lies at r_t or
    below. One pass over the requests in rank order reads every side and
    lists the requests sorted. The oracle is LR's own run fed those sides,
    and its cost is checked at the end against ``monotone_cost``, which
    sorts both lists itself, so a wrong rank order cannot pass.

    Why the side is static. Rank the servers by (position, id) and the
    requests by (position, arrival); M pairs equal ranks. Before request t,
    let M_t be the monotone matching of the free servers and the unserved
    requests (M_1 = M). Invariant: (a) LR's moves so far plus M_t cost OPT;
    (b) M_t puts every unserved request's partner on its side in M. Ties:
    an unserved u ranked before t arrived later, so r_u < r_t strictly.

    Let a = M_t(t) and g the server LR takes. Then g lies weakly between
    r_t and a: an exact match is at r_t; a forced move takes the nearest
    free server on the only side that has one, a's side too; an ambiguous
    move takes the nearest free server on the side of its bit, which is
    a's side by (b), with a != r_t as no free server is at r_t. Giving t g,
    and g's partner u in M_t the server a, changes M_t's cost by
    |r_u - a| - |r_u - g| - |g - a| <= 0, so (a) holds at t + 1, where
    M_{t+1} is optimal on what remains.
    For (b), M_{t+1} is M_t with t and g dropped: if g ranks j among the
    free servers and t ranks m, the requests ranked after m up to j, or
    from j up to before m, each move one free server toward a, and no other
    partner moves. For j > m they lie at or above r_t, and either
    a <= g <= r_t, so their servers, old and new, lie at or below g: still
    below; or r_t <= g <= a with g ranked above a, so ranks m..j share one
    position. For j < m they lie strictly below r_t, and either
    r_t <= g <= a, so their servers lie at or above g: still above; or
    ranks j..m share one position. So every bit keeps (a), and at the end
    (a) says that the run costs OPT."""
    servers, requests = integer_image(instance)
    sides = [False] * len(requests)
    ranked = []
    for s, t in zip(servers, monotone_order(requests)):
        r = requests[t]
        sides[t] = r < s
        ranked.append(r)
    _ids, bits, cost = lr_serve(LRState(servers), requests, sides.__getitem__)
    opt = monotone_cost(servers, ranked)
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
    servers, requests = integer_image(instance)
    with tape.bit_reader() as bit:
        ids, bits, cost = lr_serve(LRState(servers), requests, bit)
    return LRResult(Matching(tuple(ids), instance.unscaled(cost)), len(bits))
