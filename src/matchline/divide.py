"""DIVIDE_k: block partition, advice tape layout, marking, serving, RESCALE.

One ``BlockPlan`` holds a run's k groups of the n sorted servers, the
integer boundaries between them and N; every later step reads them there.
The oracle publishes one (q, d, m) triple per boundary (``DivideAdvice``): q
the extremal position of the requests whose optimal pair lies across it, d
the requests equal to q that stay inside their block, m the requests
matched across. Requests whose pair is inside their own block go to the
plug-in subroutine A; crossing requests are marked and served by LR over
the marked servers. LR's direction bits are DIVIDE_k's own: no auxiliary
tape holds them, LR reads each from the side the classification fixed, and
the reads are counted.

A run plans on ints and prices on the instance's integer image (``model``):
divide_run plans on the instance itself, RESCALE on its n^3 rescaling, with
the servers in units of 1/D. Every planning request is first clamped into
[1, N-1]: the servers' span [s_1, s_n] for divide_run, [1, ceil(s'_n)] for
RESCALE. A request r < s_1 costs (s_1 - r) + (s_j - s_1) against every
server s_j, so moving it to s_1 adds the same constant to every matching
(likewise above s_n) and keeps every optimum an optimum. The online
algorithm knows the servers, so it may clamp; DIVIDE_k is then exact on
every instance, and every q word lies in [1, N-1].

The tape layout is rigid: one q word per boundary, its slot the boundary's
frame in ``BlockPlan.frames``, then d/m pairs exactly for the crossed
boundaries, in the two marking orders (``_count_slots``). The
monotone optimum crosses each boundary one way only (see ``compute_advice``),
so boundary b's one word carries either side: with p_{-1} = 0 and
p_{k-1} = N - 1, it is q - p_{b-1}, 0 when nothing crosses, and a right
crossing (q in block b) is told from a left one (q in block b+1) by
comparing q with p_b. The decoded advice has the tape's shape, so a
boundary crossed both ways cannot be written down.

Each word is only as wide as the largest value it can hold, its bound: a
word with bound B is w(B) bits wide. The reader reads the q words first, so
it knows every bound from the plan and the q words before it reads a count,
and it checks each word against its bound as soon as it reads it.
With group b the servers start_b..stop_b - 1, boundary b's words have the
bounds
- q: p_{b+1} - p_{b-1}, the span of blocks b and b+1;
- right crossing (q <= p_b): d <= |group b|, since each request at q that
  stays in block b takes one of its servers; m <= n - stop_b, since in the
  monotone optimum the crossers take the server ranks stop_b and up;
- left crossing (q > p_b): d <= |group b+1|, as for a right crossing;
  m <= start_{b+1}, since the crossers take the server ranks below
  start_{b+1}; at a q collision (q[b] == q[b+1]) d instead carries the left
  share of the q-valued crossers (see ``DivideAdvice``), so there
  d <= m <= start_{b+1}.
Each bound is at most n, so the oracle tape holds at most
(k-1)(w(N) + 2w(n)) bits; only its bits count as advice.

Serving goes block by block, then LR. ``classify_requests`` lists what
each pool serves, each block's unmarked arrivals and the marked ones, from
positions and counters alone, before any subroutine chooses; and the pools
own disjoint servers. So no choice depends on the order in which the pools
are served: each block's subroutine is served its own requests in arrival
order, in one call, then LR the marked requests in arrival order. Every
pool sees the same requests in the same order as in one interleaved pass,
so the online model and every output are those of that pass.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from .model import Instance, InstanceError, Matching, integer_image
from .lr import LRState, lr_serve
from .subroutines import SUBROUTINE_NAMES, SubroutineError, make_subroutine
from .tape import AdviceTape


class DivideError(RuntimeError):
    pass


@dataclass(frozen=True)
class BlockPlan:
    """DIVIDE_k's planning frame: k contiguous groups over n servers, their
    boundaries and N. Boundary p_i is the floor of the midpoint of the two
    servers beside it: planning requests are integers, so they split there
    as at the midpoint. Every boundary and N is an int, taken on ints."""

    k: int
    groups: tuple  # k ranges (start, stop) of server indices, half-open
    boundaries: tuple  # k-1 integer boundaries p_i
    span_bound: int  # N = ceil(s_n) + 1
    # built with the plan: n, and per boundary b its frame (p_{b-1}, p_b,
    # p_{b+1}), p_{-1} = 0 and p_{k-1} = N - 1, where boundary b's q word lies
    n: int = field(init=False, repr=False, compare=False)
    frames: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p = (0, *self.boundaries, self.span_bound - 1)
        object.__setattr__(self, "n", self.groups[-1][1])
        object.__setattr__(self, "frames", tuple(zip(p, p[1:], p[2:])))

    def blocks_of(self, positions) -> list:
        """The 0-based block index of every position; block b is (p_{b-1}, p_b]."""
        boundaries = self.boundaries
        return [bisect_left(boundaries, p) for p in positions]


def plan_blocks(servers, k: int, unit: int = 1) -> BlockPlan:
    """The plan of the int ``servers``, given in units of 1/``unit``: a
    boundary is floor((a + b) / 2) of the two servers beside it, in whole
    units, and N = ceil(s_n) + 1."""
    n = len(servers)
    if isinstance(k, bool) or not isinstance(k, int) or not 1 <= k <= n:
        raise DivideError(f"k={k!r} is not an int in 1..{n}")
    big, small = -(-n // k), n // k
    ell = n % k
    groups = []
    start = 0
    for i in range(k):
        size = big if i < ell else small
        groups.append((start, start + size))
        start += size
    boundaries = tuple(
        (servers[groups[i][1] - 1] + servers[groups[i + 1][0]]) // (2 * unit)
        for i in range(k - 1)
    )
    return BlockPlan(k, tuple(groups), boundaries, -(-servers[-1] // unit) + 1)


@dataclass(frozen=True)
class DivideAdvice:
    """Decoded advice, in the tape's shape: one (q, d, m) triple per boundary
    b = 0..k-2, the boundary p_b between blocks b and b+1 (0-based).

    q[b] is None when no request's optimal pair lies across boundary b, and
    then d[b] = m[b] = 0. Otherwise the requests cross it one way only (see
    ``compute_advice``), and q[b] tells which: q[b] <= p_b is the leftmost
    position of a request crossing right out of block b, q[b] > p_b the
    rightmost position of one crossing left out of block b+1. m[b] counts
    the crossing requests, d[b] the requests at q[b] that stay inside.

    Block b's words are q[b-1] and q[b]. When they are equal, requests at
    one position of block b cross it both ways and the two d words would be
    identical, so d[b-1] instead carries the number of q-valued requests
    that cross left, which the serving cases cannot infer on their own; the
    reader sees the collision in the decoded q words, at no extra bits.
    """

    k: int
    q: tuple
    d: tuple
    m: tuple


def _crossings(plan: BlockPlan, q) -> tuple:
    """Boundaries crossed right, ascending, and crossed left, descending."""
    right, left = [], []
    for b, (word, p) in enumerate(zip(q, plan.boundaries)):
        if word is not None:
            (right if word <= p else left).append(b)
    left.reverse()
    return right, left


def _count_slots(plan: BlockPlan, q) -> list:
    """The count words of the advice tape layout: (field, boundary, bound)
    per word, the word w(bound) bits wide.

    The tape holds one q word per boundary first, boundary b's slot its
    frame (p_{b-1}, p_b, p_{b+1}) in ``plan.frames``, and then these: a d/m
    pair for each crossed boundary, right crossings by ascending boundary,
    left crossings by descending boundary, the two marking orders. The
    bounds are those of the module docstring, each with its reason there:

        q of boundary b     p_{b+1} - p_{b-1}
        right crossing      d <= |group b|,    m <= n - stop_b
        left crossing       d <= |group b+1|,  m <= start_{b+1}
        left, q collision   d <= start_{b+1}

    They read only the plan and the q words, so a reader knows them once it
    has read the q words.
    """
    groups, n = plan.groups, plan.n
    right, left = _crossings(plan, q)
    slots = []
    for b in right:
        start, stop = groups[b]
        slots += (("d", b, stop - start), ("m", b, n - stop))
    last = len(q) - 1
    for b in left:
        start, stop = groups[b + 1]
        d_bound = start if b < last and q[b + 1] == q[b] else stop - start
        slots += (("d", b, d_bound), ("m", b, start))
    return slots


def advice_words(advice: DivideAdvice, plan: BlockPlan):
    """(field, boundary, value, bound) per word of the tape
    ``encode_divide_advice`` writes, in tape order, once it has checked them
    all; the word is w(bound) bits wide. A q word's value is its offset
    q - p_{b-1}, 0 when boundary b is not crossed; a count's is the count."""
    encode_divide_advice(advice, plan)
    for b, (low, _mid, high) in enumerate(plan.frames):
        word = advice.q[b]
        yield "q", b, 0 if word is None else word - low, high - low
    counts = {"d": advice.d, "m": advice.m}
    for f, b, bound in _count_slots(plan, advice.q):
        yield f, b, counts[f][b], bound


def compute_advice(requests, plan: BlockPlan) -> DivideAdvice:
    """Derive q/d/m of ``requests`` against the monotone reference optimum.

    That optimum pairs the request of rank i (sorted by position, ties by
    arrival) with server i, so the requests need only be sorted: block b's
    requests are one run of ranks, found by bisecting its boundaries, and
    group b's servers the ranks start..stop-1. Within the block's run, the
    ranks below start cross left, those from stop on cross right, and each
    q, d and m is an end of one of these runs or a count of equal values at
    one, found by bisection. After the sort, no step visits single requests.

    A left crossing out of block b goes to boundary b-1, a right one to
    boundary b, and no boundary is written twice: a right crossing out of
    block b needs hi > stop_b, a left one out of block b+1 hi < start_{b+1},
    and start_{b+1} = stop_b.
    """
    k = plan.k
    ranked = sorted(requests)
    n = plan.n
    if len(ranked) != n:
        raise InstanceError(f"{n} servers vs {len(ranked)} requests")
    q, d, m = [None] * (k - 1), [0] * (k - 1), [0] * (k - 1)
    lo = 0
    for b, (start, stop) in enumerate(plan.groups):
        hi = bisect_right(ranked, plan.boundaries[b]) if b < k - 1 else len(ranked)
        # ranks lo..left-1 cross left, left..right-1 stay, right..hi-1 cross right
        left, right = min(max(start, lo), hi), min(max(stop, lo), hi)
        if lo < left:
            q_left = q[b - 1] = ranked[left - 1]
            m[b - 1] = left - lo
            d[b - 1] = bisect_right(ranked, q_left, left, right) - left
        if right < hi:
            q_right = q[b] = ranked[right]
            m[b] = hi - right
            d[b] = right - bisect_left(ranked, q_right, left, right)
            if lo < left and q_right == q_left:
                # q collision: d[b-1] would duplicate d[b], so it carries the
                # left share of the q-valued crossers instead
                d[b - 1] = left - bisect_left(ranked, q_right, lo, left)
        lo = hi
    return DivideAdvice(k, tuple(q), tuple(d), tuple(m))


def encode_divide_advice(advice: DivideAdvice, plan: BlockPlan) -> AdviceTape:
    """Writer of the layout: the q words, then ``_count_slots``' words, all
    checked before any is written. A nonzero count of an uncrossed boundary
    has no word to go in, so it is refused first; then a word out of range."""
    q, d, m = advice.q, advice.d, advice.m
    for b, word in enumerate(q):
        if word is None and (d[b] or m[b]):
            f, value = ("d", d[b]) if d[b] else ("m", m[b])
            raise DivideError(f"{f} word of boundary {b}: {value} but the boundary is not crossed")
    # bound.bit_length() is w(bound), ``word_width`` without its call
    words = []
    for b, (low, _mid, high) in enumerate(plan.frames):
        word, bound = q[b], high - low
        value, least = (0, 0) if word is None else (word - low, 1)
        if not least <= value <= bound:
            raise DivideError(f"q word of boundary {b}: {value} outside {least}..{bound}")
        words.append((value, bound.bit_length()))
    counts = {"d": d, "m": m}
    for f, b, bound in _count_slots(plan, q):
        value = counts[f][b]
        if not 0 <= value <= bound:
            raise DivideError(f"{f} word of boundary {b}: {value} outside 0..{bound}")
        words.append((value, bound.bit_length()))
    tape = AdviceTape()
    tape.write_words(words)
    return tape


def decode_divide_advice(tape: AdviceTape, plan: BlockPlan) -> DivideAdvice:
    """Sequential reader of the layout: the q words, then the count words
    of ``_count_slots``. A word that fits its width but exceeds its bound is
    corrupt advice, refused as soon as it is read."""
    k = plan.k
    q, d, m = [None] * (k - 1), [0] * (k - 1), [0] * (k - 1)
    read_word = tape.read_word
    for b, (low, _mid, high) in enumerate(plan.frames):
        bound = high - low
        value = read_word(bound.bit_length())  # w(bound)
        if value > bound:
            raise DivideError(
                f"corrupt advice: q word of boundary {b}: {value} above its bound {bound}"
            )
        if value:
            q[b] = low + value
    counts = {"d": d, "m": m}
    for f, b, bound in _count_slots(plan, q):
        value = read_word(bound.bit_length())
        if value > bound:
            raise DivideError(
                f"corrupt advice: {f} word of boundary {b}: {value} above its bound {bound}"
            )
        counts[f][b] = value
    return DivideAdvice(k, tuple(q), tuple(d), tuple(m))


@dataclass(frozen=True)
class MarkSets:
    marked_right: frozenset
    marked_left: frozenset
    marked: frozenset = field(init=False, repr=False, compare=False)  # both sides

    def __post_init__(self):
        object.__setattr__(self, "marked", self.marked_right | self.marked_left)


def mark_servers(plan: BlockPlan, advice: DivideAdvice) -> MarkSets:
    """Pick the servers that will absorb the crossing requests.

    Requests crossing boundary b right take the lowest-index unmarked
    servers right of it (ascending b); those crossing it left take the
    highest-index unmarked servers left of it (descending b).

    Boundaries are visited moving away from the side's first server, so the
    servers marked so far on a side include every server from the current
    boundary up to that side's cursor, and none beyond it: the next m marks
    are the m servers past the boundary or the cursor, whichever is farther.
    """
    groups, end, m = plan.groups, plan.n, advice.m
    right, left = _crossings(plan, advice.q)
    marked_right: set[int] = set()
    cursor = 0  # one past the highest server marked right
    for b in right:
        start = max(cursor, groups[b + 1][0])
        if end - start < m[b]:
            raise DivideError("corrupt advice: not enough servers to mark right")
        cursor = start + m[b]
        marked_right.update(range(start, cursor))
    marked_left: set[int] = set()
    cursor = end  # the lowest server marked left
    for b in left:
        start = min(cursor, groups[b + 1][0])
        if start < m[b]:
            raise DivideError("corrupt advice: not enough servers to mark left")
        cursor = start - m[b]
        marked_left.update(range(cursor, start))
    if marked_left & marked_right:
        raise DivideError("corrupt advice: a server marked from both sides")
    return MarkSets(frozenset(marked_right), frozenset(marked_left))


def classify_requests(requests, plan: BlockPlan, advice: DivideAdvice):
    """Replay the serving case analysis without any subroutine.

    The case guards depend only on positions and running counters, so the
    marked/unmarked split is fixed before A makes a single choice. Returns
    what each pool serves, as arrival indices: ``arrivals[b]``, ascending,
    those of block b's unmarked requests, and ``marked_arrivals``, one
    (t, b, right) per marked request in arrival order, ``right`` true when
    it crosses its block's right boundary.

    Padded by an uncrossed word at each end, block b's words sit at b and
    b + 1. A request of block b lies in (p_{b-1}, p_b], so r <= q[b] holds
    only if q[b] is a left crossing out of block b, and r >= q[b+1] only if
    q[b+1] is a right one: no side test is needed.
    """
    k = plan.k
    q, d = (None, *advice.q, None), (0, *advice.d, 0)
    # marking budgets left per boundary; they conserve the marked totals
    budget = [0, *advice.m, 0]
    # unmarked requests seen per block at the value of its left and of its
    # right q word, the values the d guards count; when the two are equal one
    # unmarked request counts toward both sides. A request crossing neither
    # side lies strictly between the two values, so it is not counted.
    seen_left, seen_right = [0] * k, [0] * k
    eq_marked_left = [0] * k
    arrivals = [[] for _ in range(k)]
    marked_arrivals = []
    for t, (r, b) in enumerate(zip(requests, plan.blocks_of(requests))):
        ql, qr = q[b], q[b + 1]
        in_left = ql is not None and r <= ql
        in_right = qr is not None and r >= qr
        if not (in_left or in_right):
            arrivals[b].append(t)
            continue
        right = in_right  # the side a marked request crosses
        eq_left, eq_right = r == ql, r == qr
        if eq_left or eq_right:
            if eq_right:
                # at a q collision the right d word is the stay-inside count
                # and the left one the left share of the crossers (see
                # DivideAdvice)
                unmarked = seen_right[b] < d[b + 1]
                if not unmarked and eq_left:
                    right = eq_marked_left[b] >= d[b]
                    if not right:
                        eq_marked_left[b] += 1
            else:
                unmarked = seen_left[b] < d[b]
            if unmarked:
                seen_left[b] += eq_left
                seen_right[b] += eq_right
                arrivals[b].append(t)
                continue
        side = b + right
        if budget[side] <= 0:
            raise DivideError(f"corrupt advice: block {b} marking budget spent")
        budget[side] -= 1
        marked_arrivals.append((t, b, right))
    return arrivals, marked_arrivals


@dataclass
class DivideResult:
    """A DIVIDE_k run. ``matching``, ``lr_cost`` and ``block_costs`` are in the
    caller's coordinates; ``plan`` (with its N), ``advice`` and the tape are
    in the planning coordinates (RESCALE's scaled ones); server and arrival
    indices (``marks``, ``arrivals``, ``marked_arrivals``) are the same in both.

    ``aux_bits_written`` counts the direction bits LR read; the marked moves
    LR made without a bit (an exact match or a forced edge) number
    ``len(marked_arrivals) - aux_bits_written``."""

    matching: Matching
    plan: BlockPlan
    advice: DivideAdvice
    marks: MarkSets
    oracle_bits_read: int
    aux_bits_written: int
    lr_cost: int | float
    block_costs: list
    tape: AdviceTape = field(repr=False, compare=False)  # the oracle tape
    arrivals: list = field(repr=False)
    marked_arrivals: list = field(repr=False)


def _run_divide(
    instance: Instance, k: int, subroutine: str, servers, requests, unit: int
) -> DivideResult:
    """Plan, mark and serve on the int planning coordinates: ``servers`` in
    units of 1/``unit`` and ``requests``, each served as r * ``unit``. Price
    every request on the instance's integer image."""
    if subroutine not in SUBROUTINE_NAMES:
        raise SubroutineError(f"unknown subroutine {subroutine!r}")
    plan = plan_blocks(servers, k, unit)
    # clamp into [1, N-1] (see the module docstring)
    top = plan.span_bound - 1
    if min(requests) < 1 or max(requests) > top:
        requests = [1 if r < 1 else top if r > top else r for r in requests]
    advice = compute_advice(requests, plan)
    tape = encode_divide_advice(advice, plan)
    decoded = decode_divide_advice(tape, plan)
    marks = mark_servers(plan, decoded)
    arrivals, marked_arrivals = classify_requests(requests, plan, decoded)

    # request t is priced as callers[t] and served as targets[t]
    priced, callers = integer_image(instance)
    targets = [r * unit for r in requests]
    assignment = [None] * instance.n

    # each block's subroutine is served its own requests in arrival order, in
    # one call, over the unmarked servers of its group; a block that receives
    # none needs none
    marked = marks.marked
    block_costs = [0] * k
    for b, ((start, stop), own) in enumerate(zip(plan.groups, arrivals)):
        ids = [j for j in range(start, stop) if j not in marked]
        if len(ids) != len(own):
            raise DivideError(
                f"block {b}: {len(own)} unmarked requests vs {len(ids)} unmarked servers"
            )
        if not own:
            continue
        sub = make_subroutine(subroutine, [servers[j] for j in ids], ids)
        served = sub.serve([targets[t] for t in own])
        if sorted(served) != ids:
            raise DivideError(f"subroutine left its block: block {b}")
        cost = 0
        for t, j in zip(own, served):
            assignment[t] = j
            cost += abs(callers[t] - priced[j])
        block_costs[b] = cost

    # then LR serves the marked requests in arrival order, if any; each bit
    # it reads is the side the classification fixed
    bits, lr_cost = (), 0
    if marked_arrivals:
        marked_ids = sorted(marked)
        lr_state = LRState([servers[j] for j in marked_ids], marked_ids)
        # the q value that both words of block b share, for each block that
        # has one: a q collision
        q = decoded.q
        collisions = {
            b + 1: ql for b, (ql, qr) in enumerate(zip(q, q[1:])) if ql is not None and ql == qr
        }
        if collisions:
            d_left = (0, *decoded.d)
            # zero-bits read by requests at a collision value; d_left carries
            # their left share there (see DivideAdvice). Marked requests at the
            # collision value may owe their direction to either side: marked
            # servers at the value itself are absorbed bit-free by LR's
            # exact-match rule, and the rest must split by the left share, not
            # by which marking budget admitted them.
            zeros_read = [0] * k

            def side(i):
                t, b, right = marked_arrivals[i]
                if requests[t] == collisions.get(b):
                    right = zeros_read[b] >= d_left[b]
                    if not right:
                        zeros_read[b] += 1
                return right

        else:  # every side is the one the classification fixed
            side = [right for _t, _b, right in marked_arrivals].__getitem__
        lr_ids, bits, _ = lr_serve(lr_state, [targets[t] for t, _b, _r in marked_arrivals], side)
        for (t, _b, _right), j in zip(marked_arrivals, lr_ids):
            assignment[t] = j
            lr_cost += abs(callers[t] - priced[j])

    unscaled = instance.unscaled
    return DivideResult(
        matching=Matching(tuple(assignment), unscaled(lr_cost + sum(block_costs))),
        plan=plan,
        advice=decoded,
        marks=marks,
        oracle_bits_read=tape.bits_read,
        aux_bits_written=len(bits),
        lr_cost=unscaled(lr_cost),
        block_costs=list(map(unscaled, block_costs)),
        tape=tape,
        arrivals=arrivals,
        marked_arrivals=marked_arrivals,
    )


def divide_run(instance: Instance, k: int, subroutine: str = "greedy") -> DivideResult:
    """Full DIVIDE_k run on an integer-mode instance, planned on its own
    coordinates, which are its integer image."""
    if not instance.integer_mode:
        raise InstanceError("DIVIDE_k requires an integer-mode instance (s_1 = 1)")
    return _run_divide(instance, k, subroutine, instance.servers, instance.requests, 1)


def rescale_run(instance: Instance, k: int, subroutine: str = "greedy") -> DivideResult:
    """DIVIDE_k on arbitrary real input, planned on the n^3 integer rescaling.

    The planning servers are s' = n^3 (s - s_1) + 1 and the planning
    requests floor(n^3 (r - s_1)) + 1, both taken exactly on the integer
    image S = s D, R = r D: the servers in units of 1/D, as the ints
    n^3 (S - S_1) + D, and the requests as n^3 (R - S_1) // D + 1. The
    plan's N = ceil(s'_n) + 1, so s'_n = N - 1 when s'_n is integral and
    s'_n lies in (N - 2, N - 1) otherwise; requests are then clamped into
    [1, ceil(s'_n)] = [1, N - 1]. The result's plan, advice and tape are in
    these scaled coordinates; its matching, lr_cost and block_costs are
    priced on the image, in the caller's coordinates.
    """
    scale, d = instance.n**3, instance.scale
    servers, requests = integer_image(instance)
    s1 = servers[0]
    plan_servers = [scale * (s - s1) + d for s in servers]
    plan_requests = [scale * (r - s1) // d + 1 for r in requests]
    return _run_divide(instance, k, subroutine, plan_servers, plan_requests, d)
