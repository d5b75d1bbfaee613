"""DIVIDE_k: block partition, advice tape layout, marking, serving, RESCALE.

The oracle splits the sorted servers into k contiguous groups, publishes per
boundary the extremal positions of requests whose optimal pair lies across it
(words q), plus two counts per boundary (d: requests equal to q that stay
inside; m: requests matched across). Requests whose pair is inside their own
block go to the plug-in subroutine A; crossing requests are marked and served
by LR over the marked servers, fed direction bits through a self-written
auxiliary tape.

Every request is first clamped into [1, N-1]: the servers' span [s_1, s_n]
for divide_run, [1, ceil(s'_n)] for RESCALE. A request r < s_1 costs
(s_1 - r) + (s_j - s_1) against every server s_j, so moving it to s_1 adds
the same constant to every matching (likewise above s_n) and keeps every
optimum an optimum. The online algorithm knows the servers, so it may clamp;
DIVIDE_k is then exact on every instance, and a q word always lies in
[1, N-1], leaving 0 and N free to mark an absent word.

The tape layout (``_tape_slots``) is rigid: q words for every boundary, then
d/m pairs exactly for the present q words, in the two marking orders. Only
oracle-tape bits count as advice.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter

from .model import Instance, InstanceError, Matching, make_matching
from .offline import monotone_optimal
from .lr import LRState, lr_serve
from .subroutines import make_subroutine
from .tape import AdviceTape, AuxTape, word_width


class DivideError(RuntimeError):
    pass


@dataclass(frozen=True)
class BlockPlan:
    """k contiguous server groups, their midpoint boundaries, and blocks."""

    k: int
    groups: tuple  # k ranges (start, stop) of server indices, half-open
    boundaries: tuple  # k-1 midpoints p_i

    def block_of(self, position) -> int:
        """0-based block index; block b is (p_{b-1}, p_b]."""
        return bisect.bisect_left(self.boundaries, position)

    def group_of(self, server_index: int) -> int:
        g = bisect.bisect_right(self.groups, server_index, key=itemgetter(0)) - 1
        if g < 0 or server_index >= self.groups[g][1]:
            raise DivideError(f"server index {server_index} outside all groups")
        return g


def plan_blocks(servers, k: int) -> BlockPlan:
    n = len(servers)
    if not 1 <= k <= n:
        raise DivideError(f"k={k} out of range 1..{n}")
    big, small = -(-n // k), n // k
    ell = n % k
    groups = []
    start = 0
    for i in range(k):
        size = big if i < ell else small
        groups.append((start, start + size))
        start += size
    boundaries = tuple(
        (servers[groups[i][1] - 1] + servers[groups[i + 1][0]]) / 2
        for i in range(k - 1)
    )
    return BlockPlan(k, tuple(groups), boundaries)


@dataclass(frozen=True)
class DivideAdvice:
    """Decoded advice. Entries are per block (0-based).

    q_left[b] for blocks 1..k-1: rightmost position of a request crossing
    left out of block b, None when none does. q_right[b] for blocks 0..k-2:
    leftmost crossing-right position, None when absent. Positions are
    clamped into [1, N-1], so a present q word is never 0 or N. d/m counts
    are present exactly where q is not None.

    When q_left[b] == q_right[b] (requests at one position cross the block in
    both directions) the two d words would be identical, so the left one is
    repurposed: d_left[b] then carries the number of q-valued requests that
    cross left, which the serving cases cannot infer on their own. The reader
    detects the collision from the decoded q words, so no extra bits are
    needed.
    """

    k: int
    q_left: tuple
    q_right: tuple
    d_left: tuple
    m_left: tuple
    d_right: tuple
    m_right: tuple


# a tape slot names its field by its index among DivideAdvice's per-block fields
_Q_LEFT, _Q_RIGHT, _D_LEFT, _M_LEFT, _D_RIGHT, _M_RIGHT = range(6)
WORD_LABELS = ("q[{},L]", "q[{},R]", "d[{},L]", "m[{},L]", "d[{},R]", "m[{},R]")


def _tape_slots(k: int, span_bound: int, n: int, q_left, q_right):
    """The advice tape layout: (field, block, width, absent) per word.

    First a q word for every boundary and side, then a d/m pair for each
    present q word: right crossings by ascending block, left crossings by
    descending block, the two marking orders. ``absent`` is the word that
    stands for a missing q (0 on the left, N on the right), None for the
    counts. The q lists are first looked at after the last q slot is handed
    out, so a reader can pass the lists it is filling.
    """
    w_pos, w_cnt = word_width(span_bound), word_width(n)
    for b in range(1, k):
        yield _Q_LEFT, b, w_pos, 0
    for b in range(k - 1):
        yield _Q_RIGHT, b, w_pos, span_bound
    for b in range(k - 1):
        if q_right[b] is not None:
            yield _D_RIGHT, b, w_cnt, None
            yield _M_RIGHT, b, w_cnt, None
    for b in range(k - 1, 0, -1):
        if q_left[b] is not None:
            yield _D_LEFT, b, w_cnt, None
            yield _M_LEFT, b, w_cnt, None


def advice_words(advice: DivideAdvice, span_bound: int, n: int):
    """(field, block, value, width) per advice word, in tape order."""
    q_left, q_right = advice.q_left, advice.q_right
    columns = (q_left, q_right, advice.d_left, advice.m_left, advice.d_right, advice.m_right)
    for f, b, width, absent in _tape_slots(advice.k, span_bound, n, q_left, q_right):
        value = columns[f][b]
        if value is None:
            value = absent
        elif absent is not None and not 0 < value < span_bound:
            raise DivideError(f"q word {value} outside [1, {span_bound - 1}]")
        yield f, b, value, width


def compute_advice(instance: Instance, plan: BlockPlan) -> DivideAdvice:
    """Derive q/d/m against the monotone reference optimum."""
    k = plan.k
    reference = monotone_optimal(instance)
    columns = ([None] * k, [None] * k, [0] * k, [0] * k, [0] * k, [0] * k)
    q_left, q_right, d_left, m_left, d_right, m_right = columns
    blocks = [plan.block_of(r) for r in instance.requests]
    pair_groups = [plan.group_of(j) for j in reference.assignment]
    for r, b, g in zip(instance.requests, blocks, pair_groups):
        if g < b:
            m_left[b] += 1
            if q_left[b] is None or r > q_left[b]:
                q_left[b] = r
        elif g > b:
            m_right[b] += 1
            if q_right[b] is None or r < q_right[b]:
                q_right[b] = r
    left_share = [0] * k  # left crossers at the value q_left
    for r, b, g in zip(instance.requests, blocks, pair_groups):
        if g == b:
            if r == q_left[b]:
                d_left[b] += 1
            if r == q_right[b]:
                d_right[b] += 1
        elif g < b and r == q_left[b]:
            left_share[b] += 1
    for b in range(k):
        if q_left[b] is not None and q_left[b] == q_right[b]:
            # q collision: d_left would duplicate d_right, so it carries the
            # left share of the q-valued crossers instead
            d_left[b] = left_share[b]
    return DivideAdvice(k, *map(tuple, columns))


def encode_divide_advice(advice: DivideAdvice, span_bound: int, n: int) -> AdviceTape:
    tape = AdviceTape()
    for _f, _b, value, width in advice_words(advice, span_bound, n):
        tape.write_word(value, width)
    return tape


def decode_divide_advice(tape: AdviceTape, k: int, span_bound: int, n: int) -> DivideAdvice:
    """Sequential reader of the layout in ``_tape_slots``."""
    columns = ([None] * k, [None] * k, [0] * k, [0] * k, [0] * k, [0] * k)
    for f, b, width, absent in _tape_slots(k, span_bound, n, columns[0], columns[1]):
        value = tape.read_word(width)
        columns[f][b] = None if value == absent else value
    return DivideAdvice(k, *map(tuple, columns))


@dataclass(frozen=True)
class MarkSets:
    marked_right: frozenset
    marked_left: frozenset

    @cached_property
    def marked(self) -> frozenset:
        return self.marked_right | self.marked_left


def mark_servers(plan: BlockPlan, advice: DivideAdvice, n: int) -> MarkSets:
    """Pick the servers that will absorb the crossing requests.

    Crossing-right requests of boundary b take the lowest-index unmarked
    servers right of it (ascending b); crossing-left take the highest-index
    unmarked servers left of it (descending b).

    Boundaries are visited moving away from the side's first server, so the
    servers marked so far on a side include every server from the current
    boundary up to that side's cursor, and none beyond it: the next m marks
    are the m servers past the boundary or the cursor, whichever is farther.
    """
    groups, end = plan.groups, plan.groups[-1][1]
    marked_right: set[int] = set()
    cursor = 0  # one past the highest server marked right
    for b in range(plan.k - 1):
        m = advice.m_right[b]
        if m == 0:
            continue
        start = max(cursor, groups[b + 1][0])
        if end - start < m:
            raise DivideError("corrupt advice: not enough servers to mark right")
        cursor = start + m
        marked_right.update(range(start, cursor))
    marked_left: set[int] = set()
    cursor = end  # the lowest server marked left
    for b in range(plan.k - 1, 0, -1):
        m = advice.m_left[b]
        if m == 0:
            continue
        start = min(cursor, groups[b][0])
        if start < m:
            raise DivideError("corrupt advice: not enough servers to mark left")
        cursor = start - m
        marked_left.update(range(cursor, start))
    if marked_left & marked_right:
        raise DivideError("corrupt advice: a server marked from both sides")
    return MarkSets(frozenset(marked_right), frozenset(marked_left))


_SERVE_BLOCK = "block"
_SERVE_MARK_RIGHT = "mark_right"
_SERVE_MARK_LEFT = "mark_left"


def classify_requests(instance: Instance, plan: BlockPlan, advice: DivideAdvice):
    """Replay the serving case analysis without any subroutine.

    The case guards depend only on positions and running counters, so the
    marked/unmarked split is fixed before A makes a single choice. Returns
    one (verdict, block) per request in arrival order.
    """
    k = plan.k
    # unmarked requests seen per block keyed by position; the d guards compare
    # against the value of q, so when q_left == q_right one unmarked request
    # counts toward both sides
    seen_unmarked: list[dict] = [dict() for _ in range(k)]
    budgets = (advice.m_left, advice.m_right)
    spent = ([0] * k, [0] * k)  # marked so far per block, left and right
    eq_marked_left = [0] * k
    verdicts = []

    def serve_unmarked(b, r):
        seen_unmarked[b][r] = seen_unmarked[b].get(r, 0) + 1
        verdicts.append((_SERVE_BLOCK, b))

    def mark(b, right: bool):
        # per-block budgets conserve the marked totals
        if spent[right][b] >= budgets[right][b]:
            raise DivideError(f"corrupt advice: block {b} marking budget spent")
        spent[right][b] += 1
        verdicts.append((_SERVE_MARK_RIGHT if right else _SERVE_MARK_LEFT, b))

    for r in instance.requests:
        b = plan.block_of(r)
        in_left = b >= 1 and advice.q_left[b] is not None and r <= advice.q_left[b]
        in_right = b <= k - 2 and advice.q_right[b] is not None and r >= advice.q_right[b]
        eq_right = in_right and r == advice.q_right[b]
        eq_left = in_left and r == advice.q_left[b]
        seen = seen_unmarked[b].get(r, 0)
        if not in_left and not in_right:
            serve_unmarked(b, r)
        elif eq_left and eq_right:
            # q collision: d_right is the stay-inside count and d_left the
            # left share of the crossers (see DivideAdvice)
            if seen < advice.d_right[b]:
                serve_unmarked(b, r)
            else:
                right = eq_marked_left[b] >= advice.d_left[b]
                mark(b, right)
                if not right:
                    eq_marked_left[b] += 1
        elif (eq_right and seen < advice.d_right[b]) or (
            eq_left and seen < advice.d_left[b]
        ):
            serve_unmarked(b, r)
        else:
            mark(b, in_right)
    return verdicts


@dataclass
class DivideResult:
    matching: Matching
    plan: BlockPlan
    advice: DivideAdvice
    marks: MarkSets
    span_bound: int
    oracle_bits_read: int
    aux_bits_written: int
    lr_cost: int | float
    block_costs: list
    verdicts: list = field(repr=False, default_factory=list)
    tape_dump: dict | None = None


def _run_divide(
    instance: Instance,
    k: int,
    subroutine: str,
    span_bound: int,
) -> DivideResult:
    n = instance.n
    # clamp into [1, N-1] (see the module docstring); only the costs below
    # see the original positions
    top = span_bound - 1
    requests = instance.requests
    clamped = instance
    if min(requests) < 1 or max(requests) > top:
        clamped = Instance(
            instance.servers,
            tuple([1 if r < 1 else top if r > top else r for r in requests]),
        )
    plan = plan_blocks(instance.servers, k)
    advice = compute_advice(clamped, plan)
    tape = encode_divide_advice(advice, span_bound, n)
    decoded = decode_divide_advice(tape, k, span_bound, n)
    marks = mark_servers(plan, decoded, n)
    verdicts = classify_requests(clamped, plan, decoded)

    # block subroutines over the unmarked servers of each group
    marked = marks.marked
    sealed_by_block = [[] for _ in range(k)]
    for c, (verdict, b) in zip(clamped.requests, verdicts):
        if verdict == _SERVE_BLOCK:
            sealed_by_block[b].append(c)
    subs = []
    for b, ((start, stop), sealed) in enumerate(zip(plan.groups, sealed_by_block)):
        ids = [j for j in range(start, stop) if j not in marked]
        if len(ids) != len(sealed):
            raise DivideError(
                f"block {b}: {len(sealed)} unmarked requests vs {len(ids)} unmarked servers"
            )
        subs.append(
            make_subroutine(
                subroutine,
                [instance.servers[j] for j in ids],
                ids=ids,
                sealed=sealed if subroutine == "clairvoyant" else None,
            )
        )

    marked_ids = sorted(marked)
    lr_state = LRState.for_servers(
        [instance.servers[j] for j in marked_ids], indices=marked_ids
    )
    aux = AuxTape()
    aux_bits_written = 0

    assignment = [None] * n
    lr_cost = 0
    block_costs = [0] * k
    # zero-bits actually consumed by requests at a collision value; d_left
    # carries their left share there (see DivideAdvice). Marked requests at
    # the collision value may owe their direction to either side: marked
    # servers at the value itself are absorbed bit-free by LR's exact-match
    # rule, and the rest must split by the left share, not by which marking
    # budget admitted them.
    zeros_read = [0] * k
    for t, (r, c, (verdict, b)) in enumerate(zip(requests, clamped.requests, verdicts)):
        if verdict == _SERVE_BLOCK:
            j = subs[b].serve(c)
            start, stop = plan.groups[b]
            if not start <= j < stop or j in marked:
                raise DivideError(f"subroutine left its block: server {j}")
            block_costs[b] += abs(r - instance.servers[j])
        else:
            collision_value = (
                decoded.q_left[b] is not None
                and decoded.q_left[b] == decoded.q_right[b]
                and c == decoded.q_left[b]
            )
            if collision_value:
                bit = 0 if zeros_read[b] < decoded.d_left[b] else 1
            else:
                bit = 1 if verdict == _SERVE_MARK_RIGHT else 0
            aux.write_bit(bit)
            aux_bits_written += 1
            before = aux.bits_read
            j = lr_serve(lr_state, c, aux)
            if aux.bits_read == before:
                aux.remove_last()
                aux_bits_written -= 1
            elif collision_value and bit == 0:
                zeros_read[b] += 1
            if j not in marked:
                raise DivideError("LR used an unmarked server")
            lr_cost += abs(r - instance.servers[j])
        assignment[t] = j
    if aux.unread:
        raise DivideError("stray unread bits on the auxiliary tape")

    return DivideResult(
        matching=make_matching(instance, assignment),
        plan=plan,
        advice=decoded,
        marks=marks,
        span_bound=span_bound,
        oracle_bits_read=tape.bits_read,
        aux_bits_written=aux_bits_written,
        lr_cost=lr_cost,
        block_costs=block_costs,
        verdicts=verdicts,
        tape_dump=tape.dump(),
    )


def divide_run(instance: Instance, k: int, subroutine: str = "greedy") -> DivideResult:
    """Full DIVIDE_k run on an integer-mode instance."""
    if not instance.integer_mode:
        raise InstanceError("DIVIDE_k requires an integer-mode instance (s_1 = 1)")
    return _run_divide(instance, k, subroutine, instance.span_bound)


@dataclass
class RescaleResult:
    matching: Matching  # original coordinates
    scaled: DivideResult
    scaled_cost: int | float
    cost: int | float


def rescale_run(instance: Instance, k: int, subroutine: str = "greedy") -> RescaleResult:
    """DIVIDE_k on arbitrary real input via the n^3 integer rescaling.

    Servers scale to s' = n^3 (s - s_1) + 1 (kept exact, possibly
    non-integral); requests round down to integers. N = ceil(s'_n + 1), so
    s'_n = N - 1 when s'_n is integral and s'_n lies in (N - 2, N - 1)
    otherwise; requests are then clamped into [1, ceil(s'_n)] = [1, N - 1].
    """
    n = instance.n
    scale = n**3
    s1 = instance.servers[0]
    servers = [scale * (s - s1) + 1 for s in instance.servers]
    requests = [math.floor(scale * (r - s1)) + 1 for r in instance.requests]
    span_bound = servers[-1] + 1
    if isinstance(span_bound, float) and span_bound.is_integer():
        span_bound = int(span_bound)
    scaled_instance = Instance(
        tuple(int(s) if isinstance(s, float) and s.is_integer() else s for s in servers),
        tuple(requests),
    )
    result = _run_divide(
        scaled_instance, k, subroutine, math.ceil(span_bound)
    )
    matching = make_matching(instance, result.matching.assignment)
    return RescaleResult(
        matching=matching,
        scaled=result,
        scaled_cost=result.matching.cost,
        cost=matching.cost,
    )
