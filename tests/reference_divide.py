"""DIVIDE_k as it was before requests were clamped into the servers' span:
q words clamped to +-infinity sentinels, a tape layout written out once for
the writer and once for the reader, and a marking fallback that lets the
other side's budget absorb a request. Kept verbatim as the
differential reference for ``matchline.divide``; nothing in the package uses
it. It takes no serving code from the package: its blocks are served per
request by ``reference_pool``'s ``Greedy`` and ``Permutation`` and by its own
verbatim copy of the sealed, per-request ``Clairvoyant`` the package had
before its pools were served whole sequences (ids taken as given, the
monotone assignment from ``reference_common``); its ``make_subroutine``
picks among those three, and ``word_width`` is its own. It keeps its own
verbatim copy of ``AuxTape``, the self-written tape with ``remove_last``
that the package no longer has. Its RESCALE, which planned
in floats, went when the package began to plan exactly: RESCALE's reference
is ``_run_divide`` on the exact rescaling (``test_divide_reference``).

``interleaved_serve`` is the serving loop of the clamped version, before it
served block by block: one pass in arrival order that calls each request's
block subroutine or LR in turn. It is the reference for the serving of
``matchline.divide._run_divide``, fed the same plan, advice, marks and
verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from matchline.model import Instance, InstanceError, Matching
from reference_common import make_matching, monotone_assignment, monotone_optimal
from reference_pool import Greedy, LRState, Permutation, lr_serve
from matchline.subroutines import SubroutineError
from matchline.tape import TapeError
from writable_tape import AdviceTape


def word_width(max_value: int) -> int:
    return max_value.bit_length()


class Clairvoyant:
    """Reads its block's future requests: a verification device, not online."""

    def __init__(self, servers, ids=None, sealed: Sequence = ()):
        """As ``Greedy``'s; the request at rank t in ``sealed`` gets ``ids[t]``."""
        self.ids = list(ids)
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
        return Clairvoyant(servers, ids, sealed)
    if name not in ("greedy", "permutation"):
        raise SubroutineError(f"unknown subroutine {name!r}")
    return (Greedy if name == "greedy" else Permutation)(servers, ids)


class AuxTape(AdviceTape):
    """Self-written tape; the bits here do not count as advice."""

    def remove_last(self) -> None:
        if self.cursor >= len(self._bits):
            raise TapeError("cannot remove: last bit was already read")
        self._bits.pop()


NEG_INF = float("-inf")
POS_INF = float("inf")


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
        lo, hi = 0, len(self.boundaries)
        while lo < hi:
            mid = (lo + hi) // 2
            if position <= self.boundaries[mid]:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def group_of(self, server_index: int) -> int:
        for g, (start, stop) in enumerate(self.groups):
            if start <= server_index < stop:
                return g
        raise DivideError(f"server index {server_index} outside all groups")


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
    """Decoded advice schedule. Entries are per block (0-based).

    q_left[b] for blocks 1..k-1: rightmost crossing-left request position,
    +inf when clamped at N, None when absent. q_right[b] for blocks 0..k-2:
    leftmost crossing-right position, -inf when clamped at 0, None when
    absent. d/m counts are present exactly where q is not None.

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


def _advice_schedule(advice: DivideAdvice, span_bound: int, n: int):
    """(label, value, width) triples in tape order."""
    w_pos, w_cnt = word_width(span_bound), word_width(n)
    k, N = advice.k, span_bound
    fields = []
    for b in range(1, k):
        q = advice.q_left[b]
        enc = 0 if q is None else (N if q == POS_INF else q)
        fields.append((f"q[{b + 1},L]", enc, w_pos))
    for b in range(k - 1):
        q = advice.q_right[b]
        enc = N if q is None else (0 if q == NEG_INF else q)
        fields.append((f"q[{b + 1},R]", enc, w_pos))
    for b in range(k - 1):
        if advice.q_right[b] is not None:
            fields.append((f"d[{b + 1},R]", advice.d_right[b], w_cnt))
            fields.append((f"m[{b + 1},R]", advice.m_right[b], w_cnt))
    for b in range(k - 1, 0, -1):
        if advice.q_left[b] is not None:
            fields.append((f"d[{b + 1},L]", advice.d_left[b], w_cnt))
            fields.append((f"m[{b + 1},L]", advice.m_left[b], w_cnt))
    return fields


def compute_advice(instance: Instance, plan: BlockPlan, span_bound: int) -> DivideAdvice:
    """Derive q/d/m against the monotone reference optimum."""
    k = plan.k
    reference = monotone_optimal(instance)
    N = span_bound
    q_left = [None] * k
    q_right = [None] * k
    d_left = [0] * k
    m_left = [0] * k
    d_right = [0] * k
    m_right = [0] * k
    # raw extremal crossing positions, before clamping
    raw_left = [None] * k
    raw_right = [None] * k
    blocks = [plan.block_of(r) for r in instance.requests]
    pair_groups = [plan.group_of(j) for j in reference.assignment]
    for r, b, g in zip(instance.requests, blocks, pair_groups):
        if g < b:
            m_left[b] += 1
            if raw_left[b] is None or r > raw_left[b]:
                raw_left[b] = r
        elif g > b:
            m_right[b] += 1
            if raw_right[b] is None or r < raw_right[b]:
                raw_right[b] = r
    for r, b, g in zip(instance.requests, blocks, pair_groups):
        if g == b:
            if raw_left[b] is not None and r == raw_left[b]:
                d_left[b] += 1
            if raw_right[b] is not None and r == raw_right[b]:
                d_right[b] += 1
    for b in range(k):
        if (
            raw_left[b] is not None
            and raw_left[b] == raw_right[b]
            and 0 < raw_left[b] < N
        ):
            # q collision: d_left would duplicate d_right, so it carries the
            # left share of the q-valued crossers instead
            d_left[b] = sum(
                1
                for r, blk, g in zip(instance.requests, blocks, pair_groups)
                if blk == b and g < b and r == raw_left[b]
            )
    for b in range(1, k):
        if raw_left[b] is not None:
            q_left[b] = POS_INF if raw_left[b] >= N else raw_left[b]
    for b in range(k - 1):
        if raw_right[b] is not None:
            q_right[b] = NEG_INF if raw_right[b] <= 0 else raw_right[b]
    return DivideAdvice(
        k,
        tuple(q_left),
        tuple(q_right),
        tuple(d_left),
        tuple(m_left),
        tuple(d_right),
        tuple(m_right),
    )


def encode_divide_advice(advice: DivideAdvice, span_bound: int, n: int) -> AdviceTape:
    tape = AdviceTape()
    for _label, value, width in _advice_schedule(advice, span_bound, n):
        tape.write_words(((value, width),))
    return tape


def decode_divide_advice(tape: AdviceTape, k: int, span_bound: int, n: int) -> DivideAdvice:
    """Sequential reader mirroring the writer's rigid schedule."""
    w_pos, w_cnt = word_width(span_bound), word_width(n)
    N = span_bound
    q_left = [None] * k
    q_right = [None] * k
    d_left = [0] * k
    m_left = [0] * k
    d_right = [0] * k
    m_right = [0] * k
    for b in range(1, k):
        v = tape.read_word(w_pos)
        q_left[b] = None if v == 0 else (POS_INF if v == N else v)
    for b in range(k - 1):
        v = tape.read_word(w_pos)
        q_right[b] = None if v == N else (NEG_INF if v == 0 else v)
    for b in range(k - 1):
        if q_right[b] is not None:
            d_right[b] = tape.read_word(w_cnt)
            m_right[b] = tape.read_word(w_cnt)
    for b in range(k - 1, 0, -1):
        if q_left[b] is not None:
            d_left[b] = tape.read_word(w_cnt)
            m_left[b] = tape.read_word(w_cnt)
    return DivideAdvice(
        k,
        tuple(q_left),
        tuple(q_right),
        tuple(d_left),
        tuple(m_left),
        tuple(d_right),
        tuple(m_right),
    )


@dataclass(frozen=True)
class MarkSets:
    marked_right: frozenset
    marked_left: frozenset

    @property
    def marked(self) -> frozenset:
        return self.marked_right | self.marked_left


def mark_servers(plan: BlockPlan, advice: DivideAdvice, n: int) -> MarkSets:
    """Pick the servers that will absorb the crossing requests.

    Crossing-right requests of boundary b take the lowest-index unmarked
    servers right of it (ascending b); crossing-left take the highest-index
    unmarked servers left of it (descending b).
    """
    marked_right: set[int] = set()
    for b in range(plan.k - 1):
        m = advice.m_right[b]
        if m == 0:
            continue
        eligible = [
            j
            for j in range(plan.groups[b + 1][0], plan.groups[-1][1])
            if j not in marked_right
        ]
        if len(eligible) < m:
            raise DivideError("corrupt advice: not enough servers to mark right")
        marked_right.update(eligible[:m])
    marked_left: set[int] = set()
    for b in range(plan.k - 1, 0, -1):
        m = advice.m_left[b]
        if m == 0:
            continue
        eligible = [
            j
            for j in range(plan.groups[b][0] - 1, -1, -1)
            if j not in marked_left
        ]
        if len(eligible) < m:
            raise DivideError("corrupt advice: not enough servers to mark left")
        marked_left.update(eligible[:m])
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
    marked_in_block_right = [0] * k
    marked_in_block_left = [0] * k
    eq_marked_left = [0] * k
    verdicts = []

    def serve_unmarked(b, r):
        seen_unmarked[b][r] = seen_unmarked[b].get(r, 0) + 1
        verdicts.append((_SERVE_BLOCK, b))

    def mark(b, prefer_right: bool):
        # per-block budgets conserve the marked totals; when a request's
        # preferred side is spent the other side's budget absorbs it (only
        # possible under sentinel-clamped advice), and with both spent the
        # request stays in its own block
        order = ("right", "left") if prefer_right else ("left", "right")
        for side in order:
            if side == "right" and marked_in_block_right[b] < advice.m_right[b]:
                marked_in_block_right[b] += 1
                verdicts.append((_SERVE_MARK_RIGHT, b))
                return side
            if side == "left" and marked_in_block_left[b] < advice.m_left[b]:
                marked_in_block_left[b] += 1
                verdicts.append((_SERVE_MARK_LEFT, b))
                return side
        return None

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
                prefer_right = eq_marked_left[b] >= advice.d_left[b]
                side = mark(b, prefer_right)
                if side == "left":
                    eq_marked_left[b] += 1
                elif side is None:
                    serve_unmarked(b, r)
        elif (eq_right and seen < advice.d_right[b]) or (
            eq_left and seen < advice.d_left[b]
        ):
            serve_unmarked(b, r)
        elif in_right and (eq_right or r > advice.q_right[b]):
            if mark(b, prefer_right=True) is None:
                serve_unmarked(b, r)
        elif mark(b, prefer_right=False) is None:
            serve_unmarked(b, r)
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
    plan = plan_blocks(instance.servers, k)
    advice = compute_advice(instance, plan, span_bound)
    tape = encode_divide_advice(advice, span_bound, n)
    decoded = decode_divide_advice(tape, k, span_bound, n)
    marks = mark_servers(plan, decoded, n)
    verdicts = classify_requests(instance, plan, decoded)

    # block subroutines over the unmarked servers of each group
    subs = []
    for b, (start, stop) in enumerate(plan.groups):
        ids = [j for j in range(start, stop) if j not in marks.marked]
        sealed = [
            r
            for r, (verdict, blk) in zip(instance.requests, verdicts)
            if verdict == _SERVE_BLOCK and blk == b
        ]
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

    marked_ids = sorted(marks.marked)
    lr_state = LRState.for_servers(
        [instance.servers[j] for j in marked_ids], indices=marked_ids
    )
    aux = AuxTape()
    aux_bits_written = 0

    assignment = [None] * n
    lr_cost = 0
    block_costs = [0] * k
    allowed = [set(range(start, stop)) for start, stop in plan.groups]
    # zero-bits actually consumed by requests at a collision value; d_left
    # carries their left share there (see DivideAdvice). Marked requests at
    # the collision value may owe their direction to either side: marked
    # servers at the value itself are absorbed bit-free by LR's exact-match
    # rule, and the rest must split by the left share, not by which marking
    # budget admitted them.
    zeros_read = [0] * k
    for t, (r, (verdict, b)) in enumerate(zip(instance.requests, verdicts)):
        if verdict == _SERVE_BLOCK:
            j = subs[b].serve(r)
            if j not in allowed[b] or j in marks.marked:
                raise DivideError(f"subroutine left its block: server {j}")
            block_costs[b] += abs(r - instance.servers[j])
        else:
            collision_value = (
                decoded.q_left[b] is not None
                and decoded.q_left[b] == decoded.q_right[b]
                and r == decoded.q_left[b]
            )
            if collision_value:
                bit = 0 if zeros_read[b] < decoded.d_left[b] else 1
            else:
                bit = 1 if verdict == _SERVE_MARK_RIGHT else 0
            aux.write_bit(bit)
            aux_bits_written += 1
            before = aux.bits_read
            j = lr_serve(lr_state, r, aux)
            if aux.bits_read == before:
                aux.remove_last()
                aux_bits_written -= 1
            elif collision_value and bit == 0:
                zeros_read[b] += 1
            if j not in marks.marked:
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
    return _run_divide(instance, k, subroutine, instance.servers[-1] + 1)  # N = s_n + 1


def interleaved_serve(
    instance: Instance, subroutine: str, servers, requests, plan, decoded, marks, verdicts
):
    """Serve one request at a time in arrival order, as ``_run_divide`` did
    before it served block by block. ``servers`` and ``requests`` are the
    planning coordinates (requests already clamped); ``plan``, ``decoded``,
    ``marks`` and ``verdicts`` are ``matchline.divide``'s. Returns the
    assignment, lr_cost, block_costs and the aux bits written."""
    k = plan.k

    # block subroutines over the unmarked servers of each group; a block that
    # receives no request needs none
    marked = marks.marked
    sealed_by_block = [[] for _ in range(k)]
    for c, (verdict, b) in zip(requests, verdicts):
        if verdict == _SERVE_BLOCK:
            sealed_by_block[b].append(c)
    groups = plan.groups
    serves = [None] * k
    for b, ((start, stop), sealed) in enumerate(zip(groups, sealed_by_block)):
        ids = [j for j in range(start, stop) if j not in marked]
        if len(ids) != len(sealed):
            raise DivideError(
                f"block {b}: {len(sealed)} unmarked requests vs {len(ids)} unmarked servers"
            )
        if sealed:
            serves[b] = make_subroutine(
                subroutine,
                [servers[j] for j in ids],
                ids=ids,
                sealed=sealed if subroutine == "clairvoyant" else None,
            ).serve

    marked_ids = sorted(marked)
    lr_state = LRState.for_servers([servers[j] for j in marked_ids], indices=marked_ids)
    aux = AuxTape()

    # the q value that both sides of a block share, None without a collision
    collisions = [
        ql if ql is not None and ql == qr else None
        for ql, qr in zip(decoded.q_left, decoded.q_right)
    ]
    d_left = decoded.d_left
    assignment = [None] * instance.n
    lr_cost = 0
    block_costs = [0] * k
    # zero-bits actually consumed by requests at a collision value; d_left
    # carries their left share there (see DivideAdvice). Marked requests at
    # the collision value may owe their direction to either side: marked
    # servers at the value itself are absorbed bit-free by LR's exact-match
    # rule, and the rest must split by the left share, not by which marking
    # budget admitted them.
    zeros_read = [0] * k
    # r is the caller's request, priced against its servers; c is r planned
    priced = instance.servers
    for t, (r, c, (verdict, b)) in enumerate(zip(instance.requests, requests, verdicts)):
        if verdict == _SERVE_BLOCK:
            j = serves[b](c)
            start, stop = groups[b]
            if not start <= j < stop or j in marked:
                raise DivideError(f"subroutine left its block: server {j}")
            block_costs[b] += abs(r - priced[j])
        else:
            collision_value = c == collisions[b]
            if collision_value:
                bit = 0 if zeros_read[b] < d_left[b] else 1
            else:
                bit = 1 if verdict == _SERVE_MARK_RIGHT else 0
            aux.write_bit(bit)
            before = aux.cursor
            j = lr_serve(lr_state, c, aux)
            if aux.cursor == before:
                aux.remove_last()
            elif collision_value and bit == 0:
                zeros_read[b] += 1
            if j not in marked:
                raise DivideError("LR used an unmarked server")
            lr_cost += abs(r - priced[j])
        assignment[t] = j
    if aux.unread:
        raise DivideError("stray unread bits on the auxiliary tape")
    return assignment, lr_cost, block_costs, len(aux)
