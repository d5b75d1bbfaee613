import dataclasses
import random
from fractions import Fraction

import pytest

import reference_divide
from exact_cost import exact_cost, reported
from test_divide_reference import count_bounds, unfold
from matchline import divide, verification
from matchline.cli import main
from matchline.divide import (
    DivideAdvice,
    DivideError,
    classify_requests,
    compute_advice,
    decode_divide_advice,
    divide_run,
    encode_divide_advice,
    mark_servers,
    plan_blocks,
    rescale_run,
)
from matchline.generators import gen_uniform
from matchline.lr import lr_serve
from matchline.model import InstanceError, save_instance, validate_instance
from matchline.offline import brute_force_optimal, monotone_optimal
from matchline.subroutines import SubroutineError
from matchline.tape import AdviceTape, TapeUnderflow, word_width


def advice_budget(n, N, k):
    return (k - 1) * (word_width(N) + 2 * word_width(n))


def test_group_sizes_remainder_first():
    plan = plan_blocks([1, 2, 11, 14, 14], 4)
    assert plan.groups == ((0, 2), (2, 3), (3, 4), (4, 5))
    assert plan.boundaries == (6, 12, 14)
    assert plan.span_bound == 15


def test_group_sizes_even_split():
    plan = plan_blocks(list(range(1, 7)), 3)
    assert [stop - start for start, stop in plan.groups] == [2, 2, 2]


def test_blocks_are_half_open_left():
    plan = plan_blocks([1, 2, 11, 14, 14], 4)
    # a boundary belongs to the lower block: 6 -> 0, 7 -> 1, 14 -> 2
    assert plan.blocks_of([6, 7, -100, 100, 14]) == [0, 1, 0, 3, 2]


def test_k_out_of_range_rejected():
    with pytest.raises(DivideError):
        plan_blocks([1, 2, 3], 0)
    with pytest.raises(DivideError):
        plan_blocks([1, 2, 3], 4)
    # a bool is no k (True would plan as k = 1), nor a float
    for k in (True, 2.0):
        with pytest.raises(DivideError):
            plan_blocks([1, 2, 3], k)


def test_unknown_subroutine_rejected_before_any_work():
    # with k = n, blocks 0..2 receive no request and build no subroutine;
    # the name is checked once, up front, even before k
    inst = validate_instance([1, 2, 3, 4], [4, 4, 4, 4])
    for run in (divide_run, rescale_run):
        for k in (4, 0):
            with pytest.raises(SubroutineError):
                run(inst, k, "oracle")


class _StraySubroutine:
    """Serves its pool's ids in order, but the last request gets the server
    just past the pool: in the next block, or past the last server. Made by
    ``make_subroutine``'s arguments."""

    def __init__(self, name, servers, ids=None, sealed=None):
        self.ids, self.step = list(ids), 0

    def serve(self, request) -> int:
        self.step += 1
        return self.ids[-1] + 1 if self.step == len(self.ids) else self.ids[self.step - 1]


class _RepeatingSubroutine(_StraySubroutine):
    """Serves its pool's first id to every request."""

    def serve(self, request) -> int:
        return self.ids[0]


@pytest.mark.parametrize("stub", [_StraySubroutine, _RepeatingSubroutine])
def test_a_subroutine_that_leaves_its_block_is_named(monkeypatch, tmp_path, capsys, stub):
    # nothing crosses a boundary, so each block serves two requests on its
    # own two servers; a repeated id used to pass the per-request check and
    # fail later as a malformed assignment (InstanceError)
    inst = validate_instance([1, 2, 3, 4], [2, 1, 4, 3])
    monkeypatch.setattr(divide, "make_subroutine", stub)
    with pytest.raises(DivideError, match="subroutine left its block: block 0"):
        divide_run(inst, 2)
    path = tmp_path / "instance.json"
    save_instance(inst, path)
    assert main(["run", "--algo", "divide", "--k", "2", "--input", str(path)]) == 2
    assert "DivideError: subroutine left its block" in capsys.readouterr().err


def test_non_integer_instance_rejected():
    inst = validate_instance([0.5, 1.5], [1, 1])
    with pytest.raises(InstanceError):
        divide_run(inst, 2)


WORKED = validate_instance([1, 2, 3, 4], [3, 3, 1, 4])


def test_worked_example_advice_words():
    plan = plan_blocks(WORKED.servers, 2)
    advice = compute_advice(WORKED.requests, plan)
    # the one boundary, p_0 = 2, is crossed left out of block 1 at 3 > p_0
    assert advice == DivideAdvice(2, q=(3,), d=(1,), m=(1,))


def test_advice_refuses_a_request_count_other_than_n():
    plan = plan_blocks(WORKED.servers, 2)
    for requests in (WORKED.requests[:-1], [*WORKED.requests, 2]):
        with pytest.raises(InstanceError, match="4 servers vs"):
            compute_advice(requests, plan)


def test_worked_example_tape_layout():
    # servers 1..4 at k = 2: p_0 = (2 + 3) // 2 = 2 and N = 5, so the one
    # boundary's frame is (p_{-1}, p_1] = (0, 4] and its q word is 3 bits
    # wide. q[2,L] = 3 is written as its offset 3 - 0 = 3 (011; 3 > p_0 says
    # it crosses left out of group 1, servers 2..3), then d = 1 (01) at
    # w(|group 1| = 2) = 2 and m = 1 (01) at w(start_1 = 2) = 2: 0110101,
    # 7 bits, hex 6a after padding to 8
    result = divide_run(WORKED, 2, "clairvoyant")
    assert result.tape.dump() == {"hex": "6a", "bit_length": 7}
    assert result.oracle_bits_read == 7


def test_worked_example_serving_trace():
    result = divide_run(WORKED, 2, "clairvoyant")
    # block 0 serves request 2 and block 1 requests 0 and 3; request 1 is
    # marked, crossing block 1's left boundary
    assert result.arrivals == [[2], [0, 3]]
    assert result.marked_arrivals == [(1, 1, False)]
    assert sorted(result.marks.marked) == [1]
    # the single LR move is forced, so LR reads no direction bit
    assert result.aux_bits_written == 0
    assert result.matching.cost == 1 == brute_force_optimal(WORKED).cost


def test_worked_example_all_subroutines_agree():
    for sub in ("greedy", "permutation", "clairvoyant"):
        result = divide_run(WORKED, 2, sub)
        assert result.matching.assignment == (2, 1, 0, 3)


def test_advice_round_trip_random():
    for seed in range(40):
        inst = gen_uniform(6, (0, 20), seed, integer_mode=True, request_range="span")
        for k in (2, 3, 6):
            plan = plan_blocks(inst.servers, k)
            advice = compute_advice(inst.requests, plan)
            tape = encode_divide_advice(advice, plan)
            decoded = decode_divide_advice(tape, plan)
            assert decoded == advice


def test_every_representable_advice_round_trips():
    # any q in its frame (p_{b-1}, p_{b+1}] or None, with any d and m within
    # their bounds where q is present, half the time at the bound itself:
    # the reader returns the advice the writer was given and reads the tape
    # whole. Counts above their bounds are refused (see
    # test_over_bound_count_words_are_refused).
    rng = random.Random(15)

    def draw(bound):
        return bound if rng.random() < 0.5 else rng.randint(0, bound)

    for _ in range(1500):
        n = rng.randint(1, 20)
        top = rng.choice((max(1, n // 3), 10**6))
        servers = sorted(rng.randint(1, top) for _ in range(n))
        servers = [s - servers[0] + 1 for s in servers]
        for k in range(1, n + 1):
            plan = plan_blocks(servers, k)
            q = tuple(
                rng.randint(low + 1, high) if high > low and rng.random() < 0.7 else None
                for low, _mid, high in plan.frames
            )
            # now and then a q collision: one position carries both words
            for b in range(k - 2):
                low, high = plan.boundaries[b], plan.boundaries[b + 1]
                if high > low and rng.random() < 0.2:
                    q = (*q[:b], *(rng.randint(low + 1, high),) * 2, *q[b + 2 :])
            bounds = count_bounds(plan, q)
            d = tuple(draw(bounds[b][0]) if b in bounds else 0 for b in range(k - 1))
            m = tuple(draw(bounds[b][1]) if b in bounds else 0 for b in range(k - 1))
            advice = DivideAdvice(k, q, d, m)
            tape = encode_divide_advice(advice, plan)
            assert decode_divide_advice(tape, plan) == advice
            assert tape.bits_read == len(tape)


def test_tape_one_bit_short_underflows():
    plan = plan_blocks(WORKED.servers, 2)
    advice = compute_advice(WORKED.requests, plan)
    tape = encode_divide_advice(advice, plan)
    short = AdviceTape(tape.bits[:-1])
    with pytest.raises(TapeUnderflow):
        decode_divide_advice(short, plan)


def test_writer_rejects_q_word_outside_the_span():
    plan = plan_blocks(WORKED.servers, 2)
    advice = compute_advice(WORKED.requests, plan)
    N = plan.span_bound
    for q in (0, N, -3, N + 4):
        bad = dataclasses.replace(advice, q=(q,))
        with pytest.raises(DivideError):
            encode_divide_advice(bad, plan)


def test_writer_rejects_q_word_outside_its_block():
    # servers 1..6 at k = 3: p_0 = 2 and p_1 = 4, so boundary 0's word must
    # lie in blocks 0 and 1, (0, 4], and boundary 1's in blocks 1 and 2,
    # (2, 6]; a q inside the span but outside those two blocks has no offset
    plan = plan_blocks([1, 2, 3, 4, 5, 6], 3)
    for q, m in (((5, None), (1, 0)), ((None, 2), (0, 1)), ((None, 1), (0, 1))):
        bad = DivideAdvice(3, q, (0, 0), m)
        with pytest.raises(DivideError, match="outside"):
            encode_divide_advice(bad, plan)


@pytest.mark.parametrize(
    "servers, advice, field, b",
    [
        ([1, 2, 3, 4], DivideAdvice(2, (None,), (5,), (0,)), "d", 0),
        ([1, 2, 3, 4], DivideAdvice(2, (None,), (0,), (3,)), "m", 0),
        ([1, 2, 3, 4], DivideAdvice(2, (None,), (5,), (3,)), "d", 0),
        (list(range(1, 9)), DivideAdvice(4, (2, None, None), (0, 0, 0), (1, 0, 2)), "m", 2),
    ],
)
def test_writer_refuses_counts_of_an_uncrossed_boundary(servers, advice, field, b):
    # the layout holds no d or m word for an uncrossed boundary, so a nonzero
    # count there would be dropped from the tape and decode as 0
    plan = plan_blocks(servers, advice.k)
    words = divide.advice_words(advice, plan)
    with pytest.raises(DivideError, match=f"{field} word of boundary {b}: .* not crossed"):
        next(words)
    with pytest.raises(DivideError, match=f"{field} word of boundary {b}"):
        encode_divide_advice(advice, plan)


def test_reader_rejects_q_word_past_its_frame():
    # servers 1..4 at k = 2: the frame (p_{-1}, p_1] = (0, 4] is 3 bits
    # wide, so the offsets 5..7 fit the word but lie past the frame
    plan = plan_blocks(WORKED.servers, 2)
    with pytest.raises(DivideError, match="corrupt advice"):
        decode_divide_advice(AdviceTape([1, 0, 1]), plan)


# servers 1..8 at k = 4: groups of two servers, p = (2, 4, 6), N = 9
EIGHT = plan_blocks(list(range(1, 9)), 4)


@pytest.mark.parametrize(
    "q, field, b, bound",
    [
        # boundary 0 crossed right at 2: d <= |group 0| = 2 (2 bits: 3 fits),
        # m <= n - stop_0 = 6 (3 bits: 7 fits)
        ((2, None, None), "d", 0, 2),
        ((2, None, None), "m", 0, 6),
        # boundary 1 crossed left at 5: d <= |group 2| = 2, m <= start_2 = 4
        ((None, 5, None), "d", 1, 2),
        ((None, 5, None), "m", 1, 4),
        # 5 also crosses boundary 2 right: a q collision, where d[1] counts
        # crossers, d <= m <= start_2 = 4 (3 bits: 5 fits)
        ((None, 5, 5), "d", 1, 4),
    ],
)
def test_over_bound_count_words_are_refused(q, field, b, bound):
    def advice(value):
        counts = {"d": [0, 0, 0], "m": [0, 0, 0]}
        counts[field][b] = value
        return DivideAdvice(4, q, tuple(counts["d"]), tuple(counts["m"]))

    # the bound itself round-trips
    at_bound = advice(bound)
    tape = encode_divide_advice(at_bound, EIGHT)
    assert decode_divide_advice(tape, EIGHT) == at_bound
    # one more is refused by the writer
    with pytest.raises(DivideError, match=f"{field} word of boundary {b}: {bound + 1} outside"):
        encode_divide_advice(advice(bound + 1), EIGHT)
    # and, written into the same bits, by the reader
    words = [
        (bound + 1 if (f, c) == (field, b) else value, word_width(word_bound))
        for f, c, value, word_bound in divide.advice_words(at_bound, EIGHT)
    ]
    assert bound + 1 < 2 ** word_width(bound)
    corrupt = AdviceTape()
    corrupt.write_words(words)
    with pytest.raises(DivideError, match=f"corrupt advice: {field} word of boundary {b}"):
        decode_divide_advice(corrupt, EIGHT)


def test_boundaries_are_ints_on_non_integral_planning_servers():
    # RESCALE plans on the n^3-scaled servers; where they are non-integral
    # floats, the floor of a midpoint is an integral float, which the q
    # word offsets cannot use
    inst = gen_uniform(6, (0, 10), 3)
    scaled = [6**3 * (s - inst.servers[0]) + 1 for s in inst.servers]
    assert not all(float(s).is_integer() for s in scaled)
    plan = rescale_run(inst, 3).plan
    assert plan.boundaries == (516, 1099)
    assert all(type(p) is int for p in plan.boundaries)


def test_spent_marking_budget_raises():
    # the second request at q[2,L] = 3 must be marked left, but the left
    # budget of block 2 is now empty
    plan = plan_blocks(WORKED.servers, 2)
    advice = compute_advice(WORKED.requests, plan)
    _arrivals, marked_arrivals = classify_requests(WORKED.requests, plan, advice)
    assert marked_arrivals == [(1, 1, False)]
    spent = dataclasses.replace(advice, m=(0,))
    with pytest.raises(DivideError):
        classify_requests(WORKED.requests, plan, spent)


def test_k1_reads_nothing_and_uses_subroutine_only():
    inst = gen_uniform(5, (0, 15), 3, integer_mode=True, request_range="span")
    result = divide_run(inst, 1, "clairvoyant")
    assert result.oracle_bits_read == 0
    assert result.aux_bits_written == 0
    assert result.marks.marked == frozenset()
    assert result.matching.cost == brute_force_optimal(inst).cost


def test_marks_are_disjoint_and_counted():
    for seed in range(30):
        inst = gen_uniform(7, (0, 21), seed, integer_mode=True, request_range="span")
        for k in (2, 3, 7):
            plan = plan_blocks(inst.servers, k)
            advice = compute_advice(inst.requests, plan)
            marks = mark_servers(plan, advice)
            assert not (marks.marked_left & marks.marked_right)
            per_block = unfold(advice, plan)
            assert len(marks.marked_right) == sum(per_block.m_right)
            assert len(marks.marked_left) == sum(per_block.m_left)


def test_mark_servers_matches_the_reference():
    def outcome(mark, plan, advice):
        try:
            marks = mark(plan, advice)
        except (DivideError, reference_divide.DivideError) as exc:
            return str(exc)
        return marks.marked_right, marks.marked_left

    def old_mark(plan, advice):
        return reference_divide.mark_servers(plan, unfold(advice, plan), plan.n)

    rng = random.Random(11)
    raised = 0
    for _ in range(4000):
        n = rng.randint(1, 14)
        plan = plan_blocks(sorted(rng.randint(1, 3 * n) for _ in range(n)), rng.randint(1, n))
        # each boundary uncrossed, or crossed right (q = p_b) or left
        # (q = p_b + 1) by m requests
        q = tuple(rng.choice((None, p, p + 1)) for p in plan.boundaries)
        m = tuple(0 if w is None else rng.choice((1, 1, rng.randint(1, n))) for w in q)
        advice = DivideAdvice(plan.k, q, (0,) * (plan.k - 1), m)
        new = outcome(mark_servers, plan, advice)
        assert new == outcome(old_mark, plan, advice)
        raised += isinstance(new, str)
    assert 1000 < raised < 3000  # both results and raises are covered


def test_block_conservation():
    # unmarked requests and unmarked servers agree per block
    for seed in range(30):
        inst = gen_uniform(6, (0, 18), seed, integer_mode=True, request_range="span")
        for k in range(1, 7):
            plan = plan_blocks(inst.servers, k)
            advice = compute_advice(inst.requests, plan)
            marks = mark_servers(plan, advice)
            arrivals, _marked_arrivals = classify_requests(inst.requests, plan, advice)
            for (start, stop), own in zip(plan.groups, arrivals):
                unmarked_servers = sum(
                    1 for j in range(start, stop) if j not in marks.marked
                )
                assert len(own) == unmarked_servers


def test_exact_on_in_span_instances():
    for n in range(2, 8):
        for seed in range(25):
            inst = gen_uniform(
                n, (0, 3 * n), seed, integer_mode=True, request_range="span"
            )
            opt = brute_force_optimal(inst).cost
            for k in range(1, n + 1):
                result = divide_run(inst, k, "clairvoyant")
                assert result.matching.cost == opt


def test_duplicate_positions_crossing_both_ways():
    # one request value crossing its block in both directions used to break
    # the serving counters; the equal-value split is now carried by the
    # otherwise-redundant left d word
    cases = [
        ((1, 3, 7), (3, 3, 3)),
        ((1, 2, 11, 14, 14), (7, 5, 7, 7, 9)),
        ((1, 5, 5, 8, 16, 17, 18, 19), (-1, 2, 14, 14, 19, 14, 7, 16)),
    ]
    for servers, requests in cases:
        inst = validate_instance(servers, requests)
        opt = brute_force_optimal(inst).cost
        for k in range(1, inst.n + 1):
            result = divide_run(inst, k, "clairvoyant")
            assert result.matching.cost == opt


def test_decomposition_identity_all_subroutines():
    for seed in range(20):
        inst = gen_uniform(7, (0, 21), seed, integer_mode=True, request_range="span")
        for k in (2, 4, 7):
            for sub in ("greedy", "permutation", "clairvoyant"):
                result = divide_run(inst, k, sub)
                assert result.matching.cost == result.lr_cost + sum(result.block_costs)


def test_advice_budget_bound():
    for seed in range(20):
        inst = gen_uniform(8, (0, 24), seed, integer_mode=True, request_range="span")
        for k in range(1, 9):
            result = divide_run(inst, k, "clairvoyant")
            assert result.oracle_bits_read <= advice_budget(8, result.plan.span_bound, k)


def test_budget_predicate_holds_at_the_bound_and_fails_past_it():
    inst = gen_uniform(8, (0, 24), 5, integer_mode=True, request_range="span")
    for k in (2, 4, 8):
        result = divide_run(inst, k, "clairvoyant")
        budget = advice_budget(8, result.plan.span_bound, k)
        assert verification.advice_within_budget(
            dataclasses.replace(result, oracle_bits_read=budget)
        )
        assert not verification.advice_within_budget(
            dataclasses.replace(result, oracle_bits_read=budget + 1)
        )


def test_the_oracle_crosses_every_boundary_one_way():
    rng = random.Random(5)
    for _ in range(600):
        n = rng.randint(1, 12)
        top = rng.choice((max(1, n // 3), 4 * n))
        servers = sorted(rng.randint(1, top) for _ in range(n))
        servers = [s - servers[0] + 1 for s in servers]
        requests = [rng.randint(1, servers[-1]) for _ in range(n)]
        instance = validate_instance(servers, requests)
        for k in range(1, n + 1):
            # the reference has a word for each side of each boundary, so it
            # could report a boundary crossed both ways; the unfolded
            # advice, one word per boundary, could not match it then
            plan = plan_blocks(servers, k)
            old = reference_divide.compute_advice(
                instance, reference_divide.plan_blocks(servers, k), plan.span_bound
            )
            assert unfold(compute_advice(requests, plan), plan) == old


def test_out_of_span_requests_are_exact():
    # requests outside [1, N-1] are clamped into the servers' span, which
    # adds one constant to the cost of every matching, so the run stays exact
    inst = validate_instance([1, 6, 7], [0, -2, 3])
    opt = brute_force_optimal(inst).cost
    result = divide_run(inst, 3, "clairvoyant")
    assert opt == 13
    assert result.matching.cost == 13
    for seed in range(60):
        inst = gen_uniform(5, (0, 15), seed, integer_mode=True)
        result = divide_run(inst, 3, "clairvoyant")
        assert result.matching.cost == brute_force_optimal(inst).cost


def test_rescale_matches_divide_on_integer_instances():
    for seed in range(25):
        inst = gen_uniform(6, (0, 18), seed, integer_mode=True, request_range="span")
        for k in (1, 3, 6):
            assert (
                rescale_run(inst, k, "clairvoyant").matching.cost
                == divide_run(inst, k, "clairvoyant").matching.cost
            )


def test_rescale_real_instances_within_rounding_slack():
    for n in range(2, 7):
        slack = Fraction(1, n * n)  # n * n^-3
        for seed in range(20):
            inst = gen_uniform(n, (0.0, 10.0), seed, request_range="span")
            matching = rescale_run(inst, min(2, n), "clairvoyant").matching
            cost = exact_cost(inst, matching.assignment)
            assert matching.cost == reported(inst, cost)
            opt = exact_cost(inst, brute_force_optimal(inst).assignment)
            assert cost <= opt + slack


def test_rescale_never_reports_a_cost_below_the_optimum():
    # both requests lie right of both servers, so every matching costs OPT
    # exactly; summed in floats in another order, RESCALE's cost once read
    # 586039.1920456028, below OPT's 586039.192045603
    inst = gen_uniform(2, (0.0, 1e6), 65)
    assert max(inst.servers) < min(inst.requests)
    cost = rescale_run(inst, 1, "clairvoyant").matching.cost
    assert cost == monotone_optimal(inst).cost == 586039.192045603


def test_rescale_scaled_coordinates():
    inst = validate_instance([0.5, 2.5], [1.0, 2.0])
    result = rescale_run(inst, 2, "clairvoyant")
    # s' = n^3 (s - s_1) + 1, so N = n^3 (s_n - s_1) + 2
    assert result.plan.span_bound == 18


def test_rescale_span_bound_above_a_non_integral_top_server():
    # s'_n = 2^3 (2.0625 - 0.5) + 1 = 13.5, so N = ceil(13.5) + 1 = 15 and a
    # request past the servers is clamped to 14, above s'_n
    inst = validate_instance([0.5, 2.0625], [1.0, 40.0])
    result = rescale_run(inst, 2, "clairvoyant")
    assert result.plan.span_bound == 15
    assert result.plan.boundaries == (7,)  # (1 + 13.5) // 2


def test_rescale_pullback_is_same_permutation():
    inst = validate_instance([0.25, 1.75, 3.5], [3.0, 0.5, 2.0])
    result = rescale_run(inst, 2, "clairvoyant")
    assert result.matching.cost == sum(
        abs(r - inst.servers[j]) for r, j in zip(inst.requests, result.matching.assignment)
    )


def test_rescale_costs_decompose_in_caller_units():
    # lr_cost and block_costs price the caller's requests: each is the
    # correctly rounded exact cost of its pool's requests, and the exact
    # parts add up to the matching's exact cost, in and out of span
    for n in range(1, 9):
        for seed in range(10):
            for request_range in ("span", (-10.0, 20.0)):
                inst = gen_uniform(n, (0.0, 10.0), seed, request_range=request_range)
                for k in range(1, n + 1):
                    result = rescale_run(inst, k, "greedy")
                    assignment = result.matching.assignment
                    marked = [t for t, _b, _right in result.marked_arrivals]
                    lr = exact_cost(inst, assignment, marked)
                    blocks = [exact_cost(inst, assignment, own) for own in result.arrivals]
                    assert result.lr_cost == reported(inst, lr)
                    assert result.block_costs == [reported(inst, c) for c in blocks]
                    whole = exact_cost(inst, assignment)
                    assert lr + sum(blocks) == whole
                    assert result.matching.cost == reported(inst, whole)


def test_empty_block_when_boundaries_coincide():
    # duplicate server positions can make a block empty; runs must still work
    inst = validate_instance([1, 4, 4, 4, 9], [4, 4, 1, 9, 4])
    opt = brute_force_optimal(inst).cost
    for k in range(1, 6):
        result = divide_run(inst, k, "clairvoyant")
        assert result.matching.cost == opt


BIG = 2**60


def test_exact_on_integer_coordinates_past_2_53():
    # the float midpoint of 2^60 + 323 and 2^60 + 411 rounds to 2^60 + 256,
    # below both servers of its gap, and the run missed the optimum by 156
    inst = validate_instance([1, BIG + 323, BIG + 411], [BIG + 310, BIG + 470, BIG + 232])
    result = divide_run(inst, 3, "clairvoyant")
    assert result.matching.cost == brute_force_optimal(inst).cost


def test_rescale_within_rounding_slack_past_2_53():
    inst = validate_instance([1, BIG + 37, BIG + 40], [BIG + 43, BIG + 13, BIG + 9])
    cost = rescale_run(inst, 2, "clairvoyant").matching.cost
    # integer costs, so the difference is exact where opt + slack would round
    assert 0 <= cost - brute_force_optimal(inst).cost <= 3 * 3**-3


def test_rescale_span_bound_past_2_53():
    # s'_n is an integer past 2^53; N = s'_n + 1 must keep the + 1, and
    # both are exact (a float s'_n rounds to 37472326478853424)
    inst = gen_uniform(4, (0.0, 1e15), 0)
    plan = rescale_run(inst, 2, "clairvoyant").plan
    top = 4**3 * (Fraction(inst.servers[-1]) - Fraction(inst.servers[0])) + 1
    assert top.denominator == 1
    assert plan.span_bound == top + 1 == 37472326478853428


def test_lr_inside_rescale_compares_ints_only(monkeypatch):
    # RESCALE's planning servers, taken in floats, are non-integral here;
    # the pool LR searches and every request it is served are ints
    inst = gen_uniform(60, (0.0, 1000.0), 3)
    scale = inst.n**3
    assert any(
        not float(scale * (s - inst.servers[0])).is_integer() for s in inst.servers
    )
    calls = []

    def recording(state, requests, bit):
        positions = [p for run in state.runs for p in run]
        calls.extend((request, positions) for request in requests)
        return lr_serve(state, requests, bit)

    monkeypatch.setattr(divide, "lr_serve", recording)
    result = rescale_run(inst, 6, "clairvoyant")
    assert len(calls) == len(result.marked_arrivals) > 0
    assert all(type(r) is int for r, _positions in calls)
    assert all(type(p) is int for p in calls[0][1])
