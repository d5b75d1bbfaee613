"""Differential test: DIVIDE_k and RESCALE against the sentinel-word version
they replaced (``reference_divide``).

On requests inside the servers' span nothing is clamped, so both give
identical decoded advice, marks, classifications, matchings and costs. The
library's advice holds one (q, d, m) triple per boundary, the reference's six
columns per block; ``unfold`` maps the first onto the second, and every
comparison of advice goes through it. The library's classification is what
each pool serves (per-block arrivals and the marked arrivals), the
reference's one (verdict, block) tag per request; ``verdicts_of`` maps the
first onto the second, and every comparison of them goes through it. The tapes
differ on purpose: the reference writes a q word for each side of each
boundary at w(N) bits, the library one per boundary as an offset inside its
two blocks, so the library's tape is held to its exact size instead
(``layout_bits``). Outside the span the reference can miss the optimum; the
clamped version must not.

The serving of ``_run_divide``, block by block and then LR, is held to the
interleaved loop it replaced (``reference_divide.interleaved_serve``) on the
same plan, advice, marks and tags, and each subroutine and LR are checked to
receive exactly their own requests in arrival order.

RESCALE plans and prices exactly, on the instance's integer image. The
reference's RESCALE planned in floats, which round, so on float instances
the reference's ``_run_divide`` runs on the exact rescaling, in
``fractions.Fraction`` (``exact_rescaling``), and its matching is priced by
``exact_cost``.
"""

import dataclasses
import math
import random
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

import reference_divide as ref
from exact_cost import exact_cost, reported
from matchline import divide, verification
from matchline.generators import gen_uniform
from matchline.model import Instance, Matching, validate_instance
from matchline.offline import brute_force_optimal
from matchline.subroutines import SUBROUTINE_NAMES
from matchline.tape import word_width

IN_SPAN_SHAPES = ("in-span", "duplicates", "float")
#: every shape of make_instance but "out-of-span-float"
SERVING_SHAPES = ("in-span", "out-of-span", "duplicates", "big-int", "huge-int", "float")
HUGE = 2**60  # past 2^53


def make_instance(shape: str, n: int, rng: random.Random):
    """Integer instances have s_1 = 1; "float" ones are for RESCALE."""
    if shape in ("big-int", "huge-int"):
        if shape == "big-int":
            servers = [rng.randint(0, 10**15) for _ in range(n)]
            requests = [rng.randint(0, 10**15) for _ in range(n)]
        else:
            servers = [rng.choice((0, rng.randint(HUGE, HUGE + 8 * n))) for _ in range(n)]
            requests = [rng.randint(HUGE - 8 * n, HUGE + 8 * n) for _ in range(n)]
        shift = 1 - min(servers)
        return validate_instance([s + shift for s in servers], [r + shift for r in requests])
    if shape in ("float", "out-of-span-float"):
        servers = [rng.uniform(0.0, 10.0) for _ in range(n)]
        if shape == "float":
            requests = [rng.uniform(min(servers), max(servers)) for _ in range(n)]
        else:
            requests = [rng.uniform(-20.0, 30.0) for _ in range(n)]
        return validate_instance(servers, requests)
    top = max(1, n // 3) if shape == "duplicates" else 4 * n
    servers = [rng.randint(0, top) for _ in range(n)]
    shift = 1 - min(servers)
    servers = [s + shift for s in servers]
    if shape == "out-of-span":
        requests = [rng.randint(-6 * n, 10 * n) for _ in range(n)]
    else:
        requests = [rng.randint(1, max(servers)) for _ in range(n)]
    return validate_instance(servers, requests)


def unfold(advice, plan):
    """The library's per-boundary advice as the reference's six per-block
    columns: a right crossing of boundary b is block b's right word, a left
    one block b+1's left word."""
    k = plan.k
    q_left, q_right = [None] * k, [None] * k
    d_left, m_left, d_right, m_right = ([0] * k for _ in range(4))
    for b, (q, d, m, p) in enumerate(zip(advice.q, advice.d, advice.m, plan.boundaries)):
        if q is None:
            continue
        if q <= p:
            q_right[b], d_right[b], m_right[b] = q, d, m
        else:
            q_left[b + 1], d_left[b + 1], m_left[b + 1] = q, d, m
    columns = (q_left, q_right, d_left, m_left, d_right, m_right)
    return ref.DivideAdvice(k, *map(tuple, columns))


def verdicts_of(result):
    """The library's per-pool arrivals as the reference's one (verdict,
    block) per request, in arrival order."""
    verdicts = [None] * len(result.matching.assignment)
    for b, own in enumerate(result.arrivals):
        for t in own:
            verdicts[t] = (ref._SERVE_BLOCK, b)
    for t, b, right in result.marked_arrivals:
        verdicts[t] = (ref._SERVE_MARK_RIGHT if right else ref._SERVE_MARK_LEFT, b)
    return verdicts


def count_bounds(plan, q):
    """{b: (d bound, m bound)} for every crossed boundary b, with group b
    the servers start_b..stop_b - 1: a right crossing (q[b] <= p_b) keeps
    d <= |group b| requests in block b and sends m <= n - stop_b to the
    server ranks stop_b and up; a left crossing keeps d <= |group b+1| in
    block b+1 and sends m <= start_{b+1} below it, and at a q collision
    (q[b] == q[b+1]) its d is the left share of the crossers, so d <= m."""
    bounds = {}
    for b, word in enumerate(q):
        if word is None:
            continue
        if word <= plan.boundaries[b]:
            start, stop = plan.groups[b]
            bounds[b] = (stop - start, plan.n - stop)
        else:
            start, stop = plan.groups[b + 1]
            collision = b + 1 < len(q) and q[b + 1] == word
            bounds[b] = (start if collision else stop - start, start)
    return bounds


def layout_bits(result):
    """The exact size of the library's tape: per boundary b a q word of
    w(p_{b+1} - p_{b-1}) bits (p_{-1} = 0, p_{k-1} = N - 1), plus a d and
    an m word for every boundary crossed, each w(bound) bits wide
    (``count_bounds``)."""
    plan = result.plan
    p = (0, *plan.boundaries, plan.span_bound - 1)
    counts = count_bounds(plan, result.advice.q).values()
    return sum(word_width(p[b + 2] - p[b]) for b in range(plan.k - 1)) + sum(
        word_width(d) + word_width(m) for d, m in counts
    )


def outputs(result, advice, verdicts):
    """Everything a DIVIDE_k run reports but its tape, as plain comparable
    values, with ``advice`` in the reference's per-block columns and
    ``verdicts`` in its per-request tags."""
    return (
        dataclasses.astuple(advice),
        result.marks.marked_left,
        result.marks.marked_right,
        verdicts,
        result.aux_bits_written,
        result.matching,
        result.lr_cost,
        result.block_costs,
    )


def exact_rescaling(instance):
    """RESCALE's planning instance, exactly: servers n^3 (s - s_1) + 1 as
    ``Fraction``s and requests floor(n^3 (r - s_1)) + 1, with N =
    ceil(s'_n) + 1."""
    scale, s1 = instance.n**3, Fraction(instance.servers[0])
    servers = tuple(scale * (Fraction(s) - s1) + 1 for s in instance.servers)
    requests = tuple(math.floor(scale * (Fraction(r) - s1)) + 1 for r in instance.requests)
    return Instance(servers, requests), math.ceil(servers[-1]) + 1


def caller_costs(instance, k, verdicts, assignment):
    """The matching, lr_cost and block_costs priced exactly on the caller's
    coordinates, each rounded once as the library reports it."""
    lr, blocks = [], [[] for _ in range(k)]
    for t, (verdict, b) in enumerate(verdicts):
        (blocks[b] if verdict == "block" else lr).append(t)
    return {
        "matching": Matching(assignment, reported(instance, exact_cost(instance, assignment))),
        "lr_cost": reported(instance, exact_cost(instance, assignment, lr)),
        "block_costs": [reported(instance, exact_cost(instance, assignment, own)) for own in blocks],
    }


def assert_same(shape: str, instance, k: int, sub: str):
    if shape == "float":
        # the reference reports its plan, tape and marks on the scaled
        # instance; the library's one result holds them and the matching
        # and costs priced on the caller's
        new = divide.rescale_run(instance, k, sub)
        scaled, span_bound = exact_rescaling(instance)
        old = ref._run_divide(scaled, k, sub, span_bound)
        old = dataclasses.replace(
            old, **caller_costs(instance, k, old.verdicts, old.matching.assignment)
        )
    else:
        new = divide.divide_run(instance, k, sub)
        old = ref.divide_run(instance, k, sub)
    assert outputs(new, unfold(new.advice, new.plan), verdicts_of(new)) == outputs(
        old, old.advice, old.verdicts
    )
    assert new.oracle_bits_read == layout_bits(new) == len(new.tape)


def test_in_span_runs_are_bit_identical():
    rng = random.Random(2025)
    for n in range(1, 13):
        for shape in IN_SPAN_SHAPES:
            for _ in range(6):
                instance = make_instance(shape, n, rng)
                for k in range(1, n + 1):
                    for sub in SUBROUTINE_NAMES:
                        assert_same(shape, instance, k, sub)


@given(
    st.sampled_from(IN_SPAN_SHAPES),
    st.integers(min_value=1, max_value=12),
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from(SUBROUTINE_NAMES),
    st.integers(min_value=0, max_value=2**32),
)
def test_in_span_runs_are_bit_identical_property(shape, n, k_share, sub, seed):
    k = 1 + round(k_share * (n - 1))
    assert_same(shape, make_instance(shape, n, random.Random(seed)), k, sub)


def test_workload_scale_runs_are_bit_identical():
    # the benchmark's shapes, inside the span: hundreds of blocks and 45-bit
    # q words (RESCALE maps (0, 1000) onto about n^3 * 1000 integers)
    for seed in (101, 102):
        instance = gen_uniform(3000, (0, 30000), seed, integer_mode=True, request_range="span")
        assert_same("in-span", instance, 4, "greedy")
        instance = gen_uniform(3000, (0.0, 1000.0), seed, request_range="span")
        assert_same("float", instance, 300, "clairvoyant")


def test_tape_size_is_exact_on_every_shape():
    # clamped shapes included: oracle_bits_read is the sum of the boundary
    # frames' widths plus the widths of each crossed boundary's count
    # bounds, and within the budget
    rng = random.Random(9)
    for n in range(1, 11):
        for shape in (*IN_SPAN_SHAPES, "out-of-span", "out-of-span-float"):
            instance = make_instance(shape, n, rng)
            run = divide.rescale_run if "float" in shape else divide.divide_run
            for k in range(1, n + 1):
                result = run(instance, k, "clairvoyant")
                assert result.oracle_bits_read == layout_bits(result), (shape, n, k)
                assert verification.advice_within_budget(result)


def test_out_of_span_clairvoyant_runs_are_exact():
    rng = random.Random(7)
    for n in range(1, 9):
        for _ in range(12):
            instance = make_instance("out-of-span", n, rng)
            opt = brute_force_optimal(instance).cost
            for k in range(1, n + 1):
                result = divide.divide_run(instance, k, "clairvoyant")
                assert result.matching.cost == opt
                assert result.lr_cost + sum(result.block_costs) == opt


def test_out_of_span_rescale_within_rounding_slack():
    rng = random.Random(8)
    for n in range(1, 9):
        slack = Fraction(1, n * n)  # n * n^-3
        for _ in range(8):
            instance = make_instance("out-of-span-float", n, rng)
            opt = exact_cost(instance, brute_force_optimal(instance).assignment)
            for k in range(1, n + 1):
                matching = divide.rescale_run(instance, k, "clairvoyant").matching
                cost = exact_cost(instance, matching.assignment)
                assert matching.cost == reported(instance, cost)
                assert opt <= cost <= opt + slack


def planning_run(monkeypatch, instance, k: int, sub: str):
    """A DIVIDE_k run ("float" instances through RESCALE) with the planning
    servers (exact, in whole units), the clamped planning requests it
    served, and the unit of the servers it was given."""
    seen = {}
    run_divide = divide._run_divide

    def recording(instance, k, subroutine, image, servers, requests, unit):
        exact = servers if unit == 1 else [Fraction(s, unit) for s in servers]
        seen.update(servers=exact, requests=requests, unit=unit)
        return run_divide(instance, k, subroutine, image, servers, requests, unit)

    monkeypatch.setattr(divide, "_run_divide", recording)
    run = divide.divide_run if instance.integer_mode else divide.rescale_run
    result = run(instance, k, sub)
    monkeypatch.undo()
    top = result.plan.span_bound - 1
    requests = [1 if r < 1 else top if r > top else r for r in seen["requests"]]
    return result, seen["servers"], requests, seen["unit"]


def serving_grid(seed: int):
    """(instance, k) for every serving shape, n up to 300 and
    k in {1, 2, ceil(sqrt n), n}."""
    rng = random.Random(seed)
    for n in (1, 2, 3, 5, 8, 13, 40, 300):
        for shape in SERVING_SHAPES:
            instance = make_instance(shape, n, rng)
            for k in sorted({1, min(2, n), math.isqrt(n - 1) + 1, n}):
                yield instance, k


def test_serving_matches_the_interleaved_reference(monkeypatch):
    for instance, k in serving_grid(2030):
        for sub in SUBROUTINE_NAMES:
            result, servers, requests, _unit = planning_run(monkeypatch, instance, k, sub)
            verdicts = verdicts_of(result)
            old = ref.interleaved_serve(
                instance, sub, servers, requests,
                result.plan, unfold(result.advice, result.plan), result.marks, verdicts,
            )
            if not instance.integer_mode:
                # the reference sums float costs; the library's are exact
                costs = caller_costs(instance, k, verdicts, tuple(old[0]))
                old = (old[0], costs["lr_cost"], costs["block_costs"], old[3])
            new = (
                list(result.matching.assignment),
                result.lr_cost,
                result.block_costs,
                result.aux_bits_written,
            )
            # repr: float costs must agree to the last bit, and int stay int
            assert repr(new) == repr(old), (instance, k, sub)


def test_each_server_pool_gets_its_own_requests_in_arrival_order(monkeypatch):
    # the online model behind block-by-block serving: block b's subroutine is
    # served exactly the requests of arrivals[b], in one call, LR exactly the
    # marked ones, each in arrival order, as positions in the servers' units
    for instance, k in serving_grid(2031):
        for sub in SUBROUTINE_NAMES:
            served, lr_served = [], []
            make_subroutine, lr_serve = divide.make_subroutine, divide.lr_serve

            def recording_subroutine(name, servers, ids=None):
                inner = make_subroutine(name, servers, ids)
                original = inner.serve

                def serve(requests):
                    served.append((ids, list(requests)))
                    return original(requests)

                inner.serve = serve
                return inner

            def recording_lr(state, requests, bit):
                lr_served.extend(requests)
                return lr_serve(state, requests, bit)

            monkeypatch.setattr(divide, "make_subroutine", recording_subroutine)
            monkeypatch.setattr(divide, "lr_serve", recording_lr)
            result, _servers, requests, unit = planning_run(monkeypatch, instance, k, sub)
            groups = result.plan.groups
            by_block = {}
            for ids, sequence in served:
                b = next(b for b, (start, stop) in enumerate(groups) if start <= ids[0] < stop)
                assert b not in by_block  # one sequence per pool
                by_block[b] = sequence
            # the pools partition the arrivals, each listed in arrival order
            pools = [*result.arrivals, [t for t, _b, _right in result.marked_arrivals]]
            assert sorted(t for pool in pools for t in pool) == list(range(len(requests)))
            assert all(a < b for pool in pools for a, b in zip(pool, pool[1:]))
            for b, own in enumerate(result.arrivals):
                assert by_block.get(b, []) == [requests[t] * unit for t in own], (instance, k, sub, b)
            assert lr_served == [requests[t] * unit for t in pools[-1]]
