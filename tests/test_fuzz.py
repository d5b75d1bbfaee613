"""Differential fuzz: every algorithm against ``monotone_optimal`` on the
adversarial shapes (duplicates, n = 1, k = n, coordinates near 10^15,
integer coordinates past 2^53, requests far outside the servers' span), plus
the CLI's exit codes on the same instances and on malformed files, and
DIVIDE_k's reader on corrupted oracle tapes of the same instances, alone and
against its predecessor (``reference_tape``)."""

import math
import random
import tempfile
from dataclasses import astuple
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_tape
from exact_cost import exact_cost, reported
from matchline import verification
from matchline.cli import main
from matchline.divide import (
    DivideError,
    classify_requests,
    decode_divide_advice,
    divide_run,
    mark_servers,
)
from matchline.experiment import run_algorithm
from matchline.generators import gen_uniform
from matchline.model import Instance, integer_image, save_instance, validate_instance
from matchline.offline import brute_force_optimal, monotone_cost, monotone_optimal
from matchline.subroutines import SUBROUTINE_NAMES, Permutation
from matchline.tape import AdviceTape, TapeUnderflow

BIG = 10**15
HUGE = 2**60  # past 2^53, where a float midpoint of two integers can round

#: shape -> (server coordinates, request coordinates) for n positions each
SHAPES = {
    "duplicates": lambda n: (st.integers(0, max(1, n // 3)),) * 2,
    "out-of-span": lambda n: (st.integers(0, 4 * n), st.integers(-50 * n, 50 * n)),
    "big-int": lambda n: (st.integers(0, BIG),) * 2,
    "big-float": lambda n: (st.floats(1e14, 1e15),) * 2,
    "huge-int": lambda n: (
        st.one_of(st.just(0), st.integers(HUGE, HUGE + 8 * n)),
        st.integers(HUGE - 8 * n, HUGE + 8 * n),
    ),
    "float": lambda n: (st.floats(0.0, 10.0),) * 2,
}


@st.composite
def instances(draw, max_n=6):
    shape = draw(st.sampled_from(sorted(SHAPES)))
    n = draw(st.integers(1, max_n))
    server_coords, request_coords = SHAPES[shape](n)
    servers = draw(st.lists(server_coords, min_size=n, max_size=n))
    requests = draw(st.lists(request_coords, min_size=n, max_size=n))
    if all(isinstance(x, int) for x in servers + requests):
        # integer mode: servers start at 1, requests move with them
        shift = 1 - min(servers)
        servers = [s + shift for s in servers]
        requests = [r + shift for r in requests]
    return validate_instance(servers, requests)


def configs(instance):
    """(algo, k, subroutine, exact) for every run the instance admits."""
    n = instance.n
    runs = [("lr", None, "greedy", True), ("greedy", None, "greedy", False),
            ("permutation", None, "greedy", False)]
    algos = ("divide", "rescale") if instance.integer_mode else ("rescale",)
    for algo in algos:
        for k in sorted({1, min(2, n), n}):
            runs += [(algo, k, sub, sub == "clairvoyant") for sub in SUBROUTINE_NAMES]
    return runs


@settings(max_examples=150)
@given(instances())
def test_every_algorithm_against_the_monotone_optimum(instance):
    # every cost is its matching's exact cost, rounded once, and compares
    # exactly with the optimum
    n = instance.n
    optimum = monotone_optimal(instance)
    opt = exact_cost(instance, optimum.assignment)
    assert optimum.cost == reported(instance, opt)
    for algo, k, sub, exact in configs(instance):
        outcome = run_algorithm(instance, algo, k, sub)
        cost = exact_cost(instance, outcome["matching"].assignment)
        label = f"{algo} k={k} {sub}"
        assert outcome["cost"] == reported(instance, cost), label
        assert cost >= opt, label
        if "divide" in outcome:
            result = outcome["divide"]
            assert verification.advice_within_budget(result), label
        if exact:
            # RESCALE loses at most n * n^-3 to the rounding of the requests
            assert cost <= opt + (Fraction(1, n * n) if algo == "rescale" else 0), label


#: (servers, requests) at the float extremes: ints past 2^53 beside a half,
#: where an int minus a float rounds (the first is greedy's old tie); a
#: subnormal beside 1e300, so D = 2^1074 and x * D overflows a float; and
#: the least normal float
EXTREMES = [
    ([-(2**60) - 1, 2**60, 2**60 + 7], [0.5, 2**60 + 7, 2**60]),
    ([5e-324, 1.5, 1e300], [1e300, 2.5, 0.25]),
    ([0, 4.5], [0, 2.2250738585072014e-308]),
    ([2**53 + 1, 2**60, 2**60 + 3], [2**60 + 1, 0.5, 2**53 + 5]),
]


@pytest.mark.parametrize("servers, requests", EXTREMES)
def test_every_algorithm_prices_exactly_at_the_float_extremes(servers, requests):
    instance = validate_instance(servers, requests)
    n = instance.n
    optimum = monotone_optimal(instance)
    opt = exact_cost(instance, optimum.assignment)
    assert optimum.cost == reported(instance, opt) == brute_force_optimal(instance).cost
    runs = [("lr", None, "greedy"), ("greedy", None, "greedy"), ("permutation", None, "greedy")]
    runs += [("rescale", k, sub) for k in sorted({1, 2, n}) for sub in SUBROUTINE_NAMES]
    for algo, k, sub in runs:
        outcome = run_algorithm(instance, algo, k, sub)
        cost = exact_cost(instance, outcome["matching"].assignment)
        label = f"{algo} k={k} {sub}"
        assert outcome["cost"] == reported(instance, cost), label
        assert cost >= opt, label
        if algo == "lr":
            assert cost == opt, label
        elif sub == "clairvoyant":
            # RESCALE's rounding of the requests costs at most n * n^-3
            assert cost <= opt + Fraction(1, n * n), label


def test_a_directly_built_instance_of_integral_floats_prices_exactly():
    # D = 1 on these floats, yet their image holds them as ints: a float sum
    # of the distances 2^53 + 2 and 2^53 + 3 rounds to 2^54 + 4
    instance = Instance((0.0, 1.0), (2.0**53 + 2, 2.0**53 + 4))
    exact = monotone_optimal(validate_instance(instance.servers, instance.requests)).cost
    assert exact == 2**54 + 5 == monotone_optimal(instance).cost
    for algo in ("lr", "greedy", "permutation"):
        assert run_algorithm(instance, algo)["cost"] == exact, algo


@given(instances(max_n=8))
def test_permutation_keeps_an_optimal_server_set(instance):
    # the step Permutation rests on: some optimal server set for t requests
    # extends the one for t - 1, so after each request t its used servers
    # cost the least over all t-subsets of the servers, exactly on the
    # instance's integer image
    servers, requests = integer_image(instance)
    sub, used = Permutation(servers), []
    for t in range(1, instance.n + 1):
        used.append(servers[sub.serve([requests[t - 1]])[0]])
        history = requests[:t]
        least = min(monotone_cost(subset, history) for subset in combinations(servers, t))
        assert monotone_cost(used, history) == least


def planning_requests(instance, algo: str, plan) -> list:
    """The requests as a DIVIDE_k run plans on them: on RESCALE's n^3-scaled
    image for "rescale", taken exactly, and clamped into [1, N - 1]."""
    requests = instance.requests
    if algo == "rescale":
        scale, s1 = instance.n**3, Fraction(instance.servers[0])
        requests = [math.floor(scale * (Fraction(r) - s1)) + 1 for r in requests]
    top = plan.span_bound - 1
    return [min(max(r, 1), top) for r in requests]


@settings(max_examples=200)
@given(instances(max_n=10), st.data())
def test_a_corrupt_oracle_tape_gives_a_named_error_or_advice(instance, data):
    # flip, drop or append bits of a run's oracle tape: reading, marking and
    # classifying what is left raises DivideError or TapeUnderflow, or goes
    # through, and nothing else escapes
    algos = ("divide", "rescale") if instance.integer_mode else ("rescale",)
    algo = data.draw(st.sampled_from(algos))
    k = data.draw(st.integers(1, instance.n))
    result = run_algorithm(instance, algo, k, "greedy")["divide"]
    plan, bits = result.plan, list(result.tape.bits)
    requests = planning_requests(instance, algo, plan)
    assert classify_requests(requests, plan, result.advice) == (
        result.arrivals,
        result.marked_arrivals,
    )
    for _ in range(data.draw(st.integers(1, 3))):
        edit = data.draw(st.sampled_from(("flip", "drop", "append")))
        if edit == "append":
            bits += data.draw(st.lists(st.integers(0, 1), min_size=1, max_size=8))
        elif bits:
            i = data.draw(st.integers(0, len(bits) - 1))
            if edit == "flip":
                bits[i] ^= 1
            else:
                del bits[i]
    try:
        advice = decode_divide_advice(AdviceTape(bits), plan)
        mark_servers(plan, advice)
        classify_requests(requests, plan, advice)
    except (DivideError, TapeUnderflow):
        pass


def read_outcome(decode, bits, plan):
    """What ``decode`` makes of a tape of ``bits``: the advice's fields, or
    the name and message of the exception it raised; and the bits it read."""
    tape = AdviceTape(bits)
    try:
        advice = decode(tape, plan)
        outcome = ("advice", advice if type(advice) is tuple else astuple(advice))
    except Exception as exc:
        outcome = (type(exc).__name__, str(exc))
    return outcome, tape.bits_read


def corrupt(bits: list, edits) -> list:
    """``bits`` after each (edit, place, appended bits) of ``edits``: flip or
    drop the bit at ``place`` modulo the length, or append."""
    bits = list(bits)
    for edit, place, tail in edits:
        if edit == "append":
            bits += tail
        elif bits:
            i = place % len(bits)
            if edit == "flip":
                bits[i] ^= 1
            else:
                del bits[i]
    return bits


edits = st.lists(
    st.tuples(
        st.sampled_from(("flip", "drop", "append")),
        st.integers(0, 10**6),
        st.lists(st.integers(0, 1), min_size=1, max_size=8),
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=300)
@given(instances(max_n=10), st.data())
def test_a_corrupt_tape_reads_as_the_reference_reader_reads_it(instance, data):
    # the reader against its one-generator predecessor (reference_tape) on
    # corrupted run tapes: equal advice, or the same exception and message,
    # and the same bits read
    algos = ("divide", "rescale") if instance.integer_mode else ("rescale",)
    algo = data.draw(st.sampled_from(algos))
    n = instance.n
    k = data.draw(st.one_of(st.just(n), st.integers(1, n)))
    result = run_algorithm(instance, algo, k, "greedy")["divide"]
    bits = corrupt(result.tape.bits, data.draw(edits))
    assert read_outcome(decode_divide_advice, bits, result.plan) == read_outcome(
        reference_tape.decode_divide_advice, bits, result.plan
    )


def test_corrupt_tapes_of_every_shape_read_as_the_reference_reads_them():
    # the same on a fixed grid that holds k = n, q collisions and every
    # outcome: advice, a word over its bound (a q word too) and underflow
    rng = random.Random(36)
    seen = set()
    for n in range(1, 13):
        for request_range in ("span", None):
            for seed in range(3):
                top = max(1, n // 3) if seed else 4 * n
                instance = gen_uniform(n, (0, top), seed, True, request_range)
                for k in sorted({1, min(2, n), math.isqrt(n), n}):
                    result = divide_run(instance, k, "greedy")
                    q = result.advice.q
                    if any(a is not None and a == b for a, b in zip(q, q[1:])):
                        seen.add("collision")
                    for _ in range(20):
                        edits = [
                            (rng.choice(("flip", "drop", "append")), rng.randrange(10**6),
                             [rng.randint(0, 1) for _ in range(rng.randint(1, 8))])
                            for _ in range(rng.randint(1, 3))
                        ]  # fmt: skip
                        bits = corrupt(result.tape.bits, edits)
                        new = read_outcome(decode_divide_advice, bits, result.plan)
                        assert new == read_outcome(
                            reference_tape.decode_divide_advice, bits, result.plan
                        ), (instance, k, bits)
                        (what, detail), _bits_read = new
                        seen.add(what)
                        if " q word " in str(detail):
                            seen.add("q word over its bound")
    assert seen == {
        "collision", "advice", "DivideError", "TapeUnderflow", "q word over its bound"
    }


@settings(max_examples=30)
@given(instances())
def test_cli_run_exits_zero_on_every_saved_instance(instance):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.json"
        save_instance(instance, path)
        for algo, k, sub, _exact in configs(instance):
            argv = ["run", "--algo", algo, "--input", str(path)]
            if k is not None:  # only DIVIDE_k and RESCALE take k and a subroutine
                argv += ["--k", str(k), "--sub", sub]
            assert main(argv) == 0, argv


def test_cli_run_exits_two_on_malformed_files(tmp_path, capsys):
    contents = {
        "truncated.json": '{"servers": [1, 2], "requests": [1',
        "sizes.json": '{"servers": [1, 2], "requests": [1]}',
        "nan.json": '{"servers": [1, NaN], "requests": [1, 2]}',
        "list.json": "[1, 2]",
    }
    for name, text in contents.items():
        path = tmp_path / name
        path.write_text(text)
        assert main(["run", "--algo", "lr", "--input", str(path)]) == 2, name
    assert capsys.readouterr().err.count("error: ") == len(contents)
