"""Differential tests: LR's pool of sorted runs against the union-find pool
it replaced (``reference_pool``). Runs of one, two and three entries split
even tiny pools into many runs that empty and drop as servers are taken, so
each test runs with those as well as with ``RUN``'s own.

LR on random bits, the oracle, ``greedy`` and ``permutation`` must serve the
same ids, read the same bits and write the same tapes on both pools; DIVIDE_k
and RESCALE, whose inner LR and block subroutines run on the pool, must give
what ``reference_divide`` gives."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference_pool as ref
from lr_step import lr_step
from ordered_pool import in_order
from test_divide_reference import IN_SPAN_SHAPES, SERVING_SHAPES, assert_same, make_instance
from matchline import divide, lr
from matchline.model import validate_instance
from matchline.subroutines import SUBROUTINE_NAMES, Greedy, Permutation
from matchline.tape import AdviceTape

RUNS = (1, 2, 3, lr.RUN)
SHAPES = ("duplicates", "float", "big-int", "huge-int", "out-of-span")
HUGE = 2**60  # past 2^53


def make_case(shape: str, n: int, rng: random.Random):
    """Servers (unsorted) and requests of one shape."""
    if shape == "float":
        servers = [rng.uniform(0.0, 10.0) for _ in range(n)]
        return servers, [rng.choice(servers + [rng.uniform(-5.0, 15.0)]) for _ in range(n)]
    if shape == "big-int":
        servers = [rng.randint(0, 10**15) for _ in range(n)]
        return servers, [rng.choice((rng.choice(servers), rng.randint(0, 10**15))) for _ in range(n)]
    if shape == "huge-int":
        servers = [rng.randint(HUGE, HUGE + 4 * n) for _ in range(n)]
        return servers, [rng.randint(HUGE - 4 * n, HUGE + 8 * n) for _ in range(n)]
    top = max(1, n // 3) if shape == "duplicates" else 4 * n
    servers = [rng.randint(0, top) for _ in range(n)]
    if shape == "out-of-span":
        return servers, [rng.randint(-6 * n, 10 * n) for _ in range(n)]
    return servers, [rng.randint(0, top) for _ in range(n)]


@given(
    st.sampled_from(RUNS),
    st.sampled_from(SHAPES),
    st.integers(min_value=1, max_value=30),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32),
)
def test_same_ids_bits_and_tapes_on_both_pools(run, shape, n, custom_ids, seed):
    rng = random.Random(seed)
    servers, requests = make_case(shape, n, rng)
    ids = rng.sample(range(-3 * n, 3 * n), n) if custom_ids else None
    bits = [rng.randint(0, 1) for _ in range(n)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lr, "RUN", run)
        tapes = AdviceTape(bits), AdviceTape(bits)
        pools = lr.LRState(*in_order(servers, ids)), ref.LRState.for_servers(servers, ids)
        served = [
            [serve(pool, r, tape) for r in requests]
            for serve, pool, tape in zip((lr_step, ref.lr_serve), pools, tapes)
        ]
        assert served[0] == served[1]
        assert tapes[0].bits_read == tapes[1].bits_read
        instance = validate_instance(servers, requests)
        assert lr.lr_oracle(instance).bits == ref.lr_oracle(instance).bits
        for new, old in ((Greedy, ref.Greedy), (Permutation, ref.Permutation)):
            new, old = new(*in_order(servers, ids)), old(servers, ids)
            assert new.serve(requests) == [old.serve(r) for r in requests]


@pytest.mark.parametrize("run", RUNS)
def test_divide_and_rescale_match_the_reference_on_short_runs(run, monkeypatch):
    monkeypatch.setattr(lr, "RUN", run)
    rng = random.Random(run)
    for n in (1, 2, 3, 5, 8, 12):
        for shape in IN_SPAN_SHAPES:
            instance = make_instance(shape, n, rng)
            for k in sorted({1, min(2, n), n // 2 + 1, n}):
                for sub in SUBROUTINE_NAMES:
                    assert_same(shape, instance, k, sub)


def every_output(result) -> tuple:
    """A DIVIDE_k result's fields, floats to the last bit: its ``repr`` and
    the fields the ``repr`` leaves out."""
    return repr(result), result.tape.bits, result.arrivals, result.marked_arrivals


@pytest.mark.parametrize("run", RUNS[:-1])
def test_divide_and_rescale_do_not_depend_on_the_run_length(run, monkeypatch):
    # out of the span too, where the reference is no match: every output of
    # a run on short runs is that of a run on RUN's
    rng = random.Random(2032 + run)
    for n in (2, 5, 13, 40):
        for shape in (*SERVING_SHAPES, "out-of-span-float"):
            instance = make_instance(shape, n, rng)
            for k in sorted({1, 2, n // 3 + 1, n}):
                for sub in SUBROUTINE_NAMES:
                    runner = divide.rescale_run if "float" in shape else divide.divide_run
                    with monkeypatch.context() as patch:
                        patch.setattr(lr, "RUN", run)
                        short = runner(instance, k, sub)
                    full = runner(instance, k, sub)
                    assert every_output(short) == every_output(full), (shape, n, k, sub)
