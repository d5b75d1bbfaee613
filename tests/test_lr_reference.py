"""Differential test: the package's oracle, which reads each bit off the
side of the request's partner in the monotone optimum, and LR's moves on
its runs pool, against the lookahead oracle and the list pool of
``reference_lr``."""

import operator
import random

from hypothesis import given
from hypothesis import strategies as st

import reference_lr as ref
from lr_step import lr_step
from ordered_pool import in_order
from matchline import lr
from matchline.model import integer_image, validate_instance
from matchline.offline import monotone_assignment
from writable_tape import AdviceTape

SHAPES = ("in-span", "out-of-span", "duplicates", "small-float")


def make_instance(shape: str, n: int, rng: random.Random):
    if shape == "small-float":
        coords = [rng.uniform(0.0, 10.0) for _ in range(2 * n)]
        return validate_instance(coords[:n], coords[n:])
    top = max(1, n // 3) if shape == "duplicates" else 4 * n
    servers = [rng.randint(0, top) for _ in range(n)]
    if shape == "out-of-span":
        requests = [rng.randint(-6 * n, 10 * n) for _ in range(n)]
    else:
        requests = [rng.randint(min(servers), max(servers)) for _ in range(n)]
    return validate_instance(servers, requests)


def serve_all(module, serve, instance, bits, indices):
    state = module.LRState(*in_order(instance.servers, indices))
    tape = AdviceTape(bits)
    served = [serve(state, r, tape) for r in instance.requests]
    return served, tape.bits_read


def assert_same(instance, rng: random.Random):
    n = instance.n
    assert lr.lr_oracle(instance).bits == ref.lr_oracle(instance).bits
    bits = [rng.randint(0, 1) for _ in range(n)]
    for indices in (None, rng.sample(range(3 * n), n)):
        new = serve_all(lr, lr_step, instance, bits, indices)
        assert new == serve_all(ref, ref.lr_serve, instance, bits, indices)


def test_same_tapes_and_moves_on_every_shape():
    rng = random.Random(2024)
    for n in range(1, 41):
        for shape in SHAPES:
            for _ in range(6):
                assert_same(make_instance(shape, n, rng), rng)


@given(
    st.sampled_from(SHAPES),
    st.integers(min_value=1, max_value=25),
    st.integers(min_value=0, max_value=2**32),
)
def test_same_tapes_and_moves_property(shape, n, seed):
    rng = random.Random(seed)
    assert_same(make_instance(shape, n, rng), rng)


def test_oracle_tape_equals_the_tape_of_the_partners_sides():
    # the sides written out request by request, each against the server of
    # its rank in monotone_assignment, and served by lr_serve: the oracle's
    # one pass in rank order must read the same bits
    rng = random.Random(32)
    for n in range(1, 41):
        for shape in SHAPES:
            instance = make_instance(shape, n, rng)
            servers, requests = integer_image(instance)
            partners = map(servers.__getitem__, monotone_assignment(requests))
            sides = list(map(operator.lt, requests, partners))
            _ids, bits, _cost = lr.lr_serve(lr.LRState(servers), requests, sides.__getitem__)
            assert lr.lr_oracle(instance).bits == tuple(bits)
