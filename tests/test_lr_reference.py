"""Differential test: the rank-rule oracle and the union-find pool against
the lookahead oracle and list pool they replaced (``reference_lr``)."""

import random

from hypothesis import given
from hypothesis import strategies as st

import reference_lr as ref
from matchline import lr
from matchline.model import validate_instance
from matchline.tape import AdviceTape

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


def serve_all(module, instance, bits, indices):
    state = module.LRState.for_servers(instance.servers, indices)
    tape = AdviceTape(bits)
    served = [module.lr_serve(state, r, tape) for r in instance.requests]
    return served, state.bits_read


def assert_same(instance, rng: random.Random):
    n = instance.n
    assert lr.lr_oracle(instance).bits == ref.lr_oracle(instance).bits
    bits = [rng.randint(0, 1) for _ in range(n)]
    for indices in (None, rng.sample(range(3 * n), n)):
        new = serve_all(lr, instance, bits, indices)
        assert new == serve_all(ref, instance, bits, indices)


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

