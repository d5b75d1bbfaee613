"""Differential test: the greedy subroutine on LR's server pool against the
full-scan version it replaced (``reference_subroutines``)."""

import random

from hypothesis import given
from hypothesis import strategies as st

import reference_subroutines as ref
from matchline.subroutines import Greedy

# "rounding": servers near 0, requests near 10**16, where a float distance
# rounds many positions below the request to the same value
SHAPES = ("in-span", "out-of-span", "duplicates", "float", "rounding")


def make_case(shape: str, n: int, rng: random.Random):
    """Servers (unsorted) and requests of one shape."""
    if shape == "float":
        servers = [rng.uniform(0.0, 10.0) for _ in range(n)]
        return servers, [rng.uniform(-5.0, 15.0) for _ in range(n)]
    if shape == "rounding":
        servers = [rng.choice((0.5, 1.0, 1.5, 3.0)) * rng.randint(1, 3) for _ in range(n)]
        return servers, [1e16 + rng.choice((-8.0, 0.0, 2.0, 4.0)) for _ in range(n)]
    top = max(1, n // 3) if shape == "duplicates" else 4 * n
    servers = [rng.randint(0, top) for _ in range(n)]
    if shape == "out-of-span":
        return servers, [rng.randint(-6 * n, 10 * n) for _ in range(n)]
    return servers, [rng.randint(min(servers), max(servers)) for _ in range(n)]


def assert_same(servers, requests, rng: random.Random):
    n = len(servers)
    for ids in (None, rng.sample(range(3 * n), n)):
        new, old = Greedy(servers, ids), ref.Greedy(servers, ids)
        for r in requests:
            assert new.serve(r) == old.serve(r)


def test_same_servers_on_every_shape():
    rng = random.Random(2026)
    for n in range(1, 41):
        for shape in SHAPES:
            for _ in range(6):
                assert_same(*make_case(shape, n, rng), rng)


@given(
    st.sampled_from(SHAPES),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=2**32),
)
def test_same_servers_property(shape, n, seed):
    rng = random.Random(seed)
    assert_same(*make_case(shape, n, rng), rng)
