"""The serving loops that delete from LR's pool in place, ``lr_serve`` and
``Greedy.serve``, against ``LRState.take``, the definition they inline. A
twin pool picks each handle by the same rule through ``neighbours`` and
deletes it with ``take``; after every request both pools must hold the same
runs, ids and last positions. Runs of one, two and three entries make runs
empty and drop mid-serve."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from matchline import lr
from matchline.lr import LRState, lr_serve
from matchline.subroutines import Greedy
from ordered_pool import in_order
from test_pool_reference import RUNS, SHAPES, make_case


def below(pool: LRState, k: int, i: int) -> tuple:
    """The handle of the free entry just before (k, i)."""
    return (k, i - 1) if i else (k - 1, len(pool.runs[k - 1]) - 1)


def lr_handle(pool: LRState, r, b) -> tuple:
    """LR's move for request r under bit b: an exact match or no server
    below takes the least entry >= r, no server above the greatest below,
    and otherwise b picks the side."""
    k, i = pool.neighbours(r)
    if k == len(pool.runs):
        return below(pool, k, i)
    if (k or i) and pool.runs[k][i] != r and not b:
        return below(pool, k, i)
    return k, i


def greedy_handle(pool: LRState, r) -> tuple:
    """Greedy's move: the nearer free neighbour, ties to the lower one,
    and at the lower one's position its smallest id."""
    k, i = pool.neighbours(r)
    if not (k or i):
        return k, i
    lk, li = below(pool, k, i)
    low = pool.runs[lk][li]
    if k == len(pool.runs) or r - low <= pool.runs[k][i] - r:
        return pool.neighbours(low)
    return k, i


def contents(pool: LRState) -> tuple:
    return pool.runs, pool.ids, pool.lasts


@given(
    st.sampled_from(RUNS),
    st.sampled_from(SHAPES),
    st.integers(min_value=1, max_value=30),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32),
)
def test_inlined_deletes_leave_the_pool_take_leaves(run, shape, n, custom_ids, seed):
    rng = random.Random(seed)
    servers, requests = make_case(shape, n, rng)
    ordered = in_order(servers, rng.sample(range(-3 * n, 3 * n), n) if custom_ids else None)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lr, "RUN", run)
        pool, twin, greedy_twin = (LRState(*ordered) for _ in range(3))
        greedy = Greedy(*ordered)
    for r in requests:
        b = rng.randint(0, 1)
        assert lr_serve(pool, (r,), lambda _t: b)[0] == [twin.take(*lr_handle(twin, r, b))]
        assert contents(pool) == contents(twin)
        assert greedy.serve((r,)) == [greedy_twin.take(*greedy_handle(greedy_twin, r))]
        assert contents(greedy.pool) == contents(greedy_twin)
    assert not pool.runs and not greedy.pool.runs
