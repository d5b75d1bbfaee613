"""Differential tests of the exhaustive oracles against ``reference_offline``,
the code that recomputed every distance: ``brute_force_optimal`` must return
the same assignment, and ``all_optimal_assignments`` the same optima in the
same order, on every shape below. The reference sums float distances; the
package prices exactly, so its cost must have the ``repr`` of the
reference's assignment priced by ``exact_cost`` and rounded once."""

import random

import pytest

import reference_offline as ref
from exact_cost import exact_cost, reported
from matchline.model import validate_instance
from matchline.offline import BRUTE_FORCE_MAX_N, all_optimal_assignments, brute_force_optimal

SHAPES = (
    "rounding-tie",
    "uniform",
    "duplicates",
    "outside",
    "int-1e15",
    "int-2^60",
    "floats",
    "floats-1e15",
)

#: both assignments cost the same in exact arithmetic; their float sums
#: round 1/16 apart
ROUNDING_TIE = validate_instance(
    [112957170176163.03, 130852166903432.48],
    [597260890246121, 178045423525621.03],
)


def make_instance(shape: str, n: int, rng: random.Random):
    """Servers and requests of one shape, validated (servers sorted)."""

    def draw(pick):
        return [pick() for _ in range(n)]

    if shape == "uniform":
        servers = requests = lambda: rng.randint(0, 4 * n)
    elif shape == "duplicates":  # few distinct positions: cost ties everywhere
        servers = requests = lambda: rng.choice((3, 3, 5, 8))
    elif shape == "outside":  # every request far out of the servers' span
        servers = lambda: rng.randint(0, 10)
        requests = lambda: rng.choice((-1, 1)) * rng.randint(50, 100) + 5
    elif shape == "int-1e15":
        servers = requests = lambda: rng.randint(0, 10**15)
    elif shape == "int-2^60":  # past 2^53: exact only as ints
        servers = requests = lambda: rng.randint(0, 2**60)
    elif shape == "floats":
        servers = requests = lambda: rng.uniform(0, 10)
    else:  # floats up to 1e15: a sum of distances rounds by its order
        servers = requests = lambda: rng.uniform(0, 1e15)
    return validate_instance(draw(servers), draw(requests))


def cases(shape: str, n_max: int, seeds: int, extra: tuple = ()) -> list:
    """``seeds`` instances of the shape at each n = 1..n_max, then one at
    each n in ``extra``."""
    if shape == "rounding-tie":
        return [ROUNDING_TIE]
    rng = random.Random(SHAPES.index(shape))
    sizes = [n for n in range(1, n_max + 1) for _ in range(seeds)] + list(extra)
    return [make_instance(shape, n, rng) for n in sizes]


@pytest.mark.parametrize("shape", SHAPES)
def test_brute_force_matches_the_reference(shape):
    for instance in cases(shape, 10, 5, extra=(11, BRUTE_FORCE_MAX_N)):
        got, want = brute_force_optimal(instance), ref.brute_force_optimal(instance)
        assert got.assignment == want.assignment, instance
        exact = reported(instance, exact_cost(instance, want.assignment))
        assert repr(got.cost) == repr(exact), instance


@pytest.mark.parametrize("shape", SHAPES)
def test_all_optimal_assignments_match_the_reference(shape):
    for instance in cases(shape, 7, 3):
        assert all_optimal_assignments(instance) == ref.all_optimal_assignments(instance), instance
