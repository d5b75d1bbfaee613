"""Differential tests of instance building against ``reference_instances``,
the per-coordinate code it replaced: ``gen_uniform`` must draw the same
coordinates, of the same types, and leave its generator in the same state;
``validate_instance`` must build the same instance or raise the same error."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference_instances as ref
from matchline.generators import gen_uniform
from matchline.model import Instance, InstanceError, validate_instance


@pytest.fixture
def seeded(monkeypatch):
    """Every ``random.Random`` built while the test runs, in order."""
    made = []

    class Recorded(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    monkeypatch.setattr(random, "Random", Recorded)
    return made


def typed(instance):
    """An instance's coordinates with their types: 1 and 1.0 differ."""
    return [[(type(x), repr(x)) for x in xs] for xs in (instance.servers, instance.requests)]


@pytest.mark.parametrize("integer_mode", [False, True])
@pytest.mark.parametrize("request_range", [None, "span", "wide", (3, 3)])
def test_gen_uniform_matches_the_per_draw_reference(integer_mode, request_range, seeded):
    # positions up to n, 10^15 (past 2^32: two words a draw) and 2^70 (three)
    for hi in (None, 10**15, 2**70):
        for n in (1, 2, 9, 200):
            top = n if hi is None else hi
            rr = (-7, 2 * top) if request_range == "wide" else request_range
            for seed in range(6):
                args = (n, (0, top), seed, integer_mode, rr)
                got, want = gen_uniform(*args), ref.gen_uniform(*args)
                got_rng, want_rng = seeded[-2:]
                assert typed(got) == typed(want), args
                assert got_rng.getstate() == want_rng.getstate(), args


class Real(float):
    pass


COORDINATE = st.one_of(
    st.integers(-50, 50),
    st.integers(2**53, 2**70) | st.integers(-(2**70), -(2**53)),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    st.integers(-50, 50).map(float),
    st.sampled_from([-0.0, 0.5, float("nan"), float("inf"), -float("inf")]),
    st.booleans(),
    st.sampled_from([Real(1.5), Real(2.0), None, "3", "x"]),
)
# most lists hold only ints or only floats, the two kinds generators build
PLAIN = st.one_of(st.integers(-(2**60), 2**60), st.floats(-1e3, 1e3, allow_nan=False))
COORDINATES = st.lists(COORDINATE, max_size=6) | st.lists(PLAIN, min_size=1, max_size=6)


def outcome(build, servers, requests):
    try:
        return typed(build(servers, requests))
    except InstanceError as exc:
        return str(exc)


@given(COORDINATES, COORDINATES)
def test_validate_instance_matches_the_per_coordinate_reference(servers, requests):
    assert outcome(validate_instance, servers, requests) == outcome(
        ref.validate_instance, servers, requests
    )


@given(st.lists(PLAIN, min_size=2, max_size=6))
def test_instance_refuses_unsorted_servers_like_the_reference(servers):
    servers = tuple(servers)
    if servers != tuple(sorted(servers)):
        with pytest.raises(InstanceError, match="servers must be sorted"):
            Instance(servers, servers)
    else:
        assert Instance(servers, servers).servers == servers
