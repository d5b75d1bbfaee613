import random

import pytest

from matchline.generators import (
    FAMILY_MAX_N,
    GeneratorError,
    gen_family,
    gen_uniform,
    rho_zero,
    verify_family,
)
from matchline.offline import all_optimal_assignments


def test_uniform_is_deterministic():
    a = gen_uniform(3, (0, 100), 7)
    b = gen_uniform(3, (0, 100), 7)
    assert a == b


def test_uniform_integer_mode_starts_at_one():
    for seed in range(10):
        inst = gen_uniform(5, (0, 50), seed, integer_mode=True)
        assert inst.integer_mode
        assert inst.servers[0] == 1


def test_uniform_single_point():
    inst = gen_uniform(1, (0, 10), 0)
    assert inst.n == 1


def test_uniform_span_requests_stay_encodable():
    for seed in range(20):
        inst = gen_uniform(6, (0, 30), seed, integer_mode=True, request_range="span")
        assert all(1 <= r <= inst.servers[-1] - 1 for r in inst.requests)


def test_uniform_span_requests_lie_in_the_span():
    # n = 1 puts every server at one position: the span is that point
    for integer_mode in (False, True):
        for n in range(1, 9):
            for seed in range(50):
                inst = gen_uniform(n, (0, 30), seed, integer_mode, request_range="span")
                lo, hi = inst.servers[0], inst.servers[-1]
                assert all(lo <= r <= hi for r in inst.requests), (integer_mode, n, seed)


def test_uniform_rejects_bad_input():
    with pytest.raises(GeneratorError):
        gen_uniform(0, (0, 10), 0)
    with pytest.raises(GeneratorError):
        gen_uniform(3, (5, 5), 0)


@pytest.mark.parametrize("integer_mode", [False, True])
def test_uniform_refuses_a_reversed_request_range_before_drawing(integer_mode, monkeypatch):
    # rejection sampling never ends on an empty range; integer mode used to
    # leak random's ValueError, float mode drew from the swapped interval
    seeded = []
    monkeypatch.setattr(random, "Random", seeded.append)
    with pytest.raises(GeneratorError, match="empty request range"):
        gen_uniform(3, (0, 9), 0, integer_mode, request_range=(5, 1))
    assert seeded == []


INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize("integer_mode", [False, True])
@pytest.mark.parametrize(
    "ranges",
    [
        ((0, INF), None),
        ((-INF, 0), None),
        ((NAN, 1.0), None),
        ((0, 9), (0.0, INF)),
        ((0, 9), (NAN, 1.0)),
        ((0, 9), (-INF, INF)),
    ],
)
def test_uniform_refuses_a_non_finite_bound_before_drawing(integer_mode, ranges, monkeypatch):
    # float mode used to draw from (0, inf) and fail in validation with an
    # InstanceError; integer mode leaked int()'s OverflowError or ValueError
    position_range, request_range = ranges
    seeded = []
    monkeypatch.setattr(random, "Random", seeded.append)
    with pytest.raises(GeneratorError, match="range is not finite"):
        gen_uniform(3, position_range, 0, integer_mode, request_range=request_range)
    assert seeded == []


def test_uniform_takes_integer_bounds_past_the_float_range():
    # an int bound is finite at any size: isfinite would overflow on it
    inst = gen_uniform(3, (0, 10**400), 0, integer_mode=True)
    assert inst.n == 3 and inst.integer_mode


def test_uniform_integer_mode_refuses_fractional_bounds():
    assert gen_uniform(3, (0.0, 9.0), 0, integer_mode=True) == gen_uniform(
        3, (0, 9), 0, integer_mode=True
    )
    with pytest.raises(GeneratorError, match="integral bounds"):
        gen_uniform(3, (0.9, 1.8), 0, integer_mode=True)
    with pytest.raises(GeneratorError, match="integral bounds"):
        gen_uniform(3, (0, 9), 0, integer_mode=True, request_range=(-2.5, 3))


def test_rho_zero_values():
    assert rho_zero(3) == (2.5, 2.75, 2.875)
    assert rho_zero(1) == (0.5,)


def test_family_base_case():
    members = gen_family(1)
    assert [m.requests for m in members] == [(1.0,)]


def test_family_n3_members():
    got = {m.requests for m in gen_family(3)}
    assert got == {
        (2.5, 2.75, 2.875),
        (2.5, 2.75, 1.0),
        (2.5, 1.5, 1.75),
        (2.5, 1.5, 1.0),
    }


def test_family_cardinality():
    for n in range(1, 13):
        assert len(gen_family(n)) == 2 ** (n - 1)


def test_family_cap():
    with pytest.raises(GeneratorError):
        gen_family(FAMILY_MAX_N + 1)
    with pytest.raises(GeneratorError, match="at least 1"):
        gen_family(0)


def test_family_members_are_distinct_and_share_prefix():
    # two members agree exactly on their common rho_0 prefix, then one keeps
    # following rho_0 while the other branches lower
    for n in (4, 5):
        members = gen_family(n)
        seqs = [m.requests for m in members]
        assert len(set(seqs)) == len(seqs)
        prefix = rho_zero(n)
        for m in members:
            head = n - m.branch_depth
            assert m.requests[:head] == prefix[:head]
            if m.branch_depth:
                # the branch point drops below the rho_0 continuation
                assert m.requests[head] < prefix[head]


def test_family_instances_use_unit_servers():
    for m in gen_family(4):
        inst = m.instance()
        assert inst.servers == (1, 2, 3, 4)


def test_verify_family_small_sizes():
    for n in range(2, 7):
        checks = verify_family(n)
        assert len(checks) == 2 ** (n - 1)
        assert all(c.ok for c in checks)


def test_verify_family_expected_top_assignment():
    # branch depth k forces s_n onto request n-k; cross-check against the
    # literal enumeration of every optimum for n=4
    for check in verify_family(4):
        inst = check.member.instance()
        want = check.expected_index - 1  # 0-based request index
        for perm in all_optimal_assignments(inst):
            assert perm.index(inst.n - 1) == want


def test_verify_family_cap():
    with pytest.raises(GeneratorError):
        verify_family(9)
