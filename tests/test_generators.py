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
