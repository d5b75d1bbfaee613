from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from matchline.model import (
    Instance,
    InstanceError,
    Matching,
    integer_image,
    load_instance,
    make_matching,
    save_instance,
    validate_instance,
)
from reference_common import costs_equal


def test_minimal_integer_instance():
    inst = validate_instance([1, 2], [1, 2])
    assert inst.integer_mode


def test_float_instance_not_integer_mode():
    inst = validate_instance([0.5, 2.5], [1.0, 1.0])
    assert not inst.integer_mode


def test_integral_floats_normalize_to_int():
    inst = validate_instance([1.0, 2.0], [1.0, 2.0])
    assert all(isinstance(p, int) for p in inst.servers + inst.requests)
    assert inst.integer_mode


def test_size_mismatch_rejected():
    with pytest.raises(InstanceError):
        validate_instance([1, 2], [1])
    with pytest.raises(InstanceError, match="size mismatch"):
        Instance((1, 2), (1,))


def test_empty_instance_rejected():
    with pytest.raises(InstanceError):
        validate_instance([], [])
    with pytest.raises(InstanceError):
        Instance((), ())


def test_unsorted_servers_rejected_when_built_directly():
    # Instance((5, 1), (1, 5)) used to construct: the monotone optimum then
    # priced it at 8, the brute-force optimum and LR at 0
    with pytest.raises(InstanceError, match="sorted"):
        Instance((5, 1), (1, 5))


def test_servers_sorted_on_validation():
    inst = validate_instance([3, 1, 2], [1, 2, 3])
    assert inst.servers == (1, 2, 3)


def test_non_finite_coordinates_rejected():
    with pytest.raises(InstanceError):
        validate_instance([1, float("inf")], [1, 2])
    with pytest.raises(InstanceError):
        validate_instance([1, 2], [float("nan"), 2])


def test_non_numeric_coordinates_rejected():
    with pytest.raises(InstanceError):
        validate_instance([1, "abc"], [1, 2])
    with pytest.raises(InstanceError):
        validate_instance([1, True], [1, 2])


def test_total_cost_exact_overlap_is_zero():
    # a matching's cost is the sum of |r_i - s_{pi(i)}| over all requests
    inst = validate_instance([1, 2], [1, 2])
    assert make_matching(inst, [0, 1]).cost == 0


def test_total_cost_symmetric_instance():
    inst = validate_instance([0, 10], [5, 5])
    assert make_matching(inst, [0, 1]).cost == 10
    assert make_matching(inst, [1, 0]).cost == 10


def test_total_cost_hand_sum():
    inst = validate_instance([1, 2, 3], [2.5, 2.75, 2.875])
    assert make_matching(inst, [0, 1, 2]).cost == 2.375  # exact: 1.5 + 0.75 + 0.125


def test_total_cost_rejects_non_bijection():
    inst = validate_instance([1, 2], [1, 2])
    with pytest.raises(InstanceError):
        make_matching(inst, [0, 0]).cost


def test_matching_rejects_non_permutation():
    with pytest.raises(InstanceError):
        Matching((0, 0), 1)


def test_integer_image_memo_hands_each_instance_its_own_image():
    # the memo holds one float instance, matched by identity: A, B, A again
    # and A2, an equal copy of A built apart, each get their own image, and
    # an instance of ints between them skips the memo
    a = validate_instance([0.5, 1.25, 3], [2.75, 0.125, 1])
    b = validate_instance([0.1, 2, 7.3], [4.5, 0.2, 9])
    a2 = validate_instance([0.5, 1.25, 3], [2.75, 0.125, 1])
    ints = validate_instance([1, 5, 6], [3, 2, 8])
    assert a2 == a and a2 is not a and a.scale != b.scale
    for inst in (a, b, ints, a, a2, b):
        image = tuple(map(list, integer_image(inst)))
        coords = (inst.servers, inst.requests)
        assert image == tuple([int(Fraction(x) * inst.scale) for x in c] for c in coords)


def test_make_matching_rejects_non_bijection():
    inst = validate_instance([1, 2, 3], [1, 2, 3])
    for assignment in ([0, 1], [0, 1, 1], [0, 1, 3], [0, 1, -1], [0, 1, 2, 0]):
        with pytest.raises(InstanceError):
            make_matching(inst, assignment)


def test_make_matching_computes_cost():
    inst = validate_instance([1, 2], [2, 1])
    m = make_matching(inst, [1, 0])
    assert m.cost == 0


def test_costs_equal_modes():
    # the float tolerance the references compare with (the package compares
    # exact costs with ==): ints compare exactly, also beyond float precision
    assert costs_equal(3, 3, 1)
    assert not costs_equal(3, 4, 100)
    assert not costs_equal(10**17, 10**17 + 1, 100)
    # floats within 2 * terms * eps of the larger are equal, at any scale
    assert costs_equal(3.0, 3, 1)
    assert costs_equal(1e15, 1e15 + 0.125, 1)  # one ulp at 1e15
    assert costs_equal(0.1 + 0.2, 0.3, 2)
    # and unequal beyond that bound
    assert not costs_equal(3.0, 3.0 + 1e-12, 3)
    assert not costs_equal(1e15, 1e15 + 1.0, 1)
    assert not costs_equal(0.0, 1e-300, 1)


def test_save_load_round_trip(tmp_path):
    inst = validate_instance([1, 2, 3], [3, 3, 1])
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    assert load_instance(path) == inst


def test_load_sorts_servers(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text('{"servers": [2, 1], "requests": [1, 1]}')
    assert load_instance(path).servers == (1, 2)


def test_load_rejects_malformed_files(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json")
    with pytest.raises(InstanceError):
        load_instance(path)
    path.write_text('{"servers": [1]}')
    with pytest.raises(InstanceError):
        load_instance(path)
    path.write_text('{"servers": [1], "requests": ["abc"]}')
    with pytest.raises(InstanceError):
        load_instance(path)
    # a key that is no list is malformed, not a TypeError from deep inside
    for bad in ("5", "null"):
        for text in (
            f'{{"servers": {bad}, "requests": [1]}}',
            f'{{"servers": [1], "requests": {bad}}}',
        ):
            path.write_text(text)
            with pytest.raises(InstanceError):
                load_instance(path)


coords = st.integers(min_value=-50, max_value=50)


@given(st.lists(coords, min_size=1, max_size=6), st.data())
def test_total_cost_nonnegative(servers, data):
    n = len(servers)
    requests = data.draw(st.lists(coords, min_size=n, max_size=n))
    inst = validate_instance(servers, requests)
    perm = data.draw(st.permutations(range(n)))
    cost = make_matching(inst, perm).cost
    assert cost >= 0
    if cost == 0:
        assert all(r == inst.servers[j] for r, j in zip(inst.requests, perm))


@given(st.lists(coords, min_size=2, max_size=6), st.data())
def test_cost_invariant_under_equal_server_relabeling(servers, data):
    # swapping the assignment of two servers at the same position is free
    n = len(servers)
    requests = data.draw(st.lists(coords, min_size=n, max_size=n))
    inst = validate_instance(servers, requests)
    perm = data.draw(st.permutations(range(n)))
    cost = make_matching(inst, perm).cost
    for a in range(n):
        for b in range(a + 1, n):
            if inst.servers[a] == inst.servers[b]:
                swapped = list(perm)
                ia, ib = swapped.index(a), swapped.index(b)
                swapped[ia], swapped[ib] = swapped[ib], swapped[ia]
                assert make_matching(inst, swapped).cost == cost


def test_integer_round_trip_is_bit_exact(tmp_path):
    inst = validate_instance([1, 5, 9], [-3, 100, 7])
    path = tmp_path / "i.json"
    save_instance(inst, path)
    back = load_instance(path)
    assert back.servers == inst.servers and back.requests == inst.requests
    assert all(isinstance(p, int) for p in back.servers + back.requests)


def test_integer_mode_is_cached_outside_equality_and_hash():
    fresh, used = validate_instance([1, 3], [2, 2]), validate_instance([1, 3], [2, 2])
    assert used.integer_mode and "integer_mode" in vars(used)
    assert "integer_mode" not in vars(fresh)
    assert fresh == used and hash(fresh) == hash(used)
    assert not validate_instance([2, 3], [2, 2]).integer_mode
