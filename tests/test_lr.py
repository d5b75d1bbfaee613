import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from matchline import verification
from matchline.generators import gen_uniform, rho_zero
from matchline.lr import LRError, LRState, lr_oracle, lr_run, lr_serve
from matchline.model import validate_instance
from matchline.offline import brute_force_optimal, monotone_optimal
from matchline.tape import AdviceTape, TapeUnderflow


def serve_one(servers, request, bits=()):
    tape = AdviceTape(bits)
    j = lr_serve(LRState.for_servers(servers), request, tape)
    return servers[j], tape.bits_read


def test_bit_zero_goes_left():
    pos, bits = serve_one([0, 10], 4, bits=(0,))
    assert pos == 0 and bits == 1


def test_bit_one_goes_right():
    pos, bits = serve_one([0, 10], 4, bits=(1,))
    assert pos == 10 and bits == 1


def test_forced_move_reads_no_bit():
    pos, bits = serve_one([7], 3)
    assert pos == 7 and bits == 0


def test_exact_match_reads_no_bit():
    pos, bits = serve_one([2, 4], 4)
    assert pos == 4 and bits == 0


def test_exact_match_prefers_smallest_index():
    state = LRState.for_servers([4, 4])
    assert lr_serve(state, 4, AdviceTape()) == 0


def test_all_greater_takes_least():
    pos, _ = serve_one([5, 8], 1)
    assert pos == 5


def test_all_less_takes_greatest():
    pos, _ = serve_one([5, 8], 9)
    assert pos == 8


def test_ambiguous_without_bits_underflows():
    state = LRState.for_servers([0, 10])
    with pytest.raises(TapeUnderflow):
        lr_serve(state, 4, AdviceTape())


def test_oracle_geometric_example():
    inst = validate_instance([1, 2, 3], [2.5, 2.75, 2.875])
    tape = lr_oracle(inst)
    assert tape.bits == (0, 0)
    result = lr_run(inst, tape)
    assert result.matching.assignment == (1, 0, 2)
    assert result.matching.cost == pytest.approx(2.375)
    assert result.bits_read == 2


def test_oracle_forced_instance_is_bit_free():
    inst = validate_instance([1, 2], [1, 2])
    tape = lr_oracle(inst)
    assert tape.bits == ()
    assert lr_run(inst, tape).matching.cost == 0


def test_oracle_duplicate_requests():
    inst = validate_instance([1, 2, 3, 4], [3, 3, 1, 4])
    tape = lr_oracle(inst)
    result = lr_run(inst, tape)
    assert result.matching.cost == 1
    assert result.bits_read <= 3


def test_singleton_reads_no_bits():
    inst = validate_instance([5], [100])
    assert lr_run(inst, lr_oracle(inst)).bits_read == 0


def test_geometric_family_prefix_uses_full_budget():
    # every request of rho_0 sits strictly between unmatched servers except
    # the last, so exactly n-1 bits are consumed
    for n in range(2, 9):
        inst = validate_instance(list(range(1, n + 1)), rho_zero(n))
        result = lr_run(inst, lr_oracle(inst))
        assert result.bits_read == n - 1
        assert result.matching.cost == brute_force_optimal(inst).cost


def test_oracle_tapes_tell_the_hard_family_apart():
    # the n - 1 bits are tight on all of I_n, not only on rho_0
    assert all(verification.family_tapes_are_distinct(n) for n in range(1, 13))


def test_last_request_never_reads_a_bit():
    for seed in range(30):
        inst = gen_uniform(6, (0, 25), seed, integer_mode=True)
        tape = lr_oracle(inst)
        state = LRState.for_servers(inst.servers)
        for r in inst.requests[:-1]:
            lr_serve(state, r, tape)
        before = tape.bits_read
        lr_serve(state, inst.requests[-1], tape)
        assert tape.bits_read == before


def test_oracle_optimal_on_random_integer_instances():
    for n in range(2, 8):
        for seed in range(40):
            inst = gen_uniform(n, (0, 4 * n), seed, integer_mode=True)
            result = lr_run(inst, lr_oracle(inst))
            assert result.matching.cost == brute_force_optimal(inst).cost
            assert result.bits_read <= n - 1


@given(st.integers(min_value=1, max_value=6), st.data())
def test_oracle_optimal_property(n, data):
    coords = st.integers(min_value=-20, max_value=20)
    servers = data.draw(st.lists(coords, min_size=n, max_size=n))
    requests = data.draw(st.lists(coords, min_size=n, max_size=n))
    inst = validate_instance(servers, requests)
    result = lr_run(inst, lr_oracle(inst))
    assert result.matching.cost == brute_force_optimal(inst).cost
    assert result.bits_read <= max(n - 1, 0)


def test_oracle_optimal_on_large_float_coordinates():
    # coordinates up to 1e9: an absolute tie tolerance cannot tell the two
    # directions apart here, the rank rule compares positions only
    for seed in range(40):
        n = 200
        inst = gen_uniform(n, (0.0, 1e9), seed)
        result = lr_run(inst, lr_oracle(inst))
        cost, opt = result.matching.cost, monotone_optimal(inst).cost
        assert abs(cost - opt) <= 2 * n * sys.float_info.epsilon * max(cost, opt)
        assert result.bits_read <= n - 1


def test_pool_of_indexed_servers_returns_their_indices():
    state = LRState.for_servers([7, 3, 3, 9], indices=[40, 12, 10, 31])
    tape = AdviceTape((1,))
    served = [lr_serve(state, r, tape) for r in (3, 8, 3, 5)]
    assert served == [10, 31, 12, 40]
    assert tape.bits_read == 1
    with pytest.raises(LRError):
        lr_serve(state, 0, tape)
