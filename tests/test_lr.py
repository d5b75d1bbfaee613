import pytest
from hypothesis import given
from hypothesis import strategies as st

from matchline import lr, verification
from matchline.generators import gen_uniform, rho_zero
from matchline.lr import LRError, LRState, lr_oracle, lr_run, lr_serve
from matchline.model import Instance, validate_instance
from matchline.offline import brute_force_optimal, monotone_optimal
from matchline.tape import AdviceTape, TapeUnderflow
from lr_step import lr_step
from ordered_pool import in_order


def serve_one(servers, request, bits=()):
    tape = AdviceTape(bits)
    j = lr_step(LRState(*in_order(servers)), request, tape)
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
    state = LRState([4, 4])
    assert lr_step(state, 4, AdviceTape()) == 0


def test_all_greater_takes_least():
    pos, _ = serve_one([5, 8], 1)
    assert pos == 5


def test_all_less_takes_greatest():
    pos, _ = serve_one([5, 8], 9)
    assert pos == 8


def test_ambiguous_without_bits_underflows():
    state = LRState([0, 10])
    with pytest.raises(TapeUnderflow):
        lr_step(state, 4, AdviceTape())


@pytest.mark.parametrize("b, ids, cost", [(1, [1, 2, 3, 0], 10), (0, [1, 0, 3, 2], 6)])
def test_bit_is_asked_only_where_lr_reads_one(b, ids, cost):
    # 5 takes the server at 5 exactly and 12 and 6 are forced; only 3,
    # between the free servers at 1 and 5, reads a bit
    asked = []

    def bit(t):
        asked.append(t)
        return b

    assert lr_serve(LRState([1, 5, 5, 9]), [5, 3, 12, 6], bit) == (ids, [b], cost)
    assert asked == [1]


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


def test_partner_at_the_requests_own_taken_position_counts_as_below():
    # the second request, at 2, finds the server at 2 taken by the first
    # and falls between free servers at 1 and 3; its monotone partner is
    # that taken server at its own position, which counts as below: bit 0,
    # cost 2 = OPT. Counting it as above would read (1,).
    inst = Instance((1, 1, 1, 2, 3, 3), (2, 2, 3, 1, 1, 2))
    tape = lr_oracle(inst)
    assert tape.bits == (0,)
    assert lr_run(inst, tape).matching.cost == 2 == monotone_optimal(inst).cost


def test_oracle_refuses_sides_off_a_wrong_partner_list(monkeypatch):
    # request 4 is ambiguous between 0 and 10; the swapped rank order pairs
    # it with 10 and sends it right, and the run's cost 16 misses OPT = 4,
    # which monotone_cost takes by sorting the requests again: no tape
    inst = Instance((0, 10), (4, 10))
    monkeypatch.setattr(lr, "monotone_order", lambda requests: [1, 0])
    with pytest.raises(LRError, match="missed the optimum"):
        lr_oracle(inst)


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
        state = LRState(inst.servers)
        for r in inst.requests[:-1]:
            lr_step(state, r, tape)
        before = tape.bits_read
        lr_step(state, inst.requests[-1], tape)
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
    # directions apart here, the oracle compares positions only
    for seed in range(40):
        n = 200
        inst = gen_uniform(n, (0.0, 1e9), seed)
        result = lr_run(inst, lr_oracle(inst))
        assert result.matching.cost == monotone_optimal(inst).cost
        assert result.bits_read <= n - 1


def flat_index(pool, handle) -> int:
    """The place of the entry at ``handle`` among the pool's free entries."""
    k, i = handle
    return sum(map(len, pool.runs[:k])) + i


def handle_of(pool, j) -> tuple:
    """The handle of the pool's j-th free entry."""
    k = 0
    while j >= len(pool.runs[k]):
        j -= len(pool.runs[k])
        k += 1
    return k, j


@given(st.data())
def test_neighbours_match_a_scan_of_the_free_slots(data):
    # duplicate-heavy integers or floats, custom ids, takes between queries,
    # runs of one to three entries as well as RUN's
    coords = data.draw(
        st.sampled_from(
            [st.integers(min_value=0, max_value=4), st.floats(min_value=-50, max_value=50)]
        )
    )
    servers = data.draw(st.lists(coords, min_size=1, max_size=30))
    ids = data.draw(
        st.lists(st.integers(-1000, 1000), min_size=len(servers), max_size=len(servers), unique=True)
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lr, "RUN", data.draw(st.sampled_from([1, 2, 3, lr.RUN])))
        pool = LRState(*in_order(servers, ids))
    free = sorted(zip(servers, ids))  # the scan's (position, id) entries
    far = st.floats(min_value=-1e12, max_value=1e12)
    for r in data.draw(st.lists(st.one_of(st.sampled_from(servers), coords, far), max_size=12)):
        assert all(pool.runs) and pool.lasts == [run[-1] for run in pool.runs]
        assert [e for run, sid in zip(pool.runs, pool.ids) for e in zip(run, sid)] == free
        below = sum(p < r for p, _ in free)
        # the least free entry >= r, with the greatest free entry < r before it
        high = pool.neighbours(r)
        assert flat_index(pool, high) == below
        if below:
            at_low = [sid for p, sid in free if p == free[below - 1][0]]
            k, i = pool.neighbours(free[below - 1][0])
            assert pool.ids[k][i] == min(at_low)
        if free and data.draw(st.booleans()):
            if data.draw(st.booleans()):
                j = data.draw(st.integers(0, len(free) - 1))
                assert pool.take(*handle_of(pool, j)) == free.pop(j)[1]
            elif below < len(free):
                assert pool.take(*high) == free.pop(below)[1]


def test_pool_of_indexed_servers_returns_their_indices():
    # servers 7, 3, 3, 9 with ids 40, 12, 10, 31, put in (position, id)
    # order: no pool sorts them, and test_make_subroutine_refuses them unsorted
    state = LRState([3, 3, 7, 9], [10, 12, 40, 31])
    tape = AdviceTape((1,))
    served = [lr_step(state, r, tape) for r in (3, 8, 3, 5)]
    assert served == [10, 31, 12, 40]
    assert tape.bits_read == 1
    with pytest.raises(LRError):
        lr_step(state, 0, tape)


def test_pool_refuses_ids_of_another_length():
    # zip would truncate the pool to its shorter argument
    with pytest.raises(ValueError, match="3 servers but 1 ids"):
        LRState([1, 2, 3], [7])
    with pytest.raises(ValueError, match="2 servers but 3 ids"):
        LRState([1, 2], [0, 1, 2])
