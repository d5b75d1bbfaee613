from contextlib import nullcontext

import pytest
from hypothesis import given
from hypothesis import strategies as st

from matchline.tape import TapeError, TapeUnderflow, word_width
from writable_tape import AdviceTape
from reference_divide import AuxTape  # the differential reference's tape


def test_word_width_values():
    assert word_width(0) == 0
    assert word_width(7) == 3
    assert word_width(8) == 4


def test_word_width_rejects_negative():
    with pytest.raises(TapeError):
        word_width(-1)


def test_word_round_trip():
    tape = AdviceTape()
    tape.write_words(((5, 4),))
    assert tape.read_word(4) == 5
    assert tape.bits_read == 4


def test_write_word_zero_pads():
    tape = AdviceTape()
    tape.write_words(((0, 3),))
    assert tape.bits == (0, 0, 0)


def test_write_word_rejects_overflow():
    tape = AdviceTape()
    with pytest.raises(TapeError):
        tape.write_words(((9, 3),))


def test_word_is_most_significant_first():
    tape = AdviceTape()
    tape.write_words(((5, 3),))
    assert tape.bits == (1, 0, 1)


def test_read_bits_in_order():
    tape = AdviceTape([1, 0, 1])
    with tape.bit_reader() as bit:
        assert [bit(t) for t in range(3)] == [1, 0, 1]
    assert tape.bits_read == 3


def test_zero_width_read_is_free():
    tape = AdviceTape()
    assert tape.read_word(0) == 0
    assert tape.bits_read == 0


def test_empty_tape_underflows():
    with pytest.raises(TapeUnderflow), AdviceTape().bit_reader() as bit:
        bit(0)


def test_cursor_never_rewinds():
    tape = AdviceTape([1, 1, 0])
    with tape.bit_reader() as bit:
        bit(0)
    before = tape.bits_read
    with tape.bit_reader() as bit:
        bit(1)
    assert tape.bits_read == before + 1
    assert tape.unread == 1


@given(
    st.lists(st.integers(min_value=0, max_value=1), max_size=12),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=14),
)
def test_bit_reader_counts_its_reads_and_underflows_past_the_end(bits, start, reads):
    # t is next's default inside the reader: past the end it must raise,
    # never return t, and the cursor must stay after the last bit read
    tape = AdviceTape(bits)
    start = min(start, len(bits))
    tape.read_word(start)
    got = []
    with pytest.raises(TapeUnderflow) if start + reads > len(bits) else nullcontext():
        with tape.bit_reader() as bit:
            for t in range(reads):
                got.append(bit(t + 2))
    assert got == bits[start : start + reads]
    assert tape.bits_read == start + len(got)
    with pytest.raises(TapeUnderflow), tape.bit_reader() as bit:
        for t in range(len(bits) + 1):
            bit(t)
    assert tape.bits_read == len(bits)


def test_rejects_non_bits():
    with pytest.raises(TapeError):
        AdviceTape([2])
    with pytest.raises(TapeError):
        AdviceTape().write_bit("1x")


def test_dump_hex_padding():
    assert AdviceTape([1, 0, 1, 0]).dump() == {"hex": "a", "bit_length": 4}
    # partial nibble is left-aligned
    assert AdviceTape([1, 0, 1, 0, 1]).dump() == {"hex": "a8", "bit_length": 5}
    assert AdviceTape().dump() == {"hex": "0", "bit_length": 0}


def test_aux_remove_last_unread_bit():
    aux = AuxTape()
    aux.write_bit(1)
    aux.write_bit(0)
    aux.remove_last()
    assert aux.bits == (1,)


def test_aux_cannot_remove_read_bit():
    aux = AuxTape()
    aux.write_bit(1)
    aux.read_bit()
    with pytest.raises(TapeError):
        aux.remove_last()


@given(st.integers(min_value=0, max_value=10_000), st.data())
def test_codec_round_trip(max_value, data):
    value = data.draw(st.integers(min_value=0, max_value=max_value))
    width = word_width(max_value)
    tape = AdviceTape()
    tape.write_words(((value, width),))
    assert tape.read_word(width) == value


@given(st.lists(st.integers(min_value=0, max_value=1), max_size=64))
def test_bits_read_accounting(bits):
    tape = AdviceTape(bits)
    total = 0
    while tape.unread:
        width = min(3, tape.unread)
        tape.read_word(width)
        total += width
    assert tape.bits_read == total == len(bits)


@given(st.lists(st.sampled_from(["write0", "write1", "read", "remove"]), max_size=80))
def test_aux_operation_sequences_preserve_read_prefix(ops):
    # whatever the interleaving, bits already read never change
    aux = AuxTape()
    seen = []
    for op in ops:
        if op == "write0":
            aux.write_bit(0)
        elif op == "write1":
            aux.write_bit(1)
        elif op == "read" and aux.unread:
            seen.append(aux.read_bit())
        elif op == "remove" and aux.cursor < len(aux.bits):
            aux.remove_last()
        assert tuple(seen) == aux.bits[: len(seen)]


def test_bits_are_stored_as_ints():
    assert AdviceTape([True, False, 1]).bits == (1, 0, 1)
    assert all(type(b) is int for b in AdviceTape([True, 0]).bits)
    for bad in (["1x"], [1, -1], [1.0], 3):
        with pytest.raises(TapeError):
            AdviceTape(bad)
    with pytest.raises(TapeError):
        AdviceTape().write_bit(1.0)


WORDS = st.lists(
    st.integers(min_value=0, max_value=64).flatmap(
        lambda w: st.tuples(st.integers(min_value=0, max_value=(1 << w) - 1), st.just(w))
    ),
    max_size=40,
)


@given(WORDS)
def test_bulk_writer_matches_per_bit_expansion(words):
    tape = AdviceTape()
    tape.write_words(words)
    assert tape.bits == tuple(
        value >> shift & 1 for value, width in words for shift in range(width - 1, -1, -1)
    )
    assert [tape.read_word(width) for _, width in words] == [value for value, _ in words]
    assert tape.unread == 0


@given(WORDS, st.integers(min_value=0, max_value=64), st.data())
def test_bulk_writer_rejects_overflow_and_writes_nothing(words, width, data):
    value = data.draw(
        st.one_of(st.integers(min_value=1 << width), st.integers(max_value=-1))
    )
    tape = AdviceTape()
    tape.write_words(words)
    before = tape.bits
    with pytest.raises(TapeError):
        tape.write_words(words + [(value, width)] + words)
    with pytest.raises(TapeError):
        tape.write_words(((value, width),))
    assert tape.bits == before


@given(WORDS, st.integers(min_value=0, max_value=40), st.integers(min_value=1, max_value=64))
def test_short_read_raises_and_consumes_nothing(words, read, short):
    tape = AdviceTape()
    tape.write_words(words)
    read = min(read, len(words))
    for value, width in words[:read]:
        assert tape.read_word(width) == value
    cursor = tape.cursor
    with pytest.raises(TapeUnderflow):
        tape.read_word(tape.unread + short)
    assert tape.cursor == cursor
    assert [tape.read_word(width) for _, width in words[read:]] == [v for v, _ in words[read:]]


def test_negative_read_width_raises_and_keeps_the_cursor():
    tape = AdviceTape([1, 0, 1, 1])
    assert tape.read_word(2) == 2
    with pytest.raises(TapeError):
        tape.read_word(-2)
    assert tape.bits_read == 2
    assert tape.read_word(2) == 3


@pytest.mark.parametrize("words", [[(0, -1)], [(5, 3), (0, -1)], [(1, 1), (3, -2), (0, 2)]])
def test_negative_write_width_raises_and_writes_nothing(words):
    tape = AdviceTape([1, 0])
    with pytest.raises(TapeError):
        tape.write_words(words)
    assert tape.bits == (1, 0)
