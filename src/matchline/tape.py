"""Bit tapes for the advice model.

An :class:`AdviceTape` is written once by the oracle and read sequentially by
the algorithm; ``bits_read`` is the advice complexity. The :class:`AuxTape`
additionally supports removing the last written bit while it is still unread,
which DIVIDE_k uses when its internal LR move turned out to be forced.
"""

from __future__ import annotations


class TapeUnderflow(RuntimeError):
    """Reading past the written end: oracle and algorithm desynchronized."""


class TapeError(ValueError):
    pass


# bit values 0/1 to the ASCII digits "0"/"1"
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def word_width(max_value: int) -> int:
    """Minimal fixed width encoding every value in 0..max_value."""
    if max_value < 0:
        raise TapeError("max_value must be nonnegative")
    return max_value.bit_length()


class AdviceTape:
    def __init__(self, bits=()):
        self._bits: list[int] = [self._check_bit(b) for b in bits]
        self.cursor = 0

    @staticmethod
    def _check_bit(b) -> int:
        if b not in (0, 1):
            raise TapeError(f"not a bit: {b!r}")
        return int(b)

    def __len__(self) -> int:
        return len(self._bits)

    @property
    def bits(self) -> tuple:
        return tuple(self._bits)

    @property
    def bits_read(self) -> int:
        return self.cursor

    @property
    def unread(self) -> int:
        return len(self._bits) - self.cursor

    def write_bit(self, bit) -> None:
        self._bits.append(self._check_bit(bit))

    def write_word(self, value: int, width: int) -> None:
        if value < 0 or value >= 1 << width:
            raise TapeError(f"value {value} does not fit in {width} bits")
        for shift in range(width - 1, -1, -1):
            self._bits.append(value >> shift & 1)

    def read_bit(self) -> int:
        if self.cursor >= len(self._bits):
            raise TapeUnderflow("tape underflow: no unread bits left")
        b = self._bits[self.cursor]
        self.cursor += 1
        return b

    def read_word(self, width: int) -> int:
        end = self.cursor + width
        if end > len(self._bits):
            raise TapeUnderflow("tape underflow: no unread bits left")
        value = 0
        for b in self._bits[self.cursor : end]:
            value = value << 1 | b
        self.cursor = end
        return value

    def dump(self) -> dict:
        """Hex form plus bit length, for debug reports."""
        n = len(self._bits)
        value = int(bytes(self._bits).translate(_DIGITS) or b"0", 2)
        nibbles = max(1, (n + 3) // 4)
        return {"hex": format(value << (nibbles * 4 - n), f"0{nibbles}x"), "bit_length": n}


class AuxTape(AdviceTape):
    """Self-written tape; the bits here do not count as advice."""

    def remove_last(self) -> None:
        if self.cursor >= len(self._bits):
            raise TapeError("cannot remove: last bit was already read")
        self._bits.pop()
