"""Bit tapes for the advice model.

An :class:`AdviceTape` is written once by the oracle and read sequentially by
the algorithm; ``bits_read`` is the advice complexity. Only advice goes on a
tape: DIVIDE_k fixes its internal LR's direction bits itself, hands each
to LR when LR asks for it and counts the ones LR reads.

A tape keeps its bits as the bytes 0 and 1 of one ``bytearray``, so writing
and reading a word, checking a written sequence and dumping the tape each
cost a few C-level calls, whatever the word's width. LR reads its bits one
at a time through ``bit_reader``, whose ``bit(t)`` is a C-level ``next`` on
the unread bytes: no Python frame runs per bit.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial
from itertools import chain
from operator import length_hint


class TapeUnderflow(RuntimeError):
    """Reading past the written end: oracle and algorithm desynchronized."""


class TapeError(ValueError):
    pass


# bit values 0/1 to the ASCII digits "0"/"1" and back
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _underflow():
    raise TapeUnderflow("tape underflow: no unread bits left")


def word_width(max_value: int) -> int:
    """Minimal fixed width encoding every value in 0..max_value."""
    if max_value < 0:
        raise TapeError("max_value must be nonnegative")
    return max_value.bit_length()


class AdviceTape:
    def __init__(self, bits=()):
        """A tape holding ``bits``, each the int 0 or 1 (or a bool)."""
        try:  # iter() keeps an int n from standing for n zero bytes
            self._bits = bytearray(iter(bits))
        except (TypeError, ValueError) as exc:  # not an int in 0..255
            raise TapeError("tape bits must be the ints 0 and 1") from exc
        if self._bits.translate(None, b"\x00\x01"):
            raise TapeError("tape bits must be the ints 0 and 1")
        self.cursor = 0

    def __len__(self) -> int:
        return len(self._bits)

    @property
    def bits(self) -> tuple:
        return tuple(self._bits)

    @property
    def bits_read(self) -> int:
        return self.cursor

    def write_words(self, words) -> None:
        """Append each (value, width) word, most significant bit first.

        Every word is checked before any bit is written.
        """
        digits = []
        for value, width in words:
            if width < 0:
                raise TapeError(f"negative word width {width}")
            if value < 0 or value >> width:
                raise TapeError(f"value {value} does not fit in {width} bits")
            # the leading 1 zero-pads the word, and a width-0 word to ""
            digits.append(bin(value | 1 << width)[3:])
        self._bits += "".join(digits).encode().translate(_BITS)

    @contextmanager
    def bit_reader(self):
        """``bit(t)``, the next unread bit whatever ``t`` is; past the
        written end it raises ``TapeUnderflow``. When the block ends, on an
        underflow too, the cursor stands after the last bit read.

        ``bit`` is ``next`` on a chain of the unread bits and an iterator
        whose first step raises, so ``bit(t)`` is ``next(chain, t)``, all
        in C. ``t`` is ``next``'s default, returned only once the chain
        stops, and the raise comes first: no bit is ever ``t``."""
        end = len(self._bits)
        unread = iter(self._bits[self.cursor : end])
        try:
            yield partial(next, chain(unread, iter(_underflow, None)))
        finally:
            self.cursor = end - length_hint(unread)

    def read_word(self, width: int) -> int:
        """The next ``width`` bits as an unsigned integer, most significant
        first; a short tape or a negative width raises and consumes nothing."""
        if width < 0:
            raise TapeError(f"negative word width {width}")
        end = self.cursor + width
        if end > len(self._bits):
            raise TapeUnderflow("tape underflow: no unread bits left")
        value = int(self._bits[self.cursor : end].translate(_DIGITS) or b"0", 2)
        self.cursor = end
        return value

    def dump(self) -> dict:
        """Hex form plus bit length, for debug reports."""
        n = len(self._bits)
        value = int(self._bits.translate(_DIGITS) or b"0", 2)
        nibbles = max(1, (n + 3) // 4)
        return {"hex": format(value << (nibbles * 4 - n), f"0{nibbles}x"), "bit_length": n}
