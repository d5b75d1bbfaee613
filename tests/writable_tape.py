"""The advice tape with the members only the tests and the differential
references use: ``write_bit``, one checked bit at a time, ``read_bit``, one
bit at a time, and ``unread``, the number of bits not read yet. The package
writes whole words (``write_words``), LR reads its bits through
``bit_reader`` and the package counts reads with ``bits_read``."""

from matchline import tape


class AdviceTape(tape.AdviceTape):
    @property
    def unread(self) -> int:
        return len(self._bits) - self.cursor

    def write_bit(self, bit) -> None:
        if bit not in (0, 1):
            raise tape.TapeError(f"not a bit: {bit!r}")
        try:
            self._bits.append(bit)
        except TypeError as exc:  # 1.0 equals 1 but is no int
            raise tape.TapeError(f"not a bit: {bit!r}") from exc

    def read_bit(self) -> int:
        try:
            b = self._bits[self.cursor]
        except IndexError:
            raise tape.TapeUnderflow("tape underflow: no unread bits left") from None
        self.cursor += 1
        return b
