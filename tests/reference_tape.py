"""DIVIDE_k's advice tape reader as it was when one generator, ``_tape_slots``,
handed out the whole layout, q slots and count slots alike: kept verbatim as
the differential reference for ``matchline.divide.decode_divide_advice``,
which reads the same layout in two flat passes. Nothing in the package uses
it. It takes no code from the package: ``_crossings`` and ``DivideError``
are its own copies, it is handed the tape and the package's ``BlockPlan``,
and it returns the advice as the tuple (k, q, d, m) of ``DivideAdvice``'s
fields rather than build one.
"""

from __future__ import annotations


class DivideError(RuntimeError):
    pass


def _crossings(plan: BlockPlan, q) -> tuple:
    """Boundaries crossed right, ascending, and crossed left, descending."""
    right, left = [], []
    for b, (word, p) in enumerate(zip(q, plan.boundaries)):
        if word is not None:
            (right if word <= p else left).append(b)
    left.reverse()
    return right, left


def _tape_slots(plan: BlockPlan, q):
    """The advice tape layout: (field, boundary, bound) per word, the word
    w(bound) bits wide.

    First one q word per boundary, then a d/m pair for each crossed
    boundary: right crossings by ascending boundary, left crossings by
    descending boundary, the two marking orders. The bounds are those of the
    module docstring, each with its reason there:

        q of boundary b     p_{b+1} - p_{b-1}
        right crossing      d <= |group b|,    m <= n - stop_b
        left crossing       d <= |group b+1|,  m <= start_{b+1}
        left, q collision   d <= start_{b+1}

    They read only the plan and the q words, and the q list is first looked
    at after the last q slot is handed out, so a reader can pass the list it
    is filling.
    """
    for b, (low, _mid, high) in enumerate(plan.frames):
        yield "q", b, high - low
    groups, n = plan.groups, plan.n
    right, left = _crossings(plan, q)
    for b in right:
        start, stop = groups[b]
        yield "d", b, stop - start
        yield "m", b, n - stop
    last = len(q) - 1
    for b in left:
        start, stop = groups[b + 1]
        yield "d", b, start if b < last and q[b + 1] == q[b] else stop - start
        yield "m", b, start


def decode_divide_advice(tape: AdviceTape, plan: BlockPlan) -> tuple:
    """Sequential reader of the layout in ``_tape_slots``; a word that fits
    its width but exceeds its bound is corrupt advice."""
    k = plan.k
    fields = {"q": [None] * (k - 1), "d": [0] * (k - 1), "m": [0] * (k - 1)}
    q, frames = fields["q"], plan.frames
    for f, b, bound in _tape_slots(plan, q):
        value = tape.read_word(bound.bit_length())  # w(bound)
        if value > bound:
            raise DivideError(
                f"corrupt advice: {f} word of boundary {b}: {value} above its bound {bound}"
            )
        if f != "q":
            fields[f][b] = value
        elif value:
            q[b] = frames[b][0] + value
    return (k, *map(tuple, fields.values()))
