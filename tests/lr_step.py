"""LR one request at a time. The package's ``lr_serve`` serves a sequence
of requests; a per-request test serves it a sequence of one on the same
pool, with the bit, if LR reads one, taken off a tape through its
``bit_reader``. The differential references keep their own per-request
``lr_serve``."""

from matchline.lr import lr_serve


def lr_step(state, request, tape) -> int:
    """Serve ``request`` on the pool ``state``; returns the id it took."""
    with tape.bit_reader() as bit:
        return lr_serve(state, (request,), bit)[0][0]
