"""Servers in any order, put in the (position, id) order that
``matchline.lr.LRState`` and the subroutines take. A test helper: the
package sorts no pool, as its callers hold their servers in that order."""


def in_order(servers, ids=None) -> tuple[list, list]:
    """The positions and ids (default: the places in ``servers``) of
    ``servers``, sorted by (position, id)."""
    pool = sorted(zip(servers, range(len(servers)) if ids is None else ids))
    return [p for p, _ in pool], [i for _, i in pool]
