"""The package's float-path cost code as it was before costs became exact,
kept verbatim for the differential references that compare against it:
``costs_equal`` with its 2 * terms * eps float tolerance, ``monotone_cost``,
``make_matching`` (with ``_cost``, a plain sum of float distances) and
``monotone_optimal`` (with ``monotone_assignment``). Every ``reference_*``
module takes these names from here, never from the package, so a change to
the package's pricing cannot reach both sides of a differential test.
"""

from __future__ import annotations

import sys
from typing import Sequence

from matchline.model import Instance, InstanceError, Matching
from matchline.offline import OracleError


def _cost(instance: Instance, assignment: Sequence[int]) -> int | float:
    return sum(
        abs(r - instance.servers[j]) for r, j in zip(instance.requests, assignment)
    )


def make_matching(instance: Instance, assignment: Sequence[int]) -> Matching:
    """The matching and its cost. The permutation is checked once, by
    ``Matching``; with the length checked here it is a bijection on the
    servers."""
    assignment = tuple(assignment)
    if len(assignment) != instance.n:
        raise InstanceError("assignment is not a bijection on the servers")
    try:
        cost = _cost(instance, assignment)
    except (IndexError, TypeError) as exc:  # an index no server has
        raise InstanceError("assignment is not a bijection on the servers") from exc
    return Matching(assignment, cost)


def costs_equal(a, b, terms: int) -> bool:
    """Whether two costs, each a sum of up to ``terms`` distances, are equal:
    exactly on ints; on floats within 2 * terms * eps of the larger, the
    rounding of two such sums taken in different orders, at every scale."""
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    return abs(a - b) <= 2 * terms * sys.float_info.epsilon * max(abs(a), abs(b))


def monotone_assignment(requests: Sequence) -> list[int]:
    """Order-preserving optimal assignment: i-th smallest request -> s_i.

    Equal request positions keep arrival order, so among ties the earlier
    arrival receives the smaller server index. Servers are the sorted server
    list of the instance, addressed by rank.
    """
    order = sorted(range(len(requests)), key=requests.__getitem__)  # stable
    assignment = [0] * len(requests)
    for rank, i in enumerate(order):
        assignment[i] = rank
    return assignment


def monotone_cost(servers: Sequence, requests: Sequence) -> int | float:
    """Optimal offline cost for equal-size pools on the line."""
    if len(servers) != len(requests):
        raise OracleError(
            f"pools of unequal size: {len(servers)} servers vs {len(requests)} requests"
        )
    return sum(
        abs(r - s) for r, s in zip(sorted(requests), sorted(servers))
    )


def monotone_optimal(instance: Instance) -> Matching:
    return make_matching(instance, monotone_assignment(instance.requests))
