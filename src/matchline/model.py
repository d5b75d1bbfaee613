"""Instances, matchings and cost on the real line.

Positions are plain Python numbers. Integral floats are normalized to int so
that integer instances compute with exact integer arithmetic end to end; this
keeps advice words and cost comparisons exact in integer mode.
``validate_instance`` checks each coordinate list in a few builtin passes
and applies ``_normalize``, the one rule, per coordinate only to a list that
holds something to convert or to refuse.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence


class InstanceError(ValueError):
    """Raised for malformed instances or instance files."""


def _normalize(x) -> int | float:
    """Coerce a coordinate to int when it is integral, reject non-finite."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise InstanceError(f"coordinate is not a number: {x!r}")
    if isinstance(x, float):
        if not math.isfinite(x):
            raise InstanceError(f"coordinate is not finite: {x!r}")
        if x.is_integer():
            return int(x)
    return x


@dataclass(frozen=True)
class Instance:
    """Sorted servers plus an ordered request sequence (the online input),
    as many as servers and at least one; checked when built."""

    servers: tuple
    requests: tuple

    def __post_init__(self):
        if len(self.servers) != len(self.requests):
            raise InstanceError(
                f"size mismatch: {len(self.servers)} servers vs {len(self.requests)} requests"
            )
        if not self.servers:
            raise InstanceError("instance must contain at least one server")
        if any(map(operator.gt, self.servers, self.servers[1:])):
            raise InstanceError("servers must be sorted")

    @property
    def n(self) -> int:
        return len(self.servers)

    @cached_property
    def integer_mode(self) -> bool:
        """True when every position is an integer and the servers start at 1.

        Computed once per instance; the cache lives outside the dataclass
        fields, so equality and hashing ignore it.
        """
        return (
            all(isinstance(p, int) for p in self.servers)
            and all(isinstance(p, int) for p in self.requests)
            and self.servers[0] == 1
        )


def _normalized(coords: Sequence) -> tuple:
    """The coordinates under ``_normalize``. A list of plain ints and of
    finite, non-integral plain floats is its own normalization; any other
    list goes through the rule one coordinate at a time, which raises on the
    first it refuses."""
    coords = tuple(coords)
    kinds = set(map(type, coords))
    if kinds <= {int}:
        return coords
    if kinds <= {int, float}:  # isfinite would overflow on a large int
        floats = coords if kinds == {float} else [x for x in coords if type(x) is float]
        if all(map(math.isfinite, floats)) and not any(map(float.is_integer, floats)):
            return coords
    return tuple(map(_normalize, coords))


def validate_instance(servers: Sequence, requests: Sequence) -> Instance:
    """Build a validated instance; servers are sorted if they arrive unsorted."""
    return Instance(tuple(sorted(_normalized(servers))), _normalized(requests))


def _is_permutation(assignment: Sequence, n: int) -> bool:
    """Whether ``assignment`` lists each of 0..n-1 exactly once."""
    return len(assignment) == n and set(assignment) == set(range(n))


@dataclass(frozen=True)
class Matching:
    """A permutation assigning request i to server assignment[i] (0-based)."""

    assignment: tuple
    cost: int | float

    def __post_init__(self):
        if not _is_permutation(self.assignment, len(self.assignment)):
            raise InstanceError("assignment is not a permutation")


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


def save_instance(instance: Instance, path) -> None:
    with open(path, "w") as fh:
        json.dump(
            {"servers": list(instance.servers), "requests": list(instance.requests)},
            fh,
        )
        fh.write("\n")


def load_instance(path) -> Instance:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"malformed instance file {path}: {exc}") from exc
    if not isinstance(raw, dict) or "servers" not in raw or "requests" not in raw:
        raise InstanceError(f"{path}: expected an object with servers and requests")
    if not (isinstance(raw["servers"], list) and isinstance(raw["requests"], list)):
        raise InstanceError(f"{path}: servers and requests must be lists")
    return validate_instance(raw["servers"], raw["requests"])
