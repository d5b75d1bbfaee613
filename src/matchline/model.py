"""Instances, matchings and cost on the real line.

Positions are plain Python numbers. Integral floats are normalized to int so
that integer instances compute with exact integer arithmetic end to end; this
keeps advice words and cost comparisons exact in integer mode.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

#: absolute tolerance for cost comparisons on float-valued instances
FLOAT_TOL = 1e-9


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
    """Sorted servers plus an ordered request sequence (the online input)."""

    servers: tuple
    requests: tuple

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

    @property
    def span_bound(self) -> int:
        """N = s_n + 1 for integer-mode instances."""
        if not self.integer_mode:
            raise InstanceError("N is only defined in integer mode")
        return self.servers[-1] + 1


def validate_instance(servers: Sequence, requests: Sequence) -> Instance:
    """Build a validated instance; servers are sorted if they arrive unsorted."""
    srv = sorted(_normalize(s) for s in servers)
    req = [_normalize(r) for r in requests]
    if len(srv) != len(req):
        raise InstanceError(
            f"size mismatch: {len(srv)} servers vs {len(req)} requests"
        )
    if not srv:
        raise InstanceError("instance must contain at least one server")
    return Instance(tuple(srv), tuple(req))


@dataclass(frozen=True)
class Matching:
    """A permutation assigning request i to server assignment[i] (0-based)."""

    assignment: tuple
    cost: int | float

    def __post_init__(self):
        if sorted(self.assignment) != list(range(len(self.assignment))):
            raise InstanceError("assignment is not a permutation")


def total_cost(instance: Instance, assignment: Sequence[int]) -> int | float:
    """Sum of |r_i - s_{pi(i)}| over all requests."""
    if sorted(assignment) != list(range(instance.n)):
        raise InstanceError("assignment is not a bijection on the servers")
    return sum(
        abs(r - instance.servers[j]) for r, j in zip(instance.requests, assignment)
    )


def make_matching(instance: Instance, assignment: Sequence[int]) -> Matching:
    return Matching(tuple(assignment), total_cost(instance, assignment))


def costs_equal(a, b, *, exact: bool) -> bool:
    if exact:
        return a == b
    return abs(a - b) <= FLOAT_TOL


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
    return validate_instance(raw["servers"], raw["requests"])
