"""Instances, matchings and cost on the real line.

Positions are plain Python numbers; integral floats are normalized to int.
Every instance computes exactly, on its integer image: each finite float is
p / 2^e, so times D, the largest denominator of a coordinate, every
coordinate is an int, with every order, tie and distance kept. A run decides
on the image and prices its int total there, divided by D once (int / int
true division rounds correctly); an instance of ints is its own image.
``integer_image`` keeps at most one float instance and its image, alive
until the next float image replaces them: one slot, not a cache per
instance, so a caller that holds many instances holds one image.
``validate_instance`` checks each coordinate list in a few builtin passes
and applies ``_normalize``, the one rule, per coordinate only to a list that
holds something to convert or to refuse.
"""

from __future__ import annotations

import json
import math
import operator
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

    @cached_property
    def _float_scale(self) -> int | None:
        """D when a coordinate is a float, None on an instance of ints,
        which is its own image. Cached as ``integer_mode`` is."""
        floats = [x for x in (*self.servers, *self.requests) if type(x) is float]
        return max((x.as_integer_ratio()[1] for x in floats), default=None)

    @property
    def scale(self) -> int:
        """D, the largest denominator of a coordinate: 1 when every
        coordinate is integral, else a power of two."""
        return self._float_scale or 1

    def unscaled(self, total: int) -> int | float:
        """The cost of a distance ``total`` on the integer image: total / D."""
        return total if self.scale == 1 else total / self.scale


def _times(coords: Sequence, d: int) -> list:
    """Each coordinate times ``d``, a power of two, as an exact int. A float
    product is exact unless it overflows (or ``d`` is past the float range);
    then every product is taken on ``as_integer_ratio``."""
    try:
        f = float(d)
        return [x * d if type(x) is int else int(x * f) for x in coords]
    except OverflowError:
        return [p * (d // q) for p, q in (x.as_integer_ratio() for x in coords)]


_last_image: tuple = (None, None)  # the last float instance and its image


def integer_image(instance: Instance) -> tuple:
    """The servers and the requests times D, as ints (see the module
    docstring), shared, so callers never write it. An instance of ints is
    its own image, and one built directly with integral floats gets them as
    ints, with D = 1. A float instance's image, 2n ints of up to about
    2 100 bits, is built on a miss of the memo, the last float instance,
    matched by identity, and its image; the memo is read once and replaced
    as one tuple, so no caller gets another instance's image."""
    global _last_image
    d = instance._float_scale
    if d is None:
        return instance.servers, instance.requests
    last, image = _last_image
    if last is not instance:
        image = _times(instance.servers, d), _times(instance.requests, d)
        _last_image = instance, image
    return image


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


def make_matching(instance: Instance, assignment: Sequence[int]) -> Matching:
    """The matching and its cost, priced on the integer image. The
    permutation is checked once, by ``Matching``; with the length checked
    here it is a bijection."""
    assignment = tuple(assignment)
    if len(assignment) != instance.n:
        raise InstanceError("assignment is not a bijection on the servers")
    servers, requests = integer_image(instance)
    try:
        paired = map(servers.__getitem__, assignment)
        total = sum(map(abs, map(operator.sub, requests, paired)))
    except (IndexError, TypeError) as exc:  # an index no server has
        raise InstanceError("assignment is not a bijection on the servers") from exc
    return Matching(assignment, instance.unscaled(total))


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
