"""Instance building as it was before the batched draws and whole-list
checks: ``gen_uniform`` calls ``Random.randint`` or ``Random.uniform`` once
per coordinate, and ``validate_instance`` applies ``_normalize`` to every
coordinate. Kept verbatim as the differential reference for
``matchline.generators.gen_uniform`` and ``matchline.model.validate_instance``;
nothing in the package uses it.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

from matchline.generators import GeneratorError
from matchline.model import Instance, InstanceError


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


def validate_instance(servers: Sequence, requests: Sequence) -> Instance:
    """Build a validated instance; servers are sorted if they arrive unsorted."""
    srv = sorted(_normalize(s) for s in servers)
    req = [_normalize(r) for r in requests]
    return Instance(tuple(srv), tuple(req))


def _as_ints(bounds) -> tuple:
    """Integer-mode bounds as ints: truncating a fractional one would draw
    from another range."""
    ints = tuple(int(x) for x in bounds)
    if ints != tuple(bounds):
        raise GeneratorError(f"integer mode needs integral bounds, got {tuple(bounds)!r}")
    return ints


def gen_uniform(
    n: int,
    position_range: tuple,
    seed: int,
    integer_mode: bool = False,
    request_range: tuple | None = None,
) -> Instance:
    """n servers and n requests drawn uniformly and independently.

    In integer mode positions are integers, drawn between integral bounds,
    and servers are shifted so that s_1 = 1 (requests shift with them).
    ``request_range`` optionally draws the requests from a different
    interval, interpreted after the shift; pass ``"span"`` to keep requests
    inside the servers' span ([1, s_n - 1] in integer mode, [1, 1] when
    s_n = 1).
    """
    if n < 1:
        raise GeneratorError("n must be at least 1")
    lo, hi = position_range
    if not lo < hi:
        raise GeneratorError(f"empty position range {position_range!r}")
    rng = random.Random(seed)
    if integer_mode:
        lo, hi = _as_ints((lo, hi))
        servers = sorted(rng.randint(lo, hi) for _ in range(n))
        shift = 1 - servers[0]
        servers = [s + shift for s in servers]
        if request_range == "span":
            top = max(servers[-1] - 1, 1)
            requests = [rng.randint(1, top) for _ in range(n)]
        elif request_range is not None:
            rlo, rhi = _as_ints(request_range)
            requests = [rng.randint(rlo, rhi) for _ in range(n)]
        else:
            requests = [rng.randint(lo, hi) + shift for _ in range(n)]
    else:
        servers = sorted(rng.uniform(lo, hi) for _ in range(n))
        if request_range == "span":
            rlo, rhi = servers[0], servers[-1]
        elif request_range is not None:
            rlo, rhi = request_range
        else:
            rlo, rhi = lo, hi
        requests = [rng.uniform(rlo, rhi) for _ in range(n)]
    return validate_instance(servers, requests)
