"""Instance generators: seeded uniform inputs and the recursive hard family.

The hard family I_n (servers fixed at 1..n) starts from the geometric
sequence rho_0 with r_i = n - 2^-i and branches by replacing a suffix with a
member of a smaller family; it has exactly 2^(n-1) members, and every optimum
of a member with branch depth k sends the top server to request n-k. All
family positions are dyadic, hence exact in binary floating point.

``gen_uniform`` draws the streams of ``Random.randint`` and
``Random.uniform`` (CPython 3.11's rejection sampling on ``getrandbits``, and
``lo + (hi - lo) * random()``) a batch at a time, with no interpreted
function call per coordinate: each seed gives the coordinates those methods
give and leaves the generator in the same state.
``tests/test_instances_reference.py`` pins this against the per-draw
generator.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import repeat, starmap

from .model import Instance, integer_image, validate_instance
from .offline import monotone_cost

FAMILY_MAX_N = 20
#: the largest n the family is verified at, by ``verify_family`` (n candidates
#: priced per member) and by both halves of the family suite
VERIFY_FAMILY_MAX_N = 12


class GeneratorError(ValueError):
    pass


def _check_finite(name: str, bounds) -> None:
    """Refuse an infinite or NaN bound: no draw from it is a coordinate.
    An int of any size is finite (``isfinite`` would overflow on it)."""
    if not all(isinstance(x, int) or math.isfinite(x) for x in bounds):
        raise GeneratorError(f"{name} is not finite: {tuple(bounds)!r}")


def _as_ints(bounds) -> tuple:
    """Integer-mode bounds as ints: truncating a fractional one would draw
    from another range."""
    ints = tuple(int(x) for x in bounds)
    if ints != tuple(bounds):
        raise GeneratorError(f"integer mode needs integral bounds, got {tuple(bounds)!r}")
    return ints


def _randints(rng: random.Random, lo: int, hi: int, n: int) -> list:
    """n draws of ``rng.randint(lo, hi)``: ``_randbelow``'s rejection sampling
    on ``getrandbits``, run over the whole stream. Each round draws exactly
    as many candidates as draws are still missing, so none is drawn past the
    last accepted one."""
    width = hi - lo + 1
    bits = width.bit_length()
    draws = []
    while len(draws) < n:
        candidates = map(rng.getrandbits, repeat(bits, n - len(draws)))
        draws += [lo + r for r in candidates if r < width]
    return draws


def _uniforms(rng: random.Random, lo, hi, n: int) -> list:
    """n draws of ``rng.uniform(lo, hi)``, by its formula
    ``lo + (hi - lo) * random()``."""
    span = hi - lo
    return [lo + span * r for r in starmap(rng.random, repeat((), n))]


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
    interval, interpreted after the shift, whose low end must not exceed its
    high end; pass ``"span"`` to keep requests inside the servers' span
    ([1, s_n - 1] in integer mode, [1, 1] when s_n = 1). Every bound must be
    finite.
    """
    if n < 1:
        raise GeneratorError("n must be at least 1")
    _check_finite("position range", position_range)
    lo, hi = position_range
    if not lo < hi:
        raise GeneratorError(f"empty position range {position_range!r}")
    if integer_mode:
        lo, hi = _as_ints((lo, hi))
    if request_range is not None and request_range != "span":
        _check_finite("request range", request_range)
        rlo, rhi = _as_ints(request_range) if integer_mode else request_range
        if rlo > rhi:
            raise GeneratorError(f"empty request range {request_range!r}")
    rng = random.Random(seed)
    if integer_mode:
        servers = sorted(_randints(rng, lo, hi, n))
        shift = 1 - servers[0]
        servers = [s + shift for s in servers]
        if request_range == "span":
            rlo, rhi = 1, max(servers[-1] - 1, 1)
        elif request_range is None:
            rlo, rhi = lo + shift, hi + shift
        requests = _randints(rng, rlo, rhi, n)
    else:
        servers = sorted(_uniforms(rng, lo, hi, n))
        if request_range == "span":
            rlo, rhi = servers[0], servers[-1]
        elif request_range is None:
            rlo, rhi = lo, hi
        requests = _uniforms(rng, rlo, rhi, n)
    return validate_instance(servers, requests)


@dataclass(frozen=True)
class FamilyMember:
    requests: tuple
    branch_depth: int  # 0 for rho_0 itself

    def instance(self) -> Instance:
        n = len(self.requests)
        return validate_instance(list(range(1, n + 1)), self.requests)


def rho_zero(n: int) -> tuple:
    return tuple(n - 2.0 ** -(i + 1) for i in range(n))


def gen_family(n: int) -> list[FamilyMember]:
    """All 2^(n-1) members of I_n."""
    if n < 1:
        raise GeneratorError("n must be at least 1")
    if n > FAMILY_MAX_N:
        raise GeneratorError(f"family capped at n={FAMILY_MAX_N} (2^(n-1) members)")
    if n == 1:
        return [FamilyMember((1.0,), 0)]
    prefix = rho_zero(n)
    members = [FamilyMember(prefix, 0)]
    for k in range(1, n):
        head = prefix[: n - k]
        for tail in gen_family(k):
            members.append(FamilyMember(head + tail.requests, k))
    return members


@dataclass(frozen=True)
class FamilyCheck:
    member: FamilyMember
    expected_index: int  # 1-based request index that must take s_n
    ok: bool


def verify_family(n: int) -> list[FamilyCheck]:
    """Check that every optimum of every member sends s_n to r_{n-k}.

    Enumerates the candidate partner of the top server: for request i, the
    best cost using s_n -> r_i is |r_i - n| plus the exact offline optimum of
    the rest (servers 1..n-1). Every optimal matching realizes exactly one
    candidate, so the claim holds iff index n-k is the unique minimizer;
    the candidates are priced exactly, on the member's integer image.
    """
    if n > VERIFY_FAMILY_MAX_N:
        raise GeneratorError(f"verify_family capped at n={VERIFY_FAMILY_MAX_N}")
    checks = []
    for member in gen_family(n):
        servers, reqs = integer_image(member.instance())
        top, lower = servers[-1], servers[:-1]
        costs = [
            abs(reqs[i] - top) + monotone_cost(lower, reqs[:i] + reqs[i + 1 :])
            for i in range(n)
        ]
        opt = min(costs)
        expected = n - member.branch_depth  # 1-based
        unique_hit = all((c == opt) == (i == expected - 1) for i, c in enumerate(costs))
        checks.append(FamilyCheck(member, expected, unique_hit))
    return checks
