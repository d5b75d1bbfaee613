"""Instance generators: seeded uniform inputs and the recursive hard family.

The hard family I_n (servers fixed at 1..n) starts from the geometric
sequence rho_0 with r_i = n - 2^-i and branches by replacing a suffix with a
member of a smaller family; it has exactly 2^(n-1) members, and every optimum
of a member with branch depth k sends the top server to request n-k. All
family positions are dyadic, hence exact in binary floating point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .model import Instance, costs_equal, validate_instance
from .offline import monotone_cost

FAMILY_MAX_N = 20
#: the largest n ``verify_family`` checks: it prices n candidates per member
VERIFY_FAMILY_MAX_N = 8


class GeneratorError(ValueError):
    pass


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
    candidate, so the claim holds iff index n-k is the unique minimizer
    (costs compare under ``costs_equal``).
    """
    if n > VERIFY_FAMILY_MAX_N:
        raise GeneratorError(f"verify_family capped at n={VERIFY_FAMILY_MAX_N}")
    servers = list(range(1, n + 1))
    lower = servers[:-1]
    checks = []
    for member in gen_family(n):
        reqs = member.requests
        costs = [
            abs(reqs[i] - n) + monotone_cost(lower, reqs[:i] + reqs[i + 1 :])
            for i in range(n)
        ]
        opt = min(costs)
        expected = n - member.branch_depth  # 1-based
        unique_hit = all(
            costs_equal(c, opt, n) == (i == expected - 1) for i, c in enumerate(costs)
        )
        checks.append(FamilyCheck(member, expected, unique_hit))
    return checks
