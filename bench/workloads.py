"""The benchmark's workloads: the jobs each one runs, made from a seed, and
the check of every run.

A job is one unit of the closed loop: either one ``run_algorithm`` call on
one instance (a :class:`RunJob`) or one call of a ``matchline verify`` suite
(a :class:`SuiteJob`). The library receives only the generated instances.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, replace

WORKLOADS = ("lr-uniform", "divide-greedy", "rescale-manyblocks", "small-exhaustive")

SUBROUTINES = ("greedy", "permutation", "clairvoyant")

#: the offline optimum is also taken by exhaustive search up to this size
BRUTE_FORCE_N = 10

EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class RunJob:
    instance: object
    algo: str
    k: int | None = None
    sub: str = "greedy"
    shape: str = "uniform"

    @property
    def label(self) -> str:
        if self.algo in ("divide", "rescale"):
            return f"{self.algo}(k={self.k},{self.sub})"
        return self.algo

    @property
    def exact(self) -> bool:
        """Runs whose cost must equal the optimum (RESCALE: within its bound)."""
        return self.algo == "lr" or (
            self.algo in ("divide", "rescale") and self.sub == "clairvoyant"
        )


@dataclass(frozen=True)
class SuiteJob:
    name: str  # function in matchline.verification
    kwargs: dict
    instances: int  # instances the suite generates and checks at these sizes


def _seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2**32) for _ in range(count)]


def build_jobs(lib, workload: str, seed: int, tiny: bool = False) -> list:
    """Generate (and, through gen_uniform, validate) the workload's jobs."""
    gen = lib.generators.gen_uniform
    if workload == "lr-uniform":
        n, count = (30, 3) if tiny else (1000, 24)
        return [
            RunJob(gen(n, (0, 10 * n), s, integer_mode=True), "lr")
            for s in _seeds(seed, count)
        ]
    if workload == "divide-greedy":
        n, count = (40, 3) if tiny else (3000, 24)
        return [
            RunJob(gen(n, (0, 10 * n), s, integer_mode=True), "divide", 4, "greedy")
            for s in _seeds(seed, count)
        ]
    if workload == "rescale-manyblocks":
        n, count = (40, 3) if tiny else (3000, 24)
        return [
            RunJob(gen(n, (0, 1000.0), s), "rescale", n // 10, "clairvoyant")
            for s in _seeds(seed, count)
        ]
    if workload == "small-exhaustive":
        return _suite_jobs(tiny) + _adversarial_jobs(gen, seed, tiny)
    raise ValueError(f"unknown workload {workload!r}")


def _suite_jobs(tiny: bool) -> list:
    """The four ``matchline verify`` suites, with the instances each checks.

    The counts follow the suites' loops at these sizes: lr-optimal checks
    (n_max - 1) * seeds instances, divide-exact seeds * (2 + ... + n_max),
    family the 2^(n-1) members for n = 2..n_max, props (n_max - 1) * seeds.
    """
    n_max, seeds, props_n = (4, 2, 4) if tiny else (8, 40, 6)
    return [
        SuiteJob("verify_lr_optimal", {"n_max": n_max, "seeds": seeds}, (n_max - 1) * seeds),
        SuiteJob(
            "verify_divide_exact",
            {"n_max": n_max, "seeds": seeds},
            seeds * sum(range(2, n_max + 1)),
        ),
        SuiteJob(
            "verify_family_suite",
            {"n_max": n_max},
            sum(2 ** (n - 1) for n in range(2, n_max + 1)),
        ),
        SuiteJob(
            "verify_order_properties",
            {"n_max": props_n, "seeds": seeds},
            (props_n - 1) * seeds,
        ),
    ]


#: adversarial shapes at n <= 8 (ROADMAP aim 3); n = 1 and k = n come from
#: the size and k ranges below
SHAPES = {
    "uniform": lambda gen, n, s: gen(n, (0, 4 * n), s, integer_mode=True),
    "duplicates": lambda gen, n, s: gen(n, (0, max(1, n // 3)), s, integer_mode=True),
    "out-of-span": lambda gen, n, s: gen(
        n, (0, 4 * n), s, integer_mode=True, request_range=(-6 * n, 10 * n)
    ),
    "big-int": lambda gen, n, s: gen(n, (0, 10**15), s, integer_mode=True),
    "big-float": lambda gen, n, s: gen(n, (0.0, 1e15), s),
    "float": lambda gen, n, s: gen(n, (0.0, 10.0), s),
}


def _adversarial_jobs(gen, seed: int, tiny: bool) -> list:
    sizes, per_size = (range(1, 4), 1) if tiny else (range(1, 9), 2)
    seeds = iter(_seeds(seed, len(SHAPES) * len(sizes) * per_size))
    jobs = []
    for shape, make in SHAPES.items():
        for n in sizes:
            for _ in range(per_size):
                instance = make(gen, n, next(seeds))
                configs = [("lr", None, "greedy"), ("greedy", None, "greedy"),
                           ("permutation", None, "greedy")]
                algos = ("divide", "rescale") if instance.integer_mode else ("rescale",)
                for algo in algos:
                    for k in sorted({1, min(2, n), n}):
                        configs += [(algo, k, sub) for sub in SUBROUTINES]
                jobs += [RunJob(instance, algo, k, sub, shape) for algo, k, sub in configs]
    return jobs


def reason_kind(reason: str) -> str:
    """The part of a failure reason that names how the run failed, without
    the values: ``raised ValueError``, ``missed the optimum`` ..."""
    return reason.partition(":")[0]


def fails_in_frozen(job: RunJob, reason: str) -> bool:
    """Whether ``frozen``, a copy of the library as the benchmark was written
    against it (see README.md), fails this job in the same way.

    Such a failure is a known defect of that library; any other failure is
    new. The copy receives the instance as plain coordinates, and its run is
    judged by the same check against the copy's own optima, so nothing of
    ``lib`` enters the verdict.
    """
    import frozen  # imported on the first failure only: set-up never pays it

    inst = frozen.Instance(tuple(job.instance.servers), tuple(job.instance.requests))
    try:
        outcome = frozen.run_algorithm(inst, job.algo, job.k, job.sub)
    except Exception as exc:
        frozen_reason = f"raised {type(exc).__name__}"
    else:
        frozen_reason = check(frozen, replace(job, instance=inst), outcome)[0]
    return frozen_reason is not None and reason_kind(frozen_reason) == reason_kind(reason)


def check(lib, job: RunJob, outcome: dict):
    """Why this run failed, or None; also returns the optimum it was held to.

    A run fails when it returns a non-permutation or a cost that is not its
    matching's cost or lies below the optimum, when an exact algorithm misses
    the optimum (RESCALE: by more than n * n^-3), or when LR reads more than
    n - 1 bits. Costs on float instances compare within the rounding of a
    sum of n terms, relative to the cost.
    """
    inst = job.instance
    n = inst.n
    assignment = list(outcome["matching"].assignment)
    opt = lib.offline.monotone_optimal(inst).cost
    if sorted(assignment) != list(range(n)):
        return "returned a non-permutation", opt
    cost = outcome["cost"]
    own = sum(abs(r - inst.servers[j]) for r, j in zip(inst.requests, assignment))

    def tol(*values):
        if all(isinstance(v, int) for v in values):
            return 0
        return 2 * n * EPS * max(abs(v) for v in values)

    if abs(cost - own) > tol(cost, own):
        return f"cost differs from its matching's: {cost!r} vs {own!r}", opt
    if n <= BRUTE_FORCE_N:
        brute = lib.offline.brute_force_optimal(inst).cost
        if abs(brute - opt) > tol(brute, opt):
            return f"offline optima disagree: {brute!r} vs {opt!r}", opt
    if cost < opt - tol(cost, opt):
        return f"below the optimum: cost {cost!r} vs {opt!r}", opt
    slack = n * n**-3 if job.algo == "rescale" else 0
    if job.exact and cost > opt + slack + tol(cost, opt):
        return f"missed the optimum: cost {cost!r} vs {opt!r}", opt
    if job.algo == "lr" and outcome["oracle_bits_read"] > n - 1:
        return f"LR read more than n - 1 bits: {outcome['oracle_bits_read']} at n={n}", opt
    return None, opt
