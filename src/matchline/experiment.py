"""Experiment runner and report emission (JSON / CSV)."""

from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass, field, fields

from .divide import divide_run, rescale_run
from .generators import gen_family, gen_uniform
from .lr import lr_oracle, lr_run
from .model import Instance, costs_equal, make_matching
from .offline import brute_force_optimal, monotone_optimal
from .subroutines import SUBROUTINE_NAMES, make_subroutine

ALGORITHMS = ("lr", "divide", "rescale", "greedy", "permutation")


class ExperimentError(ValueError):
    pass


@dataclass(frozen=True)
class RunReport:
    instance_id: str
    algo: str
    k: int | None
    cost: float
    opt_cost: float
    ratio: float
    oracle_bits_read: int
    aux_bits: int
    seed: int | None
    wall_time_ms: float


REPORT_COLUMNS = tuple(f.name for f in fields(RunReport))


def _ratio(cost, opt_cost) -> float:
    if opt_cost > 0:
        return cost / opt_cost
    return 1.0 if cost == 0 else float("inf")


def _check_k(algo: str, k) -> None:
    if (k is None) == (algo in ("divide", "rescale")):
        raise ExperimentError(f"{algo} needs k" if k is None else f"{algo} takes no k")


def run_algorithm(
    instance: Instance,
    algo: str,
    k: int | None = None,
    subroutine: str = "greedy",
) -> dict:
    """One run; returns cost, bit counts, and the matching."""
    _check_k(algo, k)
    if subroutine not in SUBROUTINE_NAMES:
        raise ExperimentError(f"unknown subroutine {subroutine!r}")
    if algo == "lr":
        result = lr_run(instance, lr_oracle(instance))
        return {
            "matching": result.matching,
            "cost": result.matching.cost,
            "oracle_bits_read": result.bits_read,
            "aux_bits": 0,
        }
    if algo in ("divide", "rescale"):
        run = divide_run if algo == "divide" else rescale_run
        result = run(instance, k, subroutine)
        return {
            "matching": result.matching,
            "cost": result.matching.cost,
            "oracle_bits_read": result.oracle_bits_read,
            "aux_bits": result.aux_bits_written,
            "divide": result,
        }
    if algo in ("greedy", "permutation"):
        sub = make_subroutine(algo, instance.servers)
        assignment = [sub.serve(r) for r in instance.requests]
        matching = make_matching(instance, assignment)
        return {
            "matching": matching,
            "cost": matching.cost,
            "oracle_bits_read": 0,
            "aux_bits": 0,
        }
    raise ExperimentError(f"unknown algorithm {algo!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One algorithm over a list of instances; valid once constructed."""

    algo: str
    k: int | None = None
    subroutine: str = "greedy"
    instances: list = field(kw_only=True)  # (instance_id, seed, Instance)

    def __post_init__(self):
        if self.algo not in ALGORITHMS:
            raise ExperimentError(f"unknown algorithm {self.algo!r}")
        if not self.instances:
            raise ExperimentError("no instances configured")
        _check_k(self.algo, self.k)
        if self.subroutine not in SUBROUTINE_NAMES:
            raise ExperimentError(f"unknown subroutine {self.subroutine!r}")

    @classmethod
    def uniform(
        cls,
        algo: str,
        n: int,
        seeds,
        position_range=(0, 100),
        *,
        integer_mode: bool,
        request_range=None,
        **kwargs,
    ) -> "ExperimentConfig":
        instances = [
            (
                f"uniform-n{n}-s{seed}",
                seed,
                gen_uniform(n, position_range, seed, integer_mode, request_range),
            )
            for seed in seeds
        ]
        return cls(algo=algo, instances=instances, **kwargs)

    @classmethod
    def family(cls, algo: str, n: int, **kwargs) -> "ExperimentConfig":
        instances = [
            (f"family-n{n}-m{i}", None, member.instance())
            for i, member in enumerate(gen_family(n))
        ]
        return cls(algo=algo, instances=instances, **kwargs)


def run_instance(config: ExperimentConfig, instance_id: str, seed, instance: Instance):
    """One configured run checked against the optimum: (report, outcome)."""
    start = time.perf_counter()
    outcome = run_algorithm(instance, config.algo, config.k, config.subroutine)
    elapsed_ms = (time.perf_counter() - start) * 1e3
    opt = monotone_optimal(instance).cost
    if instance.n <= 10:
        brute = brute_force_optimal(instance).cost
        if not costs_equal(brute, opt, instance.n):
            raise ExperimentError(f"{instance_id}: oracle disagreement {brute} vs {opt}")
    report = RunReport(
        instance_id=instance_id,
        algo=config.algo,
        k=config.k,
        cost=outcome["cost"],
        opt_cost=opt,
        ratio=_ratio(outcome["cost"], opt),
        oracle_bits_read=outcome["oracle_bits_read"],
        aux_bits=outcome["aux_bits"],
        seed=seed,
        wall_time_ms=elapsed_ms,
    )
    return report, outcome


def run_experiment(config: ExperimentConfig) -> list[RunReport]:
    return [run_instance(config, *entry)[0] for entry in config.instances]


def emit_report(reports, path, fmt: str = "json") -> None:
    if fmt == "json":
        with open(path, "w") as fh:
            json.dump([asdict(r) for r in reports], fh, indent=2)
            fh.write("\n")
    elif fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(REPORT_COLUMNS)
            for r in reports:
                row = asdict(r)
                writer.writerow([row[c] for c in REPORT_COLUMNS])
    else:
        raise ExperimentError(f"unknown report format {fmt!r}")


def load_report(path) -> list[RunReport]:
    with open(path) as fh:
        return [RunReport(**row) for row in json.load(fh)]
