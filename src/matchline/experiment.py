"""One run of an algorithm on one instance, and its report (JSON / CSV).

``run_algorithm`` is the one place that checks a run's algorithm, k and
subroutine; ``run_instance`` times it and checks it against the optimum.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import asdict, dataclass, fields

from .divide import divide_run, rescale_run
from .lr import lr_oracle, lr_run
from .model import Instance, integer_image, make_matching
from .offline import BRUTE_FORCE_MAX_N, brute_force_optimal, monotone_optimal
from .subroutines import SUBROUTINE_NAMES, make_subroutine

ALGORITHMS = ("lr", "divide", "rescale", "greedy", "permutation")
#: the algorithms that take k and read block advice
K_ALGORITHMS = ("divide", "rescale")


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


def run_algorithm(
    instance: Instance,
    algo: str,
    k: int | None = None,
    subroutine: str = "greedy",
) -> dict:
    """One run, once its algorithm, k and subroutine are checked; returns
    cost, bit counts, and the matching."""
    if algo not in ALGORITHMS:
        raise ExperimentError(f"unknown algorithm {algo!r}")
    if (k is None) == (algo in K_ALGORITHMS):
        raise ExperimentError(f"{algo} needs k" if k is None else f"{algo} takes no k")
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
    if algo in K_ALGORITHMS:
        run = divide_run if algo == "divide" else rescale_run
        result = run(instance, k, subroutine)
        return {
            "matching": result.matching,
            "cost": result.matching.cost,
            "oracle_bits_read": result.oracle_bits_read,
            "aux_bits": result.aux_bits_written,
            "divide": result,
        }
    # greedy or permutation, served and priced on the integer image
    servers, requests = integer_image(instance)
    assignment = make_subroutine(algo, servers).serve(requests)
    matching = make_matching(instance, assignment)
    return {
        "matching": matching,
        "cost": matching.cost,
        "oracle_bits_read": 0,
        "aux_bits": 0,
    }


def run_instance(
    instance: Instance,
    algo: str,
    k: int | None = None,
    subroutine: str = "greedy",
    *,
    instance_id: str,
    seed: int | None = None,
):
    """One run checked against the optimum: (report, outcome)."""
    start = time.perf_counter()
    outcome = run_algorithm(instance, algo, k, subroutine)
    elapsed_ms = (time.perf_counter() - start) * 1e3
    opt = monotone_optimal(instance).cost
    if instance.n <= BRUTE_FORCE_MAX_N:
        brute = brute_force_optimal(instance).cost
        if brute != opt:
            raise ExperimentError(f"{instance_id}: oracle disagreement {brute} vs {opt}")
    report = RunReport(
        instance_id=instance_id,
        algo=algo,
        k=k,
        cost=outcome["cost"],
        opt_cost=opt,
        ratio=_ratio(outcome["cost"], opt),
        oracle_bits_read=outcome["oracle_bits_read"],
        aux_bits=outcome["aux_bits"],
        seed=seed,
        wall_time_ms=elapsed_ms,
    )
    return report, outcome


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


def _finite(x) -> bool:
    """A finite number; JSON numbers are plain ints and floats, never bools."""
    return type(x) is int or (type(x) is float and math.isfinite(x))


def _count(x) -> bool:
    return type(x) is int and x >= 0


#: what each report column holds; a loaded row must fit every one
_COLUMN_FITS = {
    "instance_id": lambda x: type(x) is str,
    "algo": lambda x: x in ALGORITHMS,
    "k": lambda x: x is None or (type(x) is int and x > 0),
    "cost": _finite,
    "opt_cost": _finite,
    "ratio": lambda x: _finite(x) or x == math.inf,
    "oracle_bits_read": _count,
    "aux_bits": _count,
    "seed": lambda x: x is None or type(x) is int,
    "wall_time_ms": lambda x: _finite(x) and x >= 0,
}


def load_report(path) -> list[RunReport]:
    """The reports of a JSON report file: a list of objects, each with
    exactly the report's columns as keys and values that fit them."""
    try:
        with open(path) as fh:
            rows = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ExperimentError(f"malformed report file {path}: {exc}") from exc
    if not isinstance(rows, list) or not all(
        isinstance(row, dict) and row.keys() == set(REPORT_COLUMNS) for row in rows
    ):
        raise ExperimentError(
            f"{path}: expected a list of objects with keys {', '.join(REPORT_COLUMNS)}"
        )
    for i, row in enumerate(rows):
        for column in REPORT_COLUMNS:
            if not _COLUMN_FITS[column](row[column]):
                raise ExperimentError(f"{path}: row {i} has a bad {column}: {row[column]!r}")
    return [RunReport(**row) for row in rows]
