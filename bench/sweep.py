"""Scaling sweep: layer times against n, and their fitted growth exponents.

Usage (from the repository root):

    python3 bench/sweep.py [--cap 60] [--out bench/results/sweep.json]

Times ``lr_oracle`` and ``lr_run`` at n = 10^2 .. 10^6, and DIVIDE_k with
k = 4 and ``greedy`` (the whole ``divide_run`` and the ``Greedy.serve`` calls
inside it) at n = 10^2 .. 10^5, on integer-mode uniform instances over
(0, 10n) made from seed 0. Each size runs in a child process that is stopped
after ``--cap`` seconds; a size that hits the cap, and every larger size of
that layer, is recorded as skipped. The growth exponent of a layer is the
least-squares slope of log(time) against log(n) over its completed sizes.
This sweep is not a gated workload: it is run by hand and its file compared
by eye.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import json
import math
import subprocess
import time
from pathlib import Path

import run

SEED = 0
SIZES = {
    "lr": (10**2, 10**3, 10**4, 10**5, 10**6),
    "divide-greedy": (10**2, 10**3, 10**4, 10**5),
}
#: timed layer -> name of its fitted exponent
EXPONENTS = {
    "lr.lr_oracle": "lr.lr_oracle.growth_exponent",
    "lr.lr_run": "lr.lr_run.growth_exponent",
    "divide.divide_run": "divide.divide_run.growth_exponent",
    "subroutines.Greedy.serve": "subroutines.Greedy.serve.growth_exponent",
}


def measure_point(layer: str, n: int) -> dict:
    """Seconds per timed layer for one instance of size n (in this process)."""
    lib = run.import_library()
    instance = lib.generators.gen_uniform(n, (0, 10 * n), SEED, integer_mode=True)
    opt = lib.offline.monotone_optimal(instance).cost
    clock = time.perf_counter
    if layer == "lr":
        start = clock()
        tape = lib.lr.lr_oracle(instance)
        oracle = clock() - start
        start = clock()
        result = lib.lr.lr_run(instance, tape)
        times = {"lr.lr_oracle": oracle, "lr.lr_run": clock() - start}
        cost = result.matching.cost
        if cost != opt:
            raise RuntimeError(f"LR cost {cost} is not the optimum {opt} at n={n}")
        return times
    greedy = lib.subroutines.Greedy
    serve = vars(greedy)["serve"]
    spent = [0.0]

    def timed_serve(self, request):
        start = clock()
        try:
            return serve(self, request)
        finally:
            spent[0] += clock() - start

    greedy.serve = timed_serve
    try:
        start = clock()
        result = lib.divide.divide_run(instance, 4, "greedy")
        total = clock() - start
    finally:
        greedy.serve = serve
    if result.matching.cost < opt:
        raise RuntimeError(f"DIVIDE_k cost {result.matching.cost} below the optimum {opt}")
    return {"divide.divide_run": total, "subroutines.Greedy.serve": spent[0]}


def growth_exponent(points: list):
    """Least-squares slope of log(seconds) on log(n), or None below two points."""
    points = [(math.log(n), math.log(t)) for n, t in points if t > 0]
    if len(points) < 2:
        return None
    mx = sum(x for x, _ in points) / len(points)
    my = sum(y for _, y in points) / len(points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    return sum((x - mx) * (y - my) for x, y in points) / sxx


def sweep(cap: float, log=print) -> dict:
    rows = []
    for layer, sizes in SIZES.items():
        capped = None
        for n in sizes:
            if capped is not None:
                rows.append({"layer": layer, "n": n, "status": "skipped",
                             "reason": f"n={capped} hit the cap"})
                log(f"{layer:14s} n={n:<8d} skipped (n={capped} hit the cap)")
                continue
            cmd = [sys.executable, __file__, "--point", layer, "--n", str(n)]
            try:
                child = subprocess.run(cmd, capture_output=True, text=True, timeout=cap, check=True)
            except subprocess.TimeoutExpired:
                capped = n
                rows.append({"layer": layer, "n": n, "status": "skipped",
                             "reason": f"exceeded the {cap:g} s cap"})
                log(f"{layer:14s} n={n:<8d} skipped (exceeded the {cap:g} s cap)")
                continue
            except subprocess.CalledProcessError as exc:
                reason = (exc.stderr.strip().splitlines() or ["no output"])[-1]
                rows.append({"layer": layer, "n": n, "status": "failed", "reason": reason})
                log(f"{layer:14s} n={n:<8d} failed: {reason}")
                continue
            times = json.loads(child.stdout.strip().splitlines()[-1])
            rows.append({"layer": layer, "n": n, "status": "ok", "seconds": times})
            log(f"{layer:14s} n={n:<8d} " + "  ".join(f"{k}={v:.4g}s" for k, v in times.items()))
    exponents = {
        name: growth_exponent([(r["n"], r["seconds"][timed]) for r in rows
                               if r["status"] == "ok" and timed in r["seconds"]])
        for timed, name in EXPONENTS.items()
    }
    for name, value in exponents.items():
        log(f"{name} = {'n/a' if value is None else f'{value:.3f}'}")
    return {"env": run.environment(SEED), "cap_s": cap, "rows": rows, "growth_exponents": exponents}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cap", type=float, default=60.0, help="seconds allowed per size")
    parser.add_argument("--out", type=Path, default=run.ROOT / "bench" / "results" / "sweep.json")
    parser.add_argument("--point", choices=tuple(SIZES), help=argparse.SUPPRESS)
    parser.add_argument("--n", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.point:
        print(json.dumps(measure_point(args.point, args.n)))
        return 0
    result = sweep(args.cap)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
