"""Compare two benchmark result files, workload by workload and metric by metric.

Usage (from the repository root):

    python3 bench/compare.py OLD.jsonl NEW.jsonl

Each file holds the runs ``bench/run.py`` appended to it, one JSON object a
line. For every workload and metric the table gives each side's median and
quartiles over its runs, the change of the medians, the bound that
BENCHMARK.json fixes for the metric (end-to-end metrics only) and a verdict:

* ``unresolved``: a side's spread (quartile distance over median) exceeds the
  bound, and not every new run beats, or loses to, every old run;
* ``worse``: the median got worse by more than the bound, or, for a metric
  without a bound, by more than the larger spread of the two sides;
* ``better``: the median improved by more than the old side's spread;
* ``same``: otherwise.

Exact metrics (counts, bits and the ratios in EXACT_RATIOS) are fixed by the
seed's inputs and the code, so where both files hold runs of the same seeds
they are compared seed by seed instead: ``same`` when every seed reads the
same value, ``worse`` or ``better`` when every seed that differs moved that
way, ``changed`` when seeds moved both ways. A per-layer metric that reads 0
on the new side only is ``unmeasured``: its binding is likely gone (the
traced runs list such bindings in ``details["unbound"]``).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT_UNITS = ("count", "bits")
EXACT_RATIOS = ("cost_ratio", "tape.aux.kept_ratio", "divide.marked_share")


def load(path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def spec_of(benchmark: dict) -> dict:
    """metric name -> (better, bound or None) from BENCHMARK.json."""
    spec = {m["name"]: (m["better"], m["bound"]) for m in benchmark["end_to_end"]}
    spec.update({m["name"]: (m["better"], None) for m in benchmark["per_layer"]})
    return spec


def is_exact(name: str, unit: str) -> bool:
    return unit in EXACT_UNITS or name in EXACT_RATIOS


def _values(records: list) -> dict:
    """(workload, metric) -> (unit, [(seed, value)] over the runs)."""
    out: dict = {}
    for r in records:
        for name, m in r["metrics"].items():
            out.setdefault((r["workload"], name), (m["unit"], []))[1].append(
                (r["seed"], m["value"])
            )
    return out


def summary(values: list) -> tuple:
    """(median, first quartile, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def _share(delta: float, base: float) -> float:
    if base == 0:
        return 0.0 if delta == 0 else float("inf")
    return delta / abs(base)


def verdict(old: list, new: list, better: str, bound) -> tuple:
    """(verdict, change of the medians as a share, positive = worse)."""
    sign = 1 if better == "lower" else -1
    old_med, old_q1, old_q3 = summary(old)
    new_med, new_q1, new_q3 = summary(new)
    worse_by = sign * _share(new_med - old_med, old_med)
    old_spread = _share(old_q3 - old_q1, old_med)
    spread = max(old_spread, _share(new_q3 - new_q1, new_med))
    limit = spread if bound is None else bound
    if bound is not None and spread > bound:
        if all(sign * (n - o) < 0 for n in new for o in old):
            return "better", worse_by
        if all(sign * (n - o) > 0 for n in new for o in old):
            return "worse", worse_by
        return "unresolved", worse_by
    if worse_by > limit:
        return "worse", worse_by
    if -worse_by > old_spread:
        return "better", worse_by
    return "same", worse_by


def paired_verdict(old: dict, new: dict, better: str) -> tuple:
    """(verdict, median change) of an exact metric over the seeds both sides
    ran (seed -> value), positive = worse."""
    sign = 1 if better == "lower" else -1
    changes = [sign * _share(new[s] - old[s], old[s]) for s in sorted(old.keys() & new.keys())]
    change = statistics.median(changes)
    if all(c == 0 for c in changes):
        return "same", change
    if all(c >= 0 for c in changes):
        return "worse", change
    if all(c <= 0 for c in changes):
        return "better", change
    return "changed", change


def compare(old_records: list, new_records: list, spec: dict) -> list:
    """One row per (workload, metric) present on both sides."""
    old, new = _values(old_records), _values(new_records)
    rows = []
    for key in sorted(old.keys() & new.keys()):
        better, bound = spec.get(key[1], ("lower", None))
        unit, old_runs = old[key]
        old_values = [v for _, v in old_runs]
        new_values = [v for _, v in new[key][1]]
        old_seeds, new_seeds = dict(old_runs), dict(new[key][1])
        if is_exact(key[1], unit) and old_seeds.keys() & new_seeds.keys():
            result, change = paired_verdict(old_seeds, new_seeds, better)
        else:
            result, change = verdict(old_values, new_values, better, bound)
        old_med, new_med = summary(old_values)[0], summary(new_values)[0]
        if bound is None and new_med == 0 and old_med != 0:
            result = "unmeasured"
        rows.append({
            "workload": key[0], "metric": key[1],
            "old": summary(old_values), "new": summary(new_values),
            "runs": (len(old_values), len(new_values)),
            "change": change, "bound": bound, "verdict": result,
        })
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python3 bench/compare.py OLD.jsonl NEW.jsonl", file=sys.stderr)
        return 2
    spec = spec_of(json.loads((ROOT / "BENCHMARK.json").read_text()))
    rows = compare(load(argv[0]), load(argv[1]), spec)
    print(f"{'workload':<20} {'metric':<40} {'old median [q1, q3]':<34} "
          f"{'new median [q1, q3]':<34} {'runs':>7} {'change':>8} {'bound':>6}  verdict")
    for r in rows:
        old = "{:.6g} [{:.6g}, {:.6g}]".format(*r["old"])
        new = "{:.6g} [{:.6g}, {:.6g}]".format(*r["new"])
        bound = "-" if r["bound"] is None else f"{r['bound']:.2f}"
        print(f"{r['workload']:<20} {r['metric']:<40} {old:<34} {new:<34} "
              f"{r['runs'][0]:>3}/{r['runs'][1]:<3} {r['change']:>+8.3f} {bound:>6}  {r['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
