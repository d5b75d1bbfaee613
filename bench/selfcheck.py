"""Self-check of the benchmark at tiny sizes.

Usage (from the repository root):

    python3 bench/selfcheck.py

Runs every workload at small n, untraced and traced, and asserts that the
result line carries exactly the metrics BENCHMARK.json names, with their
units; that the end-to-end metrics are finite and never zero; that every
run is correct; and that the exact counts repeat between two traced runs of
one seed. It also exercises the known-defect check against the frozen
library, compare mode, and the sweep's measurement and fit. Takes a few
seconds and writes nothing.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import json
import math

import compare
import run
import sweep
import workloads

SECONDS = 0.2


def check_metrics(record: dict, expected: list) -> None:
    line = json.loads(run.result_line(record))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}, line.keys()
    assert line["correct"] and line["failed"] == 0, record["failures"][:3]
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    names = [m["name"] for m in expected]
    assert sorted(line["metrics"]) == sorted(names), set(line["metrics"]) ^ set(names)
    for spec in expected:
        metric = line["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"], (spec["name"], metric["unit"])
        assert isinstance(metric["value"], (int, float)), spec["name"]
        assert math.isfinite(metric["value"]), spec["name"]
        if "bound" in spec:
            assert metric["value"] != 0, f"{spec['name']} is 0 on {record['workload']}"


def exact_counts(record: dict) -> dict:
    return {k: m["value"] for k, m in record["metrics"].items()
            if compare.is_exact(k, m["unit"])}


def check_known_defects(lib) -> None:
    """A failure counts as known only where the frozen library fails the
    same job in the same way."""
    instance = lib.model.Instance
    # the frozen LR raises here: float coordinates near 1e7 (ROADMAP item 2)
    big_float = workloads.RunJob(instance(
        (774217.8, 2136167.9, 3031283.4), (9002136.8, 4962524.9, 7202405.7)), "lr")
    assert workloads.fails_in_frozen(big_float, "raised LRError: any message")
    assert not workloads.fails_in_frozen(big_float, "missed the optimum: cost 1 vs 0")
    small = workloads.RunJob(instance((1, 5, 9), (2, 8, 6)), "lr")
    assert not workloads.fails_in_frozen(small, "raised LRError: any message")


def main() -> int:
    benchmark = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in benchmark["workloads"]] == list(workloads.WORKLOADS)
    untraced_records = []
    for name in workloads.WORKLOADS:
        first = run.run_workload(name, 7, SECONDS, False, tiny=True)
        check_metrics(first, benchmark["end_to_end"])
        again = run.run_workload(name, 7, SECONDS, False, tiny=True)
        for metric in ("advice_bits", "cost_ratio"):
            assert first["metrics"][metric] == again["metrics"][metric], (name, metric)
        traced = [run.run_workload(name, 7, SECONDS, True, tiny=True) for _ in range(2)]
        for record in traced:
            check_metrics(record, benchmark["per_layer"])
        counts = [exact_counts(r) for r in traced]
        assert counts[0] == counts[1], {k for k in counts[0] if counts[0][k] != counts[1][k]}
        untraced_records += [first, again]
        print(f"selfcheck: {name}: metrics present, counts repeat")
    check_known_defects(run.import_library())
    print("selfcheck: known defects pinned to the frozen library")

    spec = compare.spec_of(benchmark)
    rows = compare.compare(untraced_records, untraced_records, spec)
    assert len(rows) == len(workloads.WORKLOADS) * len(benchmark["end_to_end"])
    assert all(r["verdict"] in ("same", "unresolved") for r in rows), rows
    assert compare.verdict([1.0, 1.01, 0.99], [2.0, 2.02, 1.98], "lower", 0.1)[0] == "worse"
    assert compare.verdict([1.0, 1.01, 0.99], [0.5, 0.51, 0.49], "lower", 0.1)[0] == "better"
    assert compare.verdict([1.0, 2.0, 3.0], [1.1, 2.1, 2.9], "lower", 0.1)[0] == "unresolved"
    assert compare.paired_verdict({1: 10, 2: 20}, {1: 10, 2: 21}, "lower")[0] == "worse"
    assert compare.paired_verdict({1: 10, 2: 20}, {1: 9, 2: 21}, "lower")[0] == "changed"
    assert compare.paired_verdict({1: 10, 2: 20}, {2: 20, 3: 7}, "lower")[0] == "same"
    layer = lambda seed, value: {"workload": "w", "seed": seed, "metrics": {
        "divide.mark_servers.s": {"value": value, "unit": "s"}}}
    rows = compare.compare([layer(1, 0.5), layer(2, 0.6)], [layer(1, 0.0), layer(2, 0.0)], spec)
    assert [r["verdict"] for r in rows] == ["unmeasured"], rows
    print("selfcheck: compare verdicts")

    for layer in sweep.SIZES:
        times = sweep.measure_point(layer, 50)
        assert times and all(t > 0 for t in times.values()), times
    assert abs(sweep.growth_exponent([(10, 1.0), (100, 100.0), (1000, 1e4)]) - 2) < 1e-9
    print("selfcheck: sweep point and fit")
    print("selfcheck: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
