"""Layered benchmark of matchline: one workload per process, every run checked.

Usage (from the repository root):

    python3 bench/run.py --workload lr-uniform --seed 1 --seconds 20 --trace 0

The loop is closed: one process runs one job at a time, on one thread, for
``--seconds`` seconds and at least one full pass over the workload's jobs.
With ``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it holds the
per-layer metrics instead, from a run that alternates each job untraced and
traced. Every run is also appended, with its environment and failures, to
the result file (``--out``), which ``bench/compare.py`` reads.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import time
import types
from array import array
from collections import Counter
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_OUT = ROOT / "bench" / "results" / "runs.jsonl"
#: never created: bytecode is looked up here, finds none, and is not written,
#: so every set-up compiles the package from source even when a __pycache__
#: (left by the test suite, say) sits next to it
NO_BYTECODE = ROOT / "bench" / "results" / "no-bytecode"

#: modules of the package, in import order; each is a layer of the trace
MODULES = (
    "model", "tape", "offline", "lr", "subroutines", "divide",
    "generators", "experiment", "verification",
)
SETUP_REPEATS = 15
#: the tail is the highest percentile, up to TAIL_CAP, that keeps at least
#: TAIL_BEYOND samples beyond it; the cap keeps small-exhaustive's 10^5
#: samples from reporting the noise of a few dozen extreme ones
TAIL_BEYOND = 10
TAIL_CAP = 99.0

#: Nominal seconds of one reference_loop. Every time the benchmark reports is
#: scaled by REF_SECONDS / (the loop's measured time), measured around it: a
#: 2-core KVM virtual machine (Intel Xeon, Python 3.11) drifted in speed by up
#: to 2x over minutes, which would otherwise swamp any change in the code. The
#: scale cancels most of that drift and keeps a change in the code's speed whole.
REF_SECONDS = 0.001
#: the reference is measured again before a job once this much time passed
REF_EVERY = 0.2
_REF_RNG = random.Random(0)
_REF_VALUES = [_REF_RNG.randrange(10**6) for _ in range(4000)]
_REF_POOL = sorted(zip(_REF_VALUES, range(len(_REF_VALUES))))

VERIFY_SUITES = (
    "verify_lr_optimal", "verify_divide_exact",
    "verify_family_suite", "verify_order_properties",
)


def import_library():
    """Import every matchline module afresh from ``src/`` of this checkout."""
    for name in [m for m in sys.modules if m == "matchline" or m.startswith("matchline.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    sys.pycache_prefix = str(NO_BYTECODE)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("matchline")
    if Path(package.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"matchline was imported from {package.__file__}, not {SRC}")
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"matchline.{m}") for m in MODULES}
    )


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(),
        "seed": seed,
    }


def summary_of(values: list) -> dict:
    return {"min": min(values), "median": statistics.median(values), "max": max(values)}


def tail(samples: list) -> tuple:
    """(value, percentile, samples beyond) at the highest percentile up to
    TAIL_CAP that keeps TAIL_BEYOND samples beyond it, or the maximum when
    there are few samples."""
    ordered = sorted(samples)
    last = len(ordered) - 1
    index = min(last - TAIL_BEYOND, math.floor(last * TAIL_CAP / 100))
    if index < 0:
        index = last
    pct = 100.0 * index / last if last else 100.0
    return ordered[index], round(pct, 1), len(ordered) - 1 - index


def reference_loop() -> int:
    """Sorting, tuple scans and sums of distances, like the library's hot loops."""
    ordered = sorted(_REF_VALUES)
    best = None
    for pos, _ in _REF_POOL:
        key = (abs(500_000 - pos), pos)
        if best is None or key < best:
            best = key
    return sum(abs(a - b) for a, b in zip(ordered, _REF_VALUES))


class SpeedGauge:
    """Scales measured seconds to seconds at the nominal reference speed.

    A time recorded between two measurements of the reference is scaled by
    their mean, so a slowdown that starts or ends in between counts half.
    """

    def __init__(self):
        self.refs: list = []  # measured seconds of reference_loop
        self._pending: list = []  # (sink, raw seconds) awaiting the next measurement
        self._last = -math.inf

    def measure(self) -> None:
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            reference_loop()
            best = min(best, time.perf_counter() - start)
        previous = self.refs[-1] if self.refs else best
        self.refs.append(best)
        scale = 2 * REF_SECONDS / (previous + best)
        for sink, raw in self._pending:
            sink.append(raw * scale)
        self._pending.clear()
        self._last = time.perf_counter()

    def refresh(self) -> None:
        if time.perf_counter() - self._last >= REF_EVERY:
            self.measure()

    def record(self, sink: list, raw: float) -> None:
        """Append ``raw`` seconds, scaled, to ``sink`` at the next measurement."""
        self._pending.append((sink, raw))

    def median_scale(self) -> float:
        return REF_SECONDS / statistics.median(self.refs)


class Loop:
    """The closed loop over a workload's jobs, with the tallies it keeps."""

    def __init__(self, lib, name: str, seed: int, jobs: list, gauge: SpeedGauge):
        self.lib, self.name, self.seed, self.jobs = lib, name, seed, jobs
        self.gauge = gauge
        # compact arrays, so the benchmark's own memory barely grows with a run
        self.samples = array("d")  # scaled seconds per run_algorithm call, untraced
        self.raw_samples = array("d")
        self.traced_samples = array("d")
        self.busy = array("d")  # scaled seconds of untraced jobs, checks included
        self.attempted = 0
        self.failed = 0
        self.known = 0  # failures the frozen library shares
        self.known_jobs: dict = {}  # job index -> whether its failure is known
        self.frozen_check_s = 0.0  # spent in fails_in_frozen, left out of busy
        self.failures: list = []  # first pass only: every later pass repeats it
        self.known_shapes: Counter = Counter()
        self.bits: list = []  # first pass: oracle bits per run
        self.aux: list = []
        self.ratios: list = []
        self.executions = 0
        self.peak_rss_mb = 0.0

    def run(self, seconds: float, tracer=None) -> None:
        """Execute jobs until ``seconds`` have passed and one pass is done."""
        lib = self.lib
        run_algorithm = lib.experiment.run_algorithm
        if tracer is not None:
            traced_run = tracer.wrap(run_algorithm, "experiment.run_algorithm")
            traced_check = tracer.wrap(workloads.check, "bench.check")
            suites = {s: tracer.wrap(getattr(lib.verification, s), f"verification.{s}")
                      for s in VERIFY_SUITES}
        count = len(self.jobs)
        start = time.perf_counter()
        while self.executions < count or time.perf_counter() - start < seconds:
            job = self.jobs[self.executions % count]
            self.gauge.refresh()
            job_start, frozen_check_before = time.perf_counter(), self.frozen_check_s
            if isinstance(job, workloads.SuiteJob):
                self._suite(job, getattr(lib.verification, job.name), True)
            else:
                self._run(job, run_algorithm, workloads.check, True, self.samples)
            self.gauge.record(self.busy, time.perf_counter() - job_start
                              - (self.frozen_check_s - frozen_check_before))
            if tracer is not None:
                tracer.job, tracer.counting = self.executions, self.executions < count
                with tracer.installed(lib):
                    if isinstance(job, workloads.SuiteJob):
                        self._suite(job, suites[job.name], False)
                    else:
                        self._run(job, traced_run, traced_check, False, self.traced_samples)
            self.executions += 1
        self.gauge.measure()
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def _run(self, job, run_algorithm, check, record: bool, samples) -> None:
        start = time.perf_counter()
        try:
            outcome = run_algorithm(job.instance, job.algo, job.k, job.sub)
        except Exception as exc:  # a raising run is a failed run, never an abort
            reason, outcome = f"raised {type(exc).__name__}: {exc}", None
        took = time.perf_counter() - start
        self.gauge.record(samples, took)
        if outcome is not None:
            reason, opt = check(self.lib, job, outcome)
        if not record:
            return
        self.raw_samples.append(took)
        self.attempted += 1
        if outcome is not None:
            if self.executions < len(self.jobs):
                self.bits.append(outcome["oracle_bits_read"])
                self.aux.append(outcome["aux_bits"])
                if opt:
                    self.ratios.append(outcome["cost"] / opt)
        if reason is not None:
            self._fail(job, reason, self._known(job, reason))

    def _known(self, job, reason: str) -> bool:
        """Whether the frozen library fails the job the same way; asked on
        the first pass only, since every later pass repeats the job."""
        index = self.executions % len(self.jobs)
        if index not in self.known_jobs:
            start = time.perf_counter()
            self.known_jobs[index] = workloads.fails_in_frozen(job, reason)
            self.frozen_check_s += time.perf_counter() - start
        return self.known_jobs[index]

    def _suite(self, job, suite, record: bool) -> None:
        try:
            failed = suite(**job.kwargs)
            reason = f"{failed} failed checks" if failed else None
        except Exception as exc:  # a raising suite leaves all its instances unchecked
            failed, reason = job.instances, f"raised {type(exc).__name__}: {exc}"
        if not record:
            return
        self.attempted += job.instances
        if reason is not None:
            self._fail(job, reason, False, failed)

    def _fail(self, job, reason: str, known: bool, count: int = 1) -> None:
        first = self.executions < len(self.jobs)
        if known:
            self.known += count
        else:
            self.failed += count
        if not first:
            return
        if isinstance(job, workloads.SuiteJob):
            where = {"suite": job.name}
        else:
            where = {"shape": job.shape, "n": job.instance.n, "algo": job.label}
            if known:
                self.known_shapes[f"{job.shape} {job.label}: {workloads.reason_kind(reason)}"] += 1
        self.failures.append({
            "workload": self.name, "seed": self.seed, **where,
            "known_defect": known, "reason": reason[:300],
        })


def end_to_end(loop: Loop, setup_times: list, raw_setup_times: list) -> tuple:
    value, pct, beyond = tail(loop.samples)
    ok = 1 - loop.failed / loop.attempted
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "run_s_p50": (statistics.median(loop.samples), "s"),
        "run_s_tail": (value, "s"),
        "instances_per_s": (loop.attempted / sum(loop.busy), "1/s"),
        "advice_bits": (statistics.fmean(loop.bits), "bits"),
        "cost_ratio": (statistics.fmean(loop.ratios), "ratio"),
        "ok_share": (ok, "ratio"),
        "peak_rss_mb": (loop.peak_rss_mb, "MB"),
    }
    details = {
        "run_samples": len(loop.samples),
        "run_s_tail_percentile": pct,
        "run_s_tail_beyond": beyond,
        "setup_repeats": len(setup_times),
        "aux_bits": statistics.fmean(loop.aux),
        "failed_share": loop.failed / loop.attempted,
        "known_defect_share": loop.known / loop.attempted,
        "known_defect_runs": dict(loop.known_shapes),
        "passes": loop.executions / len(loop.jobs),
        "raw_setup_s": statistics.median(raw_setup_times),
        "raw_run_s_p50": statistics.median(loop.raw_samples),
        "reference_s": summary_of(loop.gauge.refs),
        "frozen_check_s": loop.frozen_check_s,
    }
    return metrics, details


#: span name -> (per-layer metric suffixes reported from it)
LAYER_TIMES = {
    "lr.lr_oracle": ("self_s",),
    "offline.monotone_cost": ("s", "calls"),
    "lr.lr_serve": ("s", "calls"),
    "subroutines.Greedy.serve": ("s", "calls"),
    "subroutines.Permutation.serve": ("s",),
    "subroutines.Clairvoyant.serve": ("s",),
    "divide.divide_run": ("self_s",),
    "divide.mark_servers": ("s",),
    "divide.compute_advice": ("s",),
    "divide.classify_requests": ("s",),
    "divide.make_subroutine": ("calls",),
    "divide.encode_divide_advice": ("s",),
    "divide.decode_divide_advice": ("s",),
    "divide.rescale_run": ("self_s",),
    "offline.monotone_optimal": ("s",),
    "offline.brute_force_optimal": ("s", "calls"),
    "model.make_matching": ("s",),
    "experiment.run_algorithm": ("s", "calls"),
    "bench.check": ("s",),
    **{f"verification.{s}": ("s",) for s in VERIFY_SUITES},
}
#: spans of the set-up, reported per set-up rather than per pass
SETUP_SPANS = ("generators.gen_uniform", "model.validate_instance")


def per_layer(loop: Loop, tracer: spans.Tracer) -> tuple:
    """Layer times per pass over the jobs; counts exact, from the first pass.

    Span times are scaled by the run's median speed scale, as the samples are.
    """
    count = len(loop.jobs)
    passes = loop.executions / count
    scale = loop.gauge.median_scale()
    total, self_s, _ = tracer.aggregate(lambda job: job >= 0)
    _, _, calls = tracer.aggregate(lambda job: 0 <= job < count)
    setup_total, _, _ = tracer.aggregate(lambda job: job == -1)
    metrics = {}
    for name, kinds in LAYER_TIMES.items():
        for kind in kinds:
            if kind == "s":
                metrics[f"{name}.s"] = (total[name] * scale / passes, "s")
            elif kind == "self_s":
                metrics[f"{name}.self_s"] = (self_s[name] * scale / passes, "s")
            else:
                metrics[f"{name}.calls"] = (calls[name], "count")
    for name in SETUP_SPANS:
        metrics[f"{name}.s"] = (setup_total[name] * scale, "s")
    c = tracer.counts
    aux_written = c["tape.aux.bits_kept"] + c["tape.aux.bits_retracted"]
    metrics.update({
        "tape.bits_written": (c["tape.bits_written"], "count"),
        "tape.bits_read": (c["tape.bits_read"], "count"),
        "tape.aux.bits_written": (aux_written, "count"),
        "tape.aux.bits_retracted": (c["tape.aux.bits_retracted"], "count"),
        # no aux bits written means none wasted
        "tape.aux.kept_ratio": (
            c["tape.aux.bits_kept"] / aux_written if aux_written else 1.0, "ratio"
        ),
        "divide.marked_share": (
            c["divide.marked"] / c["divide.servers"] if c["divide.servers"] else 0.0,
            "ratio",
        ),
    })
    untraced = statistics.median(loop.samples)
    metrics["trace.overhead_share"] = (
        (statistics.median(loop.traced_samples) - untraced) / untraced, "ratio"
    )
    # self times partition the traced jobs' time: runs, checks and suites
    traced = sum(self_s.values())
    shares = {name: self_s[name] / traced
              for name in sorted(self_s, key=self_s.get, reverse=True)[:8]}
    return metrics, {"self_time_share": shares, "passes": passes,
                     "unbound": sorted(tracer.unbound)}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, spans_path=None) -> dict:
    """One benchmark run; returns its full record."""
    tracer = spans.Tracer() if trace else None
    gauge = SpeedGauge()
    setup_times, raw_setup_times = [], []
    for _ in range(1 if trace else SETUP_REPEATS):
        gauge.refresh()
        start = time.perf_counter()
        lib = import_library()
        if tracer is not None:
            with tracer.installed(lib):
                jobs = workloads.build_jobs(lib, name, seed, tiny)
        else:
            jobs = workloads.build_jobs(lib, name, seed, tiny)
        raw_setup_times.append(time.perf_counter() - start)
        gauge.record(setup_times, raw_setup_times[-1])
        gauge.measure()
    loop = Loop(lib, name, seed, jobs, gauge)
    loop.run(seconds, tracer)
    if trace:
        metrics, details = per_layer(loop, tracer)
        if spans_path is not None:
            details["spans_written"] = tracer.write(spans_path, lambda j: j < len(jobs))
    else:
        metrics, details = end_to_end(loop, setup_times, raw_setup_times)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": environment(seed),
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "details": details,
        "failures": loop.failures,
    }


def result_line(record: dict) -> str:
    """The last line of standard output, the one the record is judged by."""
    return json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="result file the run is appended to (JSON lines)")
    args = parser.parse_args(argv)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    spans_path = None
    if args.trace:
        spans_path = args.out.parent / f"spans-{args.workload}-seed{args.seed}.tsv"
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          spans_path=spans_path)
    with open(args.out, "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(f"# environment: {json.dumps(record['env'])}")
    for key, value in record["details"].items():
        print(f"# {key}: {json.dumps(value)}")
    for failure in record["failures"][:20]:
        print(f"# failure: {json.dumps(failure)}")
    width = max(len(k) for k in record["metrics"])
    for key, m in record["metrics"].items():
        print(f"{key:<{width}}  {m['value']:>14.6g}  {m['unit']}")
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
