"""In-memory spans around calls into matchline's layers.

The tracer wraps public functions at layer boundaries by rebinding the name
that the calling module imported (``matchline.lr.monotone_cost``,
``matchline.divide.compute_advice``, ``Greedy.serve`` ...), so the library
itself carries no instrumentation. Each span holds a name, a start, an end,
its parent span and the id of the job (one instance run) it belongs to.
Spans live in flat arrays while the benchmark runs and are aggregated, and
optionally written out, when it ends. A binding that a later version of the
library no longer has is skipped and listed in ``unbound``; its layer then
reports zero, which ``compare.py`` shows as unmeasured, not as a gain.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from collections import Counter

#: span name -> (module, attribute) bindings to rebind. A module name with a
#: ``:Class`` suffix rebinds a method on that class.
SPAN_BINDINGS = {
    "lr.lr_oracle": [("experiment", "lr_oracle"), ("verification", "lr_oracle")],
    "lr.lr_run": [("experiment", "lr_run"), ("verification", "lr_run")],
    "lr.lr_serve": [("lr", "lr_serve"), ("divide", "lr_serve")],
    "offline.monotone_cost": [("lr", "monotone_cost"), ("generators", "monotone_cost")],
    "offline.monotone_optimal": [
        ("offline", "monotone_optimal"),
        ("divide", "monotone_optimal"),
        ("verification", "monotone_optimal"),
    ],
    "offline.brute_force_optimal": [
        ("offline", "brute_force_optimal"),
        ("verification", "brute_force_optimal"),
    ],
    "model.make_matching": [
        ("model", "make_matching"),
        ("lr", "make_matching"),
        ("offline", "make_matching"),
        ("divide", "make_matching"),
    ],
    "model.validate_instance": [("generators", "validate_instance")],
    "generators.gen_uniform": [("generators", "gen_uniform"), ("verification", "gen_uniform")],
    "divide.plan_blocks": [("divide", "plan_blocks")],
    "divide.compute_advice": [("divide", "compute_advice")],
    "divide.encode_divide_advice": [("divide", "encode_divide_advice")],
    "divide.decode_divide_advice": [("divide", "decode_divide_advice")],
    "divide.mark_servers": [("divide", "mark_servers")],
    "divide.classify_requests": [("divide", "classify_requests")],
    "divide.make_subroutine": [("divide", "make_subroutine")],
    # the body shared by divide_run and rescale_run: advice, marking and the
    # serving loop; its self time is the serving-loop bookkeeping
    "divide.divide_run": [("divide", "_run_divide")],
    "divide.rescale_run": [("experiment", "rescale_run")],
    "subroutines.Greedy.serve": [("subroutines:Greedy", "serve")],
    "subroutines.Permutation.serve": [("subroutines:Permutation", "serve")],
    "subroutines.Clairvoyant.serve": [("subroutines:Clairvoyant", "serve")],
}


def _owner(lib, where: str):
    module, _, cls = where.partition(":")
    owner = getattr(lib, module, None)
    return getattr(owner, cls, None) if cls and owner is not None else owner


class Tracer:
    """Span recorder plus the exact counts taken at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.job = -1  # -1 while setting up
        self.counting = True  # counters record only the first pass
        self.counts: Counter = Counter()
        self._saved: list = []
        self.unbound: set = set()  # "module.attribute" bindings the library lacks

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str, on_result=None):
        """``fn`` with a span named ``name`` around every call."""
        nid = self._name_id(name)
        names, parents, jobs = self.span_name, self.span_parent, self.span_job
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            jobs.append(self.job)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if on_result is not None and self.counting:
                on_result(result)
            return result

        return traced

    def count(self, key: str, amount=1) -> None:
        if self.counting:
            self.counts[key] += amount

    def _rebind(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _hooks(self, lib):
        """(owner, attribute, replacement) for every binding this library has."""
        on_result = {
            "lr.lr_oracle": lambda tape: self.count("tape.bits_written", len(tape)),
            "divide.encode_divide_advice": lambda tape: self.count(
                "tape.bits_written", len(tape)
            ),
            "lr.lr_run": lambda res: self.count("tape.bits_read", res.bits_read),
            "divide.divide_run": self._count_divide,
        }
        for name, bindings in SPAN_BINDINGS.items():
            for where, attr in bindings:
                owner = _owner(lib, where)
                if owner is None or attr not in vars(owner):
                    self.unbound.add(f"{where}.{attr}")
                    continue
                yield owner, attr, self.wrap(
                    vars(owner)[attr], name, on_result.get(name)
                )
        aux = getattr(getattr(lib, "tape", None), "AuxTape", None)
        if aux is not None and "remove_last" in vars(aux):
            remove_last = vars(aux)["remove_last"]

            def counted_remove_last(tape):
                self.count("tape.aux.bits_retracted")
                return remove_last(tape)

            yield aux, "remove_last", counted_remove_last

    def _count_divide(self, result) -> None:
        self.count("tape.bits_read", result.oracle_bits_read)
        self.count("tape.aux.bits_kept", result.aux_bits_written)
        self.count("divide.marked", len(result.marks.marked))
        self.count("divide.servers", len(result.matching.assignment))

    def install(self, lib) -> None:
        for owner, attr, replacement in list(self._hooks(lib)):
            self._rebind(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self, lib):
        self.install(lib)
        try:
            yield self
        finally:
            self.uninstall()

    def aggregate(self, job_filter):
        """Inclusive seconds, self seconds and calls per span name.

        ``job_filter(job_id)`` selects the spans to sum. Self time is a span's
        duration minus the durations of its direct children, which nest
        strictly inside it because the benchmark runs on one thread.
        """
        n = len(self.span_start)
        child = array("d", bytes(8 * n))
        for sid in range(n):
            parent = self.span_parent[sid]
            if parent >= 0:
                child[parent] += self.span_end[sid] - self.span_start[sid]
        total: Counter = Counter()
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for sid in range(n):
            if not job_filter(self.span_job[sid]):
                continue
            name = self.names[self.span_name[sid]]
            dur = self.span_end[sid] - self.span_start[sid]
            total[name] += dur
            self_s[name] += dur - child[sid]
            calls[name] += 1
        return total, self_s, calls

    def write(self, path, job_filter) -> int:
        """Write the selected spans as tab-separated rows; returns the count."""
        rows = 0
        with open(path, "w") as fh:
            fh.write("span\tparent\tjob\tname\tstart_s\tend_s\n")
            t0 = self.span_start[0] if len(self.span_start) else 0.0
            for sid in range(len(self.span_start)):
                if not job_filter(self.span_job[sid]):
                    continue
                fh.write(
                    f"{sid}\t{self.span_parent[sid]}\t{self.span_job[sid]}\t"
                    f"{self.names[self.span_name[sid]]}\t"
                    f"{self.span_start[sid] - t0:.9f}\t{self.span_end[sid] - t0:.9f}\n"
                )
                rows += 1
        return rows
