"""Command line interface: gen / run / verify / report.

Exit codes: 0 all passed, 1 a verification failed, 2 usage, input or internal
error. Any exception a command raises prints ``error: ...`` and exits 2, so
an internal error never reads as a failed verification.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import verification
from .experiment import (
    ALGORITHMS,
    ExperimentConfig,
    emit_report,
    load_report,
    run_experiment,
)
from .generators import gen_family, gen_uniform
from .model import save_instance
from .subroutines import SUBROUTINE_NAMES


def _parse_range(text: str) -> tuple:
    try:
        lo, hi = text.split(":")
        return float(lo), float(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"range must be LO:HI, got {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchline",
        description="Online minimum matching on the line with advice.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate instances")
    gen.add_argument("--mode", choices=("uniform", "family"), required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--range", type=_parse_range, default=(0.0, 100.0))
    gen.add_argument("--integer", action="store_true", help="integer-mode instance")
    gen.add_argument(
        "--in-span",
        action="store_true",
        help="keep requests inside the servers' span [1, N-1]",
    )
    gen.add_argument("--out", required=True, help="file (uniform) or directory (family)")

    run = sub.add_parser("run", help="run an algorithm on an instance file")
    run.add_argument("--algo", choices=ALGORITHMS, required=True)
    run.add_argument("--k", type=int, default=None)
    run.add_argument("--sub", choices=SUBROUTINE_NAMES, default="greedy")
    run.add_argument("--input", required=True)
    run.add_argument("--report", default=None, help="report output file")
    run.add_argument("--format", choices=("json", "csv"), default="json")
    run.add_argument("--verbose-tape", action="store_true")

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument(
        "--suite",
        choices=("lr-optimal", "divide-exact", "family", "props"),
        required=True,
    )
    verify.add_argument("--n", type=int, default=6)
    verify.add_argument("--seeds", type=int, default=50, help="instances per size")

    report = sub.add_parser("report", help="re-emit a JSON report in another format")
    report.add_argument("--input", required=True)
    report.add_argument("--format", choices=("json", "csv"), default="csv")
    report.add_argument("--out", required=True)

    return parser


def _cmd_gen(args) -> int:
    mode_range = tuple(int(x) for x in args.range) if args.integer else args.range
    if args.mode == "uniform":
        instance = gen_uniform(
            args.n,
            mode_range,
            args.seed,
            integer_mode=args.integer,
            request_range="span" if args.in_span else None,
        )
        save_instance(instance, args.out)
        print(f"wrote {args.out} (n={instance.n}, integer_mode={instance.integer_mode})")
    else:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        members = gen_family(args.n)
        for i, member in enumerate(members):
            save_instance(member.instance(), out / f"member_{i:04d}.json")
        print(f"wrote {len(members)} family members to {out}")
    return 0


def _cmd_run(args) -> int:
    from .experiment import run_algorithm
    from .model import load_instance

    instance = load_instance(args.input)
    config = ExperimentConfig(
        algo=args.algo,
        k=args.k,
        subroutine=args.sub,
        instances=[(Path(args.input).stem, None, instance)],
    )
    reports = run_experiment(config)
    r = reports[0]
    print(
        f"{r.algo}: cost={r.cost} opt={r.opt_cost} ratio={r.ratio:.6g} "
        f"advice_bits={r.oracle_bits_read} aux_bits={r.aux_bits}"
    )
    if args.verbose_tape and args.algo in ("divide", "rescale"):
        from .divide import _advice_schedule

        outcome = run_algorithm(instance, args.algo, args.k, args.sub)
        divide = outcome.get("divide") or outcome["rescale"].scaled
        print(f"advice tape: {divide.tape_dump}")
        for label, value, width in _advice_schedule(
            divide.advice, divide.span_bound, instance.n
        ):
            print(f"  {label:10s} width={width:2d} value={value}")
    if args.report:
        emit_report(reports, args.report, args.format)
        print(f"wrote report to {args.report}")
    return 0


def _cmd_verify(args) -> int:
    suites = {
        "lr-optimal": verification.verify_lr_optimal,
        "divide-exact": verification.verify_divide_exact,
        "family": verification.verify_family_suite,
        "props": verification.verify_order_properties,
    }
    failures = suites[args.suite](n_max=args.n, seeds=args.seeds, log=print)
    if failures:
        print(f"FAIL: {failures} check(s) failed")
        return 1
    print("all checks passed")
    return 0


def _cmd_report(args) -> int:
    reports = load_report(args.input)
    emit_report(reports, args.out, args.format)
    print(f"wrote {len(reports)} record(s) to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen": _cmd_gen,
        "run": _cmd_run,
        "verify": _cmd_verify,
        "report": _cmd_report,
    }
    try:
        return handlers[args.command](args)
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
