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
from .divide import advice_words
from .experiment import ALGORITHMS, K_ALGORITHMS, emit_report, load_report, run_instance
from .generators import gen_family, gen_uniform
from .model import load_instance, save_instance
from .subroutines import SUBROUTINE_NAMES
from .tape import word_width

#: the verify suites that read ``--seeds`` (default 50), by name
SEEDED_SUITES = {
    "lr-optimal": verification.verify_lr_optimal,
    "divide-exact": verification.verify_divide_exact,
    "props": verification.verify_order_properties,
}


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
    gen.add_argument("--seed", type=int, help="uniform only (default 0)")
    gen.add_argument("--range", type=_parse_range, help="uniform only (default 0:100)")
    gen.add_argument("--integer", action="store_true", help="integer-mode instance")
    gen.add_argument(
        "--in-span",
        action="store_true",
        help="draw requests inside the servers' span",
    )
    gen.add_argument("--out", required=True, help="file (uniform) or directory (family)")

    run = sub.add_parser("run", help="run an algorithm on an instance file")
    run.add_argument("--algo", choices=ALGORITHMS, required=True)
    run.add_argument("--k", type=int, default=None, help="divide and rescale only")
    run.add_argument("--sub", choices=SUBROUTINE_NAMES, help="divide and rescale only")
    run.add_argument("--input", required=True)
    run.add_argument("--report", default=None, help="report output file")
    run.add_argument("--format", choices=("json", "csv"), help="with --report (default json)")
    run.add_argument("--verbose-tape", action="store_true", help="divide and rescale only")

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("--suite", choices=(*SEEDED_SUITES, "family"), required=True)
    verify.add_argument("--n", type=int, default=6)
    verify.add_argument(
        "--seeds", type=int, help="instances per size (default 50); not for --suite family"
    )
    # usage errors name the command's usage line, not the top-level one
    for command in (gen, run, verify):
        command.set_defaults(usage_error=command.error)

    report = sub.add_parser("report", help="re-emit a JSON report in another format")
    report.add_argument("--input", required=True)
    report.add_argument("--format", choices=("json", "csv"), default="csv")
    report.add_argument("--out", required=True)

    return parser


def _cmd_gen(args) -> int:
    if args.mode == "uniform":
        instance = gen_uniform(
            args.n,
            args.range or (0.0, 100.0),
            args.seed or 0,
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
    r, outcome = run_instance(
        load_instance(args.input),
        args.algo,
        args.k,
        args.sub or "greedy",
        instance_id=Path(args.input).stem,
    )
    print(
        f"{r.algo}: cost={r.cost} opt={r.opt_cost} ratio={r.ratio:.6g} "
        f"advice_bits={r.oracle_bits_read} aux_bits={r.aux_bits}"
    )
    if args.verbose_tape:
        divide = outcome["divide"]
        q, boundaries = divide.advice.q, divide.plan.boundaries
        print(f"advice tape: {divide.tape.dump()}")
        # one row per boundary (named by the block and side a crossing leaves
        # by, or - when none does; the value is q - p_{b-1}), then the d/m
        # rows; each word is w(bound) bits wide
        for f, b, value, bound in advice_words(divide.advice, divide.plan):
            if q[b] is None:
                label = f"q[{b + 1}|{b + 2},-]"
            else:
                label = f"{f}[{b + 1},R]" if q[b] <= boundaries[b] else f"{f}[{b + 2},L]"
            print(f"  {label:10s} width={word_width(bound):2d} bound={bound} value={value}")
    if args.report:
        emit_report([r], args.report, args.format or "json")
        print(f"wrote report to {args.report}")
    return 0


def _cmd_verify(args) -> int:
    if args.suite == "family":
        failures = verification.verify_family_suite(n_max=args.n, log=print)
    else:
        failures = SEEDED_SUITES[args.suite](n_max=args.n, seeds=args.seeds or 50, log=print)
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
    # options the chosen mode, algorithm, suite or output would not read
    unread = []
    if args.command == "gen" and args.mode == "family":
        why = "family mode generates all of I_n"
        unread.append((("seed", "range", "integer", "in_span"), why))
    if args.command == "run" and args.algo not in K_ALGORITHMS:
        unread.append((("sub", "verbose_tape"), f"{args.algo} reads no block advice"))
    if args.command == "run" and args.report is None:
        unread.append((("format",), "a run without --report writes no report"))
    if args.command == "verify" and args.suite == "family":
        unread.append((("seeds",), "the family suite checks every member"))
    for names, why in unread:
        for name in names:
            value = getattr(args, name)
            if value is not None and value is not False:
                args.usage_error(f"{why} and takes no --{name.replace('_', '-')}")
    if args.command == "verify" and (args.n < 2 or (args.seeds is not None and args.seeds < 1)):
        args.usage_error("verify needs --n >= 2 and --seeds >= 1: a smaller grid checks nothing")
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
