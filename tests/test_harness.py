import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from matchline import experiment, model, verification
from matchline.cli import main
from matchline.experiment import (
    ALGORITHMS,
    K_ALGORITHMS,
    REPORT_COLUMNS,
    ExperimentError,
    RunReport,
    emit_report,
    load_report,
    run_algorithm,
    run_instance,
)
from matchline.generators import VERIFY_FAMILY_MAX_N, gen_family, gen_uniform
from matchline.lr import LRError
from matchline.model import Matching, load_instance, save_instance, validate_instance
from matchline.offline import BRUTE_FORCE_MAX_N, ENUMERATION_MAX_N, brute_force_optimal
from matchline.subroutines import SubroutineError
from matchline.tape import TapeUnderflow, word_width


def run_all(algo, instances, k=None, subroutine="greedy"):
    """The reports of one algorithm over (instance_id, seed, instance) entries."""
    return [
        run_instance(inst, algo, k, subroutine, instance_id=instance_id, seed=seed)[0]
        for instance_id, seed, inst in instances
    ]


def uniform(n, seeds, position_range=(0, 100), *, integer_mode, request_range=None):
    """One seeded uniform instance per seed, as run_all entries."""
    return [
        (
            f"uniform-n{n}-s{seed}",
            seed,
            gen_uniform(n, position_range, seed, integer_mode, request_range),
        )
        for seed in seeds
    ]


def test_lr_on_family_is_optimal():
    family = [(f"family-n6-m{i}", None, m.instance()) for i, m in enumerate(gen_family(6))]
    reports = run_all("lr", family)
    assert len(reports) == 32
    assert all(r.ratio == 1 for r in reports)
    assert all(r.oracle_bits_read <= 5 for r in reports)


def test_divide_with_singleton_blocks_is_optimal():
    instances = uniform(8, range(10), integer_mode=True, request_range="span")
    reports = run_all("divide", instances, k=8, subroutine="greedy")
    assert all(r.ratio == 1 for r in reports)


def test_greedy_ratios_at_least_one():
    reports = run_all("greedy", uniform(8, range(50), integer_mode=True))
    assert all(r.ratio >= 1 for r in reports)
    assert max(r.ratio for r in reports) >= 1


def test_ratio_is_one_when_cost_and_opt_are_zero():
    inst = validate_instance([1, 2], [2, 1])
    (report,) = run_all("lr", [("zero", None, inst)])
    assert report.cost == report.opt_cost == 0
    assert report.ratio == 1


def test_run_algorithm_names():
    inst = gen_uniform(4, (0, 12), 1, integer_mode=True, request_range="span")
    for algo in ALGORITHMS:
        k = 2 if algo in K_ALGORITHMS else None
        outcome = run_algorithm(inst, algo, k=k, subroutine="clairvoyant")
        assert outcome["cost"] >= 0
    with pytest.raises(ExperimentError):
        run_algorithm(inst, "magic")
    for algo in ALGORITHMS:  # k for DIVIDE_k and RESCALE only, the K_ALGORITHMS rule
        with pytest.raises(ExperimentError):
            run_algorithm(inst, algo, k=None if algo in K_ALGORITHMS else 2)
    for algo in ALGORITHMS:  # the subroutine name is checked for every algorithm
        k = 2 if algo in K_ALGORITHMS else None
        with pytest.raises(ExperimentError, match="unknown subroutine"):
            run_algorithm(inst, algo, k=k, subroutine="nope")


def test_a_checked_float_run_builds_its_image_once(monkeypatch):
    # model._times runs twice per image built (servers, requests): the run,
    # the monotone optimum and the brute-force check of a checked run share
    # one image; an instance of ints is its own image and builds none
    builds, times = [], model._times

    def counted(coords, d):
        builds.append(d)
        return times(coords, d)

    monkeypatch.setattr(model, "_times", counted)
    runs = (("lr", None), ("rescale", 3), ("greedy", None), ("permutation", None))
    for algo, k in runs:
        inst = gen_uniform(9, (0.0, 100.0), 5)  # a new instance, not the memo's
        assert inst.scale > 1
        builds.clear()
        run_instance(inst, algo, k, instance_id=algo)
        assert len(builds) == 2, algo
    ints = gen_uniform(9, (0, 100), 5, integer_mode=True)
    builds.clear()
    for algo, k in (*runs, ("divide", 3)):
        run_instance(ints, algo, k, instance_id=algo)
    assert builds == []
    assert verification.family_tapes_are_distinct(6)  # 32 float members
    assert len(builds) == 2 * 32


def test_run_instance_cross_checks_the_optima_up_to_the_brute_force_cap(monkeypatch):
    # a brute force one off the optimum is caught at the cap, n = 12, and
    # past the cap the brute force is not called at all
    calls = []

    def off_by_one(instance):
        calls.append(instance.n)
        optimum = brute_force_optimal(instance)
        return Matching(optimum.assignment, optimum.cost + 1)

    monkeypatch.setattr(experiment, "brute_force_optimal", off_by_one)
    at_cap = gen_uniform(BRUTE_FORCE_MAX_N, (0, 100), 1, integer_mode=True)
    with pytest.raises(ExperimentError, match="oracle disagreement"):
        run_instance(at_cap, "lr", instance_id="at-cap")
    past_cap = gen_uniform(BRUTE_FORCE_MAX_N + 1, (0, 100), 1, integer_mode=True)
    report, _ = run_instance(past_cap, "lr", instance_id="past-cap")
    assert report.ratio == 1
    assert calls == [BRUTE_FORCE_MAX_N]


def test_emit_csv_schema(tmp_path):
    inst = gen_uniform(3, (0, 9), 0, integer_mode=True, request_range="span")
    reports = run_all("lr", [("a", 0, inst)])
    out = tmp_path / "r.csv"
    emit_report(reports, out, "csv")
    rows = list(csv.reader(out.read_text().splitlines()))
    # the column order is part of the report format
    assert rows[0] == [
        "instance_id",
        "algo",
        "k",
        "cost",
        "opt_cost",
        "ratio",
        "oracle_bits_read",
        "aux_bits",
        "seed",
        "wall_time_ms",
    ]
    assert rows[0] == list(REPORT_COLUMNS)
    assert len(rows) == 2


def test_emit_empty_reports(tmp_path):
    csv_path = tmp_path / "empty.csv"
    emit_report([], csv_path, "csv")
    assert list(csv.reader(csv_path.read_text().splitlines())) == [list(REPORT_COLUMNS)]
    json_path = tmp_path / "empty.json"
    emit_report([], json_path, "json")
    assert json.loads(json_path.read_text()) == []


def test_emit_refuses_an_unknown_format(tmp_path):
    with pytest.raises(ExperimentError, match="unknown report format 'xml'"):
        emit_report([], tmp_path / "r.xml", "xml")
    assert not (tmp_path / "r.xml").exists()


def test_json_report_round_trip(tmp_path):
    inst = gen_uniform(4, (0, 12), 5, integer_mode=True, request_range="span")
    reports = run_all("lr", [("rt", 5, inst)]) + [
        # a positive cost on a zero optimum: the one ratio that is not finite
        RunReport("inf", "greedy", None, 2.5, 0, float("inf"), 0, 0, None, 0.0)
    ]
    out = tmp_path / "r.json"
    emit_report(reports, out, "json")
    back = load_report(out)
    assert back == reports
    assert isinstance(back[0], RunReport)


def test_reports_are_reproducible():
    strip = lambda r: (r.instance_id, r.cost, r.opt_cost, r.oracle_bits_read)
    reports_a = run_all("lr", uniform(5, range(5), integer_mode=True))
    reports_b = run_all("lr", uniform(5, range(5), integer_mode=True))
    assert list(map(strip, reports_a)) == list(map(strip, reports_b))


# --- CLI ---


def test_cli_gen_uniform_writes_instance(tmp_path):
    out = tmp_path / "inst.json"
    code = main(
        ["gen", "--mode", "uniform", "--n", "4", "--seed", "3", "--integer", "--out", str(out)]
    )
    assert code == 0
    inst = load_instance(out)
    assert inst.n == 4 and inst.integer_mode


@pytest.mark.parametrize("bounds", ["0.9:1.8", "-2.5:3.9", "0:7.5"])
def test_cli_gen_integer_refuses_a_fractional_range(bounds, tmp_path, capsys):
    # truncating the bounds would draw from another range: [0, 1] for 0.9:1.8
    out = tmp_path / "inst.json"
    args = ["gen", "--mode", "uniform", "--n", "4", "--integer", f"--range={bounds}"]
    assert main([*args, "--out", str(out)]) == 2
    assert "integral bounds" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("integer", [False, True])
@pytest.mark.parametrize("bounds", ["0:inf", "-inf:0", "nan:1"])
def test_cli_gen_refuses_a_non_finite_range(bounds, integer, tmp_path, capsys):
    # `--range 0:inf --integer` used to print OverflowError, without
    # --integer an InstanceError after drawing
    out = tmp_path / "inst.json"
    args = ["gen", "--mode", "uniform", "--n", "3", f"--range={bounds}"]
    assert main([*args, *["--integer"] * integer, "--out", str(out)]) == 2
    assert "error: GeneratorError: position range is not finite" in capsys.readouterr().err
    assert not out.exists()


def test_python_m_matchline_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-m", "matchline", "verify", "--suite", "family", "--n", "3"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith("all checks passed\n")


def test_cli_gen_family_writes_directory(tmp_path):
    out = tmp_path / "family"
    assert main(["gen", "--mode", "family", "--n", "4", "--out", str(out)]) == 0
    files = sorted(out.glob("member_*.json"))
    assert len(files) == 8
    assert load_instance(files[0]).servers == (1, 2, 3, 4)


@pytest.mark.parametrize(
    "option",
    [["--seed", "9"], ["--seed", "0"], ["--range", "0.5:2"], ["--integer"], ["--in-span"]],
)
def test_cli_gen_family_refuses_uniform_options(option, tmp_path, capsys):
    # the family mode writes every member of I_n, so it would read none of them
    out = tmp_path / "family"
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--mode", "family", "--n", "3", *option, "--out", str(out)])
    assert exc.value.code == 2
    assert f"takes no {option[0]}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_run_lr_with_report(tmp_path, capsys):
    inst_path = tmp_path / "i.json"
    save_instance(validate_instance([1, 2, 3, 4], [3, 3, 1, 4]), inst_path)
    report = tmp_path / "out.json"
    code = main(
        ["run", "--algo", "lr", "--input", str(inst_path), "--report", str(report)]
    )
    assert code == 0
    assert "cost=1" in capsys.readouterr().out
    assert load_report(report)[0].cost == 1


def test_cli_run_divide_verbose_tape(tmp_path, capsys):
    inst_path = tmp_path / "i.json"
    save_instance(validate_instance([1, 2, 3, 4], [3, 3, 1, 4]), inst_path)
    code = main(
        ["run", "--algo", "divide", "--k", "2", "--sub", "clairvoyant",
         "--input", str(inst_path), "--verbose-tape"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "6a" in out  # the 7-bit advice tape in hex
    assert "q[2,L]" in out


def test_cli_verbose_tape_runs_the_algorithm_once(tmp_path, capsys, monkeypatch):
    calls = []
    divide_run = experiment.divide_run

    def counted(*args, **kwargs):
        calls.append(args)
        return divide_run(*args, **kwargs)

    monkeypatch.setattr(experiment, "divide_run", counted)
    inst_path = tmp_path / "i.json"
    save_instance(validate_instance([1, 2, 3, 4], [3, 3, 1, 4]), inst_path)
    code = main(
        ["run", "--algo", "divide", "--k", "2", "--sub", "clairvoyant",
         "--input", str(inst_path), "--verbose-tape"]
    )
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert len(calls) == 1
    # the one boundary's q word (q[2,L] = 3 as its offset from p_{-1} = 0),
    # then its d/m pair
    assert [(line.split()[0], line.split()[-1]) for line in lines[2:]] == [
        ("q[2,L]", "value=3"),
        ("d[2,L]", "value=1"),
        ("m[2,L]", "value=1"),
    ]


def test_cli_rescale_verbose_tape_lists_scaled_words(tmp_path, capsys, monkeypatch):
    calls = []
    rescale_run = experiment.rescale_run

    def counted(*args, **kwargs):
        calls.append(args)
        return rescale_run(*args, **kwargs)

    monkeypatch.setattr(experiment, "rescale_run", counted)
    inst_path = tmp_path / "i.json"
    save_instance(validate_instance([0.5, 2.5], [2.0, 2.25]), inst_path)
    code = main(
        ["run", "--algo", "rescale", "--k", "2", "--input", str(inst_path), "--verbose-tape"]
    )
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert len(calls) == 1
    assert lines[0].startswith("rescale: cost=1.75 opt=1.75")
    # words in the n^3-scaled coordinates: the request at 2.0 plans at
    # 8 * 1.5 + 1 = 13, above p_0 = 9, and crosses left; its offset from
    # p_{-1} = 0 is 13
    assert [(line.split()[0], line.split()[-1]) for line in lines[2:]] == [
        ("q[2,L]", "value=13"),
        ("d[2,L]", "value=0"),
        ("m[2,L]", "value=1"),
    ]


def test_cli_verbose_tape_widths_sum_to_the_advice_bits(tmp_path, capsys):
    # one row per boundary, crossed or not (q[4|5,-]), then the d/m rows
    inst_path = tmp_path / "i.json"
    save_instance(
        gen_uniform(12, (0, 50), 4, integer_mode=True, request_range="span"), inst_path
    )
    code = main(
        ["run", "--algo", "divide", "--k", "5", "--sub", "clairvoyant",
         "--input", str(inst_path), "--verbose-tape"]
    )
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    bits = int(lines[0].split("advice_bits=")[1].split()[0])
    rows = [line.split() for line in lines[2:]]
    q_rows = [row[0] for row in rows if row[0].startswith("q[")]
    assert len(q_rows) == 4 and "q[4|5,-]" in q_rows
    widths = [int(line.split("width=")[1].split()[0]) for line in lines[2:]]
    assert sum(widths) == bits == 33


@pytest.mark.parametrize("algo, k", [("divide", 3), ("divide", 7), ("rescale", 5)])
def test_cli_verbose_tape_rows_hold_their_bounds(tmp_path, capsys, algo, k):
    # every row is w(bound) bits wide and its value lies within the bound
    inst_path = tmp_path / "i.json"
    save_instance(gen_uniform(20, (0, 30), 2, integer_mode=True), inst_path)
    code = main(["run", "--algo", algo, "--k", str(k), "--input", str(inst_path), "--verbose-tape"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    rows = [dict(re.findall(r"(\w+)= *(\d+)", line)) for line in lines[2:]]
    assert len(rows) > k - 1  # some boundary is crossed
    for row in rows:
        width, bound, value = int(row["width"]), int(row["bound"]), int(row["value"])
        assert width == word_width(bound)
        assert 0 <= value <= bound


@pytest.mark.parametrize("algo", ["lr", "greedy", "permutation"])
def test_cli_run_refuses_k_for_advice_free_algorithms(tmp_path, capsys, algo):
    inst_path = tmp_path / "i.json"
    save_instance(validate_instance([1, 2, 3, 4], [3, 3, 1, 4]), inst_path)
    report = tmp_path / "r.json"
    code = main(
        ["run", "--algo", algo, "--k", "3", "--input", str(inst_path),
         "--report", str(report)]
    )
    assert code == 2
    assert not report.exists()
    assert "takes no k" in capsys.readouterr().err


@pytest.mark.parametrize("algo", ["lr", "greedy", "permutation"])
@pytest.mark.parametrize(
    "option", [["--sub", "clairvoyant"], ["--sub", "greedy"], ["--verbose-tape"]]
)
def test_cli_run_refuses_block_options_for_advice_free_algorithms(
    tmp_path, capsys, algo, option
):
    inst_path = tmp_path / "i.json"
    save_instance(validate_instance([1, 2, 3, 4], [3, 3, 1, 4]), inst_path)
    report = tmp_path / "r.json"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--algo", algo, *option, "--input", str(inst_path), "--report", str(report)])
    assert exc.value.code == 2
    assert not report.exists()
    assert f"takes no {option[0]}" in capsys.readouterr().err


def test_cli_run_csv_report(tmp_path):
    inst_path = tmp_path / "i.json"
    save_instance(gen_uniform(4, (0, 12), 2, integer_mode=True), inst_path)
    report = tmp_path / "out.csv"
    code = main(
        ["run", "--algo", "greedy", "--input", str(inst_path),
         "--report", str(report), "--format", "csv"]
    )
    assert code == 0
    rows = list(csv.reader(report.read_text().splitlines()))
    assert rows[0] == list(REPORT_COLUMNS)


def test_cli_report_reformats(tmp_path):
    inst_path = tmp_path / "i.json"
    save_instance(gen_uniform(3, (0, 9), 1, integer_mode=True), inst_path)
    json_report = tmp_path / "r.json"
    main(["run", "--algo", "lr", "--input", str(inst_path), "--report", str(json_report)])
    csv_report = tmp_path / "r.csv"
    code = main(
        ["report", "--input", str(json_report), "--format", "csv", "--out", str(csv_report)]
    )
    assert code == 0
    assert list(csv.reader(csv_report.read_text().splitlines()))[0] == list(REPORT_COLUMNS)


@pytest.mark.parametrize(
    "text",
    ["{}", '{"servers": [1, 2], "requests": [2, 1]}', "[1]", '[{"cost": 1}]', "nope"],
)
def test_cli_report_refuses_a_file_that_is_not_a_report(tmp_path, capsys, text):
    # a list of objects with exactly the report's columns, or an error; {}
    # used to write a header-only CSV, the rest ended in a bare
    # TypeError or JSONDecodeError
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    out = tmp_path / "r.csv"
    assert main(["report", "--input", str(bad), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ExperimentError: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "algo, options",
    [("lr", []), ("greedy", []), ("permutation", []),
     ("divide", ["--k", "2"]), ("rescale", ["--k", "2", "--sub", "clairvoyant"])],
)
def test_cli_run_report_round_trips(algo, options, tmp_path):
    inst_path = tmp_path / "i.json"
    save_instance(gen_uniform(6, (0, 10), 3, integer_mode=True), inst_path)
    report = tmp_path / "r.json"
    args = ["run", "--algo", algo, *options, "--input", str(inst_path), "--report", str(report)]
    assert main(args) == 0
    again = tmp_path / "again.json"
    emit_report(load_report(report), again)
    assert again.read_text() == report.read_text()


GOOD_ROW = {
    "instance_id": "i", "algo": "divide", "k": 2, "cost": 3, "opt_cost": 2.5,
    "ratio": 1.2, "oracle_bits_read": 4, "aux_bits": 0, "seed": 7, "wall_time_ms": 0.5,
}
BAD_VALUES = [
    ("instance_id", 3), ("algo", "magic"), ("k", "many"), ("k", 0), ("k", True),
    ("cost", "cheap"), ("cost", float("nan")), ("opt_cost", False), ("ratio", []),
    ("ratio", float("-inf")), ("oracle_bits_read", -3), ("aux_bits", 1.0),
    ("seed", "7"), ("wall_time_ms", -0.5),
]


@pytest.mark.parametrize(
    "row, column",
    [
        ({**GOOD_ROW, "algo": "magic", "k": "many", "cost": "cheap", "ratio": [],
          "oracle_bits_read": -3}, "algo"),
        *(({**GOOD_ROW, column: value}, column) for column, value in BAD_VALUES),
    ],
    ids=["many-bad-values", *(f"{column}={value!r}" for column, value in BAD_VALUES)],
)
def test_cli_report_refuses_a_row_whose_values_do_not_fit(row, column, tmp_path, capsys):
    # a row with the report's keys used to load whatever its values were, and
    # report wrote them into the CSV
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([GOOD_ROW, row]))
    out = tmp_path / "r.csv"
    assert main(["report", "--input", str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ExperimentError: ")
    assert f"row 1 has a bad {column}: " in err
    assert not out.exists()


def test_cli_run_refuses_a_format_without_a_report(tmp_path, capsys):
    inst_path = tmp_path / "i.json"
    save_instance(validate_instance([1, 2, 3, 4], [3, 3, 1, 4]), inst_path)
    with pytest.raises(SystemExit) as exc:
        main(["run", "--algo", "lr", "--input", str(inst_path), "--format", "csv"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert "usage: matchline run" in err
    assert "takes no --format" in err


def test_cli_verify_passes(capsys):
    code = main(["verify", "--suite", "family", "--n", "4"])
    assert code == 0
    assert "all checks passed" in capsys.readouterr().out


def test_cli_verify_failure_exits_one(monkeypatch, capsys):
    from matchline import verification

    monkeypatch.setattr(
        verification, "verify_family_suite", lambda **kwargs: 3
    )
    code = main(["verify", "--suite", "family", "--n", "4"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize(
    "grid",
    [
        ["--suite", "lr-optimal", "--n", "1"],
        ["--suite", "props", "--seeds", "0"],
        ["--suite", "family", "--seeds", "3"],
    ],
)
def test_cli_verify_empty_grid_is_a_usage_error(grid, capsys):
    # such a grid checks nothing, or sets seeds the family suite (which checks
    # every member) never reads, so "all checks passed" would mean nothing
    with pytest.raises(SystemExit) as exc:
        main(["verify", *grid])
    assert exc.value.code == 2
    assert "all checks passed" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "suite, n",
    [("lr-optimal", BRUTE_FORCE_MAX_N + 1), ("divide-exact", BRUTE_FORCE_MAX_N + 1),
     ("props", ENUMERATION_MAX_N + 1), ("family", VERIFY_FAMILY_MAX_N + 1)],
)
def test_cli_verify_rejects_sizes_past_the_suite_cap(suite, n, capsys):
    # the brute-force optimum, the literal enumeration of all n! assignments
    # (props) and the family's verification each stop at a cap; an --n one
    # past it fails before any size is checked
    assert main(["verify", "--suite", suite, "--n", str(n)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "too large" in err


def test_cli_verify_usage_error_shows_the_verify_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "family", "--seeds", "3"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("usage: matchline verify ")
    assert "matchline verify: error: the family suite" in err


@pytest.mark.parametrize(
    "suite, name",
    [("lr-optimal", "verify_lr_optimal"), ("divide-exact", "verify_divide_exact"),
     ("props", "verify_order_properties")],
)
def test_cli_verify_seeded_suites_default_to_50_seeds(monkeypatch, suite, name):
    from matchline import cli, verification

    assert cli.SEEDED_SUITES[suite] is getattr(verification, name)
    calls = []
    monkeypatch.setitem(cli.SEEDED_SUITES, suite, lambda **kwargs: calls.append(kwargs) or 0)
    assert main(["verify", "--suite", suite, "--n", "3"]) == 0
    assert main(["verify", "--suite", suite, "--n", "3", "--seeds", "7"]) == 0
    assert [c["seeds"] for c in calls] == [50, 7]


def test_verify_family_suite_checks_the_top_server_at_every_n():
    lines = []
    assert verification.verify_family_suite(n_max=10, log=lines.append) == 0
    assert "  family n=10: 512 members, 0 failures" in lines


def test_verify_divide_exact_counts_each_failed_check(monkeypatch):
    from matchline import verification

    assert verification.verify_divide_exact(n_max=5, seeds=3) == 0
    assert main(["verify", "--suite", "divide-exact", "--n", "4", "--seeds", "2"]) == 0
    monkeypatch.setattr(verification, "divide_is_exact", lambda result, opt: False)
    # one failed cost check per (n, k, seed): k = 1..n for n = 2 and 3
    assert verification.verify_divide_exact(n_max=3, seeds=2) == 2 * (2 + 3)


def test_cli_missing_input_exits_two(tmp_path):
    assert main(["run", "--algo", "lr", "--input", str(tmp_path / "nope.json")]) == 2


def test_cli_malformed_instance_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["run", "--algo", "lr", "--input", str(bad)]) == 2


def test_cli_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--algo", "quantum", "--input", "x"])
    assert exc.value.code == 2


def test_cli_bad_range_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--mode", "uniform", "--n", "3", "--range", "abc", "--out", "x"])
    assert exc.value.code == 2


@pytest.mark.parametrize("error", [LRError, SubroutineError, TapeUnderflow, KeyError])
def test_cli_internal_error_exits_two(tmp_path, monkeypatch, capsys, error):
    def broken(*args, **kwargs):
        raise error("boom")

    inst_path = tmp_path / "inst.json"
    save_instance(gen_uniform(4, (0, 12), 1, integer_mode=True), inst_path)
    monkeypatch.setattr(experiment, "run_algorithm", broken)
    assert main(["run", "--algo", "lr", "--input", str(inst_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_run_lr_on_large_float_coordinates(tmp_path, capsys):
    # the two offline optima agree only up to rounding at 1e15; an absolute
    # tolerance read that as an oracle disagreement and exited 2
    inst_path = tmp_path / "big.json"
    save_instance(gen_uniform(6, (0.0, 1e15), 11), inst_path)
    assert main(["run", "--algo", "lr", "--input", str(inst_path)]) == 0
    assert "ratio=1" in capsys.readouterr().out


def test_experiment_cross_check_on_large_float_coordinates():
    reports = run_all("lr", uniform(6, range(30), (0.0, 1e15), integer_mode=False))
    assert len(reports) == 30
    assert all(r.oracle_bits_read <= 5 for r in reports)


def test_public_names_resolve():
    import matchline

    assert len(set(matchline.__all__)) == len(matchline.__all__)
    # the public API, pinned: adding or removing a name is a deliberate edit
    assert set(matchline.__all__) == {
        "DivideResult",
        "Instance",
        "InstanceError",
        "LRResult",
        "Matching",
        "RunReport",
        "brute_force_optimal",
        "divide_run",
        "emit_report",
        "gen_family",
        "gen_uniform",
        "load_instance",
        "lr_oracle",
        "lr_run",
        "make_subroutine",
        "monotone_optimal",
        "rescale_run",
        "run_algorithm",
        "run_instance",
        "save_instance",
        "validate_instance",
    }
    for name in matchline.__all__:
        assert getattr(matchline, name) is not None
