import csv
import json

import pytest

from matchline.cli import main
from matchline.experiment import (
    ALGORITHMS,
    REPORT_COLUMNS,
    ExperimentConfig,
    ExperimentError,
    RunReport,
    emit_report,
    load_report,
    run_algorithm,
    run_experiment,
)
from matchline.generators import gen_uniform
from matchline.lr import LRError
from matchline.model import load_instance, save_instance, validate_instance
from matchline.subroutines import SubroutineError
from matchline.tape import TapeUnderflow


def test_lr_on_family_is_optimal():
    config = ExperimentConfig.family("lr", 6)
    reports = run_experiment(config)
    assert len(reports) == 32
    assert all(r.ratio == 1 for r in reports)
    assert all(r.oracle_bits_read <= 5 for r in reports)


def test_divide_with_singleton_blocks_is_optimal():
    config = ExperimentConfig.uniform(
        "divide",
        8,
        range(10),
        integer_mode=True,
        request_range="span",
        k=8,
        subroutine="greedy",
    )
    reports = run_experiment(config)
    assert all(r.ratio == 1 for r in reports)


def test_greedy_ratios_at_least_one():
    config = ExperimentConfig.uniform("greedy", 8, range(50), integer_mode=True)
    reports = run_experiment(config)
    assert all(r.ratio >= 1 for r in reports)
    assert max(r.ratio for r in reports) >= 1


def test_ratio_is_one_when_cost_and_opt_are_zero():
    inst = validate_instance([1, 2], [2, 1])
    config = ExperimentConfig("lr", instances=[("zero", None, inst)])
    (report,) = run_experiment(config)
    assert report.cost == report.opt_cost == 0
    assert report.ratio == 1


def test_run_algorithm_names():
    inst = gen_uniform(4, (0, 12), 1, integer_mode=True, request_range="span")
    for algo in ALGORITHMS:
        outcome = run_algorithm(inst, algo, k=2, subroutine="clairvoyant")
        assert outcome["cost"] >= 0
    with pytest.raises(ExperimentError):
        run_algorithm(inst, "magic")


def test_config_validation():
    with pytest.raises(ExperimentError):
        ExperimentConfig("divide", instances=[("x", None, None)]).validate()
    with pytest.raises(ExperimentError):
        ExperimentConfig("lr").validate()
    with pytest.raises(ExperimentError):
        ExperimentConfig("magic", instances=[("x", None, None)]).validate()


def test_emit_csv_schema(tmp_path):
    inst = gen_uniform(3, (0, 9), 0, integer_mode=True, request_range="span")
    config = ExperimentConfig("lr", instances=[("a", 0, inst)])
    reports = run_experiment(config)
    out = tmp_path / "r.csv"
    emit_report(reports, out, "csv")
    rows = list(csv.reader(out.open()))
    assert rows[0] == list(REPORT_COLUMNS)
    assert len(rows) == 2


def test_emit_empty_reports(tmp_path):
    csv_path = tmp_path / "empty.csv"
    emit_report([], csv_path, "csv")
    assert list(csv.reader(csv_path.open())) == [list(REPORT_COLUMNS)]
    json_path = tmp_path / "empty.json"
    emit_report([], json_path, "json")
    assert json.loads(json_path.read_text()) == []


def test_json_report_round_trip(tmp_path):
    inst = gen_uniform(4, (0, 12), 5, integer_mode=True, request_range="span")
    config = ExperimentConfig("lr", instances=[("rt", 5, inst)])
    reports = run_experiment(config)
    out = tmp_path / "r.json"
    emit_report(reports, out, "json")
    back = load_report(out)
    assert back == reports
    assert isinstance(back[0], RunReport)


def test_reports_are_reproducible():
    config_a = ExperimentConfig.uniform("lr", 5, range(5), integer_mode=True)
    config_b = ExperimentConfig.uniform("lr", 5, range(5), integer_mode=True)
    strip = lambda r: (r.instance_id, r.cost, r.opt_cost, r.oracle_bits_read)
    assert list(map(strip, run_experiment(config_a))) == list(
        map(strip, run_experiment(config_b))
    )


# --- CLI ---


def test_cli_gen_uniform_writes_instance(tmp_path):
    out = tmp_path / "inst.json"
    code = main(
        ["gen", "--mode", "uniform", "--n", "4", "--seed", "3", "--integer", "--out", str(out)]
    )
    assert code == 0
    inst = load_instance(out)
    assert inst.n == 4 and inst.integer_mode


def test_cli_gen_family_writes_directory(tmp_path):
    out = tmp_path / "family"
    assert main(["gen", "--mode", "family", "--n", "4", "--out", str(out)]) == 0
    files = sorted(out.glob("member_*.json"))
    assert len(files) == 8
    assert load_instance(files[0]).servers == (1, 2, 3, 4)


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
    assert "749" in out  # the 12-bit advice tape in hex
    assert "q[2,L]" in out


def test_cli_run_csv_report(tmp_path):
    inst_path = tmp_path / "i.json"
    save_instance(gen_uniform(4, (0, 12), 2, integer_mode=True), inst_path)
    report = tmp_path / "out.csv"
    code = main(
        ["run", "--algo", "greedy", "--input", str(inst_path),
         "--report", str(report), "--format", "csv"]
    )
    assert code == 0
    rows = list(csv.reader(report.open()))
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
    assert list(csv.reader(csv_report.open()))[0] == list(REPORT_COLUMNS)


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
    from matchline import experiment

    def broken(*args, **kwargs):
        raise error("boom")

    inst_path = tmp_path / "inst.json"
    save_instance(gen_uniform(4, (0, 12), 1, integer_mode=True), inst_path)
    monkeypatch.setattr(experiment, "run_algorithm", broken)
    assert main(["run", "--algo", "lr", "--input", str(inst_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
