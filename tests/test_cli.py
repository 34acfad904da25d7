import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from dytb import accretive, cli, grid, kernels, verify
from dytb.cli import main
from dytb.accretive import AccretiveSystem
from dytb.corona import (
    CoronaForest,
    build_corona,
    choose_delta,
    forest_to_json_dict,
    packing_ratio,
)
from dytb.grid import GridSpec
from dytb.kernels import adjoint, generate_kernel, kernel_to_json_dict, load_kernel
from dytb.verify import ExperimentConfig, _run_trial, operator_norm
from dytb.verify import testing_constant as measure_tloc
import make_cli_golden
from make_cli_golden import changed_names, cli_hashes, read_golden


def test_gen_kernel_then_validate(tmp_path, capsys):
    out = tmp_path / "k.json"
    assert main(["gen-kernel", "--kind", "zero", "--dim", "1", "--depth", "4",
                 "--out", str(out)]) == 0
    assert main(["validate", "--kernel", str(out)]) == 0
    text = capsys.readouterr().out
    assert "operator norm" in text and "0.0" in text


def test_validate_norm_methods(tmp_path, capsys):
    out = tmp_path / "k.json"
    assert main(["gen-kernel", "--dim", "1", "--depth", "9", "--seed", "4",
                 "--out", str(out)]) == 0
    kernel = load_kernel(out)
    for flag, method in (("auto", "lanczos"), ("lanczos", "lanczos"),
                         ("dense-svd", "dense-svd")):
        capsys.readouterr()
        assert main(["validate", "--kernel", str(out), "--norm-method", flag]) == 0
        text = capsys.readouterr().out
        assert f"operator norm ({method}) = {operator_norm(kernel, method)!r}" in text
    assert main(["validate", "--kernel", str(out), "--norm-method", "power"]) == 2


def test_internal_error_is_not_a_config_error(tmp_path, capsys, monkeypatch):
    out = tmp_path / "k.json"
    assert main(["gen-kernel", "--dim", "1", "--depth", "5", "--out", str(out)]) == 0

    def unconverged(kernel, method):
        return operator_norm(kernel, "lanczos", max_steps=2)

    monkeypatch.setattr(cli, "operator_norm", unconverged)
    capsys.readouterr()
    assert main(["validate", "--kernel", str(out)]) == cli.EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err.startswith("internal error:") and "did not converge in 2 steps" in err

    def broken(args):
        raise RuntimeError("generator bug: mean of b_Q off")

    monkeypatch.setattr(cli, "cmd_validate", broken)
    assert main(["validate", "--kernel", str(out)]) == cli.EXIT_INTERNAL
    assert capsys.readouterr().err == "internal error: generator bug: mean of b_Q off\n"


def test_broken_forest_invariant_is_an_internal_error(tmp_path, capsys, monkeypatch):
    # a forest the trial itself built that fails its block check is a program fault
    def unsafe(levels, system, delta):
        raise ValueError("denominator safety fails at Q(1; 0)")

    monkeypatch.setattr(verify, "_check_blocks", unsafe)
    capsys.readouterr()
    assert main(["tb-experiment", "--trials", "1", "--dim", "1", "--depth", "3",
                 "--out", str(tmp_path / "r.csv")]) == cli.EXIT_INTERNAL
    assert capsys.readouterr().err == (
        "internal error: corona family S_1 breaks a block invariant: "
        "denominator safety fails at Q(1; 0)\n")
    # dytb identities checks the same invariants before it prints a residual
    assert main(["identities", "--dim", "1", "--depth", "3"]) == cli.EXIT_INTERNAL
    out = capsys.readouterr()
    assert out.out == "" and out.err == (
        "internal error: corona family S_1 breaks a block invariant: "
        "denominator safety fails at Q(1; 0)\n")


def test_validate_rejects_oversized_entry(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "dim": 1, "depth": 1,
        "entries": [{"level": 0, "coords": [0], "i": 0, "j": 1, "value": 1.5}],
    }))
    assert main(["validate", "--kernel", str(path)]) == 1
    assert "VIOLATED" in capsys.readouterr().out


def test_malformed_kernel_file_is_a_config_error(tmp_path, capsys):
    entry = {"level": 0, "coords": [0], "i": 0, "j": 1, "value": 0.5}
    for bad, message in (([{k: v for k, v in entry.items() if k != "value"}], "lacks 'value'"),
                         ([entry, dict(entry, value=-0.5)], "repeats level 0")):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 1, "depth": 1, "entries": bad}))
        for argv in (["corona", "--dim", "1", "--depth", "1", "--kernel", str(path)],
                     ["validate", "--kernel", str(path)]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error:") and message in err


ENTRY = {"level": 0, "coords": [0], "i": 0, "j": 1, "value": 0.5}


@pytest.mark.parametrize("text, message", [
    (json.dumps({"dim": 1, "depth": 1, "entries": [dict(ENTRY, level=0.5)]}),
     "kernel entry 0 has level 0.5, not a 64-bit integer"),
    (json.dumps({"dim": 1, "depth": 1, "entries": [dict(ENTRY, i=1.9)]}),
     "kernel entry 0 has i 1.9, not a 64-bit integer"),
    (json.dumps({"dim": 1, "depth": 1, "entries": [dict(ENTRY, coords=[0.7])]}),
     "kernel entry 0 has coords [0.7], not a list of 64-bit integers"),
    (json.dumps({"dim": 1.9, "depth": 3.7, "entries": []}), "kernel file has dim 1.9, not an integer"),
    (json.dumps({"dim": 1, "depth": 1, "entries": [dict(ENTRY, level=True)]}),
     "kernel entry 0 has level True, not a 64-bit integer"),
    (json.dumps([{"dim": 1, "depth": 1, "entries": []}]),
     "kernel file holds [{'depth': 1, 'dim': 1, 'entries': []}], not an object"),
    (json.dumps({"dim": 1, "depth": 1, "entries": [ENTRY, 3]}), "kernel entry 1 is 3, not an object"),
    (json.dumps({"dim": 1, "depth": 1, "entries": [dict(ENTRY, coords=0)]}),
     "kernel entry 0 has coords 0, not a list of 64-bit integers"),
    (json.dumps({"dim": 1, "depth": 1, "entries": None}), "kernel file has entries None, not a list"),
    # neither check builds 2^level or 2^(dim*depth)
    (json.dumps({"dim": 1, "depth": 2, "entries": [dict(ENTRY, level=2**62, coords=[-1])]}),
     f"kernel entry 0 names no cube: coords (-1,) out of range at level {2**62}"),
    (json.dumps({"dim": 1, "depth": 2**40, "entries": []}), f"2^(1*{2**40}) cells exceed the cell cap 1048576"),
])
def test_kernel_file_of_another_shape_is_a_config_error(tmp_path, capsys, text, message):
    # each of these once loaded as a truncated kernel or ended in a TypeError or MemoryError traceback
    path = tmp_path / "bad.json"
    path.write_text(text)
    for argv in (["validate", "--kernel", str(path)],
                 ["corona", "--dim", "1", "--depth", "1", "--kernel", str(path)]):
        assert main(argv) == 2, argv
        assert capsys.readouterr() == ("", f"config error: {path}: {message}\n")


def test_kernel_file_syntax_error_names_its_line(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 1,\n "depth": }')
    assert main(["validate", "--kernel", str(path)]) == 2
    assert capsys.readouterr().err == f"config error: {path}:2:11: Expecting value\n"


REPORT_ROW = {"trial": 0, "seed": 1, "ok": True, "ratio": 0.5}


@pytest.mark.parametrize("name, text, message", [
    ("r.json", json.dumps({"reports": []}), "a report is a JSON object with 'config' and 'reports'"),
    ("r.json", json.dumps({"config": {}}), "a report is a JSON object with 'config' and 'reports'"),
    ("r.json", json.dumps([REPORT_ROW]), "a report is a JSON object with 'config' and 'reports'"),
    ("r.json", json.dumps({"config": {}, "reports": [REPORT_ROW, {"trial": 1, "seed": 2, "ok": True}]}),
     "report row 1 has no number 'ratio'"),
    ("r.json", json.dumps({"config": {}, "reports": [dict(REPORT_ROW, ratio="0.5")]}),
     "report row 0 has no number 'ratio'"),
    ("r.json", json.dumps({"config": {}, "reports": [dict(REPORT_ROW, ok=1)]}), "report row 0 has no flag 'ok'"),
    ("r.json", json.dumps({"config": {}, "reports": {}}), "report 'reports' is not a list"),
    ("r.csv", "a,b\n1,2\n", "report row 0 lacks 'trial'"),
    ("r.csv", "# config: {}\ntrial,seed,operator_norm,tloc,ratio,delta\n0,1,1.0,1.0,0.5,0.5\n",
     "report row 0 lacks 'ok'"),
    ("r.csv", "trial,seed,ok,operator_norm,tloc,ratio,delta\n0,1,1,1.0,1.0,0.5,0.5\n0,1,1,1.0,1.0,0.5\n",
     "report row 1 lacks 'delta'"),
    # an ok cell is 0 or 1, nothing else; a cell past the header is an error, not dropped
    ("r.csv", "trial,seed,ok,operator_norm,tloc,ratio,delta\n0,1,1,1.0,1.0,0.5,0.5\n1,2,yes,1.0,1.0,0.5,0.5\n",
     "report row 1 has no flag 'ok'"),
    ("r.csv", "trial,seed,ok,operator_norm,tloc,ratio,delta\n0,1,,1.0,1.0,0.5,0.5\n", "report row 0 has no flag 'ok'"),
    ("r.csv", "trial,seed,ok,operator_norm,tloc,ratio,delta\n0,1,0,1.0,1.0,0.5,0.5,7\n",
     "report row 0 has 8 cells, past the header's 7 columns"),
    ("r.csv", "trial,seed,ok,operator_norm,tloc,ratio,delta\n0,x,0,1.0,1.0,0.5,0.5\n",
     "report row 0 has no integer 'seed'"),
    ("r.csv", "trial,seed,ok,operator_norm,tloc,ratio,delta\n0,1,0,1.0,1.0,0.5,half\n",
     "report row 0 has no number 'delta'"),
])
def test_report_input_of_another_shape_is_a_config_error(tmp_path, capsys, name, text, message):
    # each of these once ended in a KeyError or TypeError traceback, exit 1
    path = tmp_path / name
    path.write_text(text)
    assert main(["report", "--in", str(path)]) == 2
    assert capsys.readouterr() == ("", f"config error: {path}: {message}\n")


@pytest.mark.parametrize("name, text, where", [
    ("r.json", '{"config": {},\n "reports": }', "2:13"),
    ("r.json", "", "1:1"),
    ("r.csv", '# dytb 0\n# config: {"a": }\ntrial,seed,ok,operator_norm,tloc,ratio,delta\n', "2:17"),
])
def test_report_input_syntax_error_names_its_file_and_line(tmp_path, capsys, name, text, where):
    path = tmp_path / name
    path.write_text(text)
    assert main(["report", "--in", str(path)]) == 2
    assert capsys.readouterr() == ("", f"config error: {path}:{where}: Expecting value\n")


def test_report_csv_flags_read_back_as_written(tmp_path, capsys):
    path = tmp_path / "r.csv"
    path.write_text("trial,seed,ok,operator_norm,tloc,ratio,delta\n"
                    "0,1,1,1.0,2.0,0.5,0.25\n1,2,0,1.0,2.0,0.75,\n")
    assert [row["ok"] for row in cli.read_report_csv(path)[1]] == [True, False]
    assert main(["report", "--in", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["n_flagged"] == 1


def test_unreadable_or_unwritable_paths_are_config_errors(tmp_path, capsys):
    missing, nodir = tmp_path / "missing.json", tmp_path / "nodir" / "out.json"
    for argv, path in ((["report", "--in", str(missing.with_suffix(".csv"))], missing.with_suffix(".csv")),
                       (["validate", "--kernel", str(missing)], missing),
                       (["corona", "--kernel", str(missing)], missing),
                       (["gen-kernel", "--depth", "3", "--out", str(nodir)], nodir),
                       (["tb-experiment", "--depth", "3", "--trials", "1", "--out", str(nodir)], nodir)):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("file error:") and str(path) in err, argv


def test_unwritable_report_path_fails_before_any_trial(tmp_path, capsys, monkeypatch):
    # the report and its JSON sibling are checked before the first trial
    def no_trials(config):
        raise AssertionError("a trial ran before the report paths were checked")

    monkeypatch.setattr(cli, "main_theorem_experiment", no_trials)
    (tmp_path / "taken.json").mkdir()
    for out in (tmp_path / "nodir" / "r.csv", tmp_path / "taken.csv"):
        assert main(["tb-experiment", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("file error:"), err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken.json"]  # no file left behind
    kept = tmp_path / "kept.csv"
    kept.write_text("old")
    (tmp_path / "kept.json").mkdir()
    assert main(["tb-experiment", "--out", str(kept)]) == 2
    assert kept.read_text() == "old"
    capsys.readouterr()


def test_counts_are_validated(tmp_path, capsys):
    for argv in (["transform-norm", "--depth", "3", "--restarts", "0"],
                 ["transform-norm", "--depth", "3", "--restarts", "-1"],
                 ["transform-norm", "--depth", "3", "--passes", "-1"],
                 ["tb-experiment", "--depth", "3", "--trials", "-1", "--out", str(tmp_path / "r.csv")]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("config error:"), argv
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags, message", [
    # an explicit delta runs no search, but its packing target is still checked
    (["--delta", "0.3", "--tau-target", "5"], "tau_target must lie in (0, 1), got 5.0"),
    (["--delta", "1.5"], "delta must lie in (0, 1), got 1.5"),
    (["--tau-target", "0"], "tau_target must lie in (0, 1), got 0.0"),
    (["--delta", "nan"], "delta must lie in (0, 1), got nan"),
])
def test_corona_stopping_parameters_are_config_errors(flags, message, capsys):
    assert main(["corona", "--depth", "3", *flags]) == cli.EXIT_CONFIG
    assert capsys.readouterr() == ("", f"config error: {message}\n")


@pytest.mark.parametrize("flags, message", [
    (["--delta", "1.5"], "delta must lie in (0, 1), got 1.5"),
    (["--delta", "0.3", "--tau-target", "5"], "tau_target must lie in (0, 1), got 5.0"),
    (["--tau-target", "5"], "tau_target must lie in (0, 1), got 5.0"),
])
def test_corona_checks_stopping_parameters_before_any_work(monkeypatch, flags, message, capsys):
    # no kernel is generated and no system drawn before the flags are checked
    def no_work(*args, **kwargs):
        raise AssertionError("work done before the stopping parameters were checked")

    for module, name in ((accretive, "draw_levels"), (verify, "draw_levels"), (cli, "generate_kernel")):
        monkeypatch.setattr(module, name, no_work)
    assert main(["corona", "--depth", "16", *flags]) == cli.EXIT_CONFIG
    assert capsys.readouterr() == ("", f"config error: {message}\n")


def test_experiment_tau_target_is_checked_without_trials(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert main(["tb-experiment", "--trials", "0", "--tau-target", "5", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "config error: tau_target must lie in (0, 1), got 5.0\n")
    assert list(tmp_path.iterdir()) == []
    for tau_target in (0.0, 1.0, float("nan")):
        with pytest.raises(ValueError, match=r"tau_target must lie in \(0, 1\)"):
            ExperimentConfig(trials=0, tau_target=tau_target)


@pytest.mark.parametrize("argv, flag, kind", [
    (["corona", "--s", "0.9"], "--s", "random"),
    (["corona", "--accretive-kind", "constant", "--amp", "0.7"], "--amp", "constant"),
    (["transform-norm", "--accretive-kind", "two-value", "--amp", "0.9"], "--amp", "two-value"),
    (["transform-norm", "--accretive-kind", "signed", "--s", "0.2"], "--s", "signed"),
])
def test_parameter_flag_of_another_kind_is_a_config_error(argv, flag, kind, capsys):
    assert main([*argv, "--depth", "3"]) == cli.EXIT_CONFIG
    assert capsys.readouterr() == (
        "", f"config error: {flag} is not a parameter of accretive kind {kind!r}\n")


@pytest.mark.parametrize("command, kind, flags", [
    ("corona", "random", ["--amp", "0.4"]),
    ("corona", "two-value", ["--s", "0.5", "--delta", "0.45"]),
    ("transform-norm", "random", ["--amp", "0.4"]),
    ("transform-norm", "two-value", ["--s", "0.5"]),
])
def test_kind_parameter_flag_defaults(command, kind, flags, capsys):
    # without its flag a kind takes the flag's default: the same bytes as with it
    base = [command, "--depth", "4", "--accretive-kind", kind]
    assert main([*base, *flags]) == 0
    given = capsys.readouterr()
    assert main([*base, *flags[2:]]) == 0
    assert capsys.readouterr() == given


def test_kernel_file_for_another_grid_is_a_config_error(tmp_path, capsys):
    # 1D d8 has the cells of 2D d4, 1D d6 a level too few: both are other grids
    for depth in (8, 6):
        path = tmp_path / f"k{depth}.json"
        assert main(["gen-kernel", "--depth", str(depth), "--out", str(path)]) == 0
        capsys.readouterr()
        assert main(["corona", "--dim", "2", "--depth", "4", "--kernel", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error: grid mismatch")


@pytest.mark.parametrize("argv, exponent", [
    (["corona", "--p1", "1.0000000001"], "1.0000000001"),  # |T b|^q at q = p1' ~ 1e10
    (["identities", "--p1", "1e6"], "p=1000000.0"),
    (["transform-norm", "--p", "1e308"], "p=1e+308"),
    (["corona", "--accretive-kind", "signed", "--p1", "2000"], "p=2000.0"),
    (["corona", "--accretive-kind", "two-value", "--p1", "1e6"], "p=1000000.0"),
    (["identities", "--accretive-kind", "signed", "--p1", "2000", "--A", "1.9"], "p=2000.0"),
    (["identities", "--accretive-kind", "two-value", "--p1", "1e6", "--A", "1.9"], "p=1000000.0"),
    (["corona", "--accretive-kind", "constant", "--p1", "1e6"], "p=1000000.0"),
    (["corona", "--p1", "inf"], "got inf"),
    (["identities", "--p2", "inf"], "got inf"),
])
def test_overflowing_exponents_are_config_errors(argv, exponent, capsys):
    # a power of the exponent past float64 is named, with no warning printed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--depth", "4"]) == 2, argv
    out, err = capsys.readouterr()
    assert err.startswith("config error: ") and exponent in err and "Warning" not in out + err, err


A_OVERFLOW = "constant A=1e+200 is too large for float64 powers: A^p overflows at p=2.0"


@pytest.mark.parametrize("argv, message", [
    (["corona"], A_OVERFLOW),
    (["transform-norm"], A_OVERFLOW),
    (["identities"], A_OVERFLOW),
    (["tb-experiment", "--trials", "1", "--out", "r.csv"], A_OVERFLOW),
    # 2^p overflows too, so the cells' own powers may not fit: the exponent is named
    (["corona", "--p1", "2000"], "exponent p=2000.0 is too large for float64 powers"),
])
def test_overflowing_constant_is_named(argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--depth", "3", "--A", "1e200"]) == cli.EXIT_CONFIG
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"config error: {message}\n")
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("command, config, message", [
    (["corona"], {"depth": 3.5}, "argument --depth: invalid int value: '3.5'"),
    (["corona"], {"depth": True}, "argument --depth: invalid int value: 'true'"),
    (["tb-experiment", "--out", "r.csv"], {"trials": 2.7}, "argument --trials: invalid int value: '2.7'"),
    (["transform-norm"], {"restarts": 1.5}, "argument --restarts: invalid int value: '1.5'"),
    (["corona"], {"dim": 3}, "argument --dim: invalid choice: 3 (choose from 1, 2)"),
])
def test_config_values_parse_like_flags(tmp_path, command, config, message, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    assert main([*command, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.endswith(f"dytb {command[0]}: error: {message}\n")
    assert list(tmp_path.iterdir()) == [cfg]


def test_config_satisfies_required_flags(tmp_path, capsys):
    cfg, report = tmp_path / "c.json", tmp_path / "r.csv"
    cfg.write_text(json.dumps({"out": str(report), "trials": 1, "depth": 3}))
    assert main(["tb-experiment", "--config", str(cfg)]) == 0
    assert report.exists() and report.with_suffix(".json").exists()
    cfg.write_text(json.dumps({"out": None, "depth": 3}))
    assert main(["tb-experiment", "--config", str(cfg)]) == 2
    assert "the following arguments are required: --out" in capsys.readouterr().err


def test_config_null_keeps_the_default_and_numbers_convert_like_flags(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    for config, flags in (({"depth": None, "trials": 1}, ["--trials", "1"]),
                          ({"p1": 2, "depth": "4", "trials": 1}, ["--p1", "2", "--depth", "4", "--trials", "1"])):
        cfg.write_text(json.dumps(config))
        by_file, by_flags = tmp_path / "file.csv", tmp_path / "flags.csv"
        assert main(["tb-experiment", "--config", str(cfg), "--out", str(by_file)]) == 0
        assert main(["tb-experiment", *flags, "--out", str(by_flags)]) == 0
        assert by_file.read_bytes() == by_flags.read_bytes()
    assert '"p1": 2.0' in by_file.read_text().splitlines()[1]
    capsys.readouterr()


def test_identities_prints_residuals(capsys):
    assert main(["identities", "--dim", "1", "--depth", "5", "--seed", "7"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    names = {line.split()[0] for line in lines}
    assert {"representation", "three_term", "delta_decomp", "bilinear_expansion",
            "form_split", "b_above_aggregation", "g_telescoping"} <= names


def test_corona_subcommand(capsys):
    assert main(["corona", "--dim", "1", "--depth", "4", "--seed", "3",
                 "--kernel-kind", "haar-shift", "--accretive-kind", "constant"]) == 0
    text = capsys.readouterr().out
    assert "packing ratio" in text and "Carleson constant" in text and "chosen delta" in text


def test_transform_norm_subcommand(capsys):
    assert main(["transform-norm", "--dim", "1", "--depth", "4", "--seed", "2",
                 "--accretive-kind", "two-value", "--s", "0.8", "--delta", "0.4"]) == 0
    assert "worst transform ratio" in capsys.readouterr().out


def test_transform_norm_overflowing_exponent_is_a_config_error(capsys):
    # the constant system's own powers fit (cells are 1, A^p = 1.5^1000); |transform|^p does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["transform-norm", "--depth", "4", "--accretive-kind", "constant",
                     "--p", "1000"]) == cli.EXIT_CONFIG
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "config error: exponent p=1000.0 is too large for float64 powers\n")


def test_experiment_deterministic_and_report(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["tb-experiment", "--trials", "3", "--dim", "1", "--depth", "4",
            "--seed", "1"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.with_suffix(".json").read_bytes() == out2.with_suffix(".json").read_bytes()
    # headers embed version and resolved config
    head = out1.read_text().splitlines()[:2]
    assert head[0].startswith("# dytb ")
    assert head[1].startswith("# config: ")
    json.loads(head[1].split("config: ", 1)[1])

    summary = tmp_path / "summary.json"
    assert main(["report", "--in", str(out1), "--out", str(summary)]) == 0
    data = json.loads(summary.read_text())
    assert data["n_trials"] == 3 and data["n_ok"] == 3
    assert data["ratio_max"] >= data["ratio_median"]


def test_plot_data_kinds(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert main(["tb-experiment", "--trials", "3", "--dim", "1", "--depth", "4",
                 "--seed", "1", "--out", str(out)]) == 0
    rvs = tmp_path / "rvs.csv"
    assert main(["report", "--in", str(out), "--plot", "ratio-vs-seed",
                 "--plot-out", str(rvs)]) == 0
    rows = [l for l in rvs.read_text().splitlines() if l and not l.startswith("#")]
    assert rows[0] == "trial,seed,ratio"
    assert len(rows) == 1 + 3

    hist = tmp_path / "hist.csv"
    assert main(["report", "--in", str(out), "--plot", "ratio-hist",
                 "--plot-out", str(hist)]) == 0
    rows = [l for l in hist.read_text().splitlines() if l and not l.startswith("#")]
    assert rows[0] == "bin_lo,bin_hi,count"

    # packing-vs-delta needs the JSON report (traces live there)
    pvd = tmp_path / "pvd.csv"
    assert main(["report", "--in", str(out.with_suffix(".json")),
                 "--plot", "packing-vs-delta", "--plot-out", str(pvd)]) == 0
    rows = [l for l in pvd.read_text().splitlines() if l and not l.startswith("#")]
    assert rows[0] == "trial,delta,packing_s1,packing_s2"
    assert len(rows) >= 1 + 3
    assert main(["report", "--in", str(out), "--plot", "packing-vs-delta",
                 "--plot-out", str(pvd)]) == 2


def test_empty_report_plot_is_header_only(tmp_path):
    from dytb.cli import emit_plot_data

    out = tmp_path / "empty.csv"
    emit_plot_data([], {}, "ratio-hist", out)
    rows = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
    assert rows == ["bin_lo,bin_hi,count"]
    emit_plot_data([], {}, "ratio-vs-seed", out)
    rows = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
    assert rows == ["trial,seed,ratio"]


def test_corona_forest_export(tmp_path, capsys):
    out = tmp_path / "forest.json"
    assert main(["corona", "--dim", "1", "--depth", "4", "--seed", "3",
                 "--kernel-kind", "haar-shift", "--accretive-kind", "constant",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert {"dim", "depth", "q0", "delta", "s1", "s2"} <= set(data)
    assert data["s1"][0]["parent"] is None


def rebuilt_corona(dim, depth, seed, delta="auto", tau_target=0.9):
    """The forest of ``dytb corona --dim dim --depth depth --seed seed --delta
    delta --tau-target tau_target``, rebuilt from the same seeds and the CLI's
    defaults without the CLI: (forest, delta search), the search None for an
    explicit delta."""
    spec = GridSpec(dim, depth)
    kernel = generate_kernel("random", spec, seed=0)
    sys1, sys2 = (AccretiveSystem(spec, "random", 2.0, 1.5, seed=2 * seed + k, params={"amp": 0.4})
                  for k in (1, 2))
    tloc = max(measure_tloc(kernel, sys1, 2.0), measure_tloc(adjoint(kernel), sys2, 2.0))
    if delta == "auto":
        search = choose_delta(spec.root(), sys1, sys2, kernel, tloc, tau_target)
        return search.forest, search
    return build_corona(spec.root(), sys1, sys2, kernel, delta, tloc), None


def test_json_files_are_the_bytes_of_json_dump(tmp_path):
    kernel_path = tmp_path / "k.json"
    assert main(["gen-kernel", "--dim", "2", "--depth", "3", "--seed", "6",
                 "--out", str(kernel_path)]) == 0
    buf = io.StringIO()
    json.dump(kernel_to_json_dict(generate_kernel("random", GridSpec(2, 3), seed=6)), buf)
    assert kernel_path.read_text() == buf.getvalue()

    forest_path = tmp_path / "forest.json"
    assert main(["corona", "--dim", "1", "--depth", "7", "--seed", "2",
                 "--out", str(forest_path)]) == 0
    forest, _ = rebuilt_corona(1, 7, 2)
    buf = io.StringIO()
    json.dump(forest_to_json_dict(forest), buf, indent=1, sort_keys=True)
    assert forest_path.read_text() == buf.getvalue()

    # the tb-experiment report JSON and the report summary
    report, summary = tmp_path / "r.csv", tmp_path / "summary.json"
    assert main(["tb-experiment", "--trials", "2", "--depth", "4", "--seed", "3",
                 "--out", str(report)]) == 0
    assert main(["report", "--in", str(report), "--out", str(summary)]) == 0
    for path in (report.with_suffix(".json"), summary):
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=1, sort_keys=True)


def test_report_json_is_streamed_with_the_bytes_of_json_text(tmp_path):
    reports = verify.main_theorem_experiment(ExperimentConfig(dim=1, depth=4, trials=3, seed=2))
    rows = [r.to_json_dict() for r in reports]
    payload = {"version": "0", "config": {"depth": 4}, "reports": rows, **cli.summarize(rows)}
    path = tmp_path / "r.json"
    cli._write_json(path, payload)
    assert path.read_bytes() == cli._json_text(payload).encode()


@pytest.mark.parametrize("delta", ["0.25", "auto"])
def test_corona_prints_the_forest_packing_ratios(capsys, delta):
    # a low packing target makes the search take more than one attempt
    assert main(["corona", "--dim", "2", "--depth", "4", "--seed", "3", "--delta", delta,
                 "--tau-target", "0.1"]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("S_")]
    printed = [line.split("packing ratio = ")[1].split(";")[0] for line in lines]
    forest, search = rebuilt_corona(2, 4, 3, delta if delta == "auto" else float(delta),
                                    tau_target=0.1)
    assert printed == [repr(packing_ratio(forest, j)) for j in (1, 2)]
    assert printed[0] != printed[1]
    if search is not None:  # the search's last attempt measured this forest
        assert len(search.trace) > 1
        assert printed == [repr(ratio) for ratio in search.trace[-1][1:]]


def test_unknown_plot_kind_is_config_error(tmp_path):
    out = tmp_path / "r.csv"
    main(["tb-experiment", "--trials", "1", "--dim", "1", "--depth", "3",
          "--seed", "1", "--out", str(out)])
    assert main(["report", "--in", str(out), "--plot", "nope",
                 "--plot-out", str(tmp_path / "x.csv")]) == 2


def test_report_config_errors_write_nothing(tmp_path, capsys):
    report = tmp_path / "r.csv"
    assert main(["tb-experiment", "--trials", "1", "--dim", "1", "--depth", "3",
                 "--seed", "1", "--out", str(report)]) == 0
    summary, plot = tmp_path / "summary.json", tmp_path / "plot.csv"
    capsys.readouterr()
    for flags, message in (
        (["--plot", "packing-vs-delta", "--plot-out", str(plot)], "needs the JSON report"),
        (["--plot", "nope", "--plot-out", str(plot)], "unknown plot kind 'nope'"),
        (["--plot", "ratio-hist"], "--plot requires --plot-out"),
    ):
        assert main(["report", "--in", str(report), "--out", str(summary), *flags]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("config error:") and message in err
        assert not summary.exists() and not plot.exists()


def test_shared_parser_is_built_once_and_keeps_no_state(tmp_path, monkeypatch):
    built, trials = [], []
    real = cli.build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    monkeypatch.setattr(cli, "cmd_tb_experiment", lambda args: trials.append(args.trials) or 0)
    cli._shared_parser.cache_clear()
    run = ["tb-experiment", "--out", str(tmp_path / "r.csv")]
    for _ in range(5):
        assert main(run) == 0
    assert len(built) == 1
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"trials": 5}))
    assert main([*run, "--config", str(cfg)]) == 0
    # the config file's values are parsed as flags: the parser keeps none
    assert main(run) == 0
    assert trials == [100] * 5 + [5, 100]
    assert len(built) == 1


def test_shared_instance_options_keep_their_order_and_defaults():
    parser = cli.build_parser()
    instance = [("p1", 2.0), ("p2", 2.0), ("A", None), ("amp", None), ("kernel_kind", "random"),
                ("kernel_scale", 1.0), ("accretive_kind", "random")]
    assert list(vars(parser.parse_args(["identities"])).items()) == [
        ("command", "identities"), ("dim", 1), ("depth", 5), ("seed", 0), ("config", None),
        *instance]
    assert list(vars(parser.parse_args(["tb-experiment", "--out", "r.csv"])).items()) == [
        ("command", "tb-experiment"), ("dim", 1), ("depth", 6), ("seed", 0), ("config", None),
        ("trials", 100), *instance, ("tau_target", 0.9), ("out", "r.csv")]


def test_config_file_merge_and_rejection(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"depth": 3, "seed": 5}))
    out = tmp_path / "k.json"
    assert main(["gen-kernel", "--kind", "random", "--out", str(out),
                 "--config", str(cfg)]) == 0
    assert load_kernel(out).spec.depth == 3
    # explicit flags beat the config file
    assert main(["gen-kernel", "--kind", "random", "--depth", "2", "--out", str(out),
                 "--config", str(cfg)]) == 0
    assert load_kernel(out).spec.depth == 2
    # flags are never abbreviated: a prefix is rejected
    cfg.write_text(json.dumps({"trials": 5}))
    report = tmp_path / "a.csv"
    run = ["tb-experiment", "--depth", "3", "--config", str(cfg), "--out", str(report)]
    assert main([*run, "--tri", "2"]) == 2
    assert main([*run, "--trials", "2"]) == 0
    assert len(json.loads(report.with_suffix(".json").read_text())["reports"]) == 2
    # an explicit flag beats the file under any spelling: --in stores infile
    other = tmp_path / "b.csv"
    assert main(["tb-experiment", "--depth", "3", "--trials", "3", "--out", str(other)]) == 0
    cfg.write_text(json.dumps({"infile": str(other)}))
    capsys.readouterr()
    assert main(["report", "--in", str(report), "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["n_trials"] == 2
    assert main(["report", f"--in={report}", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["n_trials"] == 2
    assert main(["report", "--config", str(cfg), "--in", str(report)]) == 0
    assert json.loads(capsys.readouterr().out)["n_trials"] == 2

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dephth": 3}))
    assert main(["gen-kernel", "--kind", "zero", "--out", str(out),
                 "--config", str(bad)]) == 2
    assert "unknown config key" in capsys.readouterr().err
    # a string in the file is converted like a flag value: an invalid one is a
    # config error
    bad.write_text(json.dumps({"depth": "x"}))
    assert main(["gen-kernel", "--kind", "zero", "--out", str(out),
                 "--config", str(bad)]) == 2
    assert "invalid int value" in capsys.readouterr().err


def test_malformed_config_reports_line(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{\n "depth": 3,\n}')
    out = tmp_path / "k.json"
    assert main(["gen-kernel", "--kind", "zero", "--out", str(out),
                 "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "broken.json:3" in err


def test_bad_flags_exit_config(capsys):
    assert main(["gen-kernel", "--kind", "fourier", "--out", "x.json"]) == 2
    assert main(["no-such-command"]) == 2


def test_tloc_zero_guard_maps_to_config_error(tmp_path, capsys):
    # dytb corona computes Tloc, so rule (3) never meets Tloc = 0 on a cube
    # where T b_S moves: a zero kernel and a kernel at scale 0 both run
    for kernel in (["--kernel-kind", "zero"], ["--kernel-scale", "0"]):
        assert main(["corona", "--dim", "1", "--depth", "3", *kernel,
                     "--accretive-kind", "constant", "--delta", "0.25"]) == 0


@pytest.mark.parametrize("grid", [["--dim", "1", "--depth", "6"], ["--dim", "1", "--depth", "10"],
                                  ["--dim", "2", "--depth", "4"]])
def test_corona_at_kernel_scale_zero_prints_the_zero_kernel_bytes(grid, capsys):
    outs = []
    for kernel in (["--kernel-scale", "0"], ["--kernel-kind", "zero"]):
        assert main(["corona", *grid, "--seed", "5", *kernel]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and "Tloc = 0.0\n" in outs[0]


def test_identities_and_experiment_run_at_kernel_scale_zero(tmp_path, capsys):
    assert main(["identities", "--depth", "3", "--kernel-scale", "0"]) == 0
    printed = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert all(float(printed[name]) <= 1e-9 for name in verify.RESIDUAL_FIELDS)
    out = tmp_path / "r.csv"
    assert main(["tb-experiment", "--depth", "3", "--trials", "2", "--kernel-scale", "0",
                 "--out", str(out)]) == 0
    rows = json.loads(out.with_suffix(".json").read_text())["reports"]
    assert [r["ok"] for r in rows] == [True, True] and all(r["tloc"] == 0.0 for r in rows)
    assert all(r["residuals"][name] <= 1e-9 for r in rows for name in verify.RESIDUAL_FIELDS)


def test_kernel_without_t1_runs_on_constant_systems(tmp_path, capsys):
    # per cube, kappa = c on the cyclic child pairs (0,1), (1,2), (2,3), (3,0),
    # -c on their reverses and no entry on (0,2) or (1,3), with c half the
    # level's smallest size bound: T1 = T*1 = 0, so Tloc on constant systems is 0
    spec = GridSpec(2, 3)
    entries = {}
    for level in range(spec.depth):
        c = min(kernels.size_bound(level, i, j, 2) for i in range(4) for j in range(4) if i != j) / 2
        for flat in range(spec.n_cubes(level)):
            for i in range(4):
                entries[(level, flat, i, (i + 1) % 4)] = c
                entries[(level, flat, (i + 1) % 4, i)] = -c
    path = tmp_path / "k.json"
    kernels.save_kernel(kernels.PerfectKernel(spec, entries), path)
    assert main(["validate", "--kernel", str(path)]) == 0
    head, norm = capsys.readouterr().out.split(" = ")
    assert head.endswith("entries=168; operator norm (dense-svd)") and float(norm) == pytest.approx(0.125)
    assert main(["corona", "--kernel", str(path), "--dim", "2", "--depth", "3",
                 "--accretive-kind", "constant"]) == 0
    assert "Tloc = 0.0\n" in capsys.readouterr().out


# signed systems can never pack below 1/2, so every delta search to 0.3 fails
FLAGGED = ["--dim", "1", "--depth", "4", "--accretive-kind", "signed", "--tau-target", "0.3"]


def test_corona_failed_delta_search_exits_1(capsys):
    assert main(["corona", *FLAGGED]) == cli.EXIT_VALIDATION
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 and out[0].startswith("delta search FAILED (floor reached); trace=((0.5, ")
    assert out[0].endswith(f"({2.0**-20!r}, 0.5, 0.5))")


def _strict_json(text):
    def reject(token):
        raise ValueError(f"not JSON: {token}")

    return json.loads(text, parse_constant=reject)


def test_flagged_trials_write_standard_reports(tmp_path, capsys):
    # a flagged trial measures no delta, packing, Carleson constant,
    # residual, coefficient or easy term: an empty cell and a JSON null each
    out = tmp_path / "r.csv"
    assert main(["tb-experiment", "--trials", "2", *FLAGGED, "--out", str(out)]) == 0
    assert "2 trials, 2 flagged; no usable trials" in capsys.readouterr().out
    rows = _strict_json(out.with_suffix(".json").read_text())["reports"]
    assert [r["ok"] for r in rows] == [False, False]
    for r in rows:
        assert [r[k] for k in ("delta", "packing", "carleson", "epsilon_max", "epsilon_bound")] == [None] * 5
        assert r["residuals"] == {} and r["easy"] == {} and len(r["delta_trace"]) == 20
    lines = out.read_text().splitlines()
    header = lines[2].split(",")
    assert len(lines) == 5
    for line in lines[3:]:
        cells = dict(zip(header, line.split(",")))
        assert cells["ok"] == "0" and all(float(cells[k]) >= 0.0 for k in ("operator_norm", "tloc", "ratio"))
        assert all(cells[k] == "" for k in header[6:])
    for path in (out, out.with_suffix(".json")):
        summary = tmp_path / "summary.json"
        assert main(["report", "--in", str(path), "--out", str(summary)]) == 0
        data = _strict_json(summary.read_text())
        assert (data["n_trials"], data["n_ok"], data["n_flagged"]) == (2, 0, 2)


def test_cli_outputs_match_golden_bytes(tmp_path):
    # tb-experiment CSV/JSON and dytb corona stdout/forest JSON, hashed
    assert cli_hashes(tmp_path) == read_golden(demos=False)


def test_lanczos_report_bytes_do_not_depend_on_blas_threads(tmp_path):
    # 1D depth 14 takes the Lanczos norm; each run writes report.csv in its own directory
    src = str(Path(__file__).resolve().parents[1] / "src")
    argv = [sys.executable, "-m", "dytb.cli", "tb-experiment", "--dim", "1", "--depth", "14",
            "--trials", "1", "--seed", "1", "--out", "report.csv"]
    reports = []
    for threads in ("1", "2"):
        cwd = tmp_path / f"threads{threads}"
        cwd.mkdir()
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        subprocess.run(argv, cwd=cwd, env=env, check=True, stdout=subprocess.DEVNULL, timeout=300)
        reports.append([(cwd / name).read_bytes() for name in ("report.csv", "report.json")])
    assert reports[0] == reports[1]


def test_golden_tool_names_the_changed_hashes(tmp_path, monkeypatch, capsys):
    old = {"a": "1", "b": "2", "c": "3"}
    assert changed_names(old, dict(old)) == []
    assert changed_names(old, {"a": "1", "b": "9", "d": "4"}) == ["b", "c", "d"]
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(old))
    monkeypatch.setattr(make_cli_golden, "GOLDEN_PATH", path)
    monkeypatch.setattr(make_cli_golden, "demo_hashes", dict)
    for hashes, printed in ((old, ["no change"]), ({"a": "1", "b": "9"}, ["changed: b", "changed: c"])):
        monkeypatch.setattr(make_cli_golden, "cli_hashes", lambda workdir, hashes=hashes: hashes)
        make_cli_golden.main()
        assert capsys.readouterr().out.splitlines()[1:] == printed
        assert json.loads(path.read_text()) == hashes


def test_trial_and_corona_build_no_member_objects(tmp_path, monkeypatch):
    # the trial and dytb corona read the forest from its owner arrays only
    def forbidden(*args):
        raise AssertionError("a hot path built the forest's member cubes")

    monkeypatch.setattr(CoronaForest, "members", forbidden)
    assert _run_trial(ExperimentConfig(dim=2, depth=4, trials=1), 0).ok
    assert cli_hashes(tmp_path) == read_golden(demos=False)
    forest = verify.build_instance(ExperimentConfig(dim=1, depth=4), 1).forest
    with pytest.raises(AssertionError, match="member cubes"):
        forest.members(1)


def test_one_level_reads_build_no_cube_sum_tree(tmp_path, monkeypatch):
    # a read of one level coarsens to that level only (grid.level_sum); every
    # cube-sum tree counts, whole (cube_sum_vector) or partial (a sweep's)
    trees = []
    for module in (grid, kernels):
        real = module._sum_tree
        monkeypatch.setattr(module, "_sum_tree",
                            lambda spec, cells, top, real=real: trees.append(top) or real(spec, cells, top))
    assert _run_trial(ExperimentConfig(dim=2, depth=5, trials=1, seed=1), 0).ok
    # 34 outside the norm; the Lanczos norm applies T and T* once per step and
    # runs 36 steps (converged at the 34th, seen at the Ritz check of the 36th)
    assert len(trees) == 34 + 2 * 36
    trees.clear()
    assert main(["corona", "--dim", "1", "--depth", "12",
                 "--out", str(tmp_path / "forest.json")]) == 0
    # the testing constant's sweeps from levels 0..11 on both sides, each
    # summing the levels below its start only; the finest level's sweep sums none
    assert sorted(trees) == sorted([*range(1, 13)] * 2)
