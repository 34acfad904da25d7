"""The trial's norm in the helper interpreter: same bytes, same failures, no
process left behind."""

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from dytb import cli, verify
from dytb.verify import ExperimentConfig, _run_trial, main_theorem_experiment

from conftest import live_helpers

SRC = str(Path(__file__).resolve().parents[1] / "src")


def in_process(config: ExperimentConfig) -> list:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "_spare_cpu", lambda: False)
        return main_theorem_experiment(config)


def report_bytes(tmp_path, name: str, reports) -> list[bytes]:
    path = tmp_path / f"{name}.csv"
    config = {"trials": len(reports)}
    cli.write_report_csv(path, config, reports)
    cli.write_report_json(path.with_suffix(".json"), config, reports)
    return [path.read_bytes(), path.with_suffix(".json").read_bytes()]


def as_text(report) -> str:
    """A report as the CLI writes it (NaN-safe, unlike ==)."""
    return f"{report.csv_row()!r} {report.to_json_dict()!r}"


def no_norm_here(monkeypatch):
    """Make a norm computed in this process fail the test."""
    def forbidden(*args, **kwargs):
        raise AssertionError("the norm ran in the test process")

    monkeypatch.setattr(verify, "operator_norm", forbidden)


def run_python(code: str, **kwargs) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True, **kwargs)


@pytest.mark.parametrize("dim, depth", [(2, 5), (1, 10)])
def test_helper_reports_equal_in_process_reports(norm_helper, monkeypatch, tmp_path, dim, depth):
    config = ExperimentConfig(dim=dim, depth=depth, trials=4, seed=5)
    want = report_bytes(tmp_path, "here", in_process(config))
    no_norm_here(monkeypatch)
    assert report_bytes(tmp_path, "helper", main_theorem_experiment(config)) == want


def test_dense_size_trials_never_start_the_helper(monkeypatch):
    monkeypatch.setattr(verify, "_spare_cpu", lambda: True)
    verify._HELPER.stop()
    assert _run_trial(ExperimentConfig(dim=2, depth=4, trials=1), 0).ok  # 256 cells: dense SVD
    assert verify._HELPER.proc is None


def test_later_failure_leaves_the_next_norm_in_step(norm_helper, monkeypatch):
    config = ExperimentConfig(dim=2, depth=5, trials=3, seed=2)
    want = in_process(config)

    def planted(inst):
        raise ValueError("planted battery failure")

    with monkeypatch.context() as mp:
        mp.setattr(verify, "run_identity_checks", planted)
        with pytest.raises(ValueError, match="planted battery failure"):
            _run_trial(config, 0)
    assert as_text(_run_trial(config, 1)) == as_text(want[1])
    with monkeypatch.context() as mp:
        mp.setattr(verify, "_trial_instance", lambda config, seed: planted(None))
        with pytest.raises(ValueError, match="planted battery failure"):
            _run_trial(config, 0)
    assert as_text(_run_trial(config, 2)) == as_text(want[2])


def test_norm_failure_wins_over_a_later_failure(norm_helper, monkeypatch, tmp_path):
    # a request the helper cannot serve: its norm fails, the instance here does not
    real_submit = verify._NormHelper.submit

    def bad_kind(self, request):
        real_submit(self, ("no-such-kind", *request[1:]))

    def planted(inst):
        raise RuntimeError("planted battery failure")

    config = ExperimentConfig(dim=2, depth=5, trials=1)
    with monkeypatch.context() as mp:
        mp.setattr(verify._NormHelper, "submit", bad_kind)
        with pytest.raises(ValueError, match="unknown kernel kind 'no-such-kind'"):
            _run_trial(config, 0)
        mp.setattr(verify, "run_identity_checks", planted)
        with pytest.raises(ValueError, match="unknown kernel kind 'no-such-kind'"):
            _run_trial(config, 0)
        # the norm's exception keeps its type through the CLI: a ValueError exits 2
        assert cli.main(["tb-experiment", "--dim", "2", "--depth", "5", "--trials", "1",
                         "--out", str(tmp_path / "r.csv")]) == cli.EXIT_CONFIG
    assert as_text(_run_trial(config, 0)) == as_text(in_process(config)[0])


def test_dead_helper_is_an_internal_error_and_is_replaced(norm_helper):
    config = ExperimentConfig(dim=2, depth=5, trials=1, seed=4)
    proc = norm_helper.proc
    proc.kill()
    proc.wait(timeout=10)
    with pytest.raises(RuntimeError, match="the norm helper exited"):
        _run_trial(config, 0)
    assert norm_helper.proc is None
    assert as_text(_run_trial(config, 0)) == as_text(in_process(config)[0])  # here, while a new helper starts
    assert norm_helper.proc is not None and norm_helper.proc.pid != proc.pid


def test_interrupted_trial_stops_the_helper(norm_helper, monkeypatch):
    config = ExperimentConfig(dim=2, depth=5, trials=1, seed=6)
    proc = norm_helper.proc

    def interrupted(inst):
        raise KeyboardInterrupt

    with monkeypatch.context() as mp:
        mp.setattr(verify, "_after_norm", interrupted)
        with pytest.raises(KeyboardInterrupt):
            _run_trial(config, 0)
    assert proc.returncode is not None and norm_helper.proc is None
    assert as_text(_run_trial(config, 0)) == as_text(in_process(config)[0])
    assert norm_helper.proc is not None and norm_helper.proc.pid != proc.pid


def trial_text(args) -> str:
    config, trial = args
    return as_text(_run_trial(config, trial))


def test_forked_workers_do_not_share_the_parents_helper(norm_helper):
    # a fork pool inherits the parent's ready helper and its pipes: each worker starts its own
    config = ExperimentConfig(dim=2, depth=5, trials=6, seed=9)
    want = [as_text(r) for r in in_process(config)]
    with multiprocessing.get_context("fork").Pool(2) as pool:
        got = pool.map_async(trial_text, [(config, t) for t in range(config.trials)], chunksize=1)
        assert got.get(timeout=120) == want
    assert as_text(_run_trial(config, 0)) == want[0]  # the parent's helper is still in step


def test_first_trial_does_not_wait_for_the_helper(monkeypatch):
    # a helper that takes 30 s to start: the trial runs its norm here meanwhile
    exe, flag, code = verify._helper_argv()
    monkeypatch.setattr(verify, "_helper_argv", lambda: [exe, flag, "import time; time.sleep(30); " + code])
    monkeypatch.setattr(verify, "_spare_cpu", lambda: True)
    verify._HELPER.stop()
    config = ExperimentConfig(dim=2, depth=5, trials=1, seed=3)
    try:
        start = time.monotonic()
        report = _run_trial(config, 0)
        assert time.monotonic() - start < 20.0
        assert verify._HELPER.proc is not None and not verify._HELPER.ready
    finally:
        verify._HELPER.stop()
    assert as_text(report) == as_text(in_process(config)[0])


def test_experiment_in_a_subprocess_leaves_no_helper():
    # no main guard, as in a plain script; the helper is used, then the script exits
    out = run_python(
        "import time\n"
        "from dytb import verify\n"
        "verify._spare_cpu = lambda: True\n"
        "while not verify._HELPER.poll():\n"
        "    time.sleep(0.01)\n"
        "verify.main_theorem_experiment(verify.ExperimentConfig(dim=2, depth=5, trials=3))\n"
        "print(verify._HELPER.proc.pid)\n")
    assert int(out.stdout) not in live_helpers()


def test_tb_experiment_leaves_no_helper(tmp_path):
    # the command as run from a shell, with the helper as the machine allows it
    out = run_python(
        "import sys\n"
        "from dytb import cli, verify\n"
        "code = cli.main(['tb-experiment', '--dim', '2', '--depth', '5', '--trials', '40',"
        " '--out', 'r.csv'])\n"
        "print(verify._HELPER.proc.pid if verify._HELPER.proc else '')\n"
        "sys.exit(code)\n", cwd=tmp_path)
    helper = out.stdout.splitlines()[-1]
    assert not helper or int(helper) not in live_helpers()


def test_helper_exits_when_its_parent_is_killed():
    parent = subprocess.Popen(
        [sys.executable, "-c",
         "import sys, time\n"
         "from dytb import verify\n"
         "verify._spare_cpu = lambda: True\n"
         "while not verify._HELPER.poll():\n"
         "    time.sleep(0.01)\n"
         "print(verify._HELPER.proc.pid, flush=True)\n"
         "time.sleep(120)\n"],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))},
        stdout=subprocess.PIPE, text=True)
    try:
        helper = int(parent.stdout.readline())
        assert helper in live_helpers()
    finally:
        parent.send_signal(signal.SIGKILL)
        parent.wait(timeout=10)
        parent.stdout.close()
    deadline = time.monotonic() + 5.0
    while helper in live_helpers():
        assert time.monotonic() < deadline, "the helper outlived its killed parent by 5 s"
        time.sleep(0.05)


def test_paths_without_a_helper_load_none_of_its_modules():
    # the helper's modules are imported when a helper starts, not with dytb
    out = run_python(
        "import sys\n"
        "import dytb.cli\n"
        "loaded = lambda: sorted(m for m in ('subprocess', 'select', 'signal') if m in sys.modules)\n"
        "print(loaded())\n"
        "dytb.verify._run_trial(dytb.verify.ExperimentConfig(trials=1), 0)\n"
        "print(loaded())\n")
    assert out.stdout.splitlines() == ["[]", "[]"]
