"""The benchmark's workloads: op seeds, the ops themselves, and their checks.

An op is one seeded trial of the laboratory, driven only through the public
entry points ``verify.main_theorem_experiment`` and ``cli.main``.  Every op is
summarised into a plain dict (everything it reports except the residuals),
gated on the invariants that hold for any seed, compared with the stored
reference when the workload seed is the default one, and hashed into a
checksum so two commits can be compared on any seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_PATH = BENCH_DIR / "reference.json"
# Relative to ROOT, which is the working directory of every benchmark process,
# so the CLI prints the same "wrote ..." line in every checkout.
WORK_DIR = ".bench_work"
FOREST_PATH = f"{WORK_DIR}/corona-forest.json"

DEFAULT_SEED = 0
MAX_OPS = 5000
RESIDUAL_TOL = 1e-9  # acceptance criteria 1 and 8
EPSILON_SLACK = 1e-12  # acceptance criterion 9
REFERENCE_RTOL = 1e-9
CHECKSUM_DIGITS = 10  # significant digits hashed, so last-bit changes rarely show

# Why each workload exists is recorded in README.md beside this file.
WORKLOADS = {
    "sweep-1d-d6": {"kind": "trial", "dim": 1, "depth": 6, "reports": True},
    "trial-2d-d5": {"kind": "trial", "dim": 2, "depth": 5, "reports": False},
    "corona-1d-d12": {"kind": "corona", "dim": 1, "depth": 12, "reports": False},
}

TRIAL_NUMBERS = ("operator_norm", "tloc", "ratio", "delta", "packing", "carleson")
TRIAL_EXACT = ("op_seed", "seed", "ok", "delta_trace")
CORONA_NUMBERS = ("tloc", "delta", "packing1", "packing2", "carleson1", "carleson2")
CORONA_EXACT = ("op_seed", "exit_code", "attempts", "members1", "members2",
                "stdout_sha256", "forest_sha256")


def import_dytb():
    """Import the package from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import dytb
    from dytb import cli, verify

    if not Path(dytb.__file__).resolve().is_relative_to(src):
        raise ImportError(f"dytb imported from {dytb.__file__}, not from {src}")
    return cli, verify


def op_seeds(workload: str, seed: int, n: int = MAX_OPS) -> list[int]:
    """The op list of a run: a pure function of the workload name and seed."""
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(1, 2**31) for _ in range(n)]


# -- ops --------------------------------------------------------------------------


def run_trial(verify, workload: str, op_seed: int):
    """One trial of the main experiment; returns its VerifierReport."""
    w = WORKLOADS[workload]
    config = verify.ExperimentConfig(dim=w["dim"], depth=w["depth"], trials=1, seed=op_seed)
    [report] = verify.main_theorem_experiment(config)
    return report


def trial_summary(report, op_seed: int) -> dict:
    return {
        "op_seed": op_seed, "seed": report.seed, "ok": report.ok,
        "operator_norm": report.operator_norm, "tloc": report.tloc,
        "ratio": report.ratio, "delta": report.delta,
        "packing": report.packing, "carleson": report.carleson,
        "epsilon_max": report.epsilon_max, "epsilon_bound": report.epsilon_bound,
        "easy": dict(report.easy),
        "delta_trace": [list(t) for t in report.delta_trace],
    }


def trial_gate(verify, report) -> list[str]:
    """Invariants every trial must meet, whatever its seed."""
    if not report.ok:
        return ["delta search failed"]
    problems = []
    for name in verify.RESIDUAL_FIELDS:
        value = report.residuals.get(name)
        if value is None or not value <= RESIDUAL_TOL:
            problems.append(f"residual {name} = {value!r} > {RESIDUAL_TOL}")
    if not report.epsilon_max <= report.epsilon_bound * (1 + EPSILON_SLACK):
        problems.append(f"epsilon_max {report.epsilon_max!r} > bound {report.epsilon_bound!r}")
    return problems


def corona_argv(workload: str, op_seed: int) -> list[str]:
    w = WORKLOADS[workload]
    s = str(op_seed)
    return ["corona", "--dim", str(w["dim"]), "--depth", str(w["depth"]),
            "--seed", s, "--kernel-seed", s, "--out", FOREST_PATH]


def run_corona(cli, workload: str, op_seed: int) -> tuple[int, str, bytes]:
    """One ``dytb corona`` invocation; returns (exit code, stdout, forest JSON)."""
    Path(FOREST_PATH).unlink(missing_ok=True)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(corona_argv(workload, op_seed))
    forest = Path(FOREST_PATH).read_bytes() if code == 0 else b""
    return code, buf.getvalue(), forest


_DELTA_RE = re.compile(r"^chosen delta = (\S+) after (\d+) attempts$", re.M)
_TLOC_RE = re.compile(r"^Tloc = (\S+)$", re.M)
_FAMILY_RE = re.compile(
    r"^S_(\d): (\d+) members; packing ratio = (\S+); Carleson constant = (\S+)$", re.M)


def corona_summary(code: int, stdout: str, forest: bytes, op_seed: int) -> dict:
    out = {
        "op_seed": op_seed, "exit_code": code,
        "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
        "forest_sha256": hashlib.sha256(forest).hexdigest(),
    }
    delta, tloc = _DELTA_RE.search(stdout), _TLOC_RE.search(stdout)
    if delta:
        out["delta"], out["attempts"] = float(delta.group(1)), int(delta.group(2))
    if tloc:
        out["tloc"] = float(tloc.group(1))
    for j, members, packing, carleson in _FAMILY_RE.findall(stdout):
        out[f"members{j}"] = int(members)
        out[f"packing{j}"] = float(packing)
        out[f"carleson{j}"] = float(carleson)
    return out


def corona_gate(summary: dict, forest: bytes) -> list[str]:
    """Invariants every corona op must meet, whatever its seed."""
    if summary["exit_code"] != 0:
        return [f"exit code {summary['exit_code']}"]
    missing = [k for k in CORONA_NUMBERS + CORONA_EXACT if k not in summary]
    if missing:
        return [f"stdout lacks {missing}"]
    data = json.loads(forest)
    counts = (len(data["s1"]), len(data["s2"]))
    if counts != (summary["members1"], summary["members2"]):
        return [f"forest JSON has {counts} members, stdout says "
                f"{(summary['members1'], summary['members2'])}"]
    return []


def run_op(cli, verify, workload: str, op_seed: int):
    """Run one op and check it; returns (summary, problems, report or None)."""
    if WORKLOADS[workload]["kind"] == "trial":
        report = run_trial(verify, workload, op_seed)
        return trial_summary(report, op_seed), trial_gate(verify, report), report
    code, stdout, forest = run_corona(cli, workload, op_seed)
    summary = corona_summary(code, stdout, forest, op_seed)
    return summary, corona_gate(summary, forest), None


# -- reference and checksum -------------------------------------------------------------


def load_reference(workload: str, seed: int) -> list[dict]:
    """Stored op summaries for this workload and seed; empty if none stored."""
    data = json.loads(REFERENCE_PATH.read_text())
    entry = data["workloads"].get(workload)
    if entry is None or entry["seed"] != seed:
        return []
    return entry["ops"]


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= REFERENCE_RTOL * max(abs(a), abs(b))


def compare_reference(workload: str, summary: dict, ref: dict) -> list[str]:
    """Numbers within REFERENCE_RTOL relative; structure exactly equal."""
    if WORKLOADS[workload]["kind"] == "trial":
        numbers, exact = TRIAL_NUMBERS, TRIAL_EXACT
    else:
        numbers, exact = CORONA_NUMBERS, CORONA_EXACT
    problems = [f"{k}: {summary.get(k)!r} != reference {ref[k]!r}"
                for k in numbers if not _close(summary.get(k), ref[k])]
    problems += [f"{k}: {summary.get(k)!r} != reference {ref[k]!r}"
                 for k in exact if summary.get(k) != ref[k]]
    return problems


def _rounded(x):
    if isinstance(x, float):
        return float(f"{x:.{CHECKSUM_DIGITS}g}")
    if isinstance(x, dict):
        return {k: _rounded(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_rounded(v) for v in x]
    return x


def op_checksum(summary: dict) -> str:
    """Hash of an op summary with floats rounded to CHECKSUM_DIGITS digits."""
    text = json.dumps(_rounded(summary), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def run_checksum(op_checksums: list[str]) -> str:
    return hashlib.sha256(" ".join(op_checksums).encode()).hexdigest()[:16]


# -- reports ------------------------------------------------------------------------


def write_reports(cli, workload: str, seed: int, reports) -> int:
    """Write the run's reports with the CLI writers; returns the bytes written."""
    w = WORKLOADS[workload]
    config = {"workload": workload, "seed": seed, "dim": w["dim"], "depth": w["depth"],
              "trials": len(reports)}
    csv_path = Path(WORK_DIR) / f"{workload}.csv"
    json_path = csv_path.with_suffix(".json")
    cli.write_report_csv(csv_path, config, reports)
    cli.write_report_json(json_path, config, reports)
    return csv_path.stat().st_size + json_path.stat().st_size


def check_reports(cli, workload: str, reports) -> list[str]:
    """The written reports must read back to the reports that were written."""
    csv_path = Path(WORK_DIR) / f"{workload}.csv"
    _, rows = cli.read_report_csv(csv_path)
    got = [(r["seed"], r["ok"], r["ratio"]) for r in rows]
    want = [(r.seed, r.ok, r.ratio) for r in reports]
    problems = [] if got == want else ["CSV report does not read back"]
    data = json.loads(csv_path.with_suffix(".json").read_text())
    want_json = json.loads(json.dumps([r.to_json_dict() for r in reports]))
    if data["reports"] != want_json or data["n_trials"] != len(reports):
        problems.append("JSON report does not read back")
    return problems
