"""Benchmark of the dytb laboratory.  Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-1d-d6 --seed 0 --seconds 30 --trace 0

With ``--trace 0`` it prints the end-to-end metrics of one run; with
``--trace 1`` the per-layer metrics of a traced run.  The last line of stdout
is one JSON object {"correct", "attempted", "failed", "metrics"}; the lines
before it record the environment, sample counts and checksums.  Every phase
runs in a fresh ``worker.py`` process.  If a worker cannot run (for example
because ``src/dytb`` is missing) this exits non-zero without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 5  # setup-only processes per run, besides the measured one
DEADLINE_S = 170.0  # every run ends within 180 s
P90_MIN_SAMPLES = 100  # at least ten samples beyond the 90th percentile


def worker_env() -> dict:
    """Single-threaded BLAS and the serial trial loop: the plain baseline."""
    env = dict(os.environ)
    env.pop("DYTB_THREADS", None)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def run_worker(args: list[str], deadline: float) -> tuple[float, dict]:
    """Start a fresh worker; returns (monotonic start time, its result)."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), *args],
        cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited with code {proc.returncode}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def measured_run(workload: str, seed: int, seconds: int, deadline: float) -> tuple[dict, dict]:
    common = ["--workload", workload, "--seed", str(seed)]
    setups, raw_setups = [], []
    for i in range(SETUP_REPEATS + 1):
        mode = ["setup"] if i < SETUP_REPEATS else ["measure", "--seconds", str(seconds)]
        started, out = run_worker([*mode, *common], deadline)
        raw_setups.append(out["ready_monotonic"] - started - out["setup_probe_s"])
        setups.append(raw_setups[-1] * out["setup_scale"])

    times = out["times"]
    metrics = {
        "trial_s.p50": {"value": statistics.median(times), "unit": "s"},
        "trials_per_s": {"value": out["passed"] / out["phase_s"], "unit": "1/s"},
        "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }
    info = {
        "workload": workload, "seed": seed, "seconds": seconds, "env": out["env"],
        "trial_s.samples": len(times),
        "trial_s.p90": (statistics.quantiles(times, n=10)[-1]
                        if len(times) >= P90_MIN_SAMPLES else None),
        "setup_s.samples": len(setups),
        "as_measured": {
            "trial_s.p50": statistics.median(out["raw_times"]),
            "trials_per_s": out["passed"] / out["raw_phase_s"],
            "setup_s": statistics.median(raw_setups),
        },
        "failed_share": out["failed"] / out["attempted"],
        "reference_checked_ops": out["reference_checked"],
        "checksum": out["checksum"], "op_checksums": out["op_checksums"],
    }
    return out, {"info": info, "metrics": metrics}


def traced_run(seed: int, deadline: float) -> tuple[dict, dict]:
    _, out = run_worker(["trace", "--seed", str(seed)], deadline)
    metrics = out["metrics"]
    info = {"seed": seed, "env": out["env"], "spans": out["spans"],
            "per_workload": out["per_workload"], "problems": out["problems"]}
    return out, {"info": info, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    try:
        if args.trace:
            out, result = traced_run(args.seed, deadline)
        else:
            out, result = measured_run(args.workload, args.seed, args.seconds, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as e:
        print(f"benchmark could not run: {e}", file=sys.stderr)
        return 1

    print(json.dumps(result["info"], sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    failed = out["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": out["attempted"], "failed": failed,
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
