"""One benchmark process.  ``run.py`` starts a fresh one for every phase:

    worker.py setup   --workload W --seed N             import and generate inputs only
    worker.py measure --workload W --seed N --seconds S  closed loop of ops for S seconds
    worker.py trace   --seed N                           one op of each workload, traced

Each prints its result as one JSON line, the last line of its stdout.  Ops
run one at a time in this process, with no threads.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback

import workloads as wl
from speed import SpeedProbe
from tracing import Tracer, unit

MIN_OPS = 3


def setup(workload: str, seed: int):
    """What every run pays before its first op: import dytb, generate the op list."""
    cli, verify = wl.import_dytb()
    seeds = wl.op_seeds(workload, seed)
    os.makedirs(wl.WORK_DIR, exist_ok=True)
    return cli, verify, seeds


def check_op(cli, verify, workload, op_seed, ref):
    """Run one op; returns (summary, problems, report).  Exceptions are failures."""
    try:
        summary, problems, report = wl.run_op(cli, verify, workload, op_seed)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None, ["raised"], None
    if ref is not None:
        problems += wl.compare_reference(workload, summary, ref)
    return summary, problems, report


def measure(cli, verify, workload, seed, seeds, seconds, reference, speed, max_ops=None) -> dict:
    """Closed loop: one client sends the next op when the previous one is done.

    After MIN_OPS ops, an op is started only if a typical op (the median so
    far) would end within ``seconds``, so long ops do not stretch the run by
    most of an op.  The first op of a process also warms its heap; with at
    least three ops it is never the median.
    Each op's time is recorded as measured (``raw_times``, probes taken out)
    and at reference speed (``times``); see speed.py.
    """
    times, raw_times, checksums, reports = [], [], [], []
    attempted = failed = passed = checked = 0
    limit = min(len(seeds), max_ops or len(seeds))
    start = time.perf_counter()
    while attempted < limit:
        if (len(raw_times) >= MIN_OPS
                and time.perf_counter() - start + statistics.median(raw_times) > seconds):
            break
        k = attempted
        ref = reference[k] if k < len(reference) else None
        mark, t0 = speed.mark(), time.perf_counter()
        summary, problems, report = check_op(cli, verify, workload, seeds[k], ref)
        probes, scale = speed.since(mark)
        net = time.perf_counter() - t0 - probes
        raw_times.append(net)
        times.append(net * scale)
        attempted += 1
        checked += ref is not None
        if problems:
            failed += 1
            print(f"op {k} (seed {seeds[k]}) FAILED: {'; '.join(problems)}", file=sys.stderr)
        else:
            passed += 1
        if summary is not None:
            checksums.append(wl.op_checksum(summary))
        if report is not None:
            reports.append(report)
    phase_s, raw_phase_s = sum(times), sum(raw_times)
    if wl.WORKLOADS[workload]["reports"]:
        attempted += 1  # writing the reports is one more op, checked by reading back
        try:
            mark, t0 = speed.mark(), time.perf_counter()
            wl.write_reports(cli, workload, seed, reports)
            probes, scale = speed.since(mark)
            net = time.perf_counter() - t0 - probes
            phase_s, raw_phase_s = phase_s + net * scale, raw_phase_s + net
            problems = wl.check_reports(cli, workload, reports)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            problems = ["raised"]
        if problems:
            failed += 1
            print(f"reports FAILED: {'; '.join(problems)}", file=sys.stderr)
    return {"times": times, "raw_times": raw_times, "phase_s": phase_s,
            "raw_phase_s": raw_phase_s, "attempted": attempted, "failed": failed,
            "passed": passed, "reference_checked": checked, "op_checksums": checksums,
            "checksum": wl.run_checksum(checksums)}


def same_result(a: dict | None, b: dict | None) -> bool:
    return a is not None and b is not None and wl.op_checksum(a) == wl.op_checksum(b)


def trace(cli, verify, seed) -> dict:
    """Op 0 of each workload untraced, traced, and untraced again; all must agree."""
    tracer = Tracer()
    per_workload, problems, failed = {}, [], 0
    untraced_total = traced_total = 0.0
    for workload in wl.WORKLOADS:
        op_seed = wl.op_seeds(workload, seed, 1)[0]
        reference = wl.load_reference(workload, seed)
        ref = reference[0] if reference else None
        before = tracer.totals()

        # The first op of a process also pays for warming the heap, so the
        # untraced time that the traced one is compared with is a second run.
        plain, plain_problems, plain_report = check_op(cli, verify, workload, op_seed, ref)
        with tracer.installed():
            gc.collect()
            t0 = time.perf_counter()
            summary, traced_problems, report = check_op(cli, verify, workload, op_seed, ref)
            traced_s = time.perf_counter() - t0
            if report is not None:
                with tracer.span("cli.write_reports"):
                    tracer.counts["cli.report_bytes"] += wl.write_reports(
                        cli, workload, seed, [report])
        gc.collect()
        t0 = time.perf_counter()
        again, again_problems, _ = check_op(cli, verify, workload, op_seed, ref)
        untraced_s = time.perf_counter() - t0
        traced_total += traced_s
        untraced_total += untraced_s
        if report is None and summary is not None:
            tracer.counts["cli.report_bytes"] += os.path.getsize(wl.FOREST_PATH)

        if not same_result(summary, plain):
            traced_problems.append("checksum differs from the untraced op")
        if report is not None and report.ok and plain_report is not None:
            own = {k: v for k, v in tracer.identity_results[-1].items()
                   if k not in ("epsilon_max", "epsilon_bound")}
            if own != report.residuals or report.residuals != plain_report.residuals:
                traced_problems.append("residuals differ from run_identity_checks")
        if not same_result(again, plain):
            again_problems.append("checksum differs from the first untraced op")
        failed += bool(plain_problems) + bool(traced_problems) + bool(again_problems)
        problems += [f"{workload} untraced: {p}" for p in plain_problems + again_problems]
        problems += [f"{workload} traced: {p}" for p in traced_problems]
        after = tracer.totals()
        per_workload[workload] = {k: after[k] - before[k] for k in after
                                  if k != "kernels.apply_values.s"}
        per_workload[workload].update(checksum=wl.op_checksum(summary) if summary else None,
                                      traced_op_s=traced_s, untraced_op_s=untraced_s)
    totals = tracer.totals()
    totals["trace.overhead_s"] = traced_total - untraced_total
    metrics = {name: {"value": value, "unit": unit(name)} for name, value in totals.items()}
    return {"metrics": metrics, "per_workload": per_workload, "problems": problems,
            "attempted": 3 * len(wl.WORKLOADS), "failed": failed, "spans": len(tracer.spans)}


def blas_name() -> str:
    import numpy as np

    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", choices=tuple(wl.WORKLOADS), default="sweep-1d-d6")
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()

    with SpeedProbe() as speed:
        cli, verify, seeds = setup(args.workload, args.seed)
        ready = time.monotonic()
        probes, scale = speed.since(0)
        out = {"ready_monotonic": ready, "setup_probe_s": probes, "setup_scale": scale}
        if args.mode == "measure":
            reference = wl.load_reference(args.workload, args.seed)
            out.update(measure(cli, verify, args.workload, args.seed, seeds, args.seconds,
                               reference, speed))
    if args.mode == "trace":
        out.update(trace(cli, verify, args.seed))
    if args.mode != "setup":
        import numpy as np

        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["env"] = {
            "nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0],
            "numpy": np.__version__, "blas": blas_name(),
            **{k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                              "DYTB_THREADS")},
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
