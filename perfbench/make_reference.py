"""Regenerate ``reference.json``: the op summaries of the default seed.

    python3 perfbench/make_reference.py

Run it only at a commit whose results are trusted; the benchmark compares
every later commit's default-seed ops with these summaries.  It stores more
ops than a run on this hardware reaches, so faster machines stay covered.
"""

from __future__ import annotations

import json
import os
import sys

import workloads as wl

STORED_OPS = {"sweep-1d-d6": 400, "trial-2d-d5": 16, "corona-1d-d12": 10}


def main() -> int:
    os.chdir(wl.ROOT)
    os.makedirs(wl.WORK_DIR, exist_ok=True)
    cli, verify = wl.import_dytb()
    out = {"seed": wl.DEFAULT_SEED, "workloads": {}}
    for workload, n in STORED_OPS.items():
        ops = []
        for op_seed in wl.op_seeds(workload, wl.DEFAULT_SEED, n):
            summary, problems, _ = wl.run_op(cli, verify, workload, op_seed)
            if problems:
                print(f"{workload} op seed {op_seed}: {problems}", file=sys.stderr)
                return 1
            ops.append(summary)
        out["workloads"][workload] = {"seed": wl.DEFAULT_SEED, "ops": ops}
        print(f"{workload}: {len(ops)} ops")
    wl.REFERENCE_PATH.write_text(json.dumps(out, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
