"""Self-test of the benchmark's correctness gates.

    python3 perfbench/selftest.py

Checks that the default seed matches the stored reference, that a perturbed
reference number or forest hash fails its op (so failed_share > 0), and that
a seed with no stored reference still runs with the invariant gates alone.
Exits 0 when every check holds.  Takes about half a minute.
"""

from __future__ import annotations

import copy
import math
import os
import sys

import workloads as wl
from speed import SpeedProbe
from worker import measure, setup

NO_REFERENCE_SEED = 987654321


def run(workload: str, seed: int, reference: list[dict], ops: int) -> dict:
    cli, verify, seeds = setup(workload, seed)
    with SpeedProbe() as speed:
        return measure(cli, verify, workload, seed, seeds, math.inf, reference, speed, max_ops=ops)


def main() -> int:
    os.chdir(wl.ROOT)
    results = []

    def check(name: str, ok: bool, out: dict) -> None:
        results.append(ok)
        share = out["failed"] / out["attempted"]
        print(f"{'PASS' if ok else 'FAIL'} {name}: attempted={out['attempted']} "
              f"failed={out['failed']} failed_share={share:.3f} "
              f"reference_checked={out['reference_checked']}")

    for workload, key, ops in (("sweep-1d-d6", "operator_norm", 3),
                               ("corona-1d-d12", "forest_sha256", 1)):
        reference = wl.load_reference(workload, wl.DEFAULT_SEED)
        out = run(workload, wl.DEFAULT_SEED, reference, ops)
        check(f"{workload} default seed matches the reference",
              out["failed"] == 0 and out["reference_checked"] == ops, out)

        perturbed = copy.deepcopy(reference)
        value = perturbed[0][key]
        perturbed[0][key] = value * (1 + 1e-6) if isinstance(value, float) else "0" * len(value)
        out = run(workload, wl.DEFAULT_SEED, perturbed, ops)
        check(f"{workload} perturbed reference {key} fails op 0",
              out["failed"] == 1 and out["failed"] / out["attempted"] > 0, out)

    reference = wl.load_reference("sweep-1d-d6", NO_REFERENCE_SEED)
    out = run("sweep-1d-d6", NO_REFERENCE_SEED, reference, 3)
    check(f"seed {NO_REFERENCE_SEED} without a reference passes the invariant gates",
          not reference and out["failed"] == 0 and out["reference_checked"] == 0, out)
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
