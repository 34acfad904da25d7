#!/usr/bin/env python3
"""Regenerate tests/fixtures/cli_golden.json.

The fixture holds the SHA-256 of CLI outputs that must stay byte-identical
across refactors: the ``tb-experiment`` CSV and JSON reports, and the
``dytb corona`` stdout and ``--out`` forest JSON, the ``dytb
transform-norm`` stdout (its sign draws follow the derived family's order),
and the ``dytb identities`` stdout (every residual of the battery, the
twisted-context ones included).  ``cli_hashes`` is also what the tier-1 test
recomputes, so the recorded and the checked outputs come from the same runs.
Regenerate only when an output is meant to change; the script then names
every hash that changed against the file it overwrites (or prints "no
change").

Usage: python tests/make_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from dytb.cli import main as cli_main

GOLDEN_PATH = Path(__file__).parent / "fixtures" / "cli_golden.json"

# tb-experiment cases: (dim, depth), 3 trials at the default master seed
TB_CASES = ((1, 6), (2, 4), (2, 5))  # 2D d5 takes the Lanczos norm
TB_TRIALS = 3
# corona cases: (dim, depth, seeds); each seed drives the systems and the kernel
CORONA_CASES = ((1, 10, (3, 5)), (2, 5, (4, 6)))
# transform-norm cases: (dim, depth, name suffix, extra options) at the default seed;
# the two-value cases at delta 0.45 have terminal cubes
_TWO_VALUE = ("--accretive-kind", "two-value", "--s", "0.9", "--delta", "0.45")
TRANSFORM_CASES = ((1, 8, "", ()), (2, 4, "", ()), (1, 10, "-two-value", _TWO_VALUE),
                   (1, 12, "-two-value", _TWO_VALUE), (2, 6, "-two-value", _TWO_VALUE))
# identities cases: (dim, depth) at the default seed
IDENTITY_CASES = ((1, 7), (2, 4))
OUT_PLACEHOLDER = "<out>"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tb_experiment_args(dim: int, depth: int, out) -> list[str]:
    return ["tb-experiment", "--dim", str(dim), "--depth", str(depth),
            "--trials", str(TB_TRIALS), "--out", str(out)]


def corona_args(dim: int, depth: int, seed: int, out) -> list[str]:
    return ["corona", "--dim", str(dim), "--depth", str(depth), "--seed", str(seed),
            "--kernel-seed", str(seed), "--out", str(out)]


def _run(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    if code != 0:
        raise RuntimeError(f"dytb {' '.join(argv)} exited with {code}")
    return buf.getvalue()


def cli_hashes(workdir) -> dict[str, str]:
    """Run every golden case with outputs under ``workdir``; name -> SHA-256.
    The corona stdout is hashed with its ``--out`` path replaced by a fixed
    placeholder, so the hash does not depend on ``workdir``."""
    workdir = Path(workdir)
    out: dict[str, str] = {}
    for dim, depth in TB_CASES:
        csv_path = workdir / f"tb-{dim}d-d{depth}.csv"
        _run(tb_experiment_args(dim, depth, csv_path))
        out[f"tb-experiment|{dim}d-d{depth}|csv"] = _sha(csv_path.read_bytes())
        out[f"tb-experiment|{dim}d-d{depth}|json"] = _sha(csv_path.with_suffix(".json").read_bytes())
    for dim, depth, seeds in CORONA_CASES:
        for seed in seeds:
            forest_path = workdir / f"corona-{dim}d-d{depth}-s{seed}.json"
            stdout = _run(corona_args(dim, depth, seed, forest_path))
            key = f"corona|{dim}d-d{depth}|seed{seed}"
            out[f"{key}|stdout"] = _sha(stdout.replace(str(forest_path), OUT_PLACEHOLDER).encode())
            out[f"{key}|forest"] = _sha(forest_path.read_bytes())
    for dim, depth, suffix, extra in TRANSFORM_CASES:
        stdout = _run(["transform-norm", "--dim", str(dim), "--depth", str(depth), *extra])
        out[f"transform-norm|{dim}d-d{depth}{suffix}|stdout"] = _sha(stdout.encode())
    for dim, depth in IDENTITY_CASES:
        stdout = _run(["identities", "--dim", str(dim), "--depth", str(depth)])
        out[f"identities|{dim}d-d{depth}|stdout"] = _sha(stdout.encode())
    return out


def changed_names(old: dict[str, str], new: dict[str, str]) -> list[str]:
    """The names whose hash differs between two fixtures, added and dropped
    names included."""
    return sorted(name for name in old.keys() | new.keys() if old.get(name) != new.get(name))


def main():
    with tempfile.TemporaryDirectory() as tmp:
        hashes = cli_hashes(tmp)
    old = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(hashes, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}: {len(hashes)} hashes")
    print("\n".join(f"changed: {name}" for name in changed_names(old, hashes)) or "no change")


if __name__ == "__main__":
    main()
