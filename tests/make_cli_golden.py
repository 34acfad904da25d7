#!/usr/bin/env python3
"""Regenerate tests/fixtures/cli_golden.json.

The fixture holds the SHA-256 of CLI outputs that must stay byte-identical
across refactors: the ``tb-experiment`` CSV and JSON reports, and the
``dytb corona`` stdout and ``--out`` forest JSON, the ``dytb
transform-norm`` stdout (its sign draws follow the derived family's order),
the ``dytb identities`` stdout (every residual of the battery, the
twisted-context ones included), and the stdout of every demo.  A few
``tb-experiment`` and ``dytb corona`` cases run with p1 != p2, so a swap of
which system meets T at p2' changes a hash.  ``cli_hashes`` is also what the
tier-1 test recomputes, so the recorded and the checked outputs come from
the same runs; the demos' hashes are checked by the demo smoke test, on the
stdout it captures.  Regenerate only when an output is meant to change; the
script then names every hash that changed against the file it overwrites
(or prints "no change").

Usage: python tests/make_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import re
import runpy
import tempfile
from pathlib import Path

from dytb.cli import main as cli_main

GOLDEN_PATH = Path(__file__).parent / "fixtures" / "cli_golden.json"
DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
DEMO_PREFIX = "demo|"

_UNEQUAL = ("--p1", "1.5", "--p2", "3")
# tb-experiment cases: (dim, depth, name suffix, extra options), 3 trials at the
# default master seed; 2D d5 takes the Lanczos norm
TB_CASES = ((1, 6, "", ()), (2, 4, "", ()), (2, 5, "", ()),
            (1, 6, "-p1.5-p3", _UNEQUAL), (2, 4, "-p1.5-p3", _UNEQUAL))
TB_TRIALS = 3
# corona cases: (dim, depth, seeds, name suffix, extra options); each seed
# drives the systems and the kernel
CORONA_CASES = ((1, 10, (3, 5), "", ()), (2, 5, (4, 6), "", ()), (1, 10, (3,), "-p1.5-p3", _UNEQUAL))
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


def tb_experiment_args(dim: int, depth: int, out, extra=()) -> list[str]:
    return ["tb-experiment", "--dim", str(dim), "--depth", str(depth),
            "--trials", str(TB_TRIALS), "--out", str(out), *extra]


def corona_args(dim: int, depth: int, seed: int, out, extra=()) -> list[str]:
    return ["corona", "--dim", str(dim), "--depth", str(depth), "--seed", str(seed),
            "--kernel-seed", str(seed), "--out", str(out), *extra]


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
    for dim, depth, suffix, extra in TB_CASES:
        csv_path = workdir / f"tb-{dim}d-d{depth}{suffix}.csv"
        _run(tb_experiment_args(dim, depth, csv_path, extra))
        out[f"tb-experiment|{dim}d-d{depth}{suffix}|csv"] = _sha(csv_path.read_bytes())
        out[f"tb-experiment|{dim}d-d{depth}{suffix}|json"] = _sha(csv_path.with_suffix(".json").read_bytes())
    for dim, depth, seeds, suffix, extra in CORONA_CASES:
        for seed in seeds:
            forest_path = workdir / f"corona-{dim}d-d{depth}{suffix}-s{seed}.json"
            stdout = _run(corona_args(dim, depth, seed, forest_path, extra))
            key = f"corona|{dim}d-d{depth}{suffix}|seed{seed}"
            out[f"{key}|stdout"] = _sha(stdout.replace(str(forest_path), OUT_PLACEHOLDER).encode())
            out[f"{key}|forest"] = _sha(forest_path.read_bytes())
    for dim, depth, suffix, extra in TRANSFORM_CASES:
        stdout = _run(["transform-norm", "--dim", str(dim), "--depth", str(depth), *extra])
        out[f"transform-norm|{dim}d-d{depth}{suffix}|stdout"] = _sha(stdout.encode())
    for dim, depth in IDENTITY_CASES:
        stdout = _run(["identities", "--dim", str(dim), "--depth", str(depth)])
        out[f"identities|{dim}d-d{depth}|stdout"] = _sha(stdout.encode())
    return out


def demo_key(path) -> str:
    return f"{DEMO_PREFIX}{Path(path).stem}|stdout"


def demo_stdout_sha(stdout: str) -> str:
    """SHA-256 of a demo's stdout with every duration "<number> ms" masked:
    demo 02 prints how long an apply took."""
    return _sha(re.sub(r"\d+(\.\d+)? ms\b", "<n> ms", stdout).encode())


def demo_hashes() -> dict[str, str]:
    """Run every demo in this interpreter; name -> ``demo_stdout_sha`` of its stdout."""
    out = {}
    for path in DEMOS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            runpy.run_path(str(path), run_name="__main__")
        out[demo_key(path)] = demo_stdout_sha(buf.getvalue())
    return out


def read_golden(demos: bool) -> dict[str, str]:
    """The recorded hashes of the demos (``demos=True``) or of the CLI cases."""
    return {name: sha for name, sha in json.loads(GOLDEN_PATH.read_text()).items()
            if name.startswith(DEMO_PREFIX) == demos}


def changed_names(old: dict, new: dict) -> list[str]:
    """The names whose value (a hash here, a constant in ``make_fixtures``)
    differs between two fixtures, added and dropped names included."""
    return sorted(name for name in old.keys() | new.keys() if old.get(name) != new.get(name))


def main():
    with tempfile.TemporaryDirectory() as tmp:
        hashes = {**cli_hashes(tmp), **demo_hashes()}
    old = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(hashes, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}: {len(hashes)} hashes")
    print("\n".join(f"changed: {name}" for name in changed_names(old, hashes)) or "no change")


if __name__ == "__main__":
    main()
