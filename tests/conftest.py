import os
import sys
import time
import uuid

import numpy as np
import pytest

from dytb import accretive, verify
from dytb.grid import DyadicCube, GridFunction, GridSpec

# Every process a test starts inherits this variable, and so does every norm
# helper such a process starts: the session-finish check finds this
# session's helpers by it.
SESSION_MARK = ("DYTB_TEST_SESSION", uuid.uuid4().hex)
os.environ[SESSION_MARK[0]] = SESSION_MARK[1]


def live_helpers() -> list[int]:
    """The pids of the norm helpers (``verify._serve_norms``) still alive that
    this session's processes started; empty where there is no /proc."""
    mark = "=".join(SESSION_MARK).encode()
    pids = []
    for pid in filter(str.isdigit, os.listdir("/proc") if os.path.isdir("/proc") else ()):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                if b"_serve_norms" not in fh.read():  # a zombie's is empty
                    continue
            with open(f"/proc/{pid}/environ", "rb") as fh:
                if mark in fh.read().split(b"\0"):
                    pids.append(int(pid))
        except OSError:  # gone meanwhile, or not ours to read
            continue
    return pids


def pytest_sessionfinish(session):
    """Fail the run if a norm helper that it started outlives it: the session's
    own helper is stopped as at exit, and every other one must be gone."""
    verify._HELPER.stop()
    deadline = time.monotonic() + 5.0
    while (left := live_helpers()) and time.monotonic() < deadline:
        time.sleep(0.05)
    if left:
        print(f"\nnorm helpers left running: {left}", file=sys.stderr)
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


@pytest.fixture(scope="session", autouse=True)
def norm_in_process():
    """Trials compute their norm in this process unless a test asks for the
    helper (``norm_helper``), so tests that count calls see the whole trial."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "_spare_cpu", lambda: False)
        yield


@pytest.fixture
def norm_helper(monkeypatch):
    """The session's norm helper, ready, taking every Lanczos-size trial's norm."""
    monkeypatch.setattr(verify, "_spare_cpu", lambda: True)
    deadline = time.monotonic() + 60.0
    while not verify._HELPER.poll():
        assert time.monotonic() < deadline, "the norm helper did not report ready"
        time.sleep(0.01)
    return verify._HELPER


def rand_fun(spec: GridSpec, rng: np.random.Generator, lo=-1.0, hi=1.0) -> GridFunction:
    return GridFunction(spec, rng.uniform(lo, hi, spec.n_cells))


def rand_signs(spec: GridSpec, rng: np.random.Generator) -> GridFunction:
    return GridFunction(spec, rng.choice([-1.0, 1.0], spec.n_cells))


def rand_cube(spec: GridSpec, rng: np.random.Generator, min_level=0, max_level=None) -> DyadicCube:
    max_level = spec.depth if max_level is None else max_level
    level = int(rng.integers(min_level, max_level + 1))
    coords = tuple(int(rng.integers(0, 2**level)) for _ in range(spec.dim))
    return DyadicCube(level, coords)


def cubes_at(spec: GridSpec, level: int) -> list[DyadicCube]:
    """The cubes of one level, row-major (flat index order)."""
    return [spec.cube_from_flat(level, r) for r in range(spec.n_cubes(level))]


def level_states(seed: int, spec: GridSpec, level: int) -> tuple:
    """The PCG64 ``(state, inc)`` of every cube of one level of a random-kind
    system with ``seed``, as ``accretive._uniform_rows`` takes them."""
    count = spec.n_cubes(level)
    return accretive._pcg_states([seed], np.zeros(count, dtype=np.int64), np.full(count, level),
                                 np.arange(count))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
