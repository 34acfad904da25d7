import numpy as np
import pytest

from dytb import accretive
from dytb.grid import DyadicCube, GridFunction, GridSpec


def rand_fun(spec: GridSpec, rng: np.random.Generator, lo=-1.0, hi=1.0) -> GridFunction:
    return GridFunction(spec, rng.uniform(lo, hi, spec.n_cells))


def rand_signs(spec: GridSpec, rng: np.random.Generator) -> GridFunction:
    return GridFunction(spec, rng.choice([-1.0, 1.0], spec.n_cells))


def rand_cube(spec: GridSpec, rng: np.random.Generator, min_level=0, max_level=None) -> DyadicCube:
    max_level = spec.depth if max_level is None else max_level
    level = int(rng.integers(min_level, max_level + 1))
    coords = tuple(int(rng.integers(0, 2**level)) for _ in range(spec.dim))
    return DyadicCube(level, coords)


def level_states(seed: int, spec: GridSpec, level: int) -> tuple:
    """The PCG64 ``(state, inc)`` of every cube of one level of a random-kind
    system with ``seed``, as ``accretive._uniform_rows`` takes them."""
    count = spec.n_cubes(level)
    return accretive._pcg_states([seed], np.zeros(count, dtype=np.int64), np.full(count, level),
                                 np.arange(count))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
