"""Systems of locally accretive test functions, one function b_Q per cube.

Each b_Q is supported on Q, has integral exactly |Q|, and obeys the norm
budget ||b_Q||_p <= A |Q|^(1/p) for the system's exponent p and declared
constant A > 1.  Generation is deterministic per (seed, cube).  The cubes of
one level tile the grid, so a system stores all b_Q of a level in one
finest-cell array, built and checked on first use: depth+1 arrays, O(cells *
depth) memory.  Only the b_Q that callers ask for are copied out as full-grid
functions and memoised.  A system is not safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import DyadicCube, GridFunction, GridSpec, from_cube_blocks, level_sums, lp_norm

__all__ = ["AccretiveSystem", "validate", "ACCRETIVE_KINDS"]

ACCRETIVE_KINDS = ("constant", "two-value", "signed", "random")

# Generators must keep cell values away from zero (twisted denominators are
# protected structurally, but tiny values wreck conditioning); only the signed
# kind is allowed to produce exact zeros.
MIN_ABS_VALUE = 1e-6


@dataclass
class AccretiveSystem:
    """A deterministic rule (kind, seed, params) producing b_Q on demand.

    kinds:
      constant   b_Q = 1_Q; minimal constant 1.
      two-value  1+s on a pseudo-random half of Q's cells, 1-s on the rest
                 (param s in [0, 1-1e-6)); single-cell cubes fall back to 1.
      signed     2 on the second half of Q's cells (row-major), 0 on the first
                 half; the only kind allowed to produce zeros.
      random     1 + amp*w with w mean-zero noise scaled into [-1, 1], so cell
                 values stay inside [1-amp, 1+amp] (param amp in (0, 1-1e-5]).
    """

    spec: GridSpec
    kind: str
    p: float
    A: float
    seed: int = 0
    params: dict = field(default_factory=dict)
    _levels: dict = field(default_factory=dict, repr=False, compare=False)
    _memo: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in ACCRETIVE_KINDS:
            raise ValueError(f"unknown kind {self.kind!r}; expected one of {ACCRETIVE_KINDS}")
        if not self.p > 1.0:
            raise ValueError(f"p must be > 1, got {self.p}")
        if not self.A > 1.0:
            raise ValueError(f"A must be > 1, got {self.A}")
        if self.kind == "two-value":
            s = float(self.params.get("s", 0.5))
            if not 0.0 <= s < 1.0 - MIN_ABS_VALUE:
                raise ValueError(f"two-value parameter s={s} out of range")
        if self.kind == "random":
            amp = float(self.params.get("amp", 0.5))
            if not 0.0 < amp <= 1.0 - 1e-5:
                raise ValueError(f"random parameter amp={amp} out of range")
        worst = self.worst_constant()
        if worst > self.A * (1 + 1e-9):
            raise ValueError(
                f"declared A={self.A} is below the kind's worst-case constant {worst:.6g}"
            )

    def worst_constant(self) -> float:
        """Largest value validate() can measure for this kind and parameters."""
        if self.kind == "constant":
            return 1.0
        if self.kind == "two-value":
            s = float(self.params.get("s", 0.5))
            return (((1 + s) ** self.p + (1 - s) ** self.p) / 2.0) ** (1.0 / self.p)
        if self.kind == "signed":
            return (2.0**self.p / 2.0) ** (1.0 / self.p)
        return 1.0 + float(self.params.get("amp", 0.5))

    def get_b(self, cube: DyadicCube) -> GridFunction:
        """The test function attached to ``cube`` (memoised, deterministic)."""
        self.spec.check(cube)
        key = (cube.level, self.spec.cube_flat(cube))
        b = self._memo.get(key)
        if b is None:
            idx = self.spec.cell_indices(cube)
            vals = np.zeros(self.spec.n_cells)
            vals[idx] = self.level_values(cube.level)[idx]
            b = self._memo[key] = GridFunction(self.spec, vals)
        return b

    def level_values(self, level: int) -> np.ndarray:
        """Cell values of all b_Q of one level at once (read-only).

        Cubes of one level tile the grid, so the value at a cell is that of
        b_Q for the level-``level`` cube Q containing it.
        """
        vals = self._levels.get(level)
        if vals is None:
            if not 0 <= level <= self.spec.depth:
                raise ValueError(f"level {level} outside [0, {self.spec.depth}]")
            n = self.spec.n_cells // self.spec.n_cubes(level)
            blocks = np.array([self._cube_values(level, flat, n)
                               for flat in range(self.spec.n_cubes(level))])
            vals = from_cube_blocks(self.spec, level, blocks)
            self._check_level(level, vals, blocks)
            vals.setflags(write=False)
            self._levels[level] = vals
        return vals

    # -- generation ---------------------------------------------------------

    def _rng(self, level: int, flat: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(level, flat)))

    def _cube_values(self, level: int, flat: int, n: int) -> np.ndarray:
        """b_Q on the ``n`` cells of cube (level, flat), in ``cell_indices`` order."""
        if self.kind == "constant" or n == 1:
            return np.ones(n)
        if self.kind == "two-value":
            s = float(self.params.get("s", 0.5))
            vals = np.full(n, 1.0 - s)
            vals[self._rng(level, flat).permutation(n)[: n // 2]] = 1.0 + s
            return vals
        if self.kind == "signed":
            vals = np.zeros(n)
            vals[n // 2 :] = 2.0
            return vals
        amp = float(self.params.get("amp", 0.5))
        w = self._rng(level, flat).uniform(-1.0, 1.0, n)
        w -= w.mean()
        peak = np.abs(w).max()
        if peak > 1.0:  # keep values inside [1-amp, 1+amp] after recentring
            w /= peak
        return 1.0 + amp * w

    def _check_level(self, level: int, vals: np.ndarray, blocks: np.ndarray) -> None:
        """The per-cube invariants of every b_Q of one level, vectorised."""
        spec = self.spec
        volume = 2.0 ** (-spec.dim * level)
        mags = np.abs(blocks)
        checks = [
            # the same bottom-up sums that get_b(Q).integral(Q) reports
            (np.abs(level_sums(spec, vals)[level] * spec.cell_volume - volume) > 1e-12 * volume,
             "mean of b_Q off"),
            ((np.sum(mags**self.p, axis=1) * spec.cell_volume) ** (1.0 / self.p)
             > self.A * volume ** (1.0 / self.p) * (1 + 1e-12), "norm budget exceeded"),
        ]
        if self.kind != "signed":
            checks.append((mags.min(axis=1) < MIN_ABS_VALUE, "near-zero cell value"))
        for bad, what in checks:
            if bad.any():
                cube = spec.cube_from_flat(level, int(np.flatnonzero(bad)[0]))
                raise RuntimeError(f"generator bug: {what} on {cube}")

    # -- serialization --------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "p": self.p, "A": self.A, "seed": self.seed,
                "params": dict(self.params)}

    @staticmethod
    def from_json_dict(spec: GridSpec, data: dict) -> AccretiveSystem:
        return AccretiveSystem(spec, data["kind"], float(data["p"]), float(data["A"]),
                               int(data.get("seed", 0)), dict(data.get("params", {})))


def validate(system: AccretiveSystem, cube: DyadicCube) -> tuple[bool, float]:
    """Check the per-cube invariants; returns (ok, measured constant).

    measured = ||b_Q||_p / |Q|^(1/p); ok requires support inside Q, integral
    |Q| to 1e-12 relative, and measured <= declared A.
    """
    b = system.get_b(cube)
    inside = np.zeros(system.spec.n_cells, dtype=bool)
    inside[system.spec.cell_indices(cube)] = True
    support_ok = bool(np.all(b.values[~inside] == 0.0))
    mean_ok = abs(b.integral(cube) - cube.volume) <= 1e-12 * cube.volume
    measured = lp_norm(b, system.p, cube) / cube.volume ** (1.0 / system.p)
    ok = support_ok and mean_ok and measured <= system.A * (1 + 1e-12)
    return ok, measured
