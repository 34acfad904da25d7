"""Systems of locally accretive test functions, one function b_Q per cube.

Each b_Q is supported on Q, has integral exactly |Q|, and obeys the norm
budget ||b_Q||_p <= A |Q|^(1/p) for the system's exponent p and declared
constant A > 1.  Generation is deterministic per (seed, cube).  The cubes of
one level tile the grid, so a system stores all b_Q of a level in one
finest-cell array, built and checked on first use: depth+1 arrays, O(cells *
depth) memory.  The corona forest, the twisted calculus and every trial read
b from these arrays.  ``get_b`` copies one b_Q out as a full-grid function on
every call and keeps nothing; only ``validate``, the demos and the tests
call it.  ``level_sweep`` gives T b_Q on every cube of a
level at once, swept once per (operator, level) and kept while the operator
lives: (depth+1) more arrays per operator.  A system is not safe to share
between threads.

A level is built in one batch (``_level_blocks``).  The random and two-value
kinds draw b_Q from one ``SeedSequence(seed, spawn_key=(level, flat))``
generator per cube.  For the random kind the batch reproduces those
generators bit for bit without building them: the seeding of every cube of
every level is one vectorised hash, and the draws of a level are PCG
jump-aheads from shared power tables.  Each 128-bit PCG value is a pair of
uint64 halves (hi, lo), multiplied by (a b) mod 2^128 = a_lo b_lo + ((a_hi b_lo
+ a_lo b_hi) mod 2^64) 2^64 on numpy's wrapping uint64 products.  The
draws run along the longer of (cubes, cells per cube): fine levels, with
many cubes of a few cells, compute cubes-innermost and transpose once into
contiguous per-cube rows.  The row means, maxima and norms then go through
``grid.row_reduce``, which sums short rows column by column in numpy's own
order.  The two-value kind still builds one generator per cube, since its
permutation draws a variable number of values.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .grid import (DyadicCube, GridFunction, GridSpec, from_cube_blocks, level_sum, lp_norm,
                   row_reduce)

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
    _seeds: dict = field(default_factory=dict, repr=False, compare=False)
    _sweeps: weakref.WeakKeyDictionary = field(default_factory=weakref.WeakKeyDictionary,
                                               repr=False, compare=False)

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
        """The test function attached to ``cube``, a fresh full-grid copy
        (deterministic, not memoised)."""
        self.spec.check(cube)
        idx = self.spec.cell_indices(cube)
        vals = np.zeros(self.spec.n_cells)
        vals[idx] = self.level_values(cube.level)[idx]
        return GridFunction(self.spec, vals)

    def level_values(self, level: int) -> np.ndarray:
        """Cell values of all b_Q of one level at once (read-only).

        Cubes of one level tile the grid, so the value at a cell is that of
        b_Q for the level-``level`` cube Q containing it.
        """
        vals = self._levels.get(level)
        if vals is None:
            if not 0 <= level <= self.spec.depth:
                raise ValueError(f"level {level} outside [0, {self.spec.depth}]")
            blocks = self._level_blocks(level, self.spec.n_cells // self.spec.n_cubes(level))
            vals = from_cube_blocks(self.spec, level, blocks)
            self._check_level(level, vals, blocks)
            vals.setflags(write=False)
            self._levels[level] = vals
        return vals

    def level_sweep(self, op: kernels.PerfectKernel, level: int) -> np.ndarray:
        """``op`` applied to ``level_values(level)`` with its entries above the
        level dropped, which on every cube Q of the level is T b_Q
        (``kernels._sweep_from``); read-only.  Swept on the first call per
        operator and level, and kept while the operator lives."""
        memo = self._sweeps.setdefault(op, {})
        tb = memo.get(level)
        if tb is None:
            tb = kernels._sweep_from(op, self.level_values(level), level)
            tb.setflags(write=False)
            memo[level] = tb
        return tb

    # -- generation ---------------------------------------------------------

    def _level_blocks(self, level: int, n: int) -> np.ndarray:
        """b_Q of every cube of ``level``: row ``flat`` holds the ``n`` cells of
        cube (level, flat) in ``cell_indices`` order."""
        count = self.spec.n_cubes(level)
        if self.kind == "constant" or n == 1:
            return np.ones((count, n))
        if self.kind == "signed":
            blocks = np.zeros((count, n))
            blocks[:, n // 2 :] = 2.0
            return blocks
        if self.kind == "two-value":
            s = float(self.params.get("s", 0.5))
            blocks = np.full((count, n), 1.0 - s)
            for flat, row in enumerate(blocks):
                seeds = np.random.SeedSequence(self.seed, spawn_key=(level, flat))
                row[np.random.default_rng(seeds).permutation(n)[: n // 2]] = 1.0 + s
            return blocks
        if level not in self._seeds:  # first draw, or a level that failed its check
            self._seeds = _seed_levels(self.seed, self.spec)
        w = _uniform_rows(*self._seeds.pop(level), n)
        w -= (row_reduce(np.add, w) / n)[:, None]  # w.mean(axis=1, keepdims=True)
        # keep values inside [1-amp, 1+amp] after recentring
        peak = row_reduce(np.maximum, np.abs(w))[:, None]
        np.divide(w, peak, out=w, where=peak > 1.0)
        return 1.0 + float(self.params.get("amp", 0.5)) * w

    def _check_level(self, level: int, vals: np.ndarray, blocks: np.ndarray) -> None:
        """The per-cube invariants of every b_Q of one level, vectorised: mean,
        norm budget, and (for every kind but ``signed``) no cell below
        ``MIN_ABS_VALUE``, checked in that order.  A failure raises RuntimeError
        naming the first bad cube (row-major) of the first failed check.  The
        near-zero check is one minimum over the whole level; the per-cube
        minima, a slow row-wise reduction on rows of a few cells, are taken
        only when it fails, to name the cube."""
        spec = self.spec
        volume = 2.0 ** (-spec.dim * level)
        mags = np.abs(blocks)
        checks = [
            # the same bottom-up sums that get_b(Q).integral(Q) reports
            (np.abs(level_sum(spec, vals, level) * spec.cell_volume - volume) > 1e-12 * volume,
             "mean of b_Q off"),
            ((row_reduce(np.add, mags**self.p) * spec.cell_volume) ** (1.0 / self.p)
             > self.A * volume ** (1.0 / self.p) * (1 + 1e-12), "norm budget exceeded"),
        ]
        if self.kind != "signed" and mags.min() < MIN_ABS_VALUE:
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


# -- batched draws ----------------------------------------------------------------
#
# The random kind draws b_Q from PCG64 seeded by SeedSequence(seed,
# spawn_key=(level, flat)).  NEP 19 fixes both streams, so the seeding and the
# draws of all cubes can be computed in numpy arithmetic instead of one
# generator per cube.  A 128-bit PCG value is a pair (hi, lo) of uint64 words
# (arrays or numpy scalars).  numpy's uint64 array multiply wraps mod 2^64, so
# (a b) mod 2^128 = a_lo b_lo + ((a_hi b_lo + a_lo b_hi) mod 2^64) 2^64 leaves
# only the high word of a_lo b_lo to compute, from 32-bit halves.  At least one
# operand of every product is an array: a numpy scalar product warns on wrap.

_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # SeedSequence entropy hash
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # SeedSequence.generate_state hash
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# (M^(k+1), G_(k+1)) for k < size as uint64 (hi, lo) rows of shape (2, size),
# with M the PCG multiplier and G_j = sum_{i<j} M^i; grown by doubling on
# demand to the largest cube drawn (32 bytes per cell) and shared by every
# system: building them once per system would cost about 0.2 ms at 64 cells,
# near the 0.3 ms of the batched draws of a whole 1D depth-6 system.
_jumps: tuple[np.ndarray, np.ndarray] | None = None


def _halves(x: int) -> tuple:
    """The (hi, lo) pair of a 128-bit int, as numpy uint64 scalars."""
    return np.uint64(x >> 64), np.uint64(x & 0xFFFFFFFFFFFFFFFF)


def _mul128(a, b) -> tuple:
    """(a b) mod 2^128 of (hi, lo) pairs."""
    (a_hi, a_lo), (b_hi, b_lo) = a, b
    a1, a0, b1, b0 = a_lo >> 32, a_lo & _MASK32, b_lo >> 32, b_lo & _MASK32
    mid = a1 * b0 + (a0 * b0 >> 32)  # each sum stays below 2^64
    mid2 = a0 * b1 + (mid & _MASK32)
    top = a1 * b1 + (mid >> 32) + (mid2 >> 32)  # high word of a_lo b_lo
    return top + a_hi * b_lo + a_lo * b_hi, a_lo * b_lo


def _add128(a, b) -> tuple:
    """(a + b) mod 2^128 of (hi, lo) pairs."""
    lo = a[1] + b[1]
    return a[0] + b[0] + (lo < b[1]), lo


def _hashmix(value, hc):
    """SeedSequence's ``hashmix`` on uint32 words: (hashed value, next constant)."""
    value = value ^ hc
    hc = hc * _MULT_A & _MASK32
    value = value * hc & _MASK32
    return value ^ value >> 16, hc


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _MASK32
    return r ^ r >> 16


def _generate_state(seed: int, level: np.ndarray, flat: np.ndarray) -> list:
    """``SeedSequence(seed, spawn_key=(level[i], flat[i])).generate_state(8)``
    for every i: eight uint32 words, as uint64 arrays over i.

    The entropy words are the seed's words (zero-padded to the pool size)
    followed by the two spawn words, so the pool hash of everything but those
    two words is shared by all i and done once with ints."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = []
    while True:
        words.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    words += [0] * (_POOL - len(words))
    hc, pool = _INIT_A, []
    for word in words[:_POOL]:
        word, hc = _hashmix(word, hc)
        pool.append(word)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                word, hc = _hashmix(pool[src], hc)
                pool[dst] = _mix(pool[dst], word)
    for word in words[_POOL:]:
        for dst in range(_POOL):
            mixed, hc = _hashmix(word, hc)
            pool[dst] = _mix(pool[dst], mixed)
    pool = [np.full(level.size, word, dtype=np.uint32) for word in pool]
    for spawn in (level.astype(np.uint32), flat.astype(np.uint32)):
        for dst in range(_POOL):
            mixed, hc = _hashmix(spawn, hc)
            pool[dst] = _mix(pool[dst], mixed)
    hc, out = _INIT_B, []
    for i in range(8):  # cycling through the pool
        word = pool[i % _POOL] ^ hc
        hc = hc * _MULT_B & _MASK32
        word = word * hc
        out.append((word ^ word >> 16).astype(np.uint64))
    return out


def _seed_levels(seed: int, spec: GridSpec) -> dict:
    """For every cube of the levels that draw (cubes of more than one cell),
    the ``(state, inc)`` of ``PCG64(SeedSequence(seed, spawn_key=(level,
    flat))).state`` as (hi, lo) pairs, keyed by level and indexed by flat:
    all levels are seeded in one batch."""
    counts = [spec.n_cubes(level) for level in range(spec.depth)]
    w = _generate_state(seed, np.repeat(np.arange(spec.depth), counts),
                        np.concatenate([np.arange(count) for count in counts]))
    # as uint64 (w0|w1, w2|w3, w4|w5, w6|w7) = (seed hi, seed lo, seq hi, seq lo)
    s = (w[0] | w[1] << 32, w[2] | w[3] << 32)
    seq_hi, seq_lo = w[4] | w[5] << 32, w[6] | w[7] << 32
    inc = (seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1)
    # PCG64 seeding: state 0, step, add s, step; a step is x -> M x + inc
    state = _add128(_mul128(_add128(s, inc), _halves(_PCG_MULT)), inc)
    bounds = np.cumsum([0, *counts])
    return {level: tuple(tuple(word[start:stop] for word in pair) for pair in (state, inc))
            for level, (start, stop) in enumerate(zip(bounds[:-1], bounds[1:]))}


def _jump_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """M^(k+1) and G_(k+1) for k < at least n (see ``_jumps``)."""
    global _jumps
    tables = _jumps
    if tables is None:
        tables = tuple(np.array(_halves(x), dtype=np.uint64)[:, None] for x in (_PCG_MULT, 1))
    while tables[0].shape[1] < n:
        # M^(size+k+1) = M^size M^(k+1), G_(size+k+1) = G_size + M^size G_(k+1)
        powers, sums = tables
        jump = _halves(pow(_PCG_MULT, powers.shape[1], 1 << 128))
        grown = (_mul128(jump, powers), _add128(sums[:, -1], _mul128(jump, sums)))
        tables = tuple(np.concatenate([old, np.array(new)], axis=1)
                       for old, new in zip(tables, grown))
        _jumps = tables
    return tables


def _uniform_rows(state, inc, n: int) -> np.ndarray:
    """``Generator.uniform(-1, 1, n)`` of every PCG64 ``(state, inc)`` ((hi, lo)
    pairs of arrays over cubes), one C-contiguous row per cube: draw k outputs
    the state M^(k+1) state + G_(k+1) inc by PCG's XSL-RR, then ``(out >> 11)
    2^-53``.

    Every step is elementwise, so it runs with the longer of (cubes, draws)
    as the inner axis: a fine level of many small cubes computes a
    ``(draws, cubes)`` array and copies its transpose once into rows, which
    the row reductions of ``_level_blocks`` need contiguous."""
    powers, sums = (table[:, :n] for table in _jump_tables(n))
    wide = state[0].size > n  # more cubes than draws: cubes along the inner axis
    if wide:
        state, inc = ([word[None, :] for word in pair] for pair in (state, inc))
        powers, sums = powers[:, :, None], sums[:, :, None]
    else:
        state, inc = ([word[:, None] for word in pair] for pair in (state, inc))
    hi, lo = _add128(_mul128(state, powers), _mul128(inc, sums))
    xor, rot = hi ^ lo, hi >> 58
    out = xor >> rot | xor << ((64 - rot) & 63)
    draws = -1.0 + 2.0 * ((out >> 11) * (1.0 / 9007199254740992.0))
    return np.ascontiguousarray(draws.T) if wide else draws
