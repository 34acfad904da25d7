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
kinds draw b_Q from the PCG64 stream of ``SeedSequence(seed,
spawn_key=(level, flat))``, one per cube, reproduced bit for bit without a
SeedSequence per cube: the seeding of many cubes is one vectorised hash
giving each cube's PCG64 ``(state, inc)``.  A cube of many cells runs its
stream on numpy's own PCG64, one generator per thread with that state set
(``_streams``).  Cubes of a few cells are drawn in numpy arithmetic instead,
since a PCG64 stream is the affine recurrence s -> M s + inc: the state
behind a cube's k-th output is s_0 + G_(k+1) w, with w = (M - 1) s_0 + inc
per cube and G_j = sum_{i<j} M^i from one table shared by every system, one
128-bit product per value.  Every random level goes through one drawer
(``_draw_random``): a level read on its own is a batch of one, and an
instance's two systems are drawn together (``draw_levels``), one seeding
pass for the cubes of both, then one batch of rows per level for both, up
to a size that still fits the core's cache, checked for both in one pass
(``_store``).  The two-value kind shuffles the cubes of a level together,
one Fisher-Yates swap for every cube at a time (``_permutations``), where
the level has many more small cubes than cells per cube, and by numpy's own
permutation per cube elsewhere.  Each 128-bit PCG value is a pair of uint64
halves (hi, lo), multiplied by (a b) mod 2^128 = a_lo b_lo + ((a_hi b_lo +
a_lo b_hi) mod 2^64) 2^64 on numpy's wrapping uint64 products.  The
emulated draws run along the longer of (cubes, cells per cube): fine
levels, with many cubes of a few cells, compute cubes-innermost and
transpose once into contiguous per-cube rows.  The row means, maxima and
norms then go through ``grid.row_reduce``, which sums short rows column by
column in numpy's own order.
"""

from __future__ import annotations

import math
import threading
import weakref
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .grid import (DyadicCube, GridFunction, GridSpec, from_cube_blocks, level_sum, lp_norm,
                   row_reduce)

__all__ = ["AccretiveSystem", "draw_levels", "validate", "ACCRETIVE_KINDS"]

ACCRETIVE_KINDS = ("constant", "two-value", "signed", "random")
_PARAM_NAMES = {"two-value": "s", "random": "amp"}  # the one parameter of a kind that takes one

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

    A kind's parameter defaults to 0.5; ``params`` holding any other key is a
    ValueError.
    """

    spec: GridSpec
    kind: str
    p: float
    A: float
    seed: int = 0
    params: dict = field(default_factory=dict)
    _param: float = field(default=0.5, init=False, repr=False, compare=False)  # s or amp
    _levels: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _sweeps: weakref.WeakKeyDictionary = field(default_factory=weakref.WeakKeyDictionary,
                                               init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in ACCRETIVE_KINDS:
            raise ValueError(f"unknown kind {self.kind!r}; expected one of {ACCRETIVE_KINDS}")
        if not self.p > 1.0:
            raise ValueError(f"p must be > 1, got {self.p}")
        if self.p == math.inf:
            raise ValueError(f"p must be finite, got {self.p}")
        if not self.A > 1.0:
            raise ValueError(f"A must be > 1, got {self.A}")
        name = _PARAM_NAMES.get(self.kind)
        for key in self.params:
            if key != name:
                raise ValueError(f"{self.kind} systems take no parameter {key!r}")
        if name is not None:
            self._param = float(self.params.get(name, self._param))
        if self.kind == "two-value" and not 0.0 <= self._param < 1.0 - MIN_ABS_VALUE:
            raise ValueError(f"two-value parameter s={self._param} out of range")
        if self.kind == "random" and not 0.0 < self._param <= 1.0 - 1e-5:
            raise ValueError(f"random parameter amp={self._param} out of range")
        with np.errstate(over="ignore"):  # A^p, the budget of every |b_Q|^p and a stopping cap
            budget, cells = np.float64(self.A) ** self.p, np.float64(2.0) ** self.p
        if budget == np.inf:  # every kind's cells are at most 2: if 2^p fits, A is at fault
            raise _overflow(self.p) if cells == np.inf else ValueError(
                f"constant A={self.A!r} is too large for float64 powers: A^p overflows at p={self.p!r}")
        worst = self.worst_constant()
        if worst > self.A * (1 + 1e-9):
            raise ValueError(
                f"declared A={self.A} is below the kind's worst-case constant {worst:.6g}"
            )

    def worst_constant(self) -> float:
        """Largest value validate() can measure for this kind and parameters."""
        if self.kind == "constant":
            return 1.0
        if self.kind == "two-value":  # ((1+s)^p/2 + (1-s)^p/2)^(1/p), with no overflow
            s = self._param
            return (1 + s) * ((1 + ((1 - s) / (1 + s)) ** self.p) / 2.0) ** (1.0 / self.p)
        if self.kind == "signed":
            return 2.0 ** (1.0 - 1.0 / self.p)  # (2^p / 2)^(1/p)
        return 1.0 + self._param

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
            n = self.spec.n_cells // self.spec.n_cubes(level)
            _store(level, [self], self._level_blocks(level, n))
            vals = self._levels[level]
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
            s = self._param
            blocks = np.full((count, n), 1.0 - s)
            flats = np.arange(count)
            states = _pcg_states([self.seed], np.zeros_like(flats), np.full_like(flats, level), flats)
            # the batch steps through n - 1 swaps at a few dozen numpy calls
            # a step, over every cube; numpy's permutation per cube costs a
            # state set and a call (``_TWO_VALUE_BATCH``)
            if n <= _TWO_VALUE_BATCH <= count // n:
                blocks[flats, _permutations(*states, n)[: n // 2]] = 1.0 + s
                return blocks
            for row, rng in zip(blocks, _streams(*states)):
                row[rng.permutation(n)[: n // 2]] = 1.0 + s
            return blocks
        ((_, _, blocks),) = _draw_random([(self, level)])
        return blocks


def _store(level: int, systems: list, blocks: np.ndarray) -> None:
    """Check the b_Q of ``systems`` (all on one grid) at one ``level`` and keep
    each system's as its read-only level array.  ``blocks`` stacks the
    systems' blocks (``_level_blocks``): system k's cube ``flat`` is row k
    cubes + flat.

    The per-cube invariants are checked for every system in one pass: finite
    cells, mean, norm budget, and (for every kind but ``signed``) no cell
    below ``MIN_ABS_VALUE``.  A failure raises RuntimeError naming the first
    bad cube (row-major) of the first failed check of the first system that
    fails one, as if each system were checked on its own in turn, and the
    systems before it are kept; except a norm budget failed by sums of
    |b_Q|^p that overflow float64 while the budget A^p |Q| / cell_volume
    overflows too: that is the exponent's fault, a ValueError.  The finite
    and near-zero checks are one maximum and one minimum over the whole
    stack; the per-cube reductions, slow row-wise on rows of a few cells, are
    taken only when one fails, to name the cube.  The finite check comes
    first because NaN compares False in every other, so a stack with a
    non-finite cell is checked one system at a time."""
    spec = systems[0].spec
    count = spec.n_cubes(level)
    rows = [slice(k * count, (k + 1) * count) for k in range(len(systems))]
    mags = np.abs(blocks)
    if not np.isfinite(mags.max()):
        if len(systems) > 1:
            for system, row in zip(systems, rows):
                _store(level, [system], blocks[row])
            return
        bad = ~np.isfinite(mags).all(axis=1)
        raise RuntimeError(f"generator bug: non-finite cell value on "
                           f"{spec.cube_from_flat(level, int(np.flatnonzero(bad)[0]))}")
    near = mags.min() < MIN_ABS_VALUE
    vals = from_cube_blocks(spec, level, blocks.reshape(len(systems), count, -1))
    vals.setflags(write=False)
    volume = 2.0 ** (-spec.dim * level)
    # the same bottom-up sums that get_b(Q).integral(Q) reports
    means = np.abs(level_sum(spec, vals, level) * spec.cell_volume - volume) > 1e-12 * volume
    with np.errstate(over="ignore"):
        for system, row in zip(systems, rows):
            power = mags[row]  # |b_Q|^p in place
            power **= system.p
        powers = row_reduce(np.add, mags)
    for system, row, mean, cells in zip(systems, rows, means, vals):
        checks = [(mean, "mean of b_Q off"),
                  ((powers[row] * spec.cell_volume) ** (1.0 / system.p)
                   > system.A * volume ** (1.0 / system.p) * (1 + 1e-12), "norm budget exceeded")]
        if system.kind != "signed" and near:
            checks.append((np.abs(blocks[row]).min(axis=1) < MIN_ABS_VALUE, "near-zero cell value"))
        for bad, what in checks:
            if bad.any():
                if what == "norm budget exceeded":
                    with np.errstate(over="ignore"):
                        budget = np.float64(system.A) ** system.p * blocks.shape[1]
                    if powers[row].max() == np.inf and budget == np.inf:
                        raise _overflow(system.p)
                cube = spec.cube_from_flat(level, int(np.flatnonzero(bad)[0]))
                raise RuntimeError(f"generator bug: {what} on {cube}")
        system._levels[level] = cells


def _overflow(p: float) -> ValueError:
    """The error of an exponent whose powers A^p or |b_Q|^p overflow float64."""
    return ValueError(f"exponent p={p!r} is too large for float64 powers")


def draw_levels(systems) -> None:
    """Build every level of every system in ``systems`` (all on one grid),
    level by level.  The levels of the random kind not built yet are drawn
    for all systems together, through the drawer ``level_values`` uses for
    one level (``_draw_random``), and the systems drawn together at a level
    are checked and kept in one ``_store``; the other kinds build as in
    ``level_values``."""
    spec = systems[0].spec
    if any(system.spec != spec for system in systems):
        raise ValueError("grid mismatch between systems")
    groups = [(system, level) for level in range(spec.depth) for system in systems
              if system.kind == "random" and level not in system._levels]
    for level, drawn, blocks in _draw_random(groups) if groups else ():
        _store(level, drawn, blocks)
    for level in range(spec.depth + 1):
        for system in systems:
            system.level_values(level)


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
# The random and two-value kinds draw b_Q from PCG64 seeded by
# SeedSequence(seed, spawn_key=(level, flat)).  NEP 19 fixes both streams, so
# the seeding of all cubes, and the draws of small cubes, can be computed in
# numpy arithmetic instead of one seeded generator per cube.  A 128-bit PCG
# value is a pair (hi, lo) of uint64 words (arrays or numpy scalars).  numpy's
# uint64 array multiply wraps mod 2^64, so (a b) mod 2^128 = a_lo b_lo +
# ((a_hi b_lo + a_lo b_hi) mod 2^64) 2^64 leaves only the high word of a_lo
# b_lo to compute, from 32-bit halves.  At least one operand of every product
# is an array: a numpy scalar product warns on wrap.

_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # SeedSequence entropy hash
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # SeedSequence.generate_state hash
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# The most cubes one seeding pass, the most values one draw of
# ``_draw_random`` and the most values one run of ``_emulated_rows`` take.
# Batching saves numpy calls, which matters on small grids only.  Past this
# size the buffers of a draw's 128-bit products (8 bytes a value each)
# outgrow a 2 MB L2 cache: a batch of two systems drew slower than each
# system alone (1D depth 14 and 16), and one emulated run of 2^16 values
# took 40-45 ns a value against 21 ns in runs of 2^14 (1D depth 16 and 18).
_BATCH = 1 << 14

# The fewest cells per cube whose random draws run on numpy's own generator
# (``_native_rows``, a state set and a call per cube) instead of the 128-bit
# emulation (``_emulated_rows``, about 21 ns a value).  One level's draw as
# ``_draw_random`` makes it, emulated / native in us (min of 7, 2-core
# sandbox, numpy 2.4); at 128 cells neither wins everywhere:
#   cells per cube      64            128           256
#   1D depth 12      188 / 351     191 / 191     180 / 109
#   1D depth 14      480 / 718     467 / 397     455 / 217
#   1D depth 16     1818 / 2928   1768 / 1641   1750 / 942
#   1D depth 18     5760 / 11755  5617 / 6487   5430 / 3646
#   2D depth 6       196 / 357                   185 / 115
#   2D depth 8      1387 / 2877                 1352 / 936
#   2D depth 9      5783 / 11070                5459 / 3722
_NATIVE_CELLS = 256

# A two-value level is shuffled in one batch (``_permutations``) where its
# cubes hold at most this many cells and number at least this many per cell
# of a cube; otherwise by numpy's permutation per cube (``_streams``).  The
# batch's time over the per-cube one, one level (min of 5, same sandbox):
#   cubes per cell of a cube      4          16          64         256
#   cells per cube 2-8        1.16-1.56  0.65-0.78  0.26-0.35     0.14
#   cells per cube 16            3.12    0.80-0.86  0.45-0.75  0.11-0.30
#   cells per cube 32                       1.27       0.97       0.82
#   cells per cube 64                    1.64-2.04     1.69
# (1D depth 6-18, 2D depth 3-8; a 2D level has 4^k cubes per cell.)
_TWO_VALUE_BATCH = 16

_local = threading.local()  # each thread's one reused generator (``_streams``)

# G_(k+1) = sum_{i<=k} M^i for k < size, with M the PCG multiplier, as the
# uint64 (hi, lo) rows of one array of shape (2, size); grown by doubling on
# demand to the longest emulated stream (16 bytes per cell) and shared by
# every system: building it once per system would cost about 0.2 ms at 64
# cells, near the 0.3 ms of the batched draws of a whole 1D depth-6 system.
_jumps: np.ndarray | None = None


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


def _seed_pool(seed: int) -> tuple[list[int], int]:
    """SeedSequence's entropy pool for ``seed`` before the spawn key is mixed
    in, and the hash constant it reaches, in int arithmetic.  The entropy
    words are the seed's words (zero-padded to the pool size) followed by the
    two spawn words, so this part is shared by every cube of the seed."""
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
    return pool, hc


def _generate_state(seeds: list[int], which: np.ndarray, level: np.ndarray,
                    flat: np.ndarray) -> list:
    """``SeedSequence(seeds[which[i]], spawn_key=(level[i], flat[i]))
    .generate_state(8)`` for every i: eight uint32 words, as uint64 arrays
    over i.  One pool per seed (``_seed_pool``), gathered onto its cubes; the
    spawn words of all cubes are then mixed in one pass."""
    pools = [_seed_pool(seed) for seed in seeds]
    table = np.array([pool for pool, _ in pools], dtype=np.uint32)
    pool = [table[:, dst][which] for dst in range(_POOL)]
    hcs = [hc for _, hc in pools]
    # the constant depends on the seed's word count only: one int unless seeds mix counts
    hc = hcs[0] if len(set(hcs)) == 1 else np.array(hcs, dtype=np.uint32)[which]
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


def _pcg_states(seeds: list[int], which: np.ndarray, level: np.ndarray,
                flat: np.ndarray) -> tuple:
    """The ``(state, inc)`` of ``PCG64(SeedSequence(seeds[which[i]],
    spawn_key=(level[i], flat[i]))).state`` for every i, as (hi, lo) pairs of
    arrays over i."""
    w = _generate_state(seeds, which, level, flat)
    # as uint64 (w0|w1, w2|w3, w4|w5, w6|w7) = (seed hi, seed lo, seq hi, seq lo)
    s = (w[0] | w[1] << 32, w[2] | w[3] << 32)
    seq_hi, seq_lo = w[4] | w[5] << 32, w[6] | w[7] << 32
    inc = (seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1)
    # PCG64 seeding: state 0, step, add s, step; a step is x -> M x + inc
    return _add128(_mul128(_add128(s, inc), _halves(_PCG_MULT)), inc), inc


def _draw_rows(spec: GridSpec, level: int, systems: list, state, inc) -> np.ndarray:
    """The blocks of b_Q (as ``_level_blocks`` gives them) of ``systems`` at
    ``level``, from the PCG64 ``(state, inc)`` of their cubes, stacked
    system after system (``_store``): one ``_uniform_rows`` call, recentred
    as one block of rows.  Every step is per row, so each row is that of its
    cube's own generator, bit for bit."""
    n = spec.n_cells // spec.n_cubes(level)
    w = _uniform_rows(state, inc, n)
    w -= (row_reduce(np.add, w) / n)[:, None]  # w.mean(axis=1, keepdims=True)
    # keep values inside [1-amp, 1+amp] after recentring
    peak = row_reduce(np.maximum, np.abs(w))[:, None]
    np.divide(w, peak, out=w, where=peak > 1.0)
    count = spec.n_cubes(level)
    for k, system in enumerate(systems):
        blocks = w[k * count:(k + 1) * count]
        blocks *= system._param  # 1 + amp w, in place
        blocks += 1.0
    return w


def _draw_random(groups: list) -> Iterator[tuple]:
    """b_Q of the random kind for every ``(system, level)`` of ``groups`` (in
    level order, levels below the finest), yielded as ``(level, systems,
    blocks)`` with the blocks of the systems drawn together stacked
    (``_draw_rows``).  The groups are seeded in passes of up to ``_BATCH``
    cubes, and the groups of one level drawn together, up to ``_BATCH``
    values a draw (each pass and draw takes at least one group)."""
    spec = groups[0][0].spec
    ends = np.cumsum([0] + [spec.n_cubes(level) for _, level in groups])
    per_draw = max(1, _BATCH // spec.n_cells)  # every group draws n_cells values
    start = 0
    while start < len(groups):
        stop = max(start + 1, int(np.searchsorted(ends, ends[start] + _BATCH, side="right")) - 1)
        batch, bounds = groups[start:stop], (ends[start:stop + 1] - ends[start]).tolist()
        # the PCG64 (state, inc) of every cube of the batch, group after group
        seeds = list(dict.fromkeys(system.seed for system, _ in batch))
        counts = np.diff(bounds)
        state, inc = _pcg_states(
            seeds, np.repeat([seeds.index(system.seed) for system, _ in batch], counts),
            np.repeat([level for _, level in batch], counts),
            np.concatenate([np.arange(count) for count in counts]))
        first = 0
        while first < len(batch):
            level, last = batch[first][1], first + 1
            while last < min(len(batch), first + per_draw) and batch[last][1] == level:
                last += 1
            systems = [system for system, _ in batch[first:last]]
            lo, hi = bounds[first], bounds[last]
            words = ([word[lo:hi] for word in pair] for pair in (state, inc))
            yield level, systems, _draw_rows(spec, level, systems, *words)
            first = last
        start = stop


def _jump_table(n: int) -> np.ndarray:
    """G_(k+1) for k < at least n (see ``_jumps``)."""
    global _jumps
    table = _jumps
    if table is None:
        table = np.array(_halves(1), dtype=np.uint64)[:, None]
    while table.shape[1] < n:
        # G_(size+k+1) = G_size + M^size G_(k+1)
        jump = _halves(pow(_PCG_MULT, table.shape[1], 1 << 128))
        grown = _add128(table[:, -1], _mul128(jump, table))
        table = np.concatenate([table, np.array(grown)], axis=1)
        _jumps = table
    return table


def _stream_step(state, inc) -> tuple:
    """w = (M - 1) state + inc of PCG64 ``(state, inc)`` pairs: the state
    behind output k is then ``state + G_(k+1) w``, since G_(k+1) (M - 1) =
    M^(k+1) - 1."""
    return _add128(_mul128(state, _halves(_PCG_MULT - 1)), inc)


def _outputs(state, step, jumps) -> np.ndarray:
    """PCG64's XSL-RR output from the state ``state + jumps step`` (mod
    2^128) of (hi, lo) pairs that broadcast together: ``hi ^ lo`` rotated
    right by ``hi >> 58``.  ``jumps`` and ``step`` are arrays, so no product
    is of two numpy scalars."""
    hi, lo = _add128(state, _mul128(jumps, step))
    lo ^= hi
    hi >>= 58
    return lo >> hi | lo << (64 - hi & 63)


def _streams(state, inc) -> Iterator[np.random.Generator]:
    """numpy's own Generator on PCG64, yielded once for every ``(state, inc)``
    ((hi, lo) pairs of arrays over cubes) with that state set: one generator
    per thread, reused, so no cube builds a SeedSequence.  Each yield is
    valid until the next."""
    rng = getattr(_local, "rng", None)
    if rng is None:
        rng = _local.rng = np.random.Generator(np.random.PCG64(0))
    bit_generator, words = rng.bit_generator, {}
    full = {"bit_generator": "PCG64", "state": words, "has_uint32": 0, "uinteger": 0}
    for s_hi, s_lo, i_hi, i_lo in zip(*(word.tolist() for pair in (state, inc) for word in pair)):
        words["state"], words["inc"] = s_hi << 64 | s_lo, i_hi << 64 | i_lo
        bit_generator.state = full
        yield rng


def _uniform_rows(state, inc, n: int) -> np.ndarray:
    """``Generator.uniform(-1, 1, n)`` of every PCG64 ``(state, inc)`` ((hi, lo)
    pairs of arrays over cubes), one C-contiguous row per cube: from numpy's
    own generator (``_native_rows``) at ``_NATIVE_CELLS`` draws or more, from
    the 128-bit emulation (``_emulated_rows``) below."""
    return (_native_rows if n >= _NATIVE_CELLS else _emulated_rows)(state, inc, n)


def _native_rows(state, inc, n: int) -> np.ndarray:
    """``_uniform_rows`` on numpy's own PCG64, one cube at a time
    (``_streams``): ``random`` writes each row, and ``2 x - 1`` is
    ``uniform``'s ``-1 + 2 x`` bit for bit, the doubling being exact."""
    draws = np.empty((state[0].size, n))
    for row, rng in zip(draws, _streams(state, inc)):
        rng.random(out=row)
    draws *= 2.0
    draws -= 1.0
    return draws


def _emulated_rows(state, inc, n: int) -> np.ndarray:
    """``_uniform_rows`` in numpy arithmetic on 128-bit values: draw k is
    ``(out >> 11) 2^-52 - 1`` of output k (``_outputs``), which is numpy's
    ``-1 + 2 ((out >> 11) 2^-53)`` bit for bit, both scalings being exact.

    Every step is elementwise, so it runs with the longer of (cubes, draws)
    as the inner axis: a fine level of many small cubes computes a
    ``(draws, cubes)`` array and copies its transpose once into rows, which
    the row reductions of ``_draw_rows`` need contiguous.  More than
    ``_BATCH`` values are drawn in runs of cubes of up to that many, so that
    the 128-bit products stay in cache."""
    count, per = state[0].size, max(1, _BATCH // n)
    if count > per:
        rows = np.empty((count, n))
        for lo in range(0, count, per):
            rows[lo:lo + per] = _emulated_rows(
                *([word[lo:lo + per] for word in pair] for pair in (state, inc)), n)
        return rows
    step = _stream_step(state, inc)
    jumps = _jump_table(n)[:, :n]
    wide = state[0].size > n  # more cubes than draws: cubes along the inner axis
    if wide:
        state, step = ([word[None, :] for word in pair] for pair in (state, step))
        jumps = jumps[:, :, None]
    else:
        state, step = ([word[:, None] for word in pair] for pair in (state, step))
    out = _outputs(state, step, jumps)
    out >>= 11
    draws = out.view(np.float64)
    np.multiply(out, 1.0 / 4503599627370496.0, out=draws)
    draws -= 1.0
    return np.ascontiguousarray(draws.T) if wide else draws


def _permutations(state, inc, n: int) -> np.ndarray:
    """``Generator.permutation(n)`` of every PCG64 ``(state, inc)`` ((hi, lo)
    pairs of arrays over cubes), one column per cube: an ``(n, cubes)`` array.

    numpy shuffles ``arange(n)`` by Fisher-Yates from i = n - 1 down to 1,
    swapping entries i and j = ``random_interval(i)``: the next 32-bit half
    of the stream (the low half of each output first) under the smallest
    mask >= i, drawn again while above i.  Here every cube steps through i
    together, each redraw a round over the cubes that drew above i.  Each
    cube reads its halves from a window of n outputs (``_outputs``), about
    1.4 times what one permutation uses; a cube that reaches the end of its
    window has the next n outputs of its stream drawn into it."""
    count = state[0].size
    step = _stream_step(state, inc)
    cubes = np.arange(count)
    window = np.empty((count, n), "<u8")
    halves = window.view("<u4").reshape(-1)  # half h of cube c at c 2n + h
    rows, width = cubes * 2 * n, 2 * n
    first = np.zeros(count, np.intp)  # the stream index of each window's first output
    at = np.zeros(count, np.intp)  # the next half of each window

    def fill(sub, start):
        """The outputs start, ..., start + n - 1 of the cubes ``sub`` (a
        slice), computed cubes-innermost and transposed into their windows."""
        jumps = _jump_table(start + n)[:, start:start + n, None]
        window[sub] = _outputs([word[None, sub] for word in state],
                               [word[None, sub] for word in step], jumps).T

    fill(slice(None), 0)
    perm = np.repeat(np.arange(n)[:, None], count, axis=1)
    j = np.empty(count, np.intp)
    for i in range(n - 1, 0, -1):
        mask, pending = (1 << i.bit_length()) - 1, cubes
        while pending.size:
            pos = at[pending]
            spent = pos == width
            if spent.any():
                ended = pending[spent]
                first[ended] += n
                for c in ended.tolist():  # rare: about 1e-4 of the cubes at n = 4
                    fill(slice(c, c + 1), int(first[c]))
                pos[spent] = 0
            value = halves[rows[pending] + pos] & mask
            at[pending] = pos + 1
            taken = value <= i
            j[pending[taken]] = value[taken]
            pending = pending[~taken]
        top = perm[i].copy()
        perm[i] = perm[j, cubes]
        perm[j, cubes] = top
    return perm
