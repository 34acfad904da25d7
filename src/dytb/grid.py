"""Truncated dyadic grid on the unit cube and exact piecewise-constant calculus.

Everything lives on [0,1)^n with n in {1, 2}, subdivided dyadically down to a
finest level L ("depth").  Functions are constant on the finest-level cells,
so integrals, averages and L^p norms are finite sums evaluated exactly up to
float roundoff.  Cells are ordered row-major by integer coordinates; that
order is part of the serialization contract.

All objects here are immutable after construction and safe to share between
threads for read-only use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "GridSpec",
    "DyadicCube",
    "GridFunction",
    "lp_norm",
    "coarsen_step",
    "cube_blocks",
    "cube_sum_vector",
    "dyadic_maximal",
    "from_cube_blocks",
    "level_sum",
    "level_sums",
    "row_reduce",
    "spread",
]

CELL_CAP = 2**20  # the most finest-level cells a GridSpec may have


@dataclass(frozen=True, order=True)
class DyadicCube:
    """One cube of the dyadic grid: level ``l`` and integer coordinates ``k``.

    The cube is the half-open box prod_a [k_a * 2^-l, (k_a + 1) * 2^-l).
    """

    level: int
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ValueError(f"negative level {self.level}")
        if not all(0 <= k and k >> self.level == 0 for k in self.coords):  # no 2^level is built
            raise ValueError(f"coords {self.coords} out of range at level {self.level}")

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def side(self) -> float:
        return 2.0**-self.level

    @property
    def volume(self) -> float:
        return 2.0 ** (-self.dim * self.level)

    def parent(self) -> DyadicCube:
        if self.level == 0:
            raise ValueError("the root cube has no parent")
        return DyadicCube(self.level - 1, tuple(k >> 1 for k in self.coords))

    def ancestor(self, level: int) -> DyadicCube:
        """The unique cube at the given coarser ``level`` containing this one."""
        if not 0 <= level <= self.level:
            raise ValueError(f"level {level} is not an ancestor level of {self}")
        shift = self.level - level
        return DyadicCube(level, tuple(k >> shift for k in self.coords))

    def children(self) -> list[DyadicCube]:
        """The 2^dim dyadic children, ordered row-major by offset."""
        out = []
        for off in range(2**self.dim):
            offs = _child_offset(off, self.dim)
            out.append(
                DyadicCube(self.level + 1, tuple(2 * k + o for k, o in zip(self.coords, offs)))
            )
        return out

    def contains(self, other: DyadicCube) -> bool:
        """Whether ``other`` is contained in (possibly equal to) this cube."""
        if other.dim != self.dim or other.level < self.level:
            return False
        shift = other.level - self.level
        return all(k >> shift == s for k, s in zip(other.coords, self.coords))

    def __repr__(self) -> str:  # compact, e.g. Q(3; 5) or Q(2; 1,3)
        return f"Q({self.level}; {','.join(str(k) for k in self.coords)})"


def _child_offset(index: int, dim: int) -> tuple[int, ...]:
    """Row-major child offset vector for child ``index`` in {0, ..., 2^dim - 1}."""
    if dim == 1:
        return (index,)
    return (index >> 1, index & 1)


@dataclass(frozen=True)
class GridSpec:
    """Grid geometry: dimension (1 or 2) and finest level ``depth``.

    Rejects grids whose finest-cell count 2^(dim*depth) exceeds ``CELL_CAP``.
    """

    dim: int
    depth: int

    def __post_init__(self) -> None:
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if self.depth < 0:
            raise ValueError(f"depth must be non-negative, got {self.depth}")
        if self.dim * self.depth > CELL_CAP.bit_length() - 1:  # CELL_CAP is a power of 2
            raise ValueError(
                f"2^({self.dim}*{self.depth}) cells exceed the cell cap {CELL_CAP}"
            )

    @property
    def n_cells(self) -> int:
        return 2 ** (self.dim * self.depth)

    @property
    def cell_volume(self) -> float:
        return 2.0 ** (-self.dim * self.depth)

    def root(self) -> DyadicCube:
        return DyadicCube(0, (0,) * self.dim)

    def contains(self, cube: DyadicCube) -> bool:
        return cube.dim == self.dim and 0 <= cube.level <= self.depth

    def check(self, cube: DyadicCube) -> None:
        if not self.contains(cube):
            raise ValueError(f"cube {cube} does not fit a dim={self.dim} depth={self.depth} grid")

    def n_cubes(self, level: int) -> int:
        return 2 ** (self.dim * level)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """Where each level starts in a vector holding the cubes of every
        level, coarse to fine and row-major within a level: level ``l`` is
        ``[offsets[l], offsets[l + 1])``, for ``l`` in ``0..depth``."""
        return tuple((self.n_cubes(level) - 1) // (2**self.dim - 1)
                     for level in range(self.depth + 2))

    @cached_property
    def parents(self) -> tuple[np.ndarray, ...]:
        """``parents[l][flat]``: the flat index at level ``l - 1`` of the
        parent of cube ``flat`` of level ``l`` (read-only; empty at level 0)."""
        out = [np.zeros(0, dtype=np.int64)]
        for level in range(1, self.depth + 1):
            flats = np.arange(self.n_cubes(level))
            if self.dim == 1:
                up = flats >> 1
            else:
                up = ((flats >> (level + 1)) << (level - 1)) | ((flats & ((1 << level) - 1)) >> 1)
            up.setflags(write=False)
            out.append(up)
        return tuple(out)

    def level_views(self, vector: np.ndarray) -> list[np.ndarray]:
        """An all-level vector (``offsets``) as one view per level, coarse to fine."""
        off = self.offsets
        return [vector[off[level]:off[level + 1]] for level in range(self.depth + 1)]

    def cube_flat(self, cube: DyadicCube) -> int:
        """Row-major flat index of ``cube`` among cubes of its level."""
        if self.dim == 1:
            return cube.coords[0]
        return (cube.coords[0] << cube.level) | cube.coords[1]

    def cube_from_flat(self, level: int, flat: int) -> DyadicCube:
        if self.dim == 1:
            return DyadicCube(level, (flat,))
        return DyadicCube(level, (flat >> level, flat & ((1 << level) - 1)))

    def coords_from_flats(self, level: int, flats: np.ndarray) -> np.ndarray:
        """``cube_from_flat`` for an array of flat indices: one row of integer
        coordinates per index."""
        if self.dim == 1:
            return flats[:, None]
        return np.column_stack([flats >> level, flats & ((1 << level) - 1)])

    def all_cubes(self, top: DyadicCube | None = None, max_level: int | None = None):
        """Iterate cubes contained in ``top`` (default the root), coarse to fine."""
        if top is None:
            top = self.root()
        self.check(top)
        stop = self.depth if max_level is None else max_level
        for level in range(top.level, stop + 1):
            shift = level - top.level
            for local in range(2 ** (self.dim * shift)):
                if self.dim == 1:
                    yield DyadicCube(level, ((top.coords[0] << shift) | local,))
                else:
                    r0 = local >> shift
                    r1 = local & ((1 << shift) - 1)
                    yield DyadicCube(
                        level, ((top.coords[0] << shift) | r0, (top.coords[1] << shift) | r1)
                    )

    def cell_indices(self, cube: DyadicCube) -> np.ndarray:
        """Flat indices of the finest cells covered by ``cube`` (row-major order)."""
        self.check(cube)
        shift = self.depth - cube.level
        if self.dim == 1:
            k = cube.coords[0]
            return np.arange(k << shift, (k + 1) << shift)
        side = 1 << self.depth
        rows = np.arange(cube.coords[0] << shift, (cube.coords[0] + 1) << shift)
        cols = np.arange(cube.coords[1] << shift, (cube.coords[1] + 1) << shift)
        return (rows[:, None] * side + cols[None, :]).ravel()


def coarsen_step(dim: int, fine: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sum per-cube values one level up: the flat row-major array of a level
    in, that of the level above out (written into ``out`` if given).

    The addition order is part of the contract, since every cube sum of the
    package and its frozen constants are built from these steps.  In 1D a
    parent is ``a0 + a1``.  In 2D it is the order of numpy's
    ``fine.reshape(m, 2, m, 2).sum(axis=(1, 3))``, which for ``m >= 2`` is
    ``(0.0 + (a00 + a01)) + (a10 + a11)`` with ``a_ij`` the child in row
    ``i``, column ``j`` (the leading ``0.0`` is numpy's identity; it only
    turns four ``-0.0`` children into ``0.0``), and on the last step (``m ==
    1``) the four children added in row-major order.  For ``m >= 2`` that is
    computed with no short inner loop: one strided add of the column pairs,
    then numpy's reduction over each row pair, whose inner axis has length
    ``m``.

    Leading axes are a stack of level arrays, each coarsened as on its own,
    bit for bit."""
    if dim == 1:
        return np.add(fine[..., 0::2], fine[..., 1::2], out=out)
    lead = fine.shape[:-1]
    m = math.isqrt(fine.shape[-1]) // 2
    if m == 1:
        return np.add.reduce(fine, axis=-1, keepdims=True, out=out)
    pairs = (fine[..., 0::2] + fine[..., 1::2]).reshape(*lead, m, 2, m)
    summed = np.add.reduce(pairs, axis=-2, out=None if out is None else out.reshape(*lead, m, m))
    return summed.reshape(*lead, m * m) if out is None else out


def row_reduce(op: np.ufunc, rows: np.ndarray) -> np.ndarray:
    """``op.reduce(rows, axis=1)`` for ``op`` ``np.add`` or ``np.maximum``, bit
    for bit: the sums or maxima of the rows of a C-contiguous 2D array.

    numpy reduces each row on its own, so rows of a few cells cost a call of
    the inner loop each.  Rows shorter than 8, which numpy adds in order from
    its identity ``0.0``, are reduced column by column over all rows at once;
    longer rows, which numpy adds pairwise, keep numpy's own reduction.  A
    reduction of a non-contiguous view would not be in that order, so such
    input raises ``ValueError``."""
    if not rows.flags.c_contiguous:
        raise ValueError("row_reduce needs C-contiguous rows")
    if rows.shape[1] >= 8:
        return op.reduce(rows, axis=1)
    acc = rows[:, 0] + 0.0 if op is np.add else rows[:, 0].copy()
    for col in range(1, rows.shape[1]):
        op(acc, rows[:, col], out=acc)
    return acc


def cube_sum_vector(spec: GridSpec, cell_values: np.ndarray) -> np.ndarray:
    """Cube sums of a finest-cell array over every level in one vector, level
    ``l`` at ``spec.offsets[l]:spec.offsets[l + 1]`` indexed by flat cube.

    Built bottom-up: a parent's entry is the exact float sum of its children's
    entries, so the additivity of the tree is bit-exact by construction.
    """
    return _sum_tree(spec, cell_values, 0)


def _sum_tree(spec: GridSpec, cell_values: np.ndarray, top: int) -> np.ndarray:
    """``cube_sum_vector`` coarsened from the finest level up to level ``top``
    only: the entries of the levels above ``top`` are left unset."""
    off = spec.offsets
    out = np.empty(off[-1])
    out[off[-2]:] = fine = _cells(spec, cell_values)
    for level in range(spec.depth - 1, top - 1, -1):
        fine = coarsen_step(spec.dim, fine, out[off[level]:off[level + 1]])
    return out


def _cells(spec: GridSpec, cell_values: np.ndarray) -> np.ndarray:
    """``cell_values`` as floats, checked to hold one value per finest cell."""
    vals = np.asarray(cell_values, dtype=float)
    if vals.shape != (spec.n_cells,):
        raise ValueError(f"expected {spec.n_cells} cell values, got shape {vals.shape}")
    return vals


def level_sum(spec: GridSpec, cell_values: np.ndarray, level: int) -> np.ndarray:
    """Cube sums of a finest-cell array at one ``level``, indexed by flat cube:
    the ``coarsen_step`` passes of ``cube_sum_vector`` from the finest level
    up to ``level`` only, so bit-identical to ``level_sums(...)[level]``.  At
    ``level == depth`` that is the cell array itself (as floats, not copied).
    A 2D ``cell_values`` is a stack of cell arrays, each summed as on its own."""
    vals = np.asarray(cell_values, dtype=float)
    if vals.ndim != 2:
        vals = _cells(spec, vals)
    elif vals.shape[1] != spec.n_cells:
        raise ValueError(f"expected {spec.n_cells} cell values, got shape {vals.shape}")
    if not 0 <= level <= spec.depth:
        raise ValueError(f"level {level} is outside 0..{spec.depth}")
    for _ in range(spec.depth - level):
        vals = coarsen_step(spec.dim, vals)
    return vals


def level_sums(spec: GridSpec, cell_values: np.ndarray) -> list[np.ndarray]:
    """Per-level cube sums of a finest-cell array, index ``[level][flat_cube]``:
    views of its ``cube_sum_vector``."""
    return spec.level_views(cube_sum_vector(spec, cell_values))


def spread(spec: GridSpec, level: int, values, to_level: int | None = None) -> np.ndarray:
    """Replicate per-cube values at ``level`` onto the cubes of the finer
    ``to_level`` (default: the finest cells), row-major at both levels."""
    s = 1 << ((spec.depth if to_level is None else to_level) - level)
    if spec.dim == 1:
        return np.repeat(values, s)
    m = 1 << level
    grid = np.asarray(values).reshape(m, m)
    return np.repeat(np.repeat(grid, s, axis=0), s, axis=1).ravel()


def cube_blocks(spec: GridSpec, level: int, cell_values: np.ndarray) -> np.ndarray:
    """A finest-cell array regrouped as ``(n_cubes(level), cells per cube)``.

    Row ``r`` holds the cells of the level cube with flat index ``r`` in the
    order of ``cell_indices``; a view in 1D, a copy in 2D.
    """
    vals = np.asarray(cell_values)
    if spec.dim == 1:
        return vals.reshape(spec.n_cubes(level), -1)
    m, s = 1 << level, 1 << (spec.depth - level)
    return vals.reshape(m, s, m, s).transpose(0, 2, 1, 3).reshape(m * m, s * s)


def from_cube_blocks(spec: GridSpec, level: int, blocks: np.ndarray) -> np.ndarray:
    """Inverse of ``cube_blocks``: per-cube rows back into one finest-cell
    array.  Leading axes (a stack of levels' blocks) are kept: ``(..., cubes,
    cells per cube)`` in, ``(..., cells)`` out."""
    lead = blocks.shape[:-2]
    if spec.dim == 1:
        return blocks.reshape(*lead, spec.n_cells)
    m, s = 1 << level, 1 << (spec.depth - level)
    return blocks.reshape(*lead, m, m, s, s).swapaxes(-3, -2).reshape(*lead, spec.n_cells)


@dataclass(frozen=True)
class GridFunction:
    """A function constant on finest-level cells, one value per cell (row-major).

    Integrals over dyadic cubes are exact cell sums times the cell volume.
    """

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=float)
        if vals.shape != (self.spec.n_cells,):
            raise ValueError(
                f"expected {self.spec.n_cells} values for dim={self.spec.dim} "
                f"depth={self.spec.depth}, got shape {vals.shape}"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(spec: GridSpec, value: float) -> GridFunction:
        return GridFunction(spec, np.full(spec.n_cells, float(value)))

    @staticmethod
    def indicator(spec: GridSpec, cube: DyadicCube) -> GridFunction:
        vals = np.zeros(spec.n_cells)
        vals[spec.cell_indices(cube)] = 1.0
        return GridFunction(spec, vals)

    # -- calculus ----------------------------------------------------------

    @cached_property
    def sum_vector(self) -> np.ndarray:
        """Cell-value sums over every cube in one vector (``cube_sum_vector``;
        cached, read-only)."""
        sums = cube_sum_vector(self.spec, self.values)
        sums.setflags(write=False)
        return sums

    @cached_property
    def cube_sums(self) -> list[np.ndarray]:
        """Cell-value sums over every cube, per level: views of ``sum_vector``."""
        return self.spec.level_views(self.sum_vector)

    def integral(self, cube: DyadicCube | None = None) -> float:
        """Integral over ``cube`` (default: the whole grid)."""
        if cube is None:
            return float(self.cube_sums[0][0]) * self.spec.cell_volume
        self.spec.check(cube)
        return float(self.cube_sums[cube.level][self.spec.cube_flat(cube)]) * self.spec.cell_volume

    def average(self, cube: DyadicCube | None = None) -> float:
        if cube is None:
            cube = self.spec.root()
        return self.integral(cube) / cube.volume

    def lp_norm(self, p: float, cube: DyadicCube | None = None) -> float:
        return lp_norm(self, p, cube)

    def restrict(self, cube: DyadicCube) -> GridFunction:
        """The function times the indicator of ``cube``."""
        vals = np.zeros(self.spec.n_cells)
        idx = self.spec.cell_indices(cube)
        vals[idx] = self.values[idx]
        return GridFunction(self.spec, vals)

    # -- serialization -------------------------------------------------------

    def save_csv(self, path) -> None:
        """One value per line; leading comment line carries ``# dim,depth``."""
        with open(path, "w") as fh:
            fh.write(f"# {self.spec.dim},{self.spec.depth}\n")
            for v in self.values:
                fh.write(f"{float(v)!r}\n")

    @staticmethod
    def load_csv(path) -> GridFunction:
        with open(path) as fh:
            header = fh.readline().strip()
            if not header.startswith("#"):
                raise ValueError(f"{path}: missing '# dim,depth' header line")
            dim_s, depth_s = header.lstrip("#").split(",")
            vals = [float(line) for line in fh if line.strip()]
        return GridFunction(GridSpec(int(dim_s), int(depth_s)), np.asarray(vals))


# -- module-level operations --------------------------------------------------


def lp_norm(f: GridFunction, p: float, cube: DyadicCube | None = None) -> float:
    """(sum over cells in Q of |f|^p * cell_volume)^(1/p); Q defaults to the root.

    Requires finite p > 1.
    """
    if not (p > 1.0) or not math.isfinite(p):
        raise ValueError(f"p must be finite and > 1, got {p}")
    if cube is None:
        vals = f.values
    else:
        f.spec.check(cube)
        vals = f.values[f.spec.cell_indices(cube)]
    return float(np.sum(np.abs(vals) ** p) * f.spec.cell_volume) ** (1.0 / p)


def dyadic_maximal(f: GridFunction) -> GridFunction:
    """Dyadic maximal function: at each cell, max over containing cubes of |mean|."""
    spec = f.spec
    sums = f.cube_sums
    best = None
    for level in range(spec.depth + 1):
        vol = 2.0 ** (-spec.dim * level)
        avg = np.abs(sums[level] * spec.cell_volume / vol)
        if best is None:
            best = avg
        else:
            best = np.maximum(best, avg)
        if level < spec.depth:
            best = spread(spec, level, best, level + 1)
    return GridFunction(spec, best)
