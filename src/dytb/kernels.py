"""Perfect dyadic singular kernels: sparse representation and fast application.

A perfect dyadic kernel is constant on P x Q for any pair of disjoint dyadic
cubes P, Q, and vanishes on the finest-cell diagonal.  The maximal constancy
rectangles are exactly child_i(R) x child_j(R) over all grid cubes R below the
finest level and ordered pairs i != j of their children, so a kernel is the
sparse map (R, i, j) -> kappa.

Storage: one whole-plan set of entry arrays per kernel, built and validated
once at construction.  The entries of all levels sit in level order, each
level sorted by (flat, i, j), with the entry bounds of every level.  Beside
(flat, i, j, kappa), each entry holds where its child_j (read from) and
child_i (added to) sit in one vector of the cubes of every level
(``GridSpec.offsets``), so a sweep is one gather-multiply and one bincount
over a slice of the plan, and ``bilinear`` one product.  ``plan`` views the
arrays per level for ``validate_size``, ``dense_matrix`` and the file
writer; the dict ``PerfectKernel.entries`` is built only on first access.

Orientation: in the pairing <Tf, g> = integral K(x, y) f(y) g(x) dy dx, the
x-variable (paired with g) ranges over child_i and the y-variable (paired
with f) over child_j:

    <Tf, g> = sum_R sum_{i != j} kappa_{R,i,j} * (int_{child_j} f) * (int_{child_i} g).

The size bound |kappa| <= sup{|x - y| : x in closure(child_i), y in
closure(child_j)}^(-dim) keeps the kernel dominated by |x - y|^(-dim).
"""

from __future__ import annotations

import itertools
import json
import math
from functools import cached_property
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .grid import DyadicCube, GridFunction, GridSpec, _child_offset, cube_sum_vector

__all__ = [
    "PerfectKernel",
    "size_bound",
    "bilinear",
    "apply",
    "apply_values",
    "adjoint",
    "generate_kernel",
    "validate_size",
    "dense_matrix",
    "save_kernel",
    "load_kernel",
]

KERNEL_KINDS = ("zero", "haar-shift", "random")
DENSE_CAP = 4096  # most cells of a dense matrix (its size is quadratic in cells)


def size_bound(level: int, i: int, j: int, dim: int) -> float:
    """Upper bound for |kappa| on the rectangle child_i(R) x child_j(R).

    Equals (sup Euclidean distance between the closed child boxes)^(-dim);
    per axis the sup distance is h*(|o_i - o_j| + 1) with h the child side
    length.
    """
    if i == j:
        raise ValueError("diagonal child pairs carry no kernel value")
    h = 2.0 ** (-(level + 1))
    oi = _child_offset(i, dim)
    oj = _child_offset(j, dim)
    gaps = [abs(a - b) + 1 for a, b in zip(oi, oj)]
    return (h * math.sqrt(sum(g * g for g in gaps))) ** -dim


class LevelPlan(NamedTuple):
    """One level's entries, sorted by (flat, i, j): views of the kernel's
    whole-plan arrays.  ``src`` (child_j, where f is read) and ``dst``
    (child_i, where the value is added) index the cubes at ``level + 1`` in
    the all-level vector of ``GridSpec.offsets``."""

    flats: np.ndarray
    ii: np.ndarray
    jj: np.ndarray
    vals: np.ndarray
    src: np.ndarray
    dst: np.ndarray


class PerfectKernel:
    """Sparse perfect dyadic kernel, stored as whole-plan entry arrays.

    ``PerfectKernel(spec, {(level, flat, i, j): kappa})`` builds it from a
    dict; absent entries are zero.  The entries of every level sit in level
    order in ``flats``, ``ii``, ``jj``, ``vals``, ``src`` and ``dst`` (the
    fields of ``LevelPlan``); level ``l`` holds ``starts[l]:starts[l + 1]``
    and ``plan`` views them per non-empty level.  Every entry is validated
    once, at construction.  Immutable afterwards (the arrays are read-only);
    ``apply`` and ``bilinear`` are pure functions, so kernels can be shared
    across threads.
    """

    def __init__(self, spec: GridSpec, entries: dict | None = None) -> None:
        entries = entries or {}
        keys = np.array(list(entries), dtype=np.int64).reshape(-1, 4)
        self._build(spec, _split_levels(keys, np.array(list(entries.values()), dtype=float)))

    @classmethod
    def _from_levels(cls, spec: GridSpec, levels: dict) -> PerfectKernel:
        """A kernel from non-empty per-level ``(flats, ii, jj, vals)``, each
        sorted by (flat, i, j)."""
        kernel = cls.__new__(cls)
        kernel._build(spec, levels)
        return kernel

    def _build(self, spec: GridSpec, levels: dict) -> None:
        counts = [0] * (spec.depth + 1)
        empty = np.zeros(0, dtype=np.int64)
        parts = [(empty, empty, empty, np.zeros(0), empty, empty)]  # dtypes of a kernel without entries
        for level, arrays in sorted(levels.items()):
            parts.append(_level_entries(spec, level, *arrays))
            counts[level + 1] = len(arrays[3])
        self._set(spec, itertools.accumulate(counts), *map(np.concatenate, zip(*parts)))

    def _set(self, spec: GridSpec, starts, *arrays: np.ndarray) -> None:
        """Install whole-plan arrays in ``LevelPlan`` field order, read-only."""
        self.spec = spec
        self.starts = tuple(starts)
        for name, arr in zip(LevelPlan._fields, arrays):
            arr.flags.writeable = False
            setattr(self, name, arr)

    @cached_property
    def plan(self) -> dict[int, LevelPlan]:
        """Per non-empty level, views of its entries."""
        arrays = [getattr(self, name) for name in LevelPlan._fields]
        return {level: LevelPlan(*(a[lo:hi] for a in arrays))
                for level, (lo, hi) in enumerate(zip(self.starts, self.starts[1:])) if hi > lo}

    def _entry_levels(self) -> np.ndarray:
        """The level of every entry."""
        return np.repeat(np.arange(self.spec.depth), np.diff(self.starts))

    @cached_property
    def entries(self) -> dict:
        """The entries as a dict {(level, flat, i, j): kappa}, built on first access."""
        keys = zip(self._entry_levels().tolist(), self.flats.tolist(), self.ii.tolist(),
                   self.jj.tolist())
        return dict(zip(keys, self.vals.tolist()))

    @cached_property
    def _adjoint(self) -> PerfectKernel:
        """The adjoint kernel, built on the first ``adjoint`` call: the entries
        with i and j (so ``src`` and ``dst``) swapped, re-sorted by cube, then
        the swapped pair.  The keys are distinct integers, increasing with the
        level, so each level keeps its place."""
        nch = 2**self.spec.dim
        cubes = np.array(self.spec.offsets, dtype=np.int64)[self._entry_levels()] + self.flats
        o = np.argsort((cubes * nch + self.jj) * nch + self.ii, kind="stable")
        adj = PerfectKernel.__new__(PerfectKernel)
        adj._set(self.spec, self.starts, self.flats[o], self.jj[o], self.ii[o], self.vals[o],
                 self.dst[o], self.src[o])
        return adj

    def value(self, cube: DyadicCube, i: int, j: int) -> float:
        return self.entries.get((cube.level, self.spec.cube_flat(cube), i, j), 0.0)

    def __len__(self) -> int:
        return len(self.vals)


def _split_levels(keys: np.ndarray, vals: np.ndarray) -> dict:
    """Distinct (level, flat, i, j) rows and their values as the per-level
    sorted arrays of ``PerfectKernel._from_levels``."""
    order = np.lexsort(keys.T[::-1])  # by level, then flat, i, j
    keys, vals = keys[order], vals[order]
    cuts = np.flatnonzero(np.diff(keys[:, 0])) + 1
    return {int(k[0, 0]): (k[:, 1], k[:, 2], k[:, 3], v)
            for k, v in zip(np.split(keys, cuts), np.split(vals, cuts)) if len(v)}


def _level_entries(spec: GridSpec, level: int, flats, ii, jj, vals) -> LevelPlan:
    """Validate one level's sorted entries and attach the places of their
    children in the all-level vector."""
    if not 0 <= level < spec.depth:
        raise ValueError(f"entry level {level} outside [0, {spec.depth})")
    bad = np.flatnonzero((flats < 0) | (flats >= spec.n_cubes(level)))
    if len(bad):
        raise ValueError(f"entry cube index {flats[bad[0]]} out of range at level {level}")
    nch = 2**spec.dim
    bad = np.flatnonzero((ii < 0) | (ii >= nch) | (jj < 0) | (jj >= nch) | (ii == jj))
    if len(bad):
        raise ValueError(f"bad child pair ({ii[bad[0]]}, {jj[bad[0]]})")
    if not np.isfinite(vals).all():
        raise ValueError("non-finite kernel value")
    off = spec.offsets[level + 1]
    return LevelPlan(flats, ii, jj, vals, off + _child_flats(spec, level, flats, jj),
                     off + _child_flats(spec, level, flats, ii))


def _child_flats(spec: GridSpec, level: int, flats: np.ndarray, child: np.ndarray) -> np.ndarray:
    """Flat indices at level+1 of the given children of cubes ``flats`` at ``level``."""
    if spec.dim == 1:
        return 2 * flats + child
    k0 = flats >> level
    k1 = flats & ((1 << level) - 1)
    o0 = child >> 1
    o1 = child & 1
    return ((2 * k0 + o0) << (level + 1)) | (2 * k1 + o1)


def bilinear(kernel: PerfectKernel, f: GridFunction, g: GridFunction) -> float:
    """<Tf, g> via the bottom-up integral tree; exact tiling of the off-diagonal.

    One product over the whole plan, read from the cached cube-sum vectors of
    f and g, then one sum per level, added coarse to fine."""
    if f.spec != kernel.spec or g.spec != kernel.spec:
        raise ValueError("grid mismatch")
    cv = kernel.spec.cell_volume
    terms = kernel.vals * f.sum_vector[kernel.src] * g.sum_vector[kernel.dst]
    total = 0.0
    for lo, hi in zip(kernel.starts, kernel.starts[1:]):
        if hi > lo:
            total += float(np.sum(terms[lo:hi])) * cv * cv
    return total


def apply_values(kernel: PerfectKernel, values: np.ndarray) -> np.ndarray:
    """Cell values of T applied to the function with the given cell values.

    Per finest cell p: sum over ancestors R and children j != i(R, p) of
    kappa_{R, i(R,p), j} * int_{child_j(R)} f.  One gather-multiply over the
    whole plan and one ``np.bincount`` give a constant per cube of every
    level, which is swept down to the cells: O(cells * depth) in total, and
    a fixed number of numpy calls per level.
    """
    return _sweep_from(kernel, values, 0)


def _sweep_from(kernel: PerfectKernel, values: np.ndarray, start: int) -> np.ndarray:
    """``apply_values`` using only the kernel entries at levels >= ``start``.

    Inside each cube Q of level ``start`` the result depends only on the
    values inside Q, and equals ``apply_values`` of those values times 1_Q bit
    for bit: an entry at a strict ancestor R of Q pairs the child of R that
    contains Q with a disjoint child, so inside Q it adds only exact zeros.

    The cube sums of every level sit in one vector (``cube_sum_vector``);
    the entries from ``start`` on are one contiguous slice of the plan, so
    their products land on the cubes of every level in one bincount, which
    adds in input order into zeros as ``np.add.at`` would.  Going down, each
    level adds its parent's running value, read by one gather.
    """
    spec = kernel.spec
    sums = cube_sum_vector(spec, values)
    if start >= spec.depth:
        return np.zeros(spec.n_cells)
    off, k = spec.offsets, kernel.starts[start]
    contrib = np.bincount(kernel.dst[k:], kernel.vals[k:] * sums[kernel.src[k:]] * spec.cell_volume,
                          off[-1])
    cur = contrib[off[start + 1]:off[start + 2]]
    for lev in range(start + 2, spec.depth + 1):
        cur = cur[spec.parents[lev]] + contrib[off[lev]:off[lev + 1]]
    return cur if start + 2 <= spec.depth else cur.copy()  # not a view of the whole buffer


def apply(kernel: PerfectKernel, f: GridFunction) -> GridFunction:
    """Tf as a grid function; satisfies integral(apply(T,f)*g) = bilinear(T,f,g)."""
    if f.spec != kernel.spec:
        raise ValueError("grid mismatch")
    return GridFunction(kernel.spec, apply_values(kernel, f.values))


def adjoint(kernel: PerfectKernel) -> PerfectKernel:
    """The adjoint kernel: kappa*_{R,i,j} = kappa_{R,j,i}.  Built on the first
    call and shared by later ones (kernels are immutable)."""
    return kernel._adjoint


def _bound_table(level: int, dim: int) -> np.ndarray:
    """``size_bound`` of every child pair (i, j) of a level cube, as a table
    indexed [i, j]; the unused diagonal is 0."""
    nch = 2**dim
    table = np.zeros((nch, nch))
    for i in range(nch):
        for j in range(nch):
            if i != j:
                table[i, j] = size_bound(level, i, j, dim)
    return table


def validate_size(kernel: PerfectKernel) -> bool:
    """True iff every entry obeys the size bound for its child rectangle."""
    for level, p in kernel.plan.items():
        if np.any(np.abs(p.vals) > _bound_table(level, kernel.spec.dim)[p.ii, p.jj]):
            return False
    return True


def generate_kernel(kind: str, spec: GridSpec, seed: int = 0, scale: float = 1.0) -> PerfectKernel:
    """Deterministic kernel factory.

    kind "zero": no entries.  kind "haar-shift": antisymmetric entries at the
    size bound, kappa_{R,i,j} = +bound for i < j and -bound for i > j; in 1D
    this is +/- 1/side(R).  kind "random": every entry uniform in
    [-scale*bound, +scale*bound].  The result passes validate_size by
    construction and is a pure function of (kind, spec, seed, scale).

    Each level is one (pairs x cubes) block; the random kind draws it as
    ``rng.uniform(-1, 1, ncubes)`` per child pair, levels and pairs in order.
    """
    if kind not in KERNEL_KINDS:
        raise ValueError(f"unknown kernel kind {kind!r}; expected one of {KERNEL_KINDS}")
    if not 0.0 <= scale <= 1.0:
        raise ValueError(f"scale must lie in [0, 1], got {scale}")
    if kind == "zero":
        return PerfectKernel(spec)
    nch = 2**spec.dim
    pi, pj = np.array([(i, j) for i in range(nch) for j in range(nch) if i != j]).T
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    levels = {}
    for level in range(spec.depth):
        ncubes = spec.n_cubes(level)
        bounds = _bound_table(level, spec.dim)[pi, pj]
        if kind == "haar-shift":
            block = np.repeat(np.where(pi < pj, bounds, -bounds)[:, None], ncubes, axis=1)
        else:
            block = (scale * bounds)[:, None] * rng.uniform(-1.0, 1.0, (len(pi), ncubes))
        # rows in (flat, i, j) order: the pair list is already in (i, j) order
        levels[level] = (np.repeat(np.arange(ncubes), len(pi)), np.tile(pi, ncubes),
                         np.tile(pj, ncubes), block.T.ravel())
    return PerfectKernel._from_levels(spec, levels)


def dense_matrix(kernel: PerfectKernel) -> np.ndarray:
    """Dense cell-basis matrix M with (M @ cell_values) = cell values of Tf.

    M[p, q] = K(cell_p, cell_q) * cell_volume, one indexed add per level of its
    disjoint child_i(R) x child_j(R) rectangles.  Guarded by ``DENSE_CAP`` (quadratic).
    """
    spec = kernel.spec
    n = spec.n_cells
    if n > DENSE_CAP:
        raise ValueError(f"dense matrix with {n} cells exceeds the cap {DENSE_CAP}")
    m = np.zeros((n, n))
    for level, p in kernel.plan.items():
        k, h = 2 << level, 1 << (spec.depth - level - 1)  # children and cells per child, per axis
        index: list = []
        for c in (p.dst, p.src):  # rows on child_i, columns on child_j
            c = c - spec.offsets[level + 1]
            for axis in [c] if spec.dim == 1 else [c >> (level + 1), c & (k - 1)]:
                index += [axis, slice(None)]
        m.reshape((k, h) * 2 * spec.dim)[tuple(index)] += p.vals.reshape((-1,) + (1,) * 2 * spec.dim)
    m *= spec.cell_volume
    return m


# -- serialization -------------------------------------------------------------


_ENTRY_FIELDS = ("level", "coords", "i", "j", "value")


def kernel_to_json_dict(kernel: PerfectKernel) -> dict:
    """The entries in (level, flat, i, j) order, read off the level plans."""
    entries = []
    for level, p in kernel.plan.items():
        coords = kernel.spec.coords_from_flats(level, p.flats)
        entries += [{"level": level, "coords": c, "i": i, "j": j, "value": v} for c, i, j, v
                    in zip(coords.tolist(), p.ii.tolist(), p.jj.tolist(), p.vals.tolist())]
    return {"dim": kernel.spec.dim, "depth": kernel.spec.depth, "entries": entries}


def kernel_from_json_dict(data: dict, check_size: bool = True) -> PerfectKernel:
    """The kernel of a ``kernel_to_json_dict`` document.  A missing field, a
    cube of the wrong dimension or a repeated (level, coords, i, j) entry is a
    ``ValueError`` naming the first bad entry in file order."""
    try:
        spec = GridSpec(int(data["dim"]), int(data["depth"]))
        rows = data["entries"]
    except KeyError as e:
        raise ValueError(f"kernel file lacks {e.args[0]!r}") from None
    level, coords, ii, jj, vals, bad = _entry_arrays(spec, rows)
    key = np.column_stack([level, coords, ii, jj])
    order = np.lexsort(key.T[::-1])  # stable: equal keys stay in file order
    repeats = order[1:][np.all(key[order[1:]] == key[order[:-1]], axis=1)]
    if len(repeats):
        n = int(repeats.min())
        raise ValueError(f"kernel entry {n} repeats level {level[n]}, coords "
                         f"{coords[n].tolist()}, pair ({ii[n]}, {jj[n]})")
    if bad < len(rows):
        raise _entry_error(spec, bad, rows[bad])
    flats = coords[:, 0] if spec.dim == 1 else (coords[:, 0] << level) | coords[:, 1]
    kernel = PerfectKernel._from_levels(spec, _split_levels(np.column_stack([level, flats, ii, jj]), vals))
    if check_size and not validate_size(kernel):
        raise ValueError("kernel file violates the size bound")
    return kernel


def _entry_arrays(spec: GridSpec, rows: list) -> tuple:
    """(level, coords, i, j, value) as arrays, one row per entry, up to the
    first entry that lacks a field, has the wrong number of coords or names
    no dyadic cube; and that entry's index (``len(rows)`` if there is none)."""
    try:
        cols = [list(map(itemgetter(name), rows)) for name in _ENTRY_FIELDS]
        end = len(rows)
    except KeyError:
        fields = frozenset(_ENTRY_FIELDS)
        end = next(n for n, e in enumerate(rows) if not fields <= e.keys())
        cols = [list(map(itemgetter(name), rows[:end])) for name in _ENTRY_FIELDS]
    end = _first(np.fromiter(map(len, cols[1]), np.int64, end) != spec.dim, end)
    level, ii, jj = (np.array(c[:end], dtype=np.int64) for c in (cols[0], cols[2], cols[3]))
    coords = np.fromiter(itertools.chain.from_iterable(cols[1][:end]), np.int64,
                         end * spec.dim).reshape(end, spec.dim)
    # DyadicCube's checks; every coordinate fits below 2^level once level > 62
    top = np.left_shift(1, np.clip(level, 0, 62))[:, None]
    end = _first((level < 0) | np.any((coords < 0) | ((coords >= top) & (level[:, None] <= 62)), axis=1),
                 end)
    return level[:end], coords[:end], ii[:end], jj[:end], np.array(cols[4][:end], dtype=float), end


def _first(mask: np.ndarray, default: int) -> int:
    """The index of the first True in ``mask``, ``default`` if there is none."""
    return int(np.argmax(mask)) if mask.any() else default


def _entry_error(spec: GridSpec, n: int, entry: dict) -> ValueError:
    """The error of entry ``n``, known to lack a field, to have the wrong
    number of coords or to name no dyadic cube."""
    missing = [name for name in _ENTRY_FIELDS if name not in entry]
    if missing:
        return ValueError(f"kernel entry {n} lacks {missing[0]!r}")
    cube = DyadicCube(int(entry["level"]), tuple(int(c) for c in entry["coords"]))  # may raise
    return ValueError(f"kernel entry {n} has {cube.dim} coords on a dim={spec.dim} grid")


def save_kernel(kernel: PerfectKernel, path) -> None:
    with open(path, "w") as fh:
        # one C-encoded string: the bytes of json.dump, without its Python streaming encoder
        fh.write(json.dumps(kernel_to_json_dict(kernel)))


def load_kernel(path, check_size: bool = True) -> PerfectKernel:
    """Load a kernel (re-checking the size bound unless told otherwise)."""
    with open(path) as fh:
        return kernel_from_json_dict(json.load(fh), check_size=check_size)
