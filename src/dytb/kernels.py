"""Perfect dyadic singular kernels: sparse representation and fast application.

A perfect dyadic kernel is constant on P x Q for any pair of disjoint dyadic
cubes P, Q, and vanishes on the finest-cell diagonal.  The maximal constancy
rectangles are exactly child_i(R) x child_j(R) over all grid cubes R below the
finest level and ordered pairs i != j of their children, so a kernel is the
sparse map (R, i, j) -> kappa.

Storage: one whole-plan set of entry arrays per kernel, validated once.  The
entries of all levels sit in level order, each level sorted by (flat, i, j),
with the entry bounds of every level.  Beside (flat, i, j, kappa), each entry
holds where its child_j (read from) and child_i (added to) sit in one vector
of the cubes of every level (``GridSpec.offsets``), so a sweep is one
gather-multiply and one bincount over a slice of the plan, ``bilinear`` one
product and ``validate_size`` one comparison; ``dense_matrix`` and the file
writer slice the arrays by level.  All but the values form the kernel's
``_Plan``, which also owns the adjoint's entry order; the kernels generated
on one grid share one plan.  The dict ``PerfectKernel.entries`` is built
only on first access.

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
import reprlib
from functools import cached_property
from operator import itemgetter

import numpy as np

from .grid import DyadicCube, GridFunction, GridSpec, _cells, _sum_tree, coords_of

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
    return (2.0 ** (-(level + 1)) * _pair_radius(i, j, dim)) ** -dim


def _pair_radius(i: int, j: int, dim: int) -> float:
    """The sup distance between the closed boxes of children i and j of a
    cube of side 2, so that of a level-l cube times 2^-(l+1)."""
    gaps = [abs(a - b) + 1 for a, b in zip(coords_of(1, i, dim), coords_of(1, j, dim))]
    return math.sqrt(sum(g * g for g in gaps))


# A plan's entry arrays in ``_plan`` order; a kernel adds its own ``vals``.  ``src`` (child_j,
# where f is read) and ``dst`` (child_i, where the value is added) index the all-level vector
# of cubes.
_INDEX_FIELDS = ("flats", "ii", "jj", "src", "dst")


class _Plan:
    """Where a kernel's entries sit, without their values: the grid ``spec``,
    the entry bounds ``starts`` of every level and the read-only
    ``_INDEX_FIELDS`` arrays, as ``_plan`` gives them.  Every kernel generated
    on a grid shares that grid's plan (``_grid_plan``); a dict or file kernel
    has one of its own."""

    def __init__(self, spec: GridSpec, starts, *arrays: np.ndarray) -> None:
        self.spec = spec
        self.starts = tuple(starts)
        for name, arr in zip(_INDEX_FIELDS, arrays):
            arr.flags.writeable = False
            setattr(self, name, arr)

    def levels(self) -> np.ndarray:
        """The level of every entry."""
        return np.repeat(np.arange(self.spec.depth), np.diff(self.starts))

    def adjoint(self) -> tuple[_Plan, np.ndarray]:
        """The adjoint's plan and ``order``, which takes a kernel's values to
        its adjoint's (``vals[order]``), built on the first call."""
        plan, order = self._adjoint
        return plan or self, order

    @cached_property
    def _adjoint(self) -> tuple[_Plan | None, np.ndarray]:
        """``adjoint``, with None for this plan itself (so that no cycle keeps
        a plan alive): the entries with i and j (so ``src`` and ``dst``)
        swapped, re-sorted by cube, then the swapped pair.  The keys are
        distinct integers, increasing with the level, so each level and each
        cube keeps its place, and with it ``flats``.  A plan that holds the
        swap of each of its pairs (every generated one) is its own adjoint's."""
        nch = 2**self.spec.dim
        cubes = np.array(self.spec.offsets, dtype=np.int64)[self.levels()] + self.flats
        order = np.argsort((cubes * nch + self.jj) * nch + self.ii, kind="stable")
        order.flags.writeable = False
        ii, jj = self.jj[order], self.ii[order]
        if np.array_equal(ii, self.ii) and np.array_equal(jj, self.jj):
            return None, order
        return _Plan(self.spec, self.starts, self.flats, ii, jj, self.dst[order], self.src[order]), order


class PerfectKernel:
    """Sparse perfect dyadic kernel, stored as whole-plan entry arrays.

    ``PerfectKernel(spec, {(level, flat, i, j): kappa})`` builds it from a
    dict; absent entries are zero.  The entries of every level sit in level
    order in ``flats``, ``ii``, ``jj``, ``vals``, ``src`` and ``dst``, level
    ``l`` at ``starts[l]:starts[l + 1]`` sorted by (flat, i, j); all but
    ``vals`` are those of its ``plan``.  Every entry is validated once, at
    construction.  Immutable afterwards (the arrays are read-only); ``apply``
    and ``bilinear`` are pure functions, so kernels can be shared across
    threads.
    """

    def __init__(self, spec: GridSpec, entries: dict | None = None) -> None:
        entries = entries or {}
        keys = np.array(list(entries), dtype=np.int64).reshape(-1, 4)
        self._set(*_sorted_plan(spec, keys, np.array(list(entries.values()), dtype=float)))

    @classmethod
    def _from(cls, plan: _Plan, vals: np.ndarray) -> PerfectKernel:
        """The kernel of a validated plan with finite values in its order."""
        kernel = cls.__new__(cls)
        kernel._set(plan, vals)
        return kernel

    def _set(self, plan: _Plan, vals: np.ndarray) -> None:
        """Install the plan's arrays and ``vals``, read-only."""
        self.plan, self.spec, self.starts = plan, plan.spec, plan.starts
        for name in _INDEX_FIELDS:
            setattr(self, name, getattr(plan, name))
        vals.flags.writeable = False
        self.vals = vals

    @cached_property
    def entries(self) -> dict:
        """The entries as a dict {(level, flat, i, j): kappa}, built on first access."""
        keys = zip(self.plan.levels().tolist(), self.flats.tolist(), self.ii.tolist(),
                   self.jj.tolist())
        return dict(zip(keys, self.vals.tolist()))

    @cached_property
    def _adjoint(self) -> PerfectKernel:
        """The adjoint kernel, built on the first ``adjoint`` call: its plan's
        adjoint plan with this kernel's values in that plan's order."""
        plan, order = self.plan.adjoint()
        return PerfectKernel._from(plan, self.vals[order])

    def value(self, cube: DyadicCube, i: int, j: int) -> float:
        return self.entries.get((cube.level, self.spec.cube_flat(cube), i, j), 0.0)

    def __len__(self) -> int:
        return len(self.vals)


def _sorted_plan(spec: GridSpec, keys: np.ndarray, vals: np.ndarray) -> tuple[_Plan, np.ndarray]:
    """``_plan`` of distinct (level, flat, i, j) rows and their values, in any
    order, and the values in the plan's order.  A level outside the grid is
    reported where a level-by-level check would meet it: a negative one
    first, one past the finest only after every entry of the levels in range
    has passed."""
    order = np.lexsort(keys.T[::-1])  # by level, then flat, i, j
    level, flats, ii, jj = (keys[order, column] for column in range(4))
    inside = 0 if len(level) and level[0] < 0 else int(np.searchsorted(level, spec.depth))
    vals = vals[order[:inside]]
    plan = _plan(spec, np.bincount(level[:inside], minlength=spec.depth), flats[:inside],
                 ii[:inside], jj[:inside], vals)
    if inside < len(level):
        raise ValueError(f"entry level {level[inside]} outside [0, {spec.depth})")
    return plan, vals


def _plan(spec: GridSpec, counts, flats, ii, jj, vals=None) -> _Plan:
    """Validate whole-plan entries sorted by (level, flat, i, j), ``counts[l]``
    of them at level l, and their ``vals`` when given, and attach the places
    of their children in the all-level vector: the kernel's ``_Plan``.

    Each check runs once on the whole plan; a failure names the first bad
    entry of the first level that has one, the checks of a level taken in
    the order cube index, child pair, finite value.  Flats are sorted within
    a level, so its cube indices are in range when its first and last are."""
    counts = np.asarray(counts, dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(counts)])
    faults = []  # (level, check, message) of the first bad entry of each check
    levels = np.flatnonzero(counts)
    first, last = flats[starts[levels]], flats[starts[levels + 1] - 1]
    ncubes = np.left_shift(1, spec.dim * levels)
    bad = np.flatnonzero((first < 0) | (last >= ncubes))
    if len(bad):
        level, top = int(levels[bad[0]]), ncubes[bad[0]]
        run = flats[starts[level]:starts[level + 1]]
        flat = run[0] if run[0] < 0 else run[np.searchsorted(run, top)]
        faults.append((level, 0, f"entry cube index {flat} out of range at level {level}"))
    nch = np.uint64(2**spec.dim)
    bad = (ii.view(np.uint64) >= nch) | (jj.view(np.uint64) >= nch) | (ii == jj)  # negatives wrap
    if bad.any():
        n = int(np.argmax(bad))
        faults.append((_level_of(starts, n), 1, f"bad child pair ({ii[n]}, {jj[n]})"))
    if vals is not None and not np.isfinite(vals).all():
        n = int(np.argmin(np.isfinite(vals)))
        faults.append((_level_of(starts, n), 2, "non-finite kernel value"))
    if faults:
        raise ValueError(min(faults)[2])
    off = np.repeat(np.array(spec.offsets[1:spec.depth + 1], dtype=np.int64), counts)
    level = np.repeat(np.arange(spec.depth), counts)
    return _Plan(spec, starts.tolist(), flats, ii, jj, off + spec.child_flats(level, flats, jj),
                 off + spec.child_flats(level, flats, ii))


def _level_of(starts: np.ndarray, n: int) -> int:
    """The level of entry ``n`` of a plan with level bounds ``starts``."""
    return int(np.searchsorted(starts, n, side="right")) - 1


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

    The entries from ``start`` on are one contiguous slice of the plan and
    read the cube sums of the levels below ``start`` only, so the sums sit in
    the layout of ``cube_sum_vector`` coarsened up to level ``start + 1``
    (``grid._sum_tree``), and the products land on the cubes of every level
    in one bincount, which adds in input order into zeros as ``np.add.at``
    would.  Going down, each level adds its parent's running value, read by
    one gather.  From the finest level on there are no entries and no sums.
    """
    spec = kernel.spec
    if start >= spec.depth:
        _cells(spec, values)  # the shape check of every start
        return np.zeros(spec.n_cells)
    sums = _sum_tree(spec, values, start + 1)
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


def _bound_tables(depth: int, dim: int) -> np.ndarray:
    """``size_bound`` of every child pair (i, j) of a cube at every level below
    ``depth``, as tables indexed [level, i, j]; the unused diagonal is 0."""
    nch = 2**dim
    radii = [(i, j, _pair_radius(i, j, dim)) for i in range(nch) for j in range(nch) if i != j]
    tables = np.zeros((depth, nch, nch))
    for level in range(depth):
        h = 2.0 ** (-(level + 1))
        for i, j, r in radii:
            tables[level, i, j] = (h * r) ** -dim
    return tables


def validate_size(kernel: PerfectKernel) -> bool:
    """True iff every entry obeys the size bound for its child rectangle."""
    tables = _bound_tables(kernel.spec.depth, kernel.spec.dim)
    return not np.any(np.abs(kernel.vals) > tables[kernel.plan.levels(), kernel.ii, kernel.jj])


# The plan of the last grid a kernel was generated on (``_grid_plan``), shared by every
# kernel generated there and by their adjoints.  Only one grid's is held: it pins 40 bytes
# per entry, 48 once its adjoint order is built (4.2 MB per array at 1D depth 18).
_last_plan: _Plan | None = None


def _child_pairs(dim: int) -> np.ndarray:
    """The child pairs (i, j), i != j, of a cube, in (i, j) order, as two rows."""
    nch = 2**dim
    return np.array([(i, j) for i in range(nch) for j in range(nch) if i != j]).T


def _grid_plan(spec: GridSpec) -> _Plan:
    """The plan of every kernel generated on ``spec``: every cube below the
    finest level, level by level, holds one entry per child pair.  Built and
    validated on the first kernel of a grid, and kept until a kernel is
    generated on another one."""
    global _last_plan
    plan = _last_plan
    if plan is None or plan.spec != spec:
        pi, pj = _child_pairs(spec.dim)
        ncubes = [spec.n_cubes(level) for level in range(spec.depth)]
        cubes = np.concatenate([np.arange(0), *map(np.arange, ncubes)])  # flat of every cube, level by level
        plan = _plan(spec, [len(pi) * count for count in ncubes], np.repeat(cubes, len(pi)),
                     np.tile(pi, len(cubes)), np.tile(pj, len(cubes)))
        _last_plan = plan
    return plan


def generate_kernel(kind: str, spec: GridSpec, seed: int = 0, scale: float = 1.0) -> PerfectKernel:
    """Deterministic kernel factory.

    kind "zero": no entries.  kind "haar-shift": antisymmetric entries at the
    size bound, kappa_{R,i,j} = +bound for i < j and -bound for i > j; in 1D
    this is +/- 1/side(R).  kind "random": every entry uniform in
    [-scale*bound, +scale*bound].  The result passes validate_size by
    construction and is a pure function of (kind, spec, seed, scale).

    A generated kernel is its grid's shared plan (``_grid_plan``) and its own
    values.  The random kind draws all values in one ``rng.uniform(-1, 1,
    entries)`` call, the stream of one ``(pairs x cubes)`` block per level in
    level order, each block then laid out cube by cube.
    """
    if kind not in KERNEL_KINDS:
        raise ValueError(f"unknown kernel kind {kind!r}; expected one of {KERNEL_KINDS}")
    if not 0.0 <= scale <= 1.0:
        raise ValueError(f"scale must lie in [0, 1], got {scale}")
    if kind == "zero":
        return PerfectKernel(spec)
    plan = _grid_plan(spec)
    pi, pj = _child_pairs(spec.dim)
    ncubes = [spec.n_cubes(level) for level in range(spec.depth)]
    bounds = _bound_tables(spec.depth, spec.dim)[:, pi, pj]  # [level, pair]
    if kind == "haar-shift":
        vals = np.repeat(np.where(pi < pj, bounds, -bounds), ncubes, axis=0).ravel()
    else:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        draws = rng.uniform(-1.0, 1.0, len(plan.flats))
        vals = np.empty_like(draws)
        lo = 0
        for level, count in enumerate(ncubes):
            hi = lo + len(pi) * count
            # the level's (pairs x cubes) block, rows in (flat, i, j) order
            vals[lo:hi].reshape(count, len(pi))[...] = (
                (scale * bounds[level])[:, None] * draws[lo:hi].reshape(len(pi), count)).T
            lo = hi
    if not np.isfinite(vals).all():
        raise ValueError("non-finite kernel value")
    return PerfectKernel._from(plan, vals)


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
    for level, (lo, hi) in enumerate(zip(kernel.starts, kernel.starts[1:])):
        k, h = 2 << level, 1 << (spec.depth - level - 1)  # children and cells per child, per axis
        index: list = []
        for c in (kernel.dst[lo:hi], kernel.src[lo:hi]):  # rows on child_i, columns on child_j
            for axis in spec.coords_from_flats(level + 1, c - spec.offsets[level + 1]):
                index += [axis, slice(None)]
        m.reshape((k, h) * 2 * spec.dim)[tuple(index)] += kernel.vals[lo:hi].reshape((-1,) + (1,) * 2 * spec.dim)
    m *= spec.cell_volume
    return m


# -- serialization -------------------------------------------------------------


def _int64(x) -> bool:
    """A JSON integer (a bool is none) that int64 holds."""
    return type(x) is int and -2**63 <= x < 2**63


# per field of a kernel entry: the check of its value as json reads it, and what that asks for
_ENTRY_FIELDS = {
    "level": (_int64, "a 64-bit integer"),
    "coords": (lambda c: type(c) is list and all(map(_int64, c)), "a list of 64-bit integers"),
    "i": (_int64, "a 64-bit integer"),
    "j": (_int64, "a 64-bit integer"),
    # an integer from 2^1024 - 2^970 up rounds past the largest float
    "value": (lambda x: type(x) is float or type(x) is int and abs(x) < 2**1024 - 2**970, "a number"),
}


def kernel_to_json_dict(kernel: PerfectKernel) -> dict:
    """The entries in (level, flat, i, j) order, sliced by level off the plan."""
    entries = []
    for level, (lo, hi) in enumerate(zip(kernel.starts, kernel.starts[1:])):
        coords = np.column_stack(kernel.spec.coords_from_flats(level, kernel.flats[lo:hi]))
        entries += [{"level": level, "coords": c, "i": i, "j": j, "value": v} for c, i, j, v
                    in zip(coords.tolist(), kernel.ii[lo:hi].tolist(), kernel.jj[lo:hi].tolist(),
                           kernel.vals[lo:hi].tolist())]
    return {"dim": kernel.spec.dim, "depth": kernel.spec.depth, "entries": entries}


def kernel_from_json_dict(data: dict, check_size: bool = True) -> PerfectKernel:
    """The kernel of a ``kernel_to_json_dict`` document: ``dim`` and ``depth``
    JSON integers, ``entries`` a list of objects whose fields pass the checks
    of ``_ENTRY_FIELDS``; nothing is cast.  Anything else, a cube of the wrong
    dimension or a repeated (level, coords, i, j) entry is a ``ValueError``
    naming the first bad entry in file order."""
    if type(data) is not dict:
        raise ValueError(f"kernel file holds {reprlib.repr(data)}, not an object")
    for name, kind, what in (("dim", int, "an integer"), ("depth", int, "an integer"), ("entries", list, "a list")):
        if name not in data:
            raise ValueError(f"kernel file lacks {name!r}")
        if type(data[name]) is not kind:
            raise ValueError(f"kernel file has {name} {reprlib.repr(data[name])}, not {what}")
    spec, rows = GridSpec(data["dim"], data["depth"]), data["entries"]
    level, coords, ii, jj, vals, bad = _entry_arrays(spec, rows)
    key = np.column_stack([level, coords, ii, jj])
    order = np.lexsort(key.T[::-1])  # stable: equal keys stay in file order
    repeats = order[1:][np.all(key[order[1:]] == key[order[:-1]], axis=1)]
    if len(repeats):
        n = int(repeats.min())
        raise ValueError(f"kernel entry {n} repeats level {level[n]}, coords "
                         f"{coords[n].tolist()}, pair ({ii[n]}, {jj[n]})")
    if bad < len(rows):
        raise ValueError(f"kernel entry {bad} {_entry_fault(spec, rows[bad])}")
    flats = spec.flats_of(level, coords.T)
    kernel = PerfectKernel._from(*_sorted_plan(spec, np.column_stack([level, flats, ii, jj]), vals))
    if check_size and not validate_size(kernel):
        raise ValueError("kernel file violates the size bound")
    return kernel


def _entry_arrays(spec: GridSpec, rows: list) -> tuple:
    """(level, coords, i, j, value) as arrays, one row per entry, up to the
    first entry that has an ``_entry_fault``; and that entry's index
    (``len(rows)`` if there is none).  The columns are checked whole; only
    when a check fails are the entries scanned one by one for the first bad one."""
    arrays = _columns(spec, rows)
    if arrays is not None:
        return *arrays, len(rows)
    end = next(n for n, e in enumerate(rows) if _entry_fault(spec, e))
    return *_columns(spec, rows[:end]), end


def _columns(spec: GridSpec, rows: list):
    """The arrays of ``_entry_arrays`` for all of ``rows``, or None if an
    entry has an ``_entry_fault``: the same checks, one column at a time."""
    try:
        cols = [list(map(itemgetter(name), rows)) for name in _ENTRY_FIELDS]
        flat = list(itertools.chain.from_iterable(cols[1]))
        types = ({int}, {list}, {int}, {int}, {int, float}, {int})  # exact: a bool is no int
        if not all(set(map(type, c)) <= t for c, t in zip((*cols, flat), types)) \
                or set(map(len, cols[1])) - {spec.dim}:
            return None
        level, ii, jj, coords = (np.array(c, dtype=np.int64) for c in (cols[0], cols[2], cols[3], flat))
        coords, vals = coords.reshape(-1, spec.dim), np.array(cols[4], dtype=float)
    except (KeyError, TypeError, OverflowError):  # no object or no field; an integer too large
        return None
    # DyadicCube's checks; every coordinate fits below 2^level once level > 62
    top = np.left_shift(1, np.clip(level, 0, 62))[:, None]
    if np.any(level < 0) or np.any((coords < 0) | ((coords >= top) & (level[:, None] <= 62))):
        return None
    return level, coords, ii, jj, vals


def _entry_fault(spec: GridSpec, entry) -> str | None:
    """What makes ``entry`` no entry of a kernel on ``spec``; None if nothing does."""
    if type(entry) is not dict:
        return f"is {reprlib.repr(entry)}, not an object"
    missing = [name for name in _ENTRY_FIELDS if name not in entry]
    if missing:
        return f"lacks {missing[0]!r}"
    for name, (ok, what) in _ENTRY_FIELDS.items():
        if not ok(entry[name]):
            return f"has {name} {reprlib.repr(entry[name])}, not {what}"
    if len(entry["coords"]) != spec.dim:
        return f"has {len(entry['coords'])} coords on a dim={spec.dim} grid"
    try:
        DyadicCube(entry["level"], tuple(entry["coords"]))
    except ValueError as e:
        return f"names no cube: {e}"
    return None


def save_kernel(kernel: PerfectKernel, path) -> None:
    with open(path, "w") as fh:
        # one C-encoded string: the bytes of json.dump, without its Python streaming encoder
        fh.write(json.dumps(kernel_to_json_dict(kernel)))


def load_kernel(path, check_size: bool = True) -> PerfectKernel:
    """Load a kernel (re-checking the size bound unless told otherwise).  A
    file that is no kernel is a ``ValueError`` that names ``path``, a JSON
    syntax error as ``path:line:col``."""
    with open(path) as fh:
        try:
            return kernel_from_json_dict(json.load(fh), check_size=check_size)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from None
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None
