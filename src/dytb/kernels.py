"""Perfect dyadic singular kernels: sparse representation and fast application.

A perfect dyadic kernel is constant on P x Q for any pair of disjoint dyadic
cubes P, Q, and vanishes on the finest-cell diagonal.  The maximal constancy
rectangles are exactly child_i(R) x child_j(R) over all grid cubes R below the
finest level and ordered pairs i != j of their children, so a kernel is the
sparse map (R, i, j) -> kappa.

Orientation: in the pairing <Tf, g> = integral K(x, y) f(y) g(x) dy dx, the
x-variable (paired with g) ranges over child_i and the y-variable (paired
with f) over child_j:

    <Tf, g> = sum_R sum_{i != j} kappa_{R,i,j} * (int_{child_j} f) * (int_{child_i} g).

The size bound |kappa| <= sup{|x - y| : x in closure(child_i), y in
closure(child_j)}^(-dim) keeps the kernel dominated by |x - y|^(-dim).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grid import DyadicCube, GridFunction, GridSpec, _child_offset, level_sums, spread

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


def size_bound(level: int, i: int, j: int, dim: int, metric: str = "euclidean") -> float:
    """Upper bound for |kappa| on the rectangle child_i(R) x child_j(R).

    Equals (sup distance between the closed child boxes)^(-dim); per axis the
    sup distance is h*(|o_i - o_j| + 1) with h the child side length.  The
    metric combining axes is configurable ("euclidean" or "max").
    """
    if i == j:
        raise ValueError("diagonal child pairs carry no kernel value")
    h = 2.0 ** (-(level + 1))
    oi = _child_offset(i, dim)
    oj = _child_offset(j, dim)
    gaps = [abs(a - b) + 1 for a, b in zip(oi, oj)]
    if metric == "euclidean":
        dist = h * math.sqrt(sum(g * g for g in gaps))
    elif metric == "max":
        dist = h * max(gaps)
    else:
        raise ValueError(f"unknown metric {metric!r}")
    return dist**-dim


@dataclass(frozen=True)
class PerfectKernel:
    """Sparse perfect dyadic kernel: entries keyed by (level, flat_cube, i, j).

    Absent entries are zero.  Immutable after construction; ``apply`` and
    ``bilinear`` are pure functions, so kernels can be shared across threads.
    """

    spec: GridSpec
    entries: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for (level, flat, i, j), v in self.entries.items():
            if not (0 <= level < self.spec.depth):
                raise ValueError(f"entry level {level} outside [0, {self.spec.depth})")
            if not (0 <= flat < self.spec.n_cubes(level)):
                raise ValueError(f"entry cube index {flat} out of range at level {level}")
            nch = 2**self.spec.dim
            if not (0 <= i < nch and 0 <= j < nch and i != j):
                raise ValueError(f"bad child pair ({i}, {j})")
            if not math.isfinite(v):
                raise ValueError("non-finite kernel value")

    @cached_property
    def _per_level(self) -> dict[int, tuple[np.ndarray, ...]]:
        """Entries grouped by level as (flat, i, j, value) arrays, sorted."""
        grouped: dict[int, list[tuple[int, int, int, float]]] = {}
        for (level, flat, i, j), v in self.entries.items():
            grouped.setdefault(level, []).append((flat, i, j, v))
        out = {}
        for level, rows in grouped.items():
            rows.sort()
            arr = np.asarray(rows, dtype=float)
            out[level] = (
                arr[:, 0].astype(np.int64),
                arr[:, 1].astype(np.int64),
                arr[:, 2].astype(np.int64),
                arr[:, 3],
            )
        return out

    def value(self, cube: DyadicCube, i: int, j: int) -> float:
        return self.entries.get((cube.level, self.spec.cube_flat(cube), i, j), 0.0)

    def __len__(self) -> int:
        return len(self.entries)


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
    """<Tf, g> via the bottom-up integral tree; exact tiling of the off-diagonal."""
    if f.spec != kernel.spec or g.spec != kernel.spec:
        raise ValueError("grid mismatch")
    cv = kernel.spec.cell_volume
    total = 0.0
    for level, (flats, ii, jj, vals) in kernel._per_level.items():
        intf = f.cube_sums[level + 1]
        intg = g.cube_sums[level + 1]
        cf = _child_flats(kernel.spec, level, flats, jj)
        cg = _child_flats(kernel.spec, level, flats, ii)
        total += float(np.sum(vals * intf[cf] * intg[cg])) * cv * cv
    return total


def apply_values(kernel: PerfectKernel, values: np.ndarray) -> np.ndarray:
    """Cell values of T applied to the function with the given cell values.

    Per finest cell p: sum over ancestors R and children j != i(R, p) of
    kappa_{R, i(R,p), j} * int_{child_j(R)} f.  Implemented by accumulating a
    per-cube constant at each level and sweeping it down, O(cells * depth).
    """
    return _sweep_from(kernel, values, 0)


def _sweep_from(kernel: PerfectKernel, values: np.ndarray, start: int) -> np.ndarray:
    """``apply_values`` using only the kernel entries at levels >= ``start``.

    Inside each cube Q of level ``start`` the result depends only on the
    values inside Q, and equals ``apply_values`` of those values times 1_Q bit
    for bit: an entry at a strict ancestor R of Q pairs the child of R that
    contains Q with a disjoint child, so inside Q it adds only exact zeros.
    """
    spec = kernel.spec
    sums = level_sums(spec, values)
    if start >= spec.depth:
        return np.zeros(spec.n_cells)
    cv = spec.cell_volume
    contrib = {lev: np.zeros(spec.n_cubes(lev)) for lev in range(start + 1, spec.depth + 1)}
    for level, (flats, ii, jj, vals) in kernel._per_level.items():
        if level < start:
            continue
        src = _child_flats(spec, level, flats, jj)
        dst = _child_flats(spec, level, flats, ii)
        np.add.at(contrib[level + 1], dst, vals * sums[level + 1][src] * cv)
    cur = contrib[start + 1]
    for lev in range(start + 2, spec.depth + 1):
        cur = spread(spec, lev - 1, cur, lev) + contrib[lev]
    return cur


def apply(kernel: PerfectKernel, f: GridFunction) -> GridFunction:
    """Tf as a grid function; satisfies integral(apply(T,f)*g) = bilinear(T,f,g)."""
    if f.spec != kernel.spec:
        raise ValueError("grid mismatch")
    return GridFunction(kernel.spec, apply_values(kernel, f.values))


def adjoint(kernel: PerfectKernel) -> PerfectKernel:
    """The adjoint kernel: kappa*_{R,i,j} = kappa_{R,j,i}."""
    swapped = {(lev, flat, j, i): v for (lev, flat, i, j), v in kernel.entries.items()}
    return PerfectKernel(kernel.spec, swapped)


def validate_size(kernel: PerfectKernel, metric: str = "euclidean") -> bool:
    """True iff every entry obeys the size bound for its child rectangle."""
    for (level, _flat, i, j), v in kernel.entries.items():
        if abs(v) > size_bound(level, i, j, kernel.spec.dim, metric):
            return False
    return True


def generate_kernel(
    kind: str,
    spec: GridSpec,
    seed: int = 0,
    scale: float = 1.0,
    metric: str = "euclidean",
) -> PerfectKernel:
    """Deterministic kernel factory.

    kind "zero": no entries.  kind "haar-shift": antisymmetric entries at the
    size bound, kappa_{R,i,j} = +bound for i < j and -bound for i > j; in 1D
    this is +/- 1/side(R).  kind "random": every entry uniform in
    [-scale*bound, +scale*bound].  The result passes validate_size by
    construction and is a pure function of (kind, spec, seed, scale).
    """
    if kind not in KERNEL_KINDS:
        raise ValueError(f"unknown kernel kind {kind!r}; expected one of {KERNEL_KINDS}")
    if not 0.0 <= scale <= 1.0:
        raise ValueError(f"scale must lie in [0, 1], got {scale}")
    entries: dict = {}
    if kind == "zero":
        return PerfectKernel(spec, entries)
    nch = 2**spec.dim
    pairs = [(i, j) for i in range(nch) for j in range(nch) if i != j]
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    for level in range(spec.depth):
        ncubes = spec.n_cubes(level)
        if kind == "haar-shift":
            for i, j in pairs:
                bound = size_bound(level, i, j, spec.dim, metric)
                val = bound if i < j else -bound
                for flat in range(ncubes):
                    entries[(level, flat, i, j)] = val
        else:
            for i, j in pairs:
                bound = size_bound(level, i, j, spec.dim, metric)
                draws = rng.uniform(-1.0, 1.0, ncubes)
                for flat in range(ncubes):
                    entries[(level, flat, i, j)] = scale * bound * draws[flat]
    return PerfectKernel(spec, entries)


def dense_matrix(kernel: PerfectKernel, max_cells: int = 4096) -> np.ndarray:
    """Dense cell-basis matrix M with (M @ cell_values) = cell values of Tf.

    M[p, q] = K(cell_p, cell_q) * cell_volume; filled rectangle by rectangle
    from the sparse entries.  Guarded by ``max_cells`` since it is quadratic.
    """
    spec = kernel.spec
    n = spec.n_cells
    if n > max_cells:
        raise ValueError(f"dense matrix with {n} cells exceeds the cap {max_cells}")
    m = np.zeros((n, n))
    for (level, flat, i, j), v in kernel.entries.items():
        parent = spec.cube_from_flat(level, flat)
        kids = parent.children()
        rows = spec.cell_indices(kids[i])
        cols = spec.cell_indices(kids[j])
        m[np.ix_(rows, cols)] += v
    return m * spec.cell_volume


# -- serialization -------------------------------------------------------------


def kernel_to_json_dict(kernel: PerfectKernel) -> dict:
    entries = []
    for (level, flat, i, j), v in sorted(kernel.entries.items()):
        cube = kernel.spec.cube_from_flat(level, flat)
        entries.append({"level": level, "coords": list(cube.coords), "i": i, "j": j, "value": v})
    return {"dim": kernel.spec.dim, "depth": kernel.spec.depth, "entries": entries}


def kernel_from_json_dict(data: dict, check_size: bool = True) -> PerfectKernel:
    spec = GridSpec(int(data["dim"]), int(data["depth"]))
    entries = {}
    for e in data["entries"]:
        cube = DyadicCube(int(e["level"]), tuple(int(c) for c in e["coords"]))
        entries[(cube.level, spec.cube_flat(cube), int(e["i"]), int(e["j"]))] = float(e["value"])
    kernel = PerfectKernel(spec, entries)
    if check_size and not validate_size(kernel):
        raise ValueError("kernel file violates the size bound")
    return kernel


def save_kernel(kernel: PerfectKernel, path) -> None:
    with open(path, "w") as fh:
        json.dump(kernel_to_json_dict(kernel), fh)


def load_kernel(path, check_size: bool = True) -> PerfectKernel:
    """Load a kernel (re-checking the size bound unless told otherwise)."""
    with open(path) as fh:
        return kernel_from_json_dict(json.load(fh), check_size=check_size)
