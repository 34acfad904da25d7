"""Stopping-time constructions: terminal cubes, corona forests, packing numbers.

One stopping rule, ``stopping_rule``, decides every construction here: below
a stopping cube S carrying b_S, a dyadic cube Q stops when

    (1) |int_Q b_S| <= delta |Q|
    (2) int_Q |b_S|^p >= delta^-1 A^p |Q|
    (3) int_Q |T b_S|^q >= delta^-1 Tloc^q |Q|    (and the integral is positive)

``terminal_cubes`` finds the maximal cubes below a base cube S0 carrying a
single function b that meet (1) or (2), where b loses its usable average or
blows up in norm; the block check of a twisted context reads the same two.
``build_corona`` iterates all three against a whole accretive system and an
operator from Q0, once with (b^1, p1, q = p2', T) and once with (b^2, p2,
q = p1', T*) (``_sides``), each with the p and A of its own system.

Both are one top-down pass over per-level owner arrays (``_owner_pass``); the
corona reads b_S and T b_S of each cube's owner S from two cell arrays stitched
from the system's level arrays, with no full-grid function or apply per member.

Comparisons are inclusive as written, so ties stop.  An input whose testing
constant is 0 has T b_S = 0 on every cube, and the positivity guard keeps (3)
from stopping any; Tloc = 0 against a cube where T b_S is not zero is a
ConfigError.  Stopping cubes may occur down to the finest level, which keeps
every non-stopping cube's b-average strictly above delta.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .accretive import AccretiveSystem
from .grid import DyadicCube, GridFunction, GridSpec, coarsen_step, flat_of, level_sums, spread
from .kernels import PerfectKernel, adjoint

__all__ = [
    "ConfigError",
    "terminal_cubes",
    "CoronaForest",
    "build_corona",
    "forest_to_json_dict",
    "packing_ratio",
    "carleson_constant",
    "forest_carleson",
    "DeltaSearch",
    "choose_delta",
]

DELTA_FLOOR = 2.0**-20


class ConfigError(ValueError):
    """A configuration that cannot produce a meaningful construction."""


def conjugate(p: float) -> float:
    return p / (p - 1.0)


def _sides(sys1: AccretiveSystem, sys2: AccretiveSystem, kernel: PerfectKernel):
    """The two sides of the construction as (system, operator, exponent q):
    b^1 against T with q = p2', and b^2 against T* with q = p1'."""
    return ((sys1, kernel, conjugate(sys2.p)), (sys2, adjoint(kernel), conjugate(sys1.p)))


# -- mask machinery -------------------------------------------------------------


def _owner_pass(spec, top: int, mark) -> list[np.ndarray | None]:
    """Per level from ``top`` down (None above), for every cube (row-major),
    the level of its smallest marked ancestor-or-self, -1 if none.  A level
    inherits its parent level's owners; the cubes selected by
    ``mark(level, inherited)`` (a mask or flat indices) then own themselves."""
    out: list = [None] * top + [np.full(spec.n_cubes(top), -1)]
    for level in range(top, spec.depth + 1):
        if level > top:
            out.append(spread(spec, level - 1, out[-1], level))
        out[level][mark(level, out[level])] = level
    return out


def _cubes_where(spec, masks: dict) -> list[DyadicCube]:
    """The cubes flagged by per-level masks ``{level: mask}``, level by level, row-major."""
    return [spec.cube_from_flat(level, int(flat)) for level, mask in masks.items()
            for flat in np.flatnonzero(mask)]


# -- the stopping rule and terminal cubes (single function) ---------------------


def stopping_rule(spec: GridSpec, level: int, integ: np.ndarray, pows: np.ndarray, delta: float,
                  A: float, p: float, tpows: np.ndarray | None = None, tloc: float | None = None,
                  q: float | None = None) -> np.ndarray:
    """The mask of the level-``level`` cubes Q (row-major) that meet stopping
    condition (1) or (2) from ``integ`` = int_Q b and ``pows`` = int_Q |b|^p,
    or, when ``tpows`` = int_Q |T b_S|^q is given, (3) with ``tloc`` and
    ``q``.  At Tloc = 0, (3) would stop every cube where T b_S is not zero:
    the first such cube is a ConfigError."""
    check_delta(delta)
    vol = 2.0 ** (-spec.dim * level)
    stopped = (np.abs(integ) <= delta * vol) | (pows >= A**p / delta * vol)
    if tpows is not None:
        moved = tpows > 0.0
        if tloc == 0.0 and moved.any():
            cube = spec.cube_from_flat(level, int(np.flatnonzero(moved)[0]))
            raise ConfigError(f"Tloc = 0 makes stopping condition (3) stop {cube}, where T b_S is "
                              f"not zero; compute the testing constant first and pass it as tloc")
        stopped |= (tpows >= tloc**q / delta * vol) & moved
    return stopped


def _terminal_owners(b: GridFunction, s0: DyadicCube, delta: float, p: float, A: float):
    """The owner pass of the terminal construction: per level from s0's (None
    above), the level of each cube's smallest ancestor-or-self among s0 and
    the maximal cubes strictly inside s0 that meet stopping condition (1) or
    (2) (``stopping_rule``); -1 outside s0.  None when s0 itself meets one."""
    check_delta(delta)
    spec = b.spec
    spec.check(s0)
    top, flat, cv = s0.level, spec.cube_flat(s0), spec.cell_volume
    pows = level_sums(spec, np.abs(b.values) ** p)
    stopped = {level: stopping_rule(spec, level, b.cube_sums[level] * cv, pows[level] * cv, delta, A, p)
               for level in range(top, spec.depth + 1)}
    if stopped[top][flat]:
        return None
    return _owner_pass(spec, top, lambda level, inherited:
                       [flat] if level == top else stopped[level] & (inherited == top))


def terminal_cubes(b: GridFunction, s0: DyadicCube, delta: float, p: float, A: float) -> list[DyadicCube]:
    """Maximal cubes T inside ``s0`` (including s0 itself) that meet stopping condition
    (1) or (2); finest cells may be returned but are never subdivided further."""
    owners = _terminal_owners(b, s0, delta, p, A)
    if owners is None:
        return [s0]
    return _cubes_where(b.spec, {lev: owners[lev] == lev for lev in range(s0.level + 1, len(owners))})


# -- corona forest (two systems, operator-aware) ---------------------------------


@dataclass(frozen=True, eq=False)
class CoronaForest:
    """Stopping families S_1, S_2 below ``q0`` with the other inputs of the
    ``build_corona`` call that built them; each family is held as the
    per-level owner arrays of its pass (``owner_levels``).

    S_j's members are the cubes that own themselves (``owners[l] == l``), and
    a cube's owner level is that of pi_j(Q), the smallest member containing
    it.  ``members`` is the one view of the owner arrays as ``DyadicCube``s,
    built anew on each call.
    """

    q0: DyadicCube
    sys1: AccretiveSystem
    sys2: AccretiveSystem
    kernel: PerfectKernel
    delta: float
    tloc: float
    owners: tuple

    @property
    def spec(self) -> GridSpec:
        return self.sys1.spec

    def system(self, j: int) -> AccretiveSystem:
        """The system whose b S_j's members carry: b^1 for S_1, b^2 for S_2."""
        return (self.sys1, self.sys2)[_jdx(j)]

    def owner_levels(self, j: int) -> list[np.ndarray | None]:
        """Per level, the level of pi_j(Q) for every cube Q of that level
        (row-major), -1 outside q0; None above q0's level."""
        return self.owners[_jdx(j)]

    def is_member(self, j: int, cube: DyadicCube) -> bool:
        """Whether ``cube`` is a member of S_j: a grid cube inside q0 that owns itself."""
        return (self.spec.contains(cube) and self.q0.contains(cube)
                and self.owner_levels(j)[cube.level][self.spec.cube_flat(cube)] == cube.level)

    def member_count(self, j: int) -> int:
        """The number of members of S_j."""
        owners = self.owner_levels(j)
        return sum(int(np.count_nonzero(owners[lev] == lev))
                   for lev in range(self.q0.level, self.spec.depth + 1))

    def members(self, j: int) -> list[DyadicCube]:
        """S_j's members, coarse to fine and row-major (sorted)."""
        owners = self.owner_levels(j)
        return _cubes_where(self.spec, {lev: owners[lev] == lev
                                        for lev in range(self.q0.level, self.spec.depth + 1)})


def _member_links(forest: CoronaForest, j: int):
    """S_j's members level by level from q0's, row-major (the sorted
    ``DyadicCube`` order), as per-level arrays ``(level, coords, parent_level,
    parent_coords)``, the coordinates one array per axis.  A member's corona
    parent is the member at level ``owners[l-1][parent flat]`` containing it;
    q0 has parent level -1 (and meaningless parent coords)."""
    spec, owners, top = forest.spec, forest.owner_levels(j), forest.q0.level
    for level in range(top, spec.depth + 1):
        coords = spec.coords_from_flats(level, np.flatnonzero(owners[level] == level))
        if level == top:
            parent_level = np.full(len(coords[0]), -1)
        else:
            parent_level = owners[level - 1][spec.flats_of(level - 1, [c >> 1 for c in coords])]
        yield level, coords, parent_level, [c >> (level - parent_level) for c in coords]


def _jdx(j: int) -> int:
    if j not in (1, 2):
        raise ValueError(f"family index must be 1 or 2, got {j}")
    return j - 1


def _build_family(q0: DyadicCube, system: AccretiveSystem, op: PerfectKernel, q_exp: float,
                  delta: float, tloc: float):
    """One stopping family below ``q0`` as the owner arrays of its pass
    (``CoronaForest.owner_levels``); rule (2) reads the system's p and A.  A
    member S of level m stitches that level's b-array and its sweep from
    level m onto its cells, which equal b_S and T b_S there bit for bit
    (``kernels._sweep_from``); only those cells take the powers |b|^p and
    |T b|^q.  The sweeps are the system's memo (``AccretiveSystem.level_sweep``):
    ``testing_constant`` has already made them, and every ``choose_delta``
    attempt reads them again."""
    spec = system.spec
    stitched = [np.zeros(spec.n_cells) for _ in range(3)]  # b, |b|^p and |T b|^q

    def sums(level: int):
        """The cube sums at ``level`` of the three stitched arrays, coarsened as
        one stack after a first step per array.  glibc lifts its mmap
        threshold to the largest array freed so far; freeing a (3, cells)
        stack lifted it past the trial's cell arrays, and the peak RSS of a
        1D depth-18 trial rose by 10 MB."""
        if level == spec.depth:
            return stitched
        stack = np.empty((3, spec.n_cubes(spec.depth - 1)))
        for cells, row in zip(stitched, stack):
            coarsen_step(spec.dim, cells, out=row)
        for _ in range(spec.depth - 1 - level):
            stack = coarsen_step(spec.dim, stack)
        return stack

    def mark(level: int, inherited: np.ndarray) -> np.ndarray:
        if level == q0.level:
            hits = spec.subtree_mask(q0, level)
        else:
            integ, pows, tpows = (row * spec.cell_volume for row in sums(level))
            hits = (inherited >= 0) & stopping_rule(spec, level, integ, pows, delta, system.A,
                                                    system.p, tpows, tloc, q_exp)
        if hits.any():  # only the newly marked cells change
            inside = spread(spec, level, hits)
            b = system.level_values(level)[inside]
            stitched[0][inside] = b
            stitched[1][inside] = np.abs(b) ** system.p
            stitched[2][inside] = np.abs(system.level_sweep(op, level)[inside]) ** q_exp
        return hits

    return _owner_pass(spec, q0.level, mark)


def build_corona(q0: DyadicCube, sys1: AccretiveSystem, sys2: AccretiveSystem,
                 kernel: PerfectKernel, delta: float, tloc: float) -> CoronaForest:
    """Run the two-system stopping construction below ``q0`` at stopping
    parameter ``delta`` against the testing constant ``tloc``.

    S_1 uses (b^1, p1, exponent p2' on T b^1_S, the operator itself); S_2 uses
    (b^2, p2, exponent p1' on T* b^2_S, the adjoint).
    """
    check_delta(delta)
    if tloc < 0.0:
        raise ValueError(f"Tloc must be non-negative, got {tloc}")
    if not np.isfinite(tloc):
        raise ValueError(f"Tloc must be finite, got {tloc}")
    spec = sys1.spec
    if sys2.spec != spec or kernel.spec != spec:
        raise ValueError("grid mismatch between systems and kernel")
    spec.check(q0)
    owners = tuple(_build_family(q0, system, op, q, delta, tloc)
                   for system, op, q in _sides(sys1, sys2, kernel))
    return CoronaForest(q0, sys1, sys2, kernel, delta, tloc, owners)


# -- packing and Carleson measurements -------------------------------------------


def packing_ratio(forest: CoronaForest, j: int) -> float:
    """max over members S of (total volume of S's stopping children) / |S|;
    zero when no member has stopping children.  Read bottom-up from the owner
    arrays: S's stopping children are the maximal members strictly inside S,
    so their volume is the member-covered volume of S's children.  Volumes
    are dyadic, so every sum is exact."""
    spec, owners, top = forest.spec, forest.owner_levels(j), forest.q0.level
    best = 0.0
    below = np.zeros(spec.n_cubes(spec.depth))  # covered volume of each cube's children
    for level in range(spec.depth, top - 1, -1):
        members = owners[level] == level
        volume = 2.0 ** (-spec.dim * level)
        best = max(best, float(below[members].max(initial=0.0)) / volume)
        if level > top:
            below = coarsen_step(spec.dim, np.where(members, volume, below))
    return best


def carleson_constant(members, q0: DyadicCube) -> float:
    """max over dyadic Q inside q0 of |Q|^-1 * sum of |S| over members S in Q."""
    members = list(members)
    if not members:
        return 0.0
    dim = q0.dim
    deepest = max(m.level for m in members)
    own = [np.zeros(2 ** (dim * lev)) for lev in range(deepest + 1)]
    for m in members:
        if not q0.contains(m):
            raise ValueError(f"member {m} is not inside {q0}")
        own[m.level][flat_of(m.level, m.coords)] += m.volume
    return _carleson(dim, q0.level, own)


def forest_carleson(forest: CoronaForest, j: int) -> float:
    """``carleson_constant(forest.members(j), forest.q0)`` from the owner arrays."""
    dim, owners, top = forest.spec.dim, forest.owner_levels(j), forest.q0.level
    return _carleson(dim, top, [None if o is None else np.where(o == lev, 2.0 ** (-dim * lev), 0.0)
                                for lev, o in enumerate(owners)])


def _carleson(dim: int, top: int, own: list) -> float:
    """The Carleson constant from the total member volume ``own[l]`` at each
    cube of every level l from ``top`` to the deepest member (zero outside
    the root q0 at level ``top``).  Volumes are dyadic, so every sum is exact."""
    best = 0.0
    acc = np.zeros_like(own[-1])
    for level in range(len(own) - 1, top - 1, -1):
        acc = acc + own[level]
        best = max(best, float(acc.max()) / 2.0 ** (-dim * level))
        if level > top:
            acc = coarsen_step(dim, acc)
    return best


def forest_to_json_dict(forest: CoronaForest) -> dict:
    """Serializable view of a corona forest: per family, the member cubes in
    sorted order with links to their corona parents."""

    def family(j: int) -> list[dict]:
        rows = []
        for level, coords, parent_level, parent_coords in _member_links(forest, j):
            for c, pl, pc in zip(np.column_stack(coords).tolist(), parent_level.tolist(),
                                 np.column_stack(parent_coords).tolist()):
                rows.append({"level": level, "coords": c,
                             "parent": {"level": pl, "coords": pc} if pl >= 0 else None})
        return rows

    return {
        "dim": forest.spec.dim,
        "depth": forest.spec.depth,
        "q0": {"level": forest.q0.level, "coords": list(forest.q0.coords)},
        "delta": forest.delta,
        "s1": family(1),
        "s2": family(2),
    }


# -- delta search ----------------------------------------------------------------


@dataclass(frozen=True)
class DeltaSearch:
    """Outcome of the halving search for a usable delta: the forest of the
    accepted delta, None when the search reached ``DELTA_FLOOR``."""

    trace: tuple  # (delta, packing_s1, packing_s2) per attempt
    forest: CoronaForest | None = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return self.forest is not None

    @property
    def delta(self) -> float | None:
        return None if self.forest is None else self.forest.delta


def choose_delta(q0: DyadicCube, sys1: AccretiveSystem, sys2: AccretiveSystem,
                 kernel: PerfectKernel, tloc: float, tau_target: float = 0.9) -> DeltaSearch:
    """Halve delta from 1/2 until both packing ratios drop to ``tau_target``.

    Reaching ``DELTA_FLOOR`` is reported as a structured failure, not an
    exception, so experiment runners can flag the instance and move on.
    """
    check_tau_target(tau_target)
    trace = []
    delta = 0.5
    while delta >= DELTA_FLOOR:
        forest = build_corona(q0, sys1, sys2, kernel, delta, tloc)
        t1 = packing_ratio(forest, 1)
        t2 = packing_ratio(forest, 2)
        trace.append((delta, t1, t2))
        if max(t1, t2) <= tau_target:
            return DeltaSearch(tuple(trace), forest)
        delta /= 2.0
    return DeltaSearch(tuple(trace))


def check_delta(delta: float) -> None:
    """Raise ValueError unless the stopping parameter lies in (0, 1)."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")


def check_tau_target(tau_target: float) -> None:
    """Raise ValueError unless the packing target lies in (0, 1)."""
    if not 0.0 < tau_target < 1.0:
        raise ValueError(f"tau_target must lie in (0, 1), got {tau_target}")
