"""Stopping-time constructions: terminal cubes, corona forests, packing numbers.

Two related constructions live here.  ``terminal_cubes`` finds, below a base
cube S0 carrying a single test function b, the maximal dyadic cubes T with

    |int_T b| <= delta |T|   or   int_T |b|^p >= delta^-1 A^p |T|,

i.e. the cubes where b loses its usable average or blows up in norm.  The
``build_corona`` construction iterates the same idea against a whole accretive
system and an operator: starting from Q0, each stopping cube S owns b_S and
its stopping children are the maximal descendants Q with

    (1) |int_Q b_S| <= delta |Q|
    (2) int_Q |b_S|^p >= delta^-1 A^p |Q|
    (3) int_Q |T b_S|^q >= delta^-1 Tloc^q |Q|    (and the integral is positive)

run once with (b^1, p1, q = p2', T) and once with (b^2, p2, q = p1', T*).

Both are one top-down pass over per-level owner arrays (``_owner_pass``); the
corona reads b_S and T b_S of each cube's owner S from two cell arrays stitched
from the system's level arrays, with no full-grid function or apply per member.

Comparisons are inclusive as written, so ties stop; the positivity guard in
(3) only matters for the zero kernel, whose testing constant is 0 and which
must not stop anywhere.  Stopping cubes may occur down to the finest level,
which keeps every non-stopping cube's b-average strictly above delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .accretive import AccretiveSystem
from .grid import DyadicCube, GridFunction, GridSpec, level_sums, spread
from .kernels import PerfectKernel, _sweep_from, adjoint

__all__ = [
    "ConfigError",
    "TbConfig",
    "TerminalFamily",
    "terminal_cubes",
    "coarsen_terminals",
    "make_terminal_family",
    "CoronaForest",
    "build_corona",
    "forest_to_json_dict",
    "packing_ratio",
    "set_packing_ratio",
    "carleson_constant",
    "DeltaSearch",
    "choose_delta",
]

DELTA_FLOOR = 2.0**-20


class ConfigError(ValueError):
    """A configuration that cannot produce a meaningful construction."""


def conjugate(p: float) -> float:
    return p / (p - 1.0)


@dataclass(frozen=True)
class TbConfig:
    """Exponents and constants for the two-system construction.

    Conjugate exponents are derived, never stored, so they cannot drift out
    of sync with p1, p2.
    """

    p1: float
    p2: float
    delta: float
    A: float
    Tloc: float = 0.0
    tau_target: float = 0.9

    def __post_init__(self) -> None:
        if not (self.p1 > 1.0 and self.p2 > 1.0):
            raise ValueError(f"exponents must exceed 1, got p1={self.p1}, p2={self.p2}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if not self.A > 1.0:
            raise ValueError(f"A must exceed 1, got {self.A}")
        if self.Tloc < 0.0:
            raise ValueError(f"Tloc must be non-negative, got {self.Tloc}")
        if not 0.0 < self.tau_target < 1.0:
            raise ValueError(f"tau_target must lie in (0, 1), got {self.tau_target}")

    @property
    def p1_conj(self) -> float:
        return conjugate(self.p1)

    @property
    def p2_conj(self) -> float:
        return conjugate(self.p2)


# -- mask machinery -------------------------------------------------------------


def _subtree_mask(dim: int, top: DyadicCube, level: int) -> np.ndarray:
    """Boolean mask over level-``level`` cubes (row-major): contained in ``top``."""
    n = 2 ** (dim * level)
    shift = level - top.level
    idx = np.arange(n)
    if dim == 1:
        return (idx >> shift) == top.coords[0]
    k0 = idx >> level
    k1 = idx & ((1 << level) - 1)
    return ((k0 >> shift) == top.coords[0]) & ((k1 >> shift) == top.coords[1])


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


def _nearest_marked(spec, top: int, cubes) -> list[np.ndarray | None]:
    """``_owner_pass`` with the fixed mark set ``cubes``."""
    flats: dict[int, list[int]] = {}
    for c in cubes:
        flats.setdefault(c.level, []).append(spec.cube_flat(c))
    return _owner_pass(spec, top, lambda level, _inherited: flats.get(level, []))


def _cubes_where(spec, masks: dict) -> list[DyadicCube]:
    """The cubes flagged by per-level masks ``{level: mask}``, level by level, row-major."""
    return [spec.cube_from_flat(level, int(flat)) for level, mask in masks.items()
            for flat in np.flatnonzero(mask)]


# -- terminal cubes (single function) -------------------------------------------


def terminal_cubes(
    b: GridFunction, s0: DyadicCube, delta: float, p: float, A: float
) -> list[DyadicCube]:
    """Maximal cubes T inside ``s0`` (including s0 itself) with
    |int_T b| <= delta |T| or int_T |b|^p >= delta^-1 A^p |T|.

    Finest cells may be returned but are never subdivided further.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    spec = b.spec
    spec.check(s0)
    integ = [s * spec.cell_volume for s in b.cube_sums]
    pows = [s * spec.cell_volume for s in level_sums(spec, np.abs(b.values) ** p)]
    norm_cap = A**p / delta

    def mark(level: int, inherited: np.ndarray) -> np.ndarray:
        vol = 2.0 ** (-spec.dim * level)
        stopped = (np.abs(integ[level]) <= delta * vol) | (pows[level] >= norm_cap * vol)
        return stopped & _subtree_mask(spec.dim, s0, level) & (inherited < 0)

    owners = _owner_pass(spec, s0.level, mark)
    return _cubes_where(spec, {lev: owners[lev] == lev for lev in range(s0.level, len(owners))})


def coarsen_terminals(
    tprime, s0: DyadicCube, rng: np.random.Generator, prob: float = 0.3
) -> list[DyadicCube]:
    """A random legal coarsening: disjoint cubes strictly inside ``s0`` such
    that every input cube lies inside some output cube."""
    members: list[DyadicCube] = []
    for t in sorted(tprime):
        if any(m.contains(t) for m in members):
            continue
        if t.level > s0.level + 1 and rng.random() < prob:
            lev = int(rng.integers(s0.level + 1, t.level + 1))
            anc = t.ancestor(lev)
            if all(not anc.contains(m) and not m.contains(anc) for m in members):
                members.append(anc)
                continue
        members.append(t)
    return members


@dataclass(frozen=True)
class TerminalFamily:
    """A disjoint family of terminal cubes inside ``s0`` with their local
    test functions, together with the canonical maximal family it covers.

    The derived cube family Q(s0, T) = {dyadic Q inside s0, not inside any
    terminal cube} is what the twisted calculus runs over.
    """

    spec: GridSpec
    s0: DyadicCube
    tprime: tuple[DyadicCube, ...]
    members: tuple[DyadicCube, ...]
    b_for: dict

    def __post_init__(self) -> None:
        object.__setattr__(self, "tprime", tuple(sorted(self.tprime)))
        object.__setattr__(self, "members", tuple(sorted(self.members)))
        self.spec.check(self.s0)
        memberset = set(self.members)
        for t in self.members:
            if not self.s0.contains(t) or t == self.s0:
                raise ValueError(f"terminal cube {t} is not strictly inside {self.s0}")
        for b in self.members:
            for level in range(self.s0.level + 1, b.level):
                if (a := b.ancestor(level)) in memberset:
                    raise ValueError(f"terminal cubes {a} and {b} are nested")
        for t in self.tprime:
            if not any(t.ancestor(level) in memberset for level in range(t.level + 1)):
                raise ValueError(f"maximal cube {t} is not covered by the terminal family")
        if set(self.b_for) != memberset:
            raise ValueError("b_for must carry exactly one function per terminal cube")
        for t, bt in self.b_for.items():
            out = np.delete(bt.values, self.spec.cell_indices(t))
            if np.any(out != 0.0):
                raise ValueError(f"b_T for {t} is not supported on {t}")
            if abs(bt.integral(t) - t.volume) > 1e-12 * t.volume:
                raise ValueError(f"b_T for {t} does not have integral |T|")

    @cached_property
    def _owners(self) -> list[np.ndarray | None]:
        """Per level, the level of each cube's smallest ancestor-or-self among
        s0 and the terminal cubes; cubes of Q own s0's level."""
        return _nearest_marked(self.spec, self.s0.level, (self.s0, *self.members))

    def in_q(self, cube: DyadicCube) -> bool:
        """Whether ``cube`` belongs to the derived family Q (inside s0, not
        inside any terminal cube)."""
        if not self.s0.contains(cube):
            return False
        return bool(self._owners[cube.level][self.spec.cube_flat(cube)] == self.s0.level)

    def q_cubes(self, active_only: bool = True) -> list[DyadicCube]:
        """The derived family, coarse to fine; ``active_only`` drops finest-level
        cubes (whose martingale differences are empty sums)."""
        stop = self.spec.depth - 1 if active_only else self.spec.depth
        return _cubes_where(self.spec, {lev: self._owners[lev] == self.s0.level
                                        for lev in range(self.s0.level, stop + 1)})

    def is_terminal(self, cube: DyadicCube) -> bool:
        return cube in self.b_for


def make_terminal_family(
    system: AccretiveSystem,
    s0: DyadicCube,
    delta: float,
    coarsen_rng: np.random.Generator | None = None,
) -> TerminalFamily:
    """Build the terminal family of ``system``'s function on ``s0``: canonical
    maximal cubes, optionally coarsened at random, with b_T = system.get_b(T).
    """
    b = system.get_b(s0)
    tprime = terminal_cubes(b, s0, delta, system.p, system.A)
    if any(t == s0 for t in tprime):
        raise ValueError(f"base cube {s0} itself triggers the stopping conditions")
    members = coarsen_terminals(tprime, s0, coarsen_rng) if coarsen_rng is not None else tprime
    b_for = {t: system.get_b(t) for t in members}
    return TerminalFamily(system.spec, s0, tuple(tprime), tuple(members), b_for)


# -- corona forest (two systems, operator-aware) ---------------------------------


class CoronaForest:
    """Stopping families S_1, S_2 below ``q0`` with their parent/child maps.

    Immutable once built; ``pi(j, Q)`` is the smallest member of S_j
    containing Q, read from the per-level owner arrays of the pass that built
    the family.  ``families`` holds one ``(members, children, owners)`` per j.
    """

    def __init__(self, spec, q0, families, config):
        self.spec = spec
        self.q0 = q0
        self.config = config
        self._members = tuple(frozenset(members) for members, _, _ in families)
        self._children = tuple({s: tuple(sorted(kids)) for s, kids in children.items()}
                               for _, children, _ in families)
        self._owners = tuple(owners for _, _, owners in families)

    def members(self, j: int) -> frozenset:
        return self._members[_jdx(j)]

    def stopping_children(self, j: int, member: DyadicCube) -> tuple[DyadicCube, ...]:
        return self._children[_jdx(j)][member]

    def owner_levels(self, j: int) -> list[np.ndarray | None]:
        """Per level, the level of pi_j(Q) for every cube Q of that level
        (row-major), -1 outside q0; None above q0's level."""
        return self._owners[_jdx(j)]

    def pi(self, j: int, cube: DyadicCube) -> DyadicCube:
        """The smallest member of S_j containing ``cube``."""
        if not (self.spec.contains(cube) and self.q0.contains(cube)):
            raise ValueError(f"{cube} is not inside {self.q0}")
        return cube.ancestor(int(self.owner_levels(j)[cube.level][self.spec.cube_flat(cube)]))

    def block_cubes(self, j: int, member: DyadicCube) -> list[DyadicCube]:
        """All cubes whose S_j-parent is ``member`` (its corona block)."""
        spec, owners, top = self.spec, self.owner_levels(j), member.level
        return _cubes_where(spec, {lev: (owners[lev] == top) & _subtree_mask(spec.dim, member, lev)
                                   for lev in range(top, spec.depth + 1)})


def _jdx(j: int) -> int:
    if j not in (1, 2):
        raise ValueError(f"family index must be 1 or 2, got {j}")
    return j - 1


def _build_family(
    spec: GridSpec,
    q0: DyadicCube,
    system: AccretiveSystem,
    op: PerfectKernel,
    p_exp: float,
    q_exp: float,
    cfg: TbConfig,
):
    """One stopping family below ``q0``: its members, their stopping children
    and the pass's owner arrays (``CoronaForest.owner_levels``).  A member S
    of level m stitches that level's b-array and its sweep from level m onto its
    cells, which equal b_S and T b_S there bit for bit (``kernels._sweep_from``)."""
    if cfg.Tloc == 0.0 and len(op) > 0:
        raise ConfigError(
            "Tloc = 0 with a nonzero kernel makes stopping condition (3) trigger "
            "everywhere; compute the testing constant first and pass it in TbConfig"
        )
    norm_cap = cfg.A**p_exp / cfg.delta
    test_cap = cfg.Tloc**q_exp / cfg.delta
    b = tb = np.zeros(spec.n_cells)

    def mark(level: int, inherited: np.ndarray) -> np.ndarray:
        nonlocal b, tb
        if level == q0.level:
            hits = _subtree_mask(spec.dim, q0, level)
        else:
            integ, pows, tpows = (level_sums(spec, arr)[level] * spec.cell_volume
                                  for arr in (b, np.abs(b) ** p_exp, np.abs(tb) ** q_exp))
            vol = 2.0 ** (-spec.dim * level)
            stopped = ((np.abs(integ) <= cfg.delta * vol) | (pows >= norm_cap * vol)
                       | ((tpows >= test_cap * vol) & (tpows > 0.0)))
            hits = (inherited >= 0) & stopped
        if hits.any():
            inside = spread(spec, level, hits)
            values = system.level_values(level)
            b = np.where(inside, values, b)
            tb = np.where(inside, _sweep_from(op, values, level), tb)
        return hits

    owners = _owner_pass(spec, q0.level, mark)
    members = _cubes_where(spec, {lev: owners[lev] == lev for lev in range(q0.level, len(owners))})
    children: dict[DyadicCube, list[DyadicCube]] = {m: [] for m in members}
    for kid in members[1:]:
        parent = kid.parent()
        children[kid.ancestor(int(owners[parent.level][spec.cube_flat(parent)]))].append(kid)
    return members, children, owners


def build_corona(
    q0: DyadicCube,
    sys1: AccretiveSystem,
    sys2: AccretiveSystem,
    kernel: PerfectKernel,
    cfg: TbConfig,
) -> CoronaForest:
    """Run the two-system stopping construction below ``q0``.

    S_1 uses (b^1, p1, exponent p2' on T b^1_S, the operator itself); S_2 uses
    (b^2, p2, exponent p1' on T* b^2_S, the adjoint).
    """
    spec = sys1.spec
    if sys2.spec != spec or kernel.spec != spec:
        raise ValueError("grid mismatch between systems and kernel")
    spec.check(q0)
    families = (_build_family(spec, q0, sys1, kernel, cfg.p1, cfg.p2_conj, cfg),
                _build_family(spec, q0, sys2, adjoint(kernel), cfg.p2, cfg.p1_conj, cfg))
    return CoronaForest(spec, q0, families, cfg)


# -- packing and Carleson measurements -------------------------------------------


def packing_ratio(forest: CoronaForest, j: int) -> float:
    """max over members S of (total volume of S's stopping children) / |S|;
    zero when no member has stopping children."""
    best = 0.0
    for s in forest.members(j):
        kids = forest.stopping_children(j, s)
        if kids:
            best = max(best, sum(k.volume for k in kids) / s.volume)
    return best


def set_packing_ratio(members, top: DyadicCube) -> float:
    """Packing ratio of a bare stopping set (children derived by tree walks)."""
    memberset = set(members)
    mass: dict[DyadicCube, float] = {m: 0.0 for m in memberset}
    for m in memberset:
        if m == top:
            continue
        cur = m.parent()
        while cur not in memberset:
            cur = cur.parent()
        mass[cur] += m.volume
    return max((v / s.volume for s, v in mass.items()), default=0.0)


def _coarsen_step(dim: int, fine: np.ndarray) -> np.ndarray:
    """Sum per-cube values one level up."""
    if dim == 1:
        return fine[0::2] + fine[1::2]
    m = int(math.isqrt(fine.size)) // 2
    return fine.reshape(m, 2, m, 2).sum(axis=(1, 3))


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
        flat = m.coords[0] if dim == 1 else (m.coords[0] << m.level) | m.coords[1]
        own[m.level][flat] += m.volume
    best = 0.0
    acc = np.zeros_like(own[deepest])
    for level in range(deepest, q0.level - 1, -1):
        acc = acc + own[level]  # zero outside q0, which holds every member
        best = max(best, float(acc.max()) / 2.0 ** (-dim * level))
        if level > q0.level:
            acc = _coarsen_step(dim, acc).ravel()
    return best


def forest_to_json_dict(forest: CoronaForest) -> dict:
    """Serializable view of a corona forest: per family, the member cubes with
    links to their corona parents."""

    def cube_dict(c: DyadicCube) -> dict:
        return {"level": c.level, "coords": list(c.coords)}

    def family(j: int) -> list[dict]:
        parent_of = {}
        for s in forest.members(j):
            for kid in forest.stopping_children(j, s):
                parent_of[kid] = s
        rows = []
        for m in sorted(forest.members(j)):
            rows.append({
                **cube_dict(m),
                "parent": cube_dict(parent_of[m]) if m in parent_of else None,
            })
        return rows

    return {
        "dim": forest.spec.dim,
        "depth": forest.spec.depth,
        "q0": cube_dict(forest.q0),
        "delta": forest.config.delta,
        "s1": family(1),
        "s2": family(2),
    }


# -- delta search ----------------------------------------------------------------


@dataclass(frozen=True)
class DeltaSearch:
    """Outcome of the halving search for a usable delta."""

    ok: bool
    delta: float | None
    trace: tuple  # (delta, packing_s1, packing_s2) per attempt
    forest: CoronaForest | None = field(default=None, repr=False)


def choose_delta(
    q0: DyadicCube,
    sys1: AccretiveSystem,
    sys2: AccretiveSystem,
    kernel: PerfectKernel,
    cfg: TbConfig,
    floor: float = DELTA_FLOOR,
) -> DeltaSearch:
    """Halve delta from 1/2 until both packing ratios drop to cfg.tau_target.

    Reaching the floor is reported as a structured failure, not an exception,
    so experiment runners can flag the instance and move on.
    """
    trace = []
    delta = 0.5
    while delta >= floor:
        forest = build_corona(q0, sys1, sys2, kernel, replace(cfg, delta=delta))
        t1 = packing_ratio(forest, 1)
        t2 = packing_ratio(forest, 2)
        trace.append((delta, t1, t2))
        if max(t1, t2) <= cfg.tau_target:
            return DeltaSearch(True, delta, tuple(trace), forest)
        delta /= 2.0
    return DeltaSearch(False, None, tuple(trace), None)
