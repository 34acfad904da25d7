"""Twisted, half-twisted and corona-adapted martingale differences.

Fix a base cube S0, a function b on S0 with integral |S0| and controlled L^p
norm, and a disjoint terminal family T inside S0 with local functions b_T.
Over the derived family Q (cubes in S0 not inside any terminal cube) the
twisted difference of f at Q is

    D~_Q f = sum over children Q' of
             [ <f>_Q' / <b_Q'>_Q' * b_Q'  -  <f>_Q / <b>_Q * b ] 1_Q'

with b_Q' = b for non-terminal children and b_Q' = b_T on terminal ones; the
half-twisted difference drops terminal children and the multiplication by b:

    D_Q f = sum over children Q' not terminal of
            [ <f>_Q' / <b>_Q'  -  <f>_Q / <b>_Q ] 1_Q'.

All denominators are protected by the terminal construction: every cube in
the derived family fails both stopping conditions, so |<b>_Q| > delta.

The corona-adapted analogues run against a stopping forest: E_Q h rescales
the stopping function of Q's corona block, Delta_Q h differences it across
children, and the finite grid makes the telescoping representation

    h 1_S = E_S h + sum over Q in S of Delta_Q h

an exact identity.  A twisted context is a corona block whose stopping
children are its terminal cubes, so both share one level engine: cubes of a
level are disjoint, and owner arrays with one stitched b-array per level
(``CoronaLevels``) give every difference, transform and splitting operator
of that level at once.  Everything here is pure and side-effect free.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .accretive import AccretiveSystem
from .corona import (
    CoronaForest,
    TerminalFamily,
    _coarsen_step,
    make_terminal_family,
)
from .grid import DyadicCube, GridFunction, GridSpec, level_sums, spread

__all__ = [
    "TwistedContext",
    "SignChoice",
    "make_context",
    "block_context",
    "twisted_delta",
    "half_twisted_D",
    "transform",
    "half_transform",
    "classical_transform",
    "CoronaLevels",
    "corona_levels",
    "corona_expectation",
    "corona_delta",
    "expand",
    "corona_transform",
    "box",
    "half_twisted_block",
    "decomposition_identity_check",
    "delta_decomp_check",
    "pi_transform",
    "amalgam_transform",
    "proof_operators",
    "measure_comparison_check",
]


@dataclass(frozen=True)
class SignChoice:
    """A bounded multiplier per cube; missing cubes count as 0."""

    eps: dict

    def __post_init__(self) -> None:
        for q, e in self.eps.items():
            if abs(e) > 1.0:
                raise ValueError(f"|eps| must be <= 1, got {e} at {q}")

    def get(self, cube: DyadicCube) -> float:
        return self.eps.get(cube, 0.0)

    @staticmethod
    def constant(cubes, value: float = 1.0) -> SignChoice:
        return SignChoice({q: value for q in cubes})

    @staticmethod
    def random_signs(cubes, rng: np.random.Generator) -> SignChoice:
        cubes = list(cubes)
        signs = rng.choice([-1.0, 1.0], size=len(cubes))
        return SignChoice(dict(zip(cubes, signs)))


@dataclass(frozen=True)
class TwistedContext:
    """Base cube, function b, terminal family and constants, validated so the
    twisted calculus is well defined (all averages used as denominators are
    bounded away from zero by failure of the stopping conditions)."""

    family: TerminalFamily
    b: GridFunction
    p: float
    delta: float
    A: float

    @property
    def spec(self) -> GridSpec:
        return self.b.spec

    @property
    def s0(self) -> DyadicCube:
        return self.family.s0

    def __post_init__(self) -> None:
        spec = self.b.spec
        if self.family.spec != spec:
            raise ValueError("grid mismatch between b and the terminal family")
        if np.any(np.delete(self.b.values, spec.cell_indices(self.s0)) != 0.0):
            raise ValueError("b is not supported on the base cube")
        _check_blocks(self._levels, self.p, self.delta, self.A)

    @cached_property
    def _levels(self) -> CoronaLevels:
        """The level engine without a function: the owner of a cube is s0 on
        the derived family (B_l = b) and the cube itself on a terminal cube T
        (B_l = b_T); cubes strictly inside terminal cubes have none, because
        the calculus takes no averages there."""
        s0, spec = self.s0, self.spec
        owners = [None if m is None else np.where((m == s0.level) | (m == lev), m, -1)
                  for lev, m in enumerate(self.family._owners)]
        below = sum((bt.values for bt in self.family.b_for.values()), np.zeros(spec.n_cells))
        stitched = _stitch(spec, owners, lambda lev: self.b.values if lev == s0.level else below)
        return CoronaLevels(spec, owners, *stitched, None)

    @property
    def b_avg(self) -> dict[int, np.ndarray]:
        """Per level from s0's, <b>_Q on the derived family and <b_T>_T on the
        terminal cubes: the denominators of the calculus."""
        return self._levels.b_avg

    def avg_b(self, cube: DyadicCube) -> float:
        return float(self.b_avg[cube.level][self.spec.cube_flat(cube)])

    def levels(self, f: GridFunction) -> CoronaLevels:
        """The level calculus of f in this context: D_l holds every twisted
        difference of level l."""
        return replace(self._levels, h=f)

    def coefficients(self, eps: SignChoice) -> dict[int, np.ndarray]:
        """eps per level of the derived family (finest level excluded)."""
        return self._levels.coefficients(eps, lambda owners: owners == self.s0.level)

    def q_cubes(self, active_only: bool = True) -> list[DyadicCube]:
        return self.family.q_cubes(active_only=active_only)

    def check_in_q(self, cube: DyadicCube) -> None:
        if not self.family.in_q(cube):
            raise ValueError(f"{cube} is not in the derived cube family of this context")


def make_context(
    system: AccretiveSystem,
    s0: DyadicCube,
    delta: float,
    coarsen_rng: np.random.Generator | None = None,
) -> TwistedContext:
    """Build the twisted context of ``system``'s function on ``s0``."""
    family = make_terminal_family(system, s0, delta, coarsen_rng)
    return TwistedContext(family, system.get_b(s0), system.p, delta, system.A)


def block_context(
    forest: CoronaForest, j: int, system: AccretiveSystem, member: DyadicCube
) -> TwistedContext:
    """The corona block of a stopping cube S as a twisted context: base cube S,
    function b_S, terminal cubes = S's stopping children with their own b."""
    if member not in forest.members(j):
        raise ValueError(f"{member} is not a member of S_{j}")
    kids = forest.stopping_children(j, member)
    b_for = {k: system.get_b(k) for k in kids}
    family = TerminalFamily(forest.spec, member, tuple(kids), tuple(kids), b_for)
    cfg = forest.config
    p = cfg.p1 if j == 1 else cfg.p2
    return TwistedContext(family, system.get_b(member), p, cfg.delta, cfg.A)


# -- the level engine -------------------------------------------------------------


def _average(spec: GridSpec, level: int, sums: np.ndarray) -> np.ndarray:
    return sums * spec.cell_volume / 2.0 ** (-spec.dim * level)


def _stitch(spec: GridSpec, owners, values_at) -> tuple[dict, dict]:
    """Per level from the top of ``owners``: the cell array B_l carrying on
    every cube the b of its owner, stitched top down (a cube marked at its
    own level takes ``values_at(level)`` on its cells, any other cube keeps
    its parent's), and the averages <B_l>_Q as exact tree sums."""
    top = next(lev for lev, o in enumerate(owners) if o is not None)
    stitched, avg = {}, {}
    b = np.zeros(spec.n_cells)
    for level in range(top, spec.depth + 1):
        marked = owners[level] == level
        if marked.any():
            b = np.where(spread(spec, level, marked), values_at(level), b)
        stitched[level] = b
        avg[level] = _average(spec, level, level_sums(spec, b)[level])
    return stitched, avg


def _check_blocks(levels: CoronaLevels, p: float, delta: float, A: float) -> None:
    """Raise ValueError at the first violation (coarse to fine, row-major) of
    the invariants that make the averages of B_l safe denominators: every
    marked cube S carries a b with integral |S| within the norm budget
    A |S|^(1/p), and every owned cube Q has |<B_l>_Q| > delta and
    <|B_l|^p>_Q < A^p / delta."""
    spec = levels.spec
    for level, cells in levels.b.items():
        avg, owners = levels.b_avg[level], levels.owners[level]
        pows = _average(spec, level, level_sums(spec, np.abs(cells) ** p)[level])
        budget = (np.abs(avg - 1.0) > 1e-12) | (pows ** (1 / p) > A * (1 + 1e-12))
        for bad, message in (
            (budget & (owners == level), "b on {} misses its integral |S| or norm budget"),
            ((owners >= 0) & ((np.abs(avg) <= delta) | (pows >= A**p / delta)),
             "denominator safety fails at {}: the terminal family does not absorb all stopped cubes"),
        ):
            if bad.any():
                raise ValueError(message.format(spec.cube_from_flat(level, int(np.flatnonzero(bad)[0]))))


@dataclass(frozen=True, eq=False)
class CoronaLevels:
    """The level calculus of one function h, one array per level from the top
    level down.  ``owners[l]`` holds, per level-l cube Q (row-major), the
    level of the marked cube whose b Q uses (-1: none), ``b[l]`` the cell
    array B_l carrying that b on each Q, ``b_avg[l]`` and ``h_avg[l]`` the
    averages <B_l>_Q and <h>_Q, and ``ratio[l]`` r_l[Q] = <h>_Q / <B_l>_Q
    (zero where Q has no owner).  Cubes of a level are disjoint, so E_l = r_l
    spread over the cells times B_l holds every E_Q h of the level, and
    D_l = E_{l+1} - E_l every Delta_Q h.
    """

    spec: GridSpec
    owners: list
    b: dict
    b_avg: dict
    h: GridFunction | None

    @cached_property
    def h_avg(self) -> dict[int, np.ndarray]:
        return {lev: _average(self.spec, lev, self.h.cube_sums[lev]) for lev in self.b}

    @cached_property
    def ratio(self) -> dict[int, np.ndarray]:
        return {lev: np.divide(hv, self.b_avg[lev], out=np.zeros_like(hv), where=self.owners[lev] >= 0)
                for lev, hv in self.h_avg.items()}

    @cached_property
    def expectations(self) -> dict[int, np.ndarray]:
        return {lev: spread(self.spec, lev, r) * self.b[lev] for lev, r in self.ratio.items()}

    @cached_property
    def deltas(self) -> dict[int, np.ndarray]:
        e = self.expectations
        return {lev: e[lev + 1] - e[lev] for lev in list(e)[:-1]}

    @cached_property
    def delta_sum(self) -> np.ndarray:
        return sum(self.deltas.values(), np.zeros(self.spec.n_cells))

    def _stopped(self, level: int) -> np.ndarray:
        return self.owners[level] == level

    @cached_property
    def half_twisted(self) -> dict[int, np.ndarray]:
        """``half_twisted_block`` of every level-l cube Q, one value per child
        Q': r(Q') - r(Q), or -r(Q) when Q' is a stopping cube."""
        return {
            lev: np.where(self._stopped(lev + 1), 0.0, self.ratio[lev + 1])
            - spread(self.spec, lev, self.ratio[lev], lev + 1)
            for lev in self.deltas
        }

    def box(self, level: int) -> np.ndarray:
        """The cell array of ``box`` over every cube of the level."""
        spec, stopped = self.spec, self._stopped(level + 1)
        diff = np.where(stopped, 0.0, np.abs(self.half_twisted[level]))
        parents = _coarsen_step(spec.dim, stopped).ravel() > 0
        return spread(spec, level + 1, diff + spread(spec, level, parents, level + 1))

    def coefficients(self, eps: SignChoice, inside) -> dict[int, np.ndarray]:
        """eps as one coefficient vector per level above the finest
        (row-major), zero where ``inside(owners[l])`` is False."""
        spec, coeffs = self.spec, {lev: np.zeros(self.spec.n_cubes(lev)) for lev in list(self.b)[:-1]}
        for q, e in eps.eps.items():
            if q.level in coeffs and q.dim == spec.dim:
                coeffs[q.level][spec.cube_flat(q)] = e
        return {lev: np.where(inside(self.owners[lev]), c, 0.0) for lev, c in coeffs.items()}

    def transform(self, coeffs: dict[int, np.ndarray]) -> np.ndarray:
        """sum over levels of the per-cube coefficients times D_l."""
        return sum((spread(self.spec, lev, c) * self.deltas[lev] for lev, c in coeffs.items()),
                   np.zeros(self.spec.n_cells))

    def child_rule(self, coeffs: dict[int, np.ndarray], rule) -> np.ndarray:
        """sum over levels of rule(e, <h>_Q', <B>_Q', <h>_Q, <B>_Q) on each
        child Q' of every cube Q with coefficient e != 0, zero on stopping
        children: one value per child, spread over its cells."""
        spec, out = self.spec, np.zeros(self.spec.n_cells)
        for lev, c in coeffs.items():
            e = spread(spec, lev, c, lev + 1)
            keep = (e != 0.0) & ~self._stopped(lev + 1)
            fq, bq = (spread(spec, lev, a, lev + 1)[keep] for a in (self.h_avg[lev], self.b_avg[lev]))
            kids = np.zeros(spec.n_cubes(lev + 1))
            kids[keep] = rule(e[keep], self.h_avg[lev + 1][keep], self.b_avg[lev + 1][keep], fq, bq)
            out += spread(spec, lev + 1, kids)
        return out


# -- twisted and half-twisted differences ---------------------------------------


def twisted_delta(ctx: TwistedContext, cube: DyadicCube, f: GridFunction) -> GridFunction:
    """The twisted martingale difference of f at ``cube``, the transform with
    eps = 1 there: supported on the cube and exactly mean-zero."""
    ctx.check_in_q(cube)
    return transform(ctx, SignChoice({cube: 1.0}), f)


def half_twisted_D(ctx: TwistedContext, cube: DyadicCube, f: GridFunction) -> GridFunction:
    """The half-twisted difference: terminal children skipped, no b factor."""
    ctx.check_in_q(cube)
    return half_transform(ctx, SignChoice({cube: 1.0}), f)


def transform(ctx: TwistedContext, eps: SignChoice, f: GridFunction) -> GridFunction:
    """sum over the derived family of eps_Q * (twisted difference at Q)."""
    return GridFunction(ctx.spec, ctx.levels(f).transform(ctx.coefficients(eps)))


def _context_rule(ctx: TwistedContext, eps: SignChoice, f: GridFunction, rule) -> GridFunction:
    return GridFunction(ctx.spec, ctx.levels(f).child_rule(ctx.coefficients(eps), rule))


def half_transform(ctx: TwistedContext, eps: SignChoice, f: GridFunction) -> GridFunction:
    """sum of eps_Q * (half-twisted difference at Q) over the derived family:
    eps_Q (<f>_Q'/<b>_Q' - <f>_Q/<b>_Q) on each non-terminal child Q'."""
    return _context_rule(ctx, eps, f, lambda e, fc, bc, fq, bq: e * (fc / bc - fq / bq))


def classical_transform(eps: SignChoice, f: GridFunction, cubes) -> GridFunction:
    """sum_Q eps_Q sum_{Q' child of Q} (<f>_Q' - <f>_Q) 1_Q'."""
    spec = f.spec
    out = np.zeros(spec.n_cells)
    for q in cubes:
        e = eps.get(q)
        if e == 0.0 or q.level >= spec.depth:
            continue
        base = f.average(q)
        for child in q.children():
            out[spec.cell_indices(child)] += e * (f.average(child) - base)
    return GridFunction(spec, out)


# -- corona-adapted expectations and differences ---------------------------------


def corona_levels(
    forest: CoronaForest, j: int, system: AccretiveSystem, h: GridFunction | None
) -> CoronaLevels:
    """The per-level corona calculus of h against S_j: a cube's owner is its
    corona parent pi_j(Q), whose b the system's level arrays supply."""
    owners = forest.owner_levels(j)
    return CoronaLevels(forest.spec, owners, *_stitch(forest.spec, owners, system.level_values), h)


def _restrict(forest: CoronaForest, cube: DyadicCube, cells_of) -> GridFunction:
    """``cells_of(cube.level)`` restricted to ``cube``, a cube inside the root."""
    spec = forest.spec
    if not (spec.contains(cube) and forest.q0.contains(cube)):
        raise ValueError(f"{cube} is not inside {forest.q0}")
    out = np.zeros(spec.n_cells)
    idx = spec.cell_indices(cube)
    out[idx] = cells_of(cube.level)[idx]
    return GridFunction(spec, out)


def corona_expectation(
    forest: CoronaForest, j: int, system: AccretiveSystem, cube: DyadicCube, h: GridFunction
) -> GridFunction:
    """E_Q h = (<h>_Q / <b_S>_Q) b_S 1_Q with S the corona parent of Q."""
    return _restrict(forest, cube, corona_levels(forest, j, system, h).expectations.get)


def corona_delta(
    forest: CoronaForest, j: int, system: AccretiveSystem, cube: DyadicCube, h: GridFunction
) -> GridFunction:
    """Delta_Q h = sum over children Q' of (E_Q' h - E_Q h) 1_Q'; mean zero,
    supported on the cube."""
    if cube.level >= forest.spec.depth:
        return GridFunction.constant(forest.spec, 0.0)
    return _restrict(forest, cube, corona_levels(forest, j, system, h).deltas.get)


def expand(
    forest: CoronaForest, j: int, system: AccretiveSystem, top: DyadicCube, h: GridFunction
):
    """The martingale expansion of h below ``top``: returns (E_top h, list of
    (Q, Delta_Q h)); their sum reconstructs h 1_top exactly on the finite grid.
    """
    levels = corona_levels(forest, j, system, h)
    cubes = forest.spec.all_cubes(top, max_level=forest.spec.depth - 1)
    return (_restrict(forest, top, levels.expectations.get),
            [(q, _restrict(forest, q, levels.deltas.get)) for q in cubes])


def corona_transform(
    forest: CoronaForest, j: int, system: AccretiveSystem, eps: SignChoice, f: GridFunction
) -> GridFunction:
    """sum over cubes below the forest root of eps_Q * Delta_Q f."""
    levels = corona_levels(forest, j, system, f)
    return GridFunction(forest.spec, levels.transform(levels.coefficients(eps, lambda o: o >= 0)))


def box(
    forest: CoronaForest, j: int, system: AccretiveSystem, cube: DyadicCube, h: GridFunction
) -> GridFunction:
    """|half-twisted difference of h at the cube, within its corona block| plus
    the indicator of the cube when one of its children is a stopping cube (the
    indicator stands in for the skipped terminal children)."""
    if cube.level >= forest.spec.depth:
        return GridFunction.constant(forest.spec, 0.0)
    return _restrict(forest, cube, corona_levels(forest, j, system, h).box)


def half_twisted_block(
    forest: CoronaForest, j: int, system: AccretiveSystem, cube: DyadicCube, h: GridFunction
) -> GridFunction:
    """The per-cube building block of the nested-form analysis:

        sum over non-stopping children P' of (<h>_P' / <b_S'>_P') 1_P'
        minus (<h>_P / <b_S>_P) 1_P,

    with S (resp. S') the corona parents of the cube and its children.  It is
    constant on each child, which is what lets kernel pairings against
    mean-zero functions deeper inside pull it out as a number."""
    if cube.level >= forest.spec.depth:
        return GridFunction.constant(forest.spec, 0.0)
    half = corona_levels(forest, j, system, h).half_twisted
    return _restrict(forest, cube, lambda lev: spread(forest.spec, lev + 1, half[lev]))


# -- exact identities ------------------------------------------------------------


def decomposition_identity_check(
    ctx: TwistedContext, cube: DyadicCube, child: DyadicCube, f: GridFunction
) -> float:
    """Residual of the three-term splitting of a half-twisted increment:

        <f>_Q'/<b>_Q' - <f>_Q/<b>_Q
          = (<f>_Q' - <f>_Q)/<b>_Q                                   (i)
          + (<b>_Q - <b>_Q') <f>_Q' / <b>_Q^2                        (ii)
          + (<b>_Q - <b>_Q')^2 <f>_Q' / (<b>_Q' <b>_Q^2)             (iii)

    an exact rational identity; returns |lhs - (i)-(ii)-(iii)| as floats."""
    ctx.check_in_q(cube)
    if ctx.family.is_terminal(child) or child.parent() != cube:
        raise ValueError(f"{child} is not a non-terminal child of {cube}")
    fq = f.average(cube)
    fc = f.average(child)
    bq = ctx.avg_b(cube)
    bc = ctx.avg_b(child)
    lhs = fc / bc - fq / bq
    d = bq - bc
    rhs = (fc - fq) / bq + d * fc / bq**2 + d**2 * fc / (bc * bq**2)
    return abs(lhs - rhs)


def delta_decomp_check(ctx: TwistedContext, eps: SignChoice, f: GridFunction) -> float:
    """Max pointwise residual of the terminal-corrected factorization

        sum eps_Q D~_Q f = (Bf) b
                           + sum_T eps_{parent T} <f>_T 1_T b_T
                           - sum_T eps_{parent T} (<f>_parent/<b>_parent) 1_T b

    with Bf the half-twisted transform; exact because the twisted difference
    equals the half-twisted one times b away from terminal children."""
    spec, levels = ctx.spec, ctx.levels(f)
    lhs = transform(ctx, eps, f).values
    rhs = half_transform(ctx, eps, f).values * ctx.b.values
    for lev, c in ctx.coefficients(eps).items():
        e = np.where(levels.owners[lev + 1] == lev + 1, spread(spec, lev, c, lev + 1), 0.0)
        rhs += spread(spec, lev + 1, e * levels.h_avg[lev + 1]) * levels.b[lev + 1]
        rhs -= spread(spec, lev + 1, e * spread(spec, lev, levels.ratio[lev], lev + 1)) * ctx.b.values
    return float(np.max(np.abs(lhs - rhs)))


def pi_transform(ctx: TwistedContext, eps: SignChoice, f: GridFunction) -> GridFunction:
    """The operator behind splitting term (ii): per cube and non-terminal child,
    eps_Q (<b>_Q' - <b>_Q) <f>_Q' 1_Q', summed over the derived family."""
    return _context_rule(ctx, eps, f, lambda e, fc, bc, fq, bq: e * (bc - bq) * fc)


def amalgam_transform(ctx: TwistedContext, eps: SignChoice, f: GridFunction) -> GridFunction:
    """The operator behind splitting term (iii): squared b-increments,
    eps_Q (<b>_Q' - <b>_Q)^2 <f>_Q' / (<b>_Q' <b>_Q^2) 1_Q'."""
    return _context_rule(
        ctx, eps, f, lambda e, fc, bc, fq, bq: e * (bc - bq) ** 2 * fc / (bc * bq**2))


def proof_operators(ctx: TwistedContext, eps: SignChoice, test_cube: DyadicCube):
    """Both splitting operators applied to the indicator of ``test_cube``,
    plus their L^1 norms over the cube (the local testing quantities that are
    compared against a constant times |F|)."""
    if not ctx.s0.contains(test_cube):
        raise ValueError(f"{test_cube} is not inside the base cube")
    ind = GridFunction.indicator(ctx.spec, test_cube)
    pi_img = pi_transform(ctx, eps, ind)
    am_img = amalgam_transform(ctx, eps, ind)
    idx = ctx.spec.cell_indices(test_cube)
    cv = ctx.spec.cell_volume
    norms = (
        float(np.sum(np.abs(pi_img.values[idx])) * cv),
        float(np.sum(np.abs(am_img.values[idx])) * cv),
    )
    return pi_img, am_img, norms


def measure_comparison_check(
    ctx: TwistedContext, eps: SignChoice, f: GridFunction, n_lambdas: int = 32
) -> float:
    """Sweep level sets of the half-twisted transform Bf and compare the
    |b|^p mass of E_lambda = {|Bf| >= lambda} (within S0) against
    2^dim delta^-p A^p |E_lambda|.  Returns the worst excess lhs - rhs
    (non-positive when the comparison holds everywhere)."""
    spec = ctx.spec
    bf = np.abs(half_transform(ctx, eps, f).values)
    inside = np.zeros(spec.n_cells, dtype=bool)
    inside[spec.cell_indices(ctx.s0)] = True
    cap = 2.0**spec.dim * ctx.delta**-ctx.p * ctx.A**ctx.p
    bp = np.abs(ctx.b.values) ** ctx.p
    cv = spec.cell_volume
    worst = -np.inf
    for lam in np.linspace(0.0, float(bf[inside].max(initial=0.0)), n_lambdas):
        e_lam = inside & (bf >= lam)
        lhs = float(np.sum(bp[e_lam]) * cv)
        rhs = cap * float(np.count_nonzero(e_lam)) * cv
        worst = max(worst, lhs - rhs)
    return worst
