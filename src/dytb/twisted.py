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

an exact identity.  Cubes of one level are disjoint, so the corona calculus
is computed per level (``corona_levels``): one ratio vector and one stitched
b-array per level give every E_Q h and Delta_Q h of that level at once, and
the per-cube functions below are slices of those level arrays.  Everything
here is pure and side-effect free.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .accretive import AccretiveSystem
from .corona import CoronaForest, TerminalFamily, _subtree_mask, make_terminal_family
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
        s0 = self.family.s0
        out = np.delete(self.b.values, spec.cell_indices(s0))
        if np.any(out != 0.0):
            raise ValueError("b is not supported on the base cube")
        if abs(self.b.integral(s0) - s0.volume) > 1e-12 * s0.volume:
            raise ValueError("b does not have integral |S0|")
        if self.b.lp_norm(self.p, s0) > self.A * s0.volume ** (1 / self.p) * (1 + 1e-12):
            raise ValueError("b exceeds the norm budget A |S0|^(1/p)")
        for t, bt in self.family.b_for.items():
            if bt.lp_norm(self.p, t) > self.A * t.volume ** (1 / self.p) * (1 + 1e-12):
                raise ValueError(f"b_T on {t} exceeds the norm budget")
        self._check_denominators()

    def _check_denominators(self) -> None:
        spec, s0 = self.spec, self.family.s0
        integ = [arr * spec.cell_volume for arr in self.b.cube_sums]
        pows = [arr * spec.cell_volume for arr in level_sums(spec, np.abs(self.b.values) ** self.p)]
        cap = self.A**self.p / self.delta
        for level in range(s0.level, spec.depth + 1):
            vol = 2.0 ** (-spec.dim * level)
            mask = _subtree_mask(spec.dim, s0, level) & ~self.family._covered[level]
            bad = mask & (
                (np.abs(integ[level]) <= self.delta * vol) | (pows[level] >= cap * vol)
            )
            if bad.any():
                flat = int(np.nonzero(bad)[0][0])
                raise ValueError(
                    f"denominator safety fails at {spec.cube_from_flat(level, flat)}: "
                    "the terminal family does not absorb all stopped cubes"
                )

    # per-level averages of b, used as denominators throughout
    @cached_property
    def b_avg(self) -> list[np.ndarray]:
        spec = self.spec
        return [
            s * spec.cell_volume / 2.0 ** (-spec.dim * lev)
            for lev, s in enumerate(self.b.cube_sums)
        ]

    def avg_b(self, cube: DyadicCube) -> float:
        return float(self.b_avg[cube.level][self.spec.cube_flat(cube)])

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


# -- twisted and half-twisted differences ---------------------------------------


def twisted_delta(ctx: TwistedContext, cube: DyadicCube, f: GridFunction) -> GridFunction:
    """The twisted martingale difference of f at ``cube``; supported on the
    cube and mean-zero (exactly, by the matched rescalings)."""
    ctx.check_in_q(cube)
    spec = ctx.spec
    out = np.zeros(spec.n_cells)
    if cube.level >= spec.depth:
        return GridFunction(spec, out)
    base = f.average(cube) / ctx.avg_b(cube)
    for child in cube.children():
        idx = spec.cell_indices(child)
        if ctx.family.is_terminal(child):
            bt = ctx.family.b_for[child]
            ratio = f.average(child) / bt.average(child)
            out[idx] = ratio * bt.values[idx] - base * ctx.b.values[idx]
        else:
            ratio = f.average(child) / ctx.avg_b(child)
            out[idx] = ratio * ctx.b.values[idx] - base * ctx.b.values[idx]
    return GridFunction(spec, out)


def half_twisted_D(ctx: TwistedContext, cube: DyadicCube, f: GridFunction) -> GridFunction:
    """The half-twisted difference: terminal children skipped, no b factor."""
    ctx.check_in_q(cube)
    spec = ctx.spec
    out = np.zeros(spec.n_cells)
    if cube.level >= spec.depth:
        return GridFunction(spec, out)
    base = f.average(cube) / ctx.avg_b(cube)
    for child in cube.children():
        if ctx.family.is_terminal(child):
            continue
        out[spec.cell_indices(child)] = f.average(child) / ctx.avg_b(child) - base
    return GridFunction(spec, out)


def transform(ctx: TwistedContext, eps: SignChoice, f: GridFunction) -> GridFunction:
    """sum over the derived family of eps_Q * (twisted difference at Q)."""
    out = np.zeros(ctx.spec.n_cells)
    for q in ctx.q_cubes():
        e = eps.get(q)
        if e != 0.0:
            out += e * twisted_delta(ctx, q, f).values
    return GridFunction(ctx.spec, out)


def half_transform(ctx: TwistedContext, eps: SignChoice, f: GridFunction) -> GridFunction:
    """sum of eps_Q * (half-twisted difference at Q) over the derived family."""
    out = np.zeros(ctx.spec.n_cells)
    for q in ctx.q_cubes():
        e = eps.get(q)
        if e != 0.0:
            out += e * half_twisted_D(ctx, q, f).values
    return GridFunction(ctx.spec, out)


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


@dataclass(frozen=True, eq=False)
class CoronaLevels:
    """The corona calculus of one function h against S_j, one array per level
    from the root's level down: ``ratio[l]`` holds r_l[Q] = <h>_Q / <b_pi(Q)>_Q
    per level-l cube Q (row-major), ``b[l]`` the cell array B_l carrying
    b_pi(Q) on each Q, both zero outside the root.  Cubes of a level are
    disjoint, so E_l = r_l spread over the cells times B_l holds every E_Q h
    of the level, and D_l = E_{l+1} - E_l every Delta_Q h.
    """

    forest: CoronaForest
    j: int
    ratio: dict
    b: dict

    @cached_property
    def expectations(self) -> dict[int, np.ndarray]:
        spec = self.forest.spec
        return {lev: spread(spec, lev, r) * self.b[lev] for lev, r in self.ratio.items()}

    @cached_property
    def deltas(self) -> dict[int, np.ndarray]:
        e = self.expectations
        return {lev: e[lev + 1] - e[lev] for lev in list(e)[:-1]}

    @cached_property
    def delta_sum(self) -> np.ndarray:
        return sum(self.deltas.values(), np.zeros(self.forest.spec.n_cells))

    def _stopped(self, level: int) -> np.ndarray:
        return self.forest.owner_levels(self.j)[level] == level

    @cached_property
    def half_twisted(self) -> dict[int, np.ndarray]:
        """``half_twisted_block`` of every level-l cube Q, one value per child
        Q': r(Q') - r(Q), or -r(Q) when Q' is a stopping cube."""
        return {
            lev: np.where(self._stopped(lev + 1), 0.0, self.ratio[lev + 1])
            - spread(self.forest.spec, lev, self.ratio[lev], lev + 1)
            for lev in self.deltas
        }

    def box(self, level: int) -> np.ndarray:
        """The cell array of ``box`` over every cube of the level."""
        spec = self.forest.spec
        diff = np.where(self._stopped(level + 1), 0.0, np.abs(self.half_twisted[level]))
        stops = spread(spec, level, self.forest.stopping_parents(self.j, level), level + 1)
        return spread(spec, level + 1, diff + stops)


def corona_levels(
    forest: CoronaForest, j: int, system: AccretiveSystem, h: GridFunction
) -> CoronaLevels:
    """The per-level corona calculus of h against S_j.  B_l is stitched top
    down from the system's level arrays (a member of S_j brings its own b,
    any other cube keeps its parent's); averages are exact tree sums."""
    spec, owners = forest.spec, forest.owner_levels(j)
    ratio, stitched = {}, {}
    b = np.zeros(spec.n_cells)
    for level in range(forest.q0.level, spec.depth + 1):
        stopped = owners[level] == level
        if stopped.any():
            b = np.where(spread(spec, level, stopped), system.level_values(level), b)
        vol = 2.0 ** (-spec.dim * level)
        r = np.zeros(spec.n_cubes(level))
        np.divide(h.cube_sums[level] * spec.cell_volume / vol,
                  level_sums(spec, b)[level] * spec.cell_volume / vol,
                  out=r, where=owners[level] >= 0)
        ratio[level], stitched[level] = r, b
    return CoronaLevels(forest, j, ratio, stitched)


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
    spec = forest.spec
    deltas = corona_levels(forest, j, system, f).deltas
    coeffs = {lev: np.zeros(spec.n_cubes(lev)) for lev in deltas}
    for q, e in eps.eps.items():
        if q.level in coeffs and forest.q0.contains(q):
            coeffs[q.level][spec.cube_flat(q)] = e
    return GridFunction(spec, sum((spread(spec, lev, c) * deltas[lev] for lev, c in coeffs.items()),
                                  np.zeros(spec.n_cells)))


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
    lhs = transform(ctx, eps, f).values
    bf = half_transform(ctx, eps, f).values
    rhs = bf * ctx.b.values
    spec = ctx.spec
    for t in ctx.family.members:
        parent = t.parent()
        e = eps.get(parent)
        idx = spec.cell_indices(t)
        bt = ctx.family.b_for[t]
        rhs[idx] += e * f.average(t) * bt.values[idx]
        rhs[idx] -= e * (f.average(parent) / ctx.avg_b(parent)) * ctx.b.values[idx]
    return float(np.max(np.abs(lhs - rhs)))


def pi_transform(ctx: TwistedContext, eps: SignChoice, f: GridFunction) -> GridFunction:
    """The operator behind splitting term (ii): per cube and non-terminal child,
    eps_Q (<b>_Q' - <b>_Q) <f>_Q' 1_Q', summed over the derived family."""
    spec = ctx.spec
    out = np.zeros(spec.n_cells)
    for q in ctx.q_cubes():
        e = eps.get(q)
        if e == 0.0:
            continue
        bq = ctx.avg_b(q)
        for child in q.children():
            if ctx.family.is_terminal(child):
                continue
            out[spec.cell_indices(child)] += (
                e * (ctx.avg_b(child) - bq) * f.average(child)
            )
    return GridFunction(spec, out)


def amalgam_transform(ctx: TwistedContext, eps: SignChoice, f: GridFunction) -> GridFunction:
    """The operator behind splitting term (iii): squared b-increments,
    eps_Q (<b>_Q' - <b>_Q)^2 <f>_Q' / (<b>_Q' <b>_Q^2) 1_Q'."""
    spec = ctx.spec
    out = np.zeros(spec.n_cells)
    for q in ctx.q_cubes():
        e = eps.get(q)
        if e == 0.0:
            continue
        bq = ctx.avg_b(q)
        for child in q.children():
            if ctx.family.is_terminal(child):
                continue
            bc = ctx.avg_b(child)
            out[spec.cell_indices(child)] += (
                e * (bc - bq) ** 2 * f.average(child) / (bc * bq**2)
            )
    return GridFunction(spec, out)


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
