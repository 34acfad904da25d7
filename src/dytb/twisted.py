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
from .corona import CoronaForest, _cubes_where, _owner_pass, _terminal_owners, stopping_rule
from .grid import DyadicCube, GridFunction, GridSpec, level_sum, spread

__all__ = [
    "TwistedContext",
    "make_context",
    "block_context",
    "twisted_delta",
    "transform",
    "half_transform",
    "CoronaLevels",
    "corona_levels",
    "expand",
    "decomposition_identity_check",
    "three_term_check",
    "delta_decomp_check",
    "measure_comparison_check",
]


@dataclass(frozen=True, eq=False)
class TwistedContext:
    """A base cube s0 of ``system``, its terminal cubes and constants,
    validated so the twisted calculus is well defined (all averages used as
    denominators are bounded away from zero by failure of the stopping
    conditions).

    The terminal cubes are held as per-level owner arrays ``owners``: from
    s0's level down (None above), the level of each cube's smallest
    ancestor-or-self among s0 and the terminal cubes, -1 outside s0.  The
    derived family Q(s0, T) = {dyadic Q inside s0, not inside any terminal
    cube} is what the calculus runs over: the cubes that own s0's level.
    b = b_{s0} and every b_T are read from the system's level arrays, which
    checked support and integral when they were built, and the exponent p and
    the constant A are the system's.  ``members`` is a view of the terminal
    cubes as ``DyadicCube``s, built on first read.
    """

    system: AccretiveSystem
    s0: DyadicCube
    owners: tuple
    delta: float

    @property
    def spec(self) -> GridSpec:
        return self.system.spec

    def __post_init__(self) -> None:
        object.__setattr__(self, "owners", tuple(self.owners))
        _check_owners(self.spec, self.s0, self.owners)
        _check_blocks(self._levels, self.system, self.delta)

    @cached_property
    def b(self) -> GridFunction:
        """b = b_{s0} on s0 and 0 elsewhere: the stitched array of s0's level."""
        return GridFunction(self.spec, self._levels.b[self.s0.level])

    @cached_property
    def _levels(self) -> CoronaLevels:
        """The level engine without a function: the owner of a cube is s0 on
        the derived family (B_l = b) and the cube itself on a terminal cube T
        (B_l = b_T); cubes strictly inside terminal cubes have none, because
        the calculus takes no averages there."""
        s0, spec = self.s0, self.spec
        owners = [None if m is None else np.where((m == s0.level) | (m == lev), m, -1)
                  for lev, m in enumerate(self.owners)]
        return CoronaLevels(spec, owners, _stitch(spec, owners, self.system.level_values), None)

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
        return self._levels.of(f)

    def random_coefficients(self, rng: np.random.Generator) -> dict[int, np.ndarray]:
        """Random signs on the derived family as per-level coefficients, zero
        off it: one draw ``rng.choice([-1.0, 1.0])`` of one sign per cube of
        ``q_cubes()``, split coarse to fine and row-major by the level masks."""
        masks = self.q_masks()
        counts = [int(m.sum()) for m in masks.values()]
        signs = rng.choice([-1.0, 1.0], size=sum(counts))
        coeffs = {lev: np.zeros(m.size) for lev, m in masks.items()}
        for (lev, mask), chunk in zip(masks.items(), np.split(signs, np.cumsum(counts)[:-1])):
            coeffs[lev][mask] = chunk
        return coeffs

    @cached_property
    def members(self) -> tuple[DyadicCube, ...]:
        """The terminal cubes, coarse to fine and row-major (sorted)."""
        return tuple(_cubes_where(self.spec, {lev: self.owners[lev] == lev
                                              for lev in range(self.s0.level + 1, len(self.owners))}))

    def q_masks(self) -> dict[int, np.ndarray]:
        """``q_cubes`` as one mask per level (row-major)."""
        return {lev: self.owners[lev] == self.s0.level for lev in range(self.s0.level, self.spec.depth)}

    def q_cubes(self) -> list[DyadicCube]:
        """The derived family, coarse to fine, without its finest-level cubes
        (whose martingale differences are empty sums)."""
        return _cubes_where(self.spec, self.q_masks())

    def _owner(self, cube: DyadicCube) -> int:
        """``cube``'s owner level; -1 outside s0 (the owner arrays hold -1
        there below s0's level, and have no entries above it)."""
        if not (self.spec.contains(cube) and cube.level >= self.s0.level):
            return -1
        return int(self.owners[cube.level][self.spec.cube_flat(cube)])

    def is_terminal(self, cube: DyadicCube) -> bool:
        return cube.level > self.s0.level and self._owner(cube) == cube.level

    def check_in_q(self, cube: DyadicCube) -> None:
        if self._owner(cube) != self.s0.level:
            raise ValueError(f"{cube} is not in the derived cube family of this context")


def make_context(system: AccretiveSystem, s0: DyadicCube, delta: float) -> TwistedContext:
    """The twisted context of ``system``'s function on ``s0``: the maximal
    stopped cubes, held as the owner arrays of the terminal pass that found
    them, with b and every b_T read from the system's level arrays."""
    b = GridFunction(system.spec, system.level_values(s0.level))  # b_{s0} on s0
    owners = _terminal_owners(b, s0, delta, system.p, system.A)
    if owners is None:
        raise ValueError(f"base cube {s0} itself triggers the stopping conditions")
    return TwistedContext(system, s0, owners, delta)


def block_context(forest: CoronaForest, j: int, member: DyadicCube) -> TwistedContext:
    """The corona block of a stopping cube S of S_j as a twisted context:
    base cube S, function b_S of S_j's system, terminal cubes = S's stopping
    children with their own b, marked by one owner pass: S, then each member
    of S_j that inherits S."""
    if not forest.is_member(j, member):
        raise ValueError(f"{member} is not a member of S_{j}")
    spec, owners, top = forest.spec, forest.owner_levels(j), member.level
    block = _owner_pass(spec, top, lambda level, inherited: [spec.cube_flat(member)] if level == top
                        else (owners[level] == level) & (inherited == top))
    return TwistedContext(forest.system(j), member, block, forest.delta)


# -- the level engine -------------------------------------------------------------


def _average(spec: GridSpec, level: int, sums: np.ndarray) -> np.ndarray:
    return sums * spec.cell_volume / 2.0 ** (-spec.dim * level)


def _stitch(spec: GridSpec, owners, values_at) -> dict:
    """Per level from the top of ``owners``: the cell array B_l carrying on
    every cube the b of its owner, stitched top down (a cube marked at its
    own level takes ``values_at(level)`` on its cells, any other cube keeps
    its parent's)."""
    top = next(lev for lev, o in enumerate(owners) if o is not None)
    stitched = {}
    b = np.zeros(spec.n_cells)
    for level in range(top, spec.depth + 1):
        marked = owners[level] == level
        if marked.any():
            b = np.where(spread(spec, level, marked), values_at(level), b)
        stitched[level] = b
    return stitched


def _check_owners(spec: GridSpec, s0: DyadicCube, owners) -> None:
    """Raise ValueError unless s0 owns itself, every owned cube lies inside
    s0 and no two terminal cubes nest.  A terminal cube whose parent's owner
    is a terminal cube is nested in it; the first such cube in sorted order
    has exactly one terminal strict ancestor (any other would be nested and
    come first)."""
    spec.check(s0)
    if owners[s0.level][spec.cube_flat(s0)] != s0.level:
        raise ValueError(f"base cube {s0} does not own itself")
    for level in range(s0.level, spec.depth + 1):
        outside = (owners[level] >= 0) & ~spec.subtree_mask(s0, level)
        if outside.any():
            cube = spec.cube_from_flat(level, int(np.flatnonzero(outside)[0]))
            raise ValueError(f"owned cube {cube} is not inside {s0}")
    for level in range(s0.level + 1, spec.depth + 1):
        above = spread(spec, level - 1, owners[level - 1], level)
        bad = (owners[level] == level) & (above > s0.level)
        if bad.any():
            flat = int(np.flatnonzero(bad)[0])
            inner = spec.cube_from_flat(level, flat)
            raise ValueError(f"terminal cubes {inner.ancestor(int(above[flat]))} and {inner} are nested")


def _check_blocks(levels: CoronaLevels, system: AccretiveSystem, delta: float) -> None:
    """Raise ValueError at the first violation (coarse to fine, row-major) of
    the invariants that make the averages of B_l safe denominators, with the
    exponent p and the constant A of ``system``, whose b the levels carry:
    every marked cube S carries a b with integral |S| within the norm budget
    A |S|^(1/p), and no owned cube Q meets stopping condition (1) or (2) with
    B_l (``corona.stopping_rule``), so |<B_l>_Q| > delta.  The integrals are
    the averages times |Q|, a power of two, so they are exact."""
    spec, p, A = levels.spec, system.p, system.A
    for level, cells in levels.b.items():
        avg, owners = levels.b_avg[level], levels.owners[level]
        pows = _average(spec, level, level_sum(spec, np.abs(cells) ** p, level))
        budget = (np.abs(avg - 1.0) > 1e-12) | (pows ** (1 / p) > A * (1 + 1e-12))
        vol = 2.0 ** (-spec.dim * level)
        for bad, message in (
            (budget & (owners == level), "b on {} misses its integral |S| or norm budget"),
            ((owners >= 0) & stopping_rule(spec, level, avg * vol, pows * vol, delta, A, p),
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
    averages <B_l>_Q (exact tree sums, taken on first read) and <h>_Q, and
    ``ratio[l]`` r_l[Q] = <h>_Q / <B_l>_Q (zero where Q has no owner).
    Cubes of a level are disjoint, so E_l = r_l spread over the cells times
    B_l holds every E_Q h of the level, and D_l = E_{l+1} - E_l every
    Delta_Q h.
    """

    spec: GridSpec
    owners: list
    b: dict
    h: GridFunction | None

    def __post_init__(self) -> None:
        if self.h is not None and self.h.spec != self.spec:
            raise ValueError("grid mismatch")

    def of(self, h: GridFunction) -> CoronaLevels:
        """The calculus of ``h`` on the same stitched arrays, sharing their averages."""
        levels = replace(self, h=h)
        vars(levels)["b_avg"] = self.b_avg
        return levels

    @cached_property
    def b_avg(self) -> dict[int, np.ndarray]:
        return {lev: _average(self.spec, lev, level_sum(self.spec, cells, lev))
                for lev, cells in self.b.items()}

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
        """The half-twisted block difference of every level-l cube Q within
        its corona block, one value per child Q': r(Q') - r(Q), or -r(Q) when
        Q' is a stopping cube."""
        return {
            lev: np.where(self._stopped(lev + 1), 0.0, self.ratio[lev + 1])
            - spread(self.spec, lev, self.ratio[lev], lev + 1)
            for lev in self.deltas
        }

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


def _coefficients(ctx: TwistedContext, coeffs: dict) -> dict[int, np.ndarray]:
    """A public call's coefficients eps_Q, one array per level (row-major by
    flat cube; a missing level counts as zero), zeroed off the derived family.
    Raises ValueError at the first key that is not a level of the family, then
    coarse to fine at the first array of the wrong length or entry that is not
    a finite value with |eps_Q| <= 1."""
    masks = ctx.q_masks()
    for lev in coeffs:
        if lev not in masks:
            raise ValueError(f"coefficient level {lev!r} is not a level of the derived family "
                             f"({ctx.s0.level}..{ctx.spec.depth - 1})")
    out = {}
    for lev in [lev for lev in masks if lev in coeffs]:  # coarse to fine
        c, mask = np.asarray(coeffs[lev], dtype=float), masks[lev]
        if c.shape != mask.shape:
            raise ValueError(f"level {lev} needs {mask.size} coefficients, got shape {c.shape}")
        bad = np.flatnonzero(~(np.abs(c) <= 1.0))  # NaN too
        if bad.size:
            raise ValueError(f"|eps| must be <= 1, got {float(c[bad[0]])!r} at level {lev}, "
                             f"flat index {int(bad[0])}")
        out[lev] = np.where(mask, c, 0.0)
    return out


def twisted_delta(ctx: TwistedContext, cube: DyadicCube, f: GridFunction) -> GridFunction:
    """The twisted martingale difference of f at ``cube``, the transform with
    eps = 1 there: supported on the cube and exactly mean-zero."""
    ctx.check_in_q(cube)
    coeffs = {}
    if cube.level < ctx.spec.depth:  # a finest cell's difference is an empty sum
        coeffs[cube.level] = np.zeros(ctx.spec.n_cubes(cube.level))
        coeffs[cube.level][ctx.spec.cube_flat(cube)] = 1.0
    return transform(ctx, coeffs, f)


def transform(ctx: TwistedContext, coeffs: dict, f: GridFunction) -> GridFunction:
    """sum over the derived family of eps_Q * (twisted difference at Q), with
    ``coeffs[level][flat]`` = eps_Q (see ``_coefficients``)."""
    return GridFunction(ctx.spec, ctx.levels(f).transform(_coefficients(ctx, coeffs)))


def _half_step(e, fc, bc, fq, bq):
    """The half-twisted increment on one child: e (<f>_Q'/<b>_Q' - <f>_Q/<b>_Q)."""
    return e * (fc / bc - fq / bq)


def half_transform(ctx: TwistedContext, coeffs: dict, f: GridFunction) -> GridFunction:
    """sum of eps_Q * (half-twisted difference at Q) over the derived family:
    eps_Q (<f>_Q'/<b>_Q' - <f>_Q/<b>_Q) on each non-terminal child Q'."""
    return GridFunction(ctx.spec, ctx.levels(f).child_rule(_coefficients(ctx, coeffs), _half_step))


# -- corona-adapted expectations and differences ---------------------------------


def corona_levels(forest: CoronaForest, j: int, h: GridFunction | None) -> CoronaLevels:
    """The per-level corona calculus of h against S_j: a cube's owner is its
    corona parent pi_j(Q), whose b S_j's system supplies from its level arrays."""
    spec, owners = forest.spec, forest.owner_levels(j)
    return CoronaLevels(spec, owners, _stitch(spec, owners, forest.system(j).level_values), h)


def expand(forest: CoronaForest, j: int, top: DyadicCube, h: GridFunction):
    """The martingale expansion of h below ``top``: returns (E_top h, list of
    (Q, Delta_Q h)); their sum reconstructs h 1_top exactly on the finite grid.
    """
    spec = forest.spec
    if not (spec.contains(top) and forest.q0.contains(top)):
        raise ValueError(f"{top} is not inside {forest.q0}")
    levels = corona_levels(forest, j, h)
    cubes = spec.all_cubes(top, max_level=spec.depth - 1)
    return (GridFunction(spec, levels.expectations[top.level]).restrict(top),
            [(q, GridFunction(spec, levels.deltas[q.level]).restrict(q)) for q in cubes])


# -- exact identities ------------------------------------------------------------


def _three_term(fc, bc, fq, bq):
    """|lhs - (i) - (ii) - (iii)| of the splitting below, on floats or arrays."""
    lhs = fc / bc - fq / bq
    d = bq - bc
    rhs = (fc - fq) / bq + d * fc / bq**2 + d**2 * fc / (bc * bq**2)
    return abs(lhs - rhs)


def decomposition_identity_check(
    ctx: TwistedContext, cube: DyadicCube, child: DyadicCube, f: GridFunction
) -> float:
    """Residual of the three-term splitting of a half-twisted increment:

        <f>_Q'/<b>_Q' - <f>_Q/<b>_Q
          = (<f>_Q' - <f>_Q)/<b>_Q                                   (i)
          + (<b>_Q - <b>_Q') <f>_Q' / <b>_Q^2                        (ii)
          + (<b>_Q - <b>_Q')^2 <f>_Q' / (<b>_Q' <b>_Q^2)             (iii)

    an exact rational identity; returns |lhs - (i)-(ii)-(iii)| as floats."""
    if f.spec != ctx.spec:
        raise ValueError("grid mismatch")
    ctx.check_in_q(cube)
    if ctx.is_terminal(child) or child.parent() != cube:
        raise ValueError(f"{child} is not a non-terminal child of {cube}")
    return _three_term(f.average(child), ctx.avg_b(child), f.average(cube), ctx.avg_b(cube))


def three_term_check(ctx: TwistedContext, levels: CoronaLevels) -> float:
    """The largest ``decomposition_identity_check`` over every (derived cube,
    non-terminal child) pair, with ``levels = ctx.levels(f)``: the
    non-terminal children are the derived cubes below s0's level, so each
    level pairs their averages with their parents' in one array expression.
    numpy squares exactly where the per-pair floats go through the C
    library's pow, so the two can differ in the last bits."""
    spec, top = ctx.spec, ctx.s0.level
    worst = 0.0
    for lev in range(top + 1, spec.depth + 1):
        kids = levels.owners[lev] == top
        fq, bq = (spread(spec, lev - 1, a, lev)[kids] for a in (levels.h_avg[lev - 1], levels.b_avg[lev - 1]))
        residual = _three_term(levels.h_avg[lev][kids], levels.b_avg[lev][kids], fq, bq)
        worst = max(worst, float(np.max(residual, initial=0.0)))
    return worst


def delta_decomp_check(ctx: TwistedContext, coeffs: dict, f: GridFunction) -> float:
    """Max pointwise residual of the terminal-corrected factorization

        sum eps_Q D~_Q f = (Bf) b
                           + sum_T eps_{parent T} <f>_T 1_T b_T
                           - sum_T eps_{parent T} (<f>_parent/<b>_parent) 1_T b

    with Bf the half-twisted transform; exact because the twisted difference
    equals the half-twisted one times b away from terminal children."""
    coeffs, levels = _coefficients(ctx, coeffs), ctx.levels(f)
    return _delta_decomp(ctx, levels, coeffs, levels.transform(coeffs),
                         levels.child_rule(coeffs, _half_step))


def _delta_decomp(ctx, levels, coeffs, twisted, half) -> float:
    """``delta_decomp_check`` from ``levels = ctx.levels(f)``, the per-level
    coefficients and the cell arrays of both transforms they give."""
    spec = ctx.spec
    rhs = half * ctx.b.values
    for lev, c in coeffs.items():
        e = np.where(levels.owners[lev + 1] == lev + 1, spread(spec, lev, c, lev + 1), 0.0)
        rhs += spread(spec, lev + 1, e * levels.h_avg[lev + 1]) * levels.b[lev + 1]
        rhs -= spread(spec, lev + 1, e * spread(spec, lev, levels.ratio[lev], lev + 1)) * ctx.b.values
    return float(np.max(np.abs(twisted - rhs)))


_N_LAMBDAS = 32  # the levels lambda the measure comparison sweeps, from 0 to max |Bf|


def measure_comparison_check(ctx: TwistedContext, coeffs: dict, f: GridFunction) -> float:
    """Sweep level sets of the half-twisted transform Bf and compare the
    |b|^p mass of E_lambda = {|Bf| >= lambda} (within S0) against
    2^dim delta^-p A^p |E_lambda|.  Returns the worst excess lhs - rhs
    (non-positive when the comparison holds everywhere)."""
    return _measure_excess(ctx, half_transform(ctx, coeffs, f).values)


def _measure_excess(ctx: TwistedContext, half: np.ndarray) -> float:
    """``measure_comparison_check`` from the cell array of Bf."""
    spec = ctx.spec
    bf = np.abs(half)
    inside = spec.subtree_mask(ctx.s0, spec.depth)
    p = ctx.system.p
    cap = 2.0**spec.dim * ctx.delta**-p * ctx.system.A**p
    bp = np.abs(ctx.b.values) ** p
    cv = spec.cell_volume
    worst = -np.inf
    for lam in np.linspace(0.0, float(bf[inside].max(initial=0.0)), _N_LAMBDAS):
        e_lam = inside & (bf >= lam)
        lhs = float(np.sum(bp[e_lam]) * cv)
        rhs = cap * float(np.count_nonzero(e_lam)) * cv
        worst = max(worst, lhs - rhs)
    return worst
