"""Norm estimation, testing constants, and the full decomposition battery.

This module measures the quantities the whole construction is about: the
operator norm on L^2, the local testing constant

    Tloc = max over cubes Q of ( |Q|^-1 int_Q |T b_Q|^q )^(1/q)

(and its adjoint twin), and the exact decomposition identities that reduce
the pairing <Tf, g> for sign functions f, g to corona blocks.  Like the
testing constant, the nested form of those blocks is computed one level at a
time: cubes of a level are disjoint, so one sweep of the kernel from a level
applies T inside every cube of that level at once (``kernels._sweep_from``),
and the form takes no apply per cube and no full-grid copy of any b_S.  The
pairings <T D_a f, D_b g> of the corona differences of every two levels are
one table per instance (one sweep per level a, then one matrix product), and
a second table holds <T* D_b g, D_a f>: the expansion, the split by side
lengths and the nested form's reference all read them.  The experiment
runner generates seeded random instances, chooses delta, builds the corona,
and reports the ratio operator_norm / (1 + Tloc) together with every
residual.  A trial's Lanczos norm needs only the kernel, so when a second
CPU is free it runs in a helper interpreter (``_NormHelper``) while the
trial builds its instance and runs the battery.
"""

from __future__ import annotations

import atexit
import os
import pickle
import sys
import threading
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import NoReturn

import numpy as np

from .accretive import _PARAM_NAMES, AccretiveSystem, _overflow, draw_levels
from .corona import (
    CoronaForest,
    DeltaSearch,
    _sides,
    check_tau_target,
    choose_delta,
    conjugate,
    forest_carleson,
)
from .grid import GridFunction, GridSpec, cube_blocks, row_reduce, spread
from .kernels import (
    PerfectKernel,
    _sweep_from,
    adjoint,
    apply_values,
    bilinear,
    dense_matrix,
    generate_kernel,
)
from .twisted import (
    CoronaLevels,
    TwistedContext,
    _check_blocks,
    _delta_decomp,
    _half_step,
    _measure_excess,
    _stitch,
    corona_levels,
    make_context,
    three_term_check,
)

__all__ = [
    "LanczosResult",
    "lanczos_norm",
    "operator_norm",
    "testing_constant",
    "Pairings",
    "easy_terms_check",
    "bilinear_expansion_check",
    "FormSplit",
    "form_split",
    "b_above_aggregation",
    "epsilon_coefficient",
    "SearchResult",
    "adversarial_transform_search",
    "Instance",
    "build_instance",
    "run_identity_checks",
    "identity_suite",
    "ExperimentConfig",
    "VerifierReport",
    "main_theorem_experiment",
]

AUTO_DENSE_CELLS = 256  # "auto" takes the dense SVD up to here, Lanczos above
NORM_METHODS = ("auto", "dense-svd", "lanczos")
BASIS_BLOCK = 32  # rows per block of the Lanczos basis
RITZ_EVERY = 4  # Lanczos steps per bidiagonal SVD
RITZ_TOL = 1e-13  # Lanczos stops at a Ritz residual of RITZ_TOL * sigma


# -- operator norm ----------------------------------------------------------------


@dataclass(frozen=True)
class LanczosResult:
    value: float
    converged: bool
    steps: int
    residual: float


def lanczos_norm(kernel: PerfectKernel, max_steps: int = 500, seed: int = 0) -> LanczosResult:
    """L^2 operator norm by Golub-Kahan-Lanczos bidiagonalisation on the fast apply.

    ``_golub_kahan`` gives T V_k = U_k B_k for the upper bidiagonal
    B_k = bidiag(alpha; beta).  The value is sigma_1(B_k), a lower bound of
    the norm up to rounding.  With B_k = P S Q^T the Ritz pair u = U_k p_1,
    v = V_k q_1 has ||T* u - sigma v|| = beta_k |e_k^T p_1|; the run stops at
    the first step whose residual is at most ``RITZ_TOL * sigma``, or exactly
    when the Krylov space is invariant (a zero alpha or beta, or every cell
    spanned).  Non-convergence is reported in the result, not raised.

    The SVD of B_k runs every ``RITZ_EVERY`` steps, at the last step and on a
    zero alpha or beta.  When such a check stops the run, the steps since the
    previous check are examined in order and the first that converged is
    returned, so the result is that of a check at every step unless a residual
    falls to ``RITZ_TOL * sigma`` at a skipped step and rises above it again
    by the next check.  No BLAS call touches a cell-length array (see
    ``_golub_kahan``); the one LAPACK call is the SVD of the small B_k.
    """
    n = kernel.spec.n_cells
    steps = min(max_steps, n)
    sigma, residual = 0.0, np.inf
    checked = 0  # the steps before this one have had their Ritz check
    for k, alpha, beta in _golub_kahan(kernel, steps, seed):
        if (k + 1) % RITZ_EVERY and k + 1 < steps and alpha[k] and beta[k]:
            continue
        sigma, residual = _ritz(alpha, beta, k)
        if residual <= RITZ_TOL * sigma or k + 1 == n:
            for j in range(checked, k):
                s, r = _ritz(alpha, beta, j)
                if r <= RITZ_TOL * s:
                    return LanczosResult(s, True, j + 1, r)
            return LanczosResult(sigma, True, k + 1, residual)
        checked = k + 1
    return LanczosResult(sigma, False, steps, residual)


def _golub_kahan(kernel: PerfectKernel, steps: int, seed: int):
    """Golub-Kahan bidiagonalisation of T from a seeded random unit vector
    v_1: T V_k = U_k B_k for the upper bidiagonal B_k = bidiag(alpha; beta).

    Yields ``(k, alpha, beta)`` once alpha[k] and beta[k] are set (both of
    length ``steps``, zero past k), up to ``steps`` times; it stops after a
    zero alpha or beta.  Each right vector is reorthogonalised against all of
    V_k by classical Gram-Schmidt, twice; the left vectors are not, and only
    the last one is kept, which leaves the singular values of B_k accurate
    (Simon-Zha, SIAM J. Sci. Comput. 21, 2000).  V_k grows in blocks of
    ``BASIS_BLOCK`` rows, so no filled row is copied.  Every product and norm
    on a cell array is an ``np.einsum`` without ``optimize``, which does not
    call BLAS, so it sums in the same order at any BLAS thread count.
    """
    n = kernel.spec.n_cells
    adj = adjoint(kernel)
    alpha, beta = np.zeros(steps), np.zeros(steps)
    blocks: list[np.ndarray] = []
    v = np.random.default_rng(seed).standard_normal(n)
    v /= _norm(v)
    for k in range(steps):
        row = k % BASIS_BLOCK
        if row == 0:
            blocks.append(np.empty((min(BASIS_BLOCK, steps - k), n)))
        blocks[-1][row] = v
        tv = apply_values(kernel, v)
        if k:
            tv -= beta[k - 1] * u
        alpha[k] = _norm(tv)
        if alpha[k]:
            u = tv / alpha[k]
            w = apply_values(adj, u) - alpha[k] * v
            basis = [*blocks[:-1], blocks[-1][: row + 1]]
            for _ in range(2):
                coeffs = [np.einsum("ij,j->i", b, w) for b in basis]
                for b, c in zip(basis, coeffs):
                    w -= np.einsum("ij,i->j", b, c)
            beta[k] = _norm(w)
        yield k, alpha, beta
        if not (alpha[k] and beta[k]):
            return
        v = w / beta[k]


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of a vector, summed without BLAS."""
    return float(np.sqrt(np.einsum("i,i->", x, x)))


def _ritz(alpha: np.ndarray, beta: np.ndarray, k: int) -> tuple[float, float]:
    """sigma_1 of B_(k+1) = bidiag(alpha[:k+1]; beta[:k]) and the residual
    beta[k] |e_(k+1)^T p_1| of its Ritz pair."""
    left, s, _ = np.linalg.svd(np.diag(alpha[: k + 1]) + np.diag(beta[:k], 1))
    return float(s[0]), float(beta[k] * abs(left[k, 0]))


def operator_norm(kernel: PerfectKernel, method: str = "auto", **kwargs) -> float:
    """The L^2 -> L^2 norm (cell-basis spectral norm).

    ``"auto"`` takes the dense SVD up to ``AUTO_DENSE_CELLS`` cells and
    ``lanczos_norm`` above; an explicit ``"dense-svd"`` above
    ``kernels.DENSE_CAP`` cells and an unconverged Lanczos run raise.
    """
    method = norm_method_for(kernel, method)
    if method == "dense-svd":
        m = dense_matrix(kernel)
        return float(np.linalg.svd(m, compute_uv=False)[0]) if m.size else 0.0
    res = lanczos_norm(kernel, **kwargs)
    if not res.converged:
        raise RuntimeError(f"Lanczos norm did not converge in {res.steps} steps "
                           f"(residual {res.residual:.3g} at value {res.value!r})")
    return res.value


def norm_method_for(kernel: PerfectKernel, method: str) -> str:
    """The concrete method ``operator_norm`` uses for ``method`` on this kernel."""
    if method not in NORM_METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {NORM_METHODS}")
    if method == "auto":
        return "dense-svd" if kernel.spec.n_cells <= AUTO_DENSE_CELLS else "lanczos"
    return method


# -- testing constants -------------------------------------------------------------


def testing_constant(op: PerfectKernel, system: AccretiveSystem, q: float) -> float:
    """max over all cubes Q of (|Q|^-1 int_Q |T b_Q|^q)^(1/q) for the operator
    T = ``op``: the kernel, or ``adjoint(kernel)`` for the adjoint side.

    One apply per level: on each cube Q of a level, T of that level's tiled
    b-array equals T b_Q once the entries above the level are dropped (see
    ``kernels._sweep_from``).  The sweeps are the system's memo
    (``AccretiveSystem.level_sweep``), which the corona construction and the
    nested form read again.  Taking the max before the root is exact, since
    the power is monotone.
    """
    if system.spec != op.spec:
        raise ValueError("grid mismatch between the system and the kernel")
    if not q > 1.0:
        raise ValueError(f"exponent must exceed 1, got {q}")
    spec = op.spec
    best = 0.0
    for level in range(spec.depth + 1):
        tb = system.level_sweep(op, level)
        with np.errstate(over="ignore"):
            powers = np.abs(cube_blocks(spec, level, tb)) ** q
            mean_pow = row_reduce(np.add, powers) / powers.shape[1]
        best = max(best, float(mean_pow.max()))
    if best == np.inf:
        raise ValueError(f"exponent q={q!r} (conjugate to {conjugate(q)!r}) is too large "
                         f"for float64 powers")
    return best ** (1.0 / q)


def _tloc(kernel: PerfectKernel, sys1: AccretiveSystem, sys2: AccretiveSystem) -> float:
    """Tloc of an instance: both systems drawn together (``draw_levels``), then
    the larger side (``corona._sides``), b^1 against T with exponent p2', b^2
    against T* with p1'."""
    draw_levels((sys1, sys2))
    return max(testing_constant(op, system, q) for system, op, q in _sides(sys1, sys2, kernel))


# -- expansion of the pairing ------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Pairings:
    """The one input of the battery checks: a forest, whose kernel T the
    pairings take, and the sign functions f, g.  The corona calculus of f
    against S_1 (``lf``) and of g against S_2 (``lg``), and what the battery
    pairs from it, are each built on first read: over the difference levels
    a, b of Q0 and below, ``table[a, b]`` is <T D_a f, D_b g> and
    ``adjoint_table[b, a]`` is <T* D_b g, D_a f>."""

    forest: CoronaForest
    f: GridFunction
    g: GridFunction

    @cached_property
    def lf(self) -> CoronaLevels:
        return corona_levels(self.forest, 1, self.f)

    @cached_property
    def lg(self) -> CoronaLevels:
        return corona_levels(self.forest, 2, self.g)

    @cached_property
    def rank_one(self) -> tuple[float, float]:
        """<T E f, g> and <T (sum D f), E g>, with E the expectation on Q0."""
        kernel, spec, top = self.forest.kernel, self.lf.spec, min(self.lf.b)
        return (bilinear(kernel, GridFunction(spec, self.lf.expectations[top]), self.lg.h),
                bilinear(kernel, GridFunction(spec, self.lf.delta_sum),
                         GridFunction(spec, self.lg.expectations[top])))

    @cached_property
    def table(self) -> np.ndarray:
        return _pairing_table(self.forest.kernel, self.lf.deltas, self.lg.deltas)

    @cached_property
    def adjoint_table(self) -> np.ndarray:
        return _pairing_table(adjoint(self.forest.kernel), self.lg.deltas, self.lf.deltas)


def _pairing_table(op, rows: dict, cols: dict) -> np.ndarray:
    """<op u, v> for every u in ``rows`` and v in ``cols``: one sweep per row,
    then one product of the stacked rows and columns (either may be empty)."""
    n = op.spec.n_cells
    swept = np.reshape([apply_values(op, u) for u in rows.values()], (-1, n))
    return swept @ np.reshape(list(cols.values()), (-1, n)).T * op.spec.cell_volume


def easy_terms_check(pairings: Pairings) -> dict:
    """The two rank-one pieces of the expansion with their testing bounds:
    |<T E f, g>| <= Tloc |Q0| and |<T sum-of-differences f, E g>| <= A Tloc |Q0|,
    with the A of the forest's second system, whose b_Q0 E g is built from."""
    easy1, easy2 = pairings.rank_one
    forest = pairings.forest
    volume = forest.q0.volume
    return {"easy1": abs(easy1), "easy1_bound": forest.tloc * volume,
            "easy2": abs(easy2), "easy2_bound": forest.sys2.A * forest.tloc * volume}


def bilinear_expansion_check(pairings: Pairings) -> tuple[float, dict]:
    """Residual of <Tf, g> = <T E f, g> + <T (sum D f), E g> + sum_{P,Q} <T D_P f, D_Q g>
    with every piece computed independently (the last one as the sum of the
    pairing table); relative to 1 + |<Tf, g>|."""
    total = bilinear(pairings.forest.kernel, pairings.f, pairings.g)
    term1, term2 = pairings.rank_one
    term3 = float(pairings.table.sum())
    residual = abs(total - term1 - term2 - term3) / (1.0 + abs(total))
    return residual, {"total": total, "term1": term1, "term2": term2, "term3": term3}


@dataclass(frozen=True)
class FormSplit:
    b_above: float
    b_equal: float
    b_below: float
    total: float
    residual: float


def form_split(pairings: Pairings) -> FormSplit:
    """Split sum_{P,Q} <T D_P f, D_Q g> by the side lengths of P and Q.

    Cubes P strictly bigger than Q form the nested "above" part (non-nested
    different-level pairs vanish by the cancellation of the perfect kernel);
    the "below" part is evaluated through the adjoint, and the equal-level
    part contains the diagonal.  The residual compares the three parts with
    an independently computed total.
    """
    spec = pairings.forest.spec
    above, below = (float(np.triu(t, 1).sum()) for t in (pairings.table, pairings.adjoint_table))
    equal = float(np.trace(pairings.table))
    total = bilinear(pairings.forest.kernel, GridFunction(spec, pairings.lf.delta_sum),
                     GridFunction(spec, pairings.lg.delta_sum))
    residual = abs(above + equal + below - total) / (1.0 + abs(total))
    return FormSplit(above, equal, below, total, residual)


# -- the nested form, level by level ----------------------------------------------


def b_above_aggregation(pairings: Pairings):
    """The nested form sum_{P strictly above Q} <T D_P f, D_Q g> summed block by
    block over S_1, against the same form computed directly.

    The share of a block S is

        1_{S != Q0} <f>_S sum_{Q in S} <T b_S, D_Q g>
        + sum_{P: pi(P) = S} sum_{Q strictly in P} <T (b_S w_P), D_Q g>

    with w_P the half-twisted block difference of P (constant on P's
    children).  All blocks are done one level a at a time: cubes of a level
    are disjoint, so one sweep from level a of B_a w_a (every block cube's
    b_S w_P) gives T(b_S w_P) inside every level-a cube P, and the members'
    b, each swept from its own level and stitched like B_a, give T b_S there
    (``kernels._sweep_from``); one row-wise dot per level b pairs either with
    every D_Q g.  The pull-out residual compares the two routes: the swept
    <T(b_S w_P), D_Q g> against <w_P>_{child of P over Q} <T b_S, D_Q g>.

    Pairs of cubes on different levels that are not nested contribute zero
    (perfect cancellation), so the reference is sum_{a < b} <T D_a f, D_b g>
    over the level differences, the strict upper triangle of the pairing
    table.  Returns (total, pull-out residual, reference, relative residual
    of total against reference)."""
    forest, kernel = pairings.forest, pairings.forest.kernel
    spec, top, cv = forest.spec, forest.q0.level, forest.spec.cell_volume
    lf, lg = pairings.lf, pairings.lg
    reference = float(np.triu(pairings.table, 1).sum())
    g_blocks = {b: cube_blocks(spec, b, gv) for b, gv in lg.deltas.items()}

    def paired(u, first):
        """<u, D_Q g> for every cube Q of each level from ``first``, one row-wise dot per level."""
        return {b: row_reduce(np.add, cube_blocks(spec, b, u) * g_blocks[b]) * cv
                for b in range(first, spec.depth)}

    tb = _stitch(spec, lf.owners, lambda m: forest.sys1.level_sweep(kernel, m))
    total = pullout = 0.0
    for a, half in lf.half_twisted.items():
        tbs = paired(tb[a], a)
        if a > top:  # the first piece of the members of level a
            own = np.where(lf.owners[a] == a, lf.h_avg[a], 0.0)
            total += sum(float(spread(spec, a, own, b) @ v) for b, v in tbs.items())
        direct = paired(_sweep_from(kernel, lf.b[a] * spread(spec, a + 1, half), a), a + 1)
        for b, d in direct.items():
            pulled = spread(spec, a + 1, half, b) * tbs[b]
            pullout = max(pullout, float(np.max(np.abs(d - pulled) / (1.0 + np.abs(d)))))
            total += float(d.sum())
    residual = abs(total - reference) / (1.0 + abs(reference))
    return total, pullout, reference, residual


def epsilon_coefficient(forest, f, member, cube) -> float:
    """The telescoped coefficient attached to a cube strictly inside a block:
    the sum over ancestors P of the cube with corona parent ``member`` of the
    block difference's constant value on the child of P towards the cube."""
    spec, owners = forest.spec, forest.owner_levels(1)
    if not forest.is_member(1, member):
        raise ValueError(f"{member} is not a member of S_1")
    spec.check(cube)
    if not member.contains(cube) or member == cube:
        raise ValueError(f"{cube} is not strictly inside {member}")
    half = corona_levels(forest, 1, f).half_twisted
    total = 0.0
    for level in range(cube.level - 1, member.level - 1, -1):
        if owners[level][spec.cube_flat(cube.ancestor(level))] == member.level:
            total += float(half[level][spec.cube_flat(cube.ancestor(level + 1))])
    return total


def _epsilon_max(levels) -> float:
    """max |epsilon_coefficient| over every member S of S_1 and cube Q strictly
    inside S, in one top-down pass over the telescoped form: the sum collapses
    to r(Q) - r(pi(Q)) for Q in S's block, and to -r(S) for Q below a stopping
    child T of S, where S = pi(parent of T)."""
    spec, owners, top = levels.spec, levels.owners, min(levels.ratio)
    own = levels.ratio[top]  # r(pi(Q)) per cube of the current level
    best = 0.0
    for level in range(top + 1, spec.depth + 1):
        inherited = spread(spec, level - 1, own, level)
        r, stopped = levels.ratio[level], owners[level] == level
        best = max(best, float(np.max(np.where(stopped, np.abs(inherited), np.abs(r - inherited)))))
        own = np.where(stopped, r, inherited)
    return best


def _g_telescoping(forest, lg, g: GridFunction) -> float:
    """max over the members S of S_1 of |E_S g + sum_{l >= level(S)} D_l g - g|
    on S, over 1 + max |g|: the g-side differences telescope over each block.
    One full-array sum per member level m, its maximum taken on the cells of
    the level-m members, gives the per-member maximum bit for bit."""
    spec, owners = forest.spec, forest.owner_levels(1)
    gmax = 1.0 + float(np.max(np.abs(g.values)))
    best = 0.0
    for m in range(forest.q0.level, spec.depth + 1):
        members = owners[m] == m
        if members.any():
            total = lg.expectations[m] + sum(lg.deltas[lev] for lev in range(m, spec.depth))
            excess = np.abs(total - g.values)[spread(spec, m, members)]
            best = max(best, float(np.max(excess)) / gmax)
    return best


# -- adversarial transform search ---------------------------------------------------


@dataclass(frozen=True)
class SearchResult:
    """The best restart of a search: its ratio, its signs as one coefficient
    array per level (``TwistedContext.random_coefficients``: zero off the
    derived family), its f, and the restart it came from (counted from 1)."""

    ratio: float
    coeffs: dict[int, np.ndarray]
    f: GridFunction
    restarts: int


def adversarial_transform_search(
    ctx: TwistedContext,
    p: float,
    n_restarts: int = 8,
    max_passes: int = 50,
    seed: int = 0,
    functions=None,
) -> SearchResult:
    """Maximize ||sum eps_Q D~_Q f||_p / ||f||_p over corner sign choices.

    The transform is affine in each eps_Q, so the maximum over the solid box
    [-1, 1]^Q sits at a corner; greedy single-flip ascent from random corners
    and random sign functions f on the base cube (unless a list is supplied)
    finds it, deterministically for a fixed seed.  Cubes of a level are
    disjoint, so a pass, coarse to fine, flips each level's gaining cubes at once.
    An exponent whose powers |transform|^p overflow float64 is a ValueError.
    """
    if n_restarts < 1 or max_passes < 0:
        raise ValueError(f"need n_restarts >= 1 and max_passes >= 0, "
                         f"got {n_restarts} and {max_passes}")
    spec, s0_idx = ctx.spec, ctx.spec.cell_indices(ctx.s0)
    if functions is not None and len(functions) == 0:
        raise ValueError("functions must hold at least one function")
    for i, f in enumerate(functions or ()):
        if f.spec != spec or not np.any(f.values[s0_idx]):
            problem = f"lives on {f.spec}, not {spec}" if f.spec != spec else f"is zero on {ctx.s0}"
            raise ValueError(f"functions[{i}] {problem}")
    rng = np.random.default_rng(seed)
    best = None
    for r in range(n_restarts):
        if functions is not None:
            f = functions[r % len(functions)]
        else:
            vals = np.zeros(spec.n_cells)
            vals[s0_idx] = rng.choice([-1.0, 1.0], s0_idx.size)
            f = GridFunction(spec, vals)
        levels, coeffs = ctx.levels(f), ctx.random_coefficients(rng)
        cur = levels.transform(coeffs)
        for _ in range(max_passes):
            improved = False
            for lev, c in coeffs.items():
                cand = cur - spread(spec, lev, 2.0 * c) * levels.deltas[lev]
                with np.errstate(over="ignore"):
                    before, after = (_fits(p, row_reduce(np.add, cube_blocks(spec, lev, np.abs(x) ** p)))
                                     for x in (cur, cand))
                flip = after - before > 1e-14 * (1.0 + before)
                np.copyto(cur, cand, where=spread(spec, lev, flip))
                c[flip] = -c[flip]
                improved |= bool(flip.any())
            if not improved:
                break
        with np.errstate(over="ignore"):
            total = _fits(p, np.sum(np.abs(cur) ** p))
        ratio = float(total * spec.cell_volume) ** (1.0 / p) / f.lp_norm(p)
        if best is None or ratio > best[0]:
            best = (ratio, coeffs, f, r + 1)
    return SearchResult(*best)


def _fits(p: float, sums):
    """Sums of |x|^p, unless one overflowed float64: then the exponent's ValueError."""
    if np.max(sums) == np.inf:
        raise _overflow(p)
    return sums


# -- instances and the identity battery ---------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """An instance's parameters (``build_instance``), and a run's trials and master seed."""

    dim: int = 1
    depth: int = 6
    trials: int = 100
    p1: float = 2.0
    p2: float = 2.0
    seed: int = 1
    kernel_kind: str = "random"
    kernel_scale: float = 1.0
    accretive_kind: str = "random"
    amp: float | None = None
    A: float | None = None
    tau_target: float = 0.9

    def __post_init__(self) -> None:
        if self.trials < 0:
            raise ValueError(f"trials must be non-negative, got {self.trials}")
        check_tau_target(self.tau_target)


@dataclass
class Instance:
    """One fully built random instance: kernel, systems, testing constant,
    chosen delta, corona forest and a pair of sign functions."""

    spec: GridSpec
    kernel: PerfectKernel
    sys1: AccretiveSystem
    sys2: AccretiveSystem
    tloc: float
    dsearch: DeltaSearch
    f: GridFunction
    g: GridFunction
    seed: int

    @property
    def ok(self) -> bool:
        return self.dsearch.ok

    @property
    def forest(self) -> CoronaForest:
        if not self.dsearch.ok:
            raise RuntimeError("delta search failed; no forest on this instance")
        return self.dsearch.forest

    @cached_property
    def pairings(self) -> Pairings:
        """The identity battery's input on this instance, built once."""
        return Pairings(self.forest, self.f, self.g)


def build_instance(config: ExperimentConfig, seed: int) -> Instance:
    """Deterministically build the instance that ``config`` describes from one seed.

    ``seed`` is the instance's own seed (a trial's is ``trial_seed(config.seed,
    trial)``); ``config.seed`` and ``config.trials`` are not read.  Sub-streams
    (kernel, each system, the sign pair, the amplitude draw) are derived from
    the seed with fixed spawn keys, so any trial of any run can be reproduced
    in isolation.
    """
    spec = GridSpec(config.dim, config.depth)
    _, k_sys1, k_sys2, k_fg, k_amp = [
        np.random.SeedSequence(seed, spawn_key=(i,)) for i in range(5)
    ]
    kernel = _instance_kernel(config, seed)
    kind, amp, A = config.accretive_kind, config.amp, config.A
    if kind == "random" and amp is None:
        amp = float(np.random.default_rng(k_amp).uniform(0.2, 0.8))
    if A is None:
        A = 1.0 + amp if kind == "random" else 1.5
    # amp is the kind's parameter (s of two-value); constant and signed systems reject one
    params = {} if amp is None else {_PARAM_NAMES.get(kind, "amp"): amp}
    sys1 = AccretiveSystem(spec, kind, config.p1, A, seed=_seed_int(k_sys1), params=params)
    sys2 = AccretiveSystem(spec, kind, config.p2, A, seed=_seed_int(k_sys2), params=params)
    tloc = _tloc(kernel, sys1, sys2)
    dsearch = choose_delta(spec.root(), sys1, sys2, kernel, tloc, config.tau_target)
    rng = np.random.default_rng(k_fg)
    f = GridFunction(spec, rng.choice([-1.0, 1.0], spec.n_cells))
    g = GridFunction(spec, rng.choice([-1.0, 1.0], spec.n_cells))
    return Instance(spec, kernel, sys1, sys2, tloc, dsearch, f, g, seed)


def _instance_kernel(config: ExperimentConfig, seed: int) -> PerfectKernel:
    """The kernel of ``build_instance(config, seed)``, derived here only: the
    norm helper builds it from the same request, so it measures this kernel."""
    return generate_kernel(config.kernel_kind, GridSpec(config.dim, config.depth), seed=seed,
                           scale=config.kernel_scale)


def _seed_int(ss: np.random.SeedSequence) -> int:
    return int(ss.generate_state(1, dtype=np.uint64)[0] % (2**63))


def _check_families(forest, lf, lg) -> None:
    """The invariants ``block_context`` validates on every corona block, in
    one pass per family over the stitched level arrays of its level calculus
    (``lf`` of S_1, ``lg`` of S_2: each cube Q against b_pi(Q); any h, since
    the invariants read only the owners and the stitched b), with the p and A
    of its system.  A violation raises RuntimeError: the construction
    guarantees these invariants on every forest it builds, so a failure is a
    fault of the program, not of its input."""
    for j, levels in ((1, lf), (2, lg)):
        try:
            _check_blocks(levels, forest.system(j), forest.delta)
        except ValueError as e:
            raise RuntimeError(f"corona family S_{j} breaks a block invariant: {e}") from None


def run_identity_checks(inst: Instance) -> dict[str, float]:
    """Every exact identity of the construction on one instance, as relative
    residuals, plus the telescoped-coefficient and measure-comparison margins.
    The corona's block invariants are checked first: a forest that breaks one
    raises RuntimeError (``_check_families``) before any residual.
    """
    forest, f, g, pairings = inst.forest, inst.f, inst.g, inst.pairings
    q0, delta = forest.q0, forest.delta
    lf, lg = pairings.lf, pairings.lg
    _check_families(forest, lf, lg)
    out: dict[str, float] = {}

    # martingale expansion reconstructs h on the nose
    rec = 0.0
    for lv, h in ((lf, f), (lg, g)):
        total = lv.expectations[q0.level] + lv.delta_sum
        rec = max(rec, float(np.max(np.abs(total - h.values))) / (1.0 + float(np.max(np.abs(h.values)))))
    out["representation"] = rec

    # twisted context checks at the chosen delta, on the context's level
    # arrays: the random signs as per-level coefficients, each transform once
    ctx = make_context(forest.sys1, q0, delta)
    rng = np.random.default_rng(np.random.SeedSequence(inst.seed, spawn_key=(17,)))
    coeffs = ctx.random_coefficients(rng)
    tw = ctx.levels(f)
    out["three_term"] = three_term_check(ctx, tw)
    twisted, half = tw.transform(coeffs), tw.child_rule(coeffs, _half_step)
    scale = 1.0 + float(np.max(np.abs(twisted), initial=0.0))
    out["delta_decomp"] = _delta_decomp(ctx, tw, coeffs, twisted, half) / scale
    out["measure_comparison_excess"] = _measure_excess(ctx, half)

    out["bilinear_expansion"], _ = bilinear_expansion_check(pairings)
    out["form_split"] = form_split(pairings).residual
    _, out["pullout"], _, out["b_above_aggregation"] = b_above_aggregation(pairings)

    # telescoping of the g-side differences over each block of S_1
    out["g_telescoping"] = _g_telescoping(forest, lg, g)

    # telescoped coefficients against the 2/delta budget
    out["epsilon_max"] = _epsilon_max(lf)
    out["epsilon_bound"] = 2.0 / delta
    return out


def identity_suite(config: ExperimentConfig, seed: int) -> dict[str, float]:
    """Build one instance (``build_instance(config, seed)``) and run the full identity battery on it."""
    inst = build_instance(config, seed)
    if not inst.ok:
        raise RuntimeError(f"delta search failed on seed {seed}")
    return run_identity_checks(inst)


# -- the main experiment -------------------------------------------------------------


RESIDUAL_FIELDS = (
    "representation",
    "three_term",
    "delta_decomp",
    "bilinear_expansion",
    "form_split",
    "b_above_aggregation",
    "pullout",
    "g_telescoping",
)


@dataclass
class VerifierReport:
    """One row of the experiment: norms, ratio, structure and residuals.  A
    flagged trial (not ``ok``) fills only the first six and ``delta_trace``: the rest are None or empty."""

    trial: int
    seed: int
    ok: bool
    operator_norm: float
    tloc: float
    ratio: float
    delta: float | None = None
    packing: float | None = None
    carleson: float | None = None
    residuals: dict = field(default_factory=dict)
    epsilon_max: float | None = None
    epsilon_bound: float | None = None
    easy: dict = field(default_factory=dict)
    delta_trace: tuple = ()

    CSV_FIELDS = (
        "trial", "seed", "ok", "operator_norm", "tloc", "ratio", "delta",
        "packing", "carleson",
        *RESIDUAL_FIELDS,
        "measure_comparison_excess", "epsilon_max", "epsilon_bound",
        "easy1", "easy1_bound", "easy2", "easy2_bound",
    )

    def csv_row(self) -> list:
        """``CSV_FIELDS`` read from the fields, the residuals and the easy
        terms: the three integers as they are, each other value as its float
        repr, and a missing one or None as an empty cell."""
        def num(x):
            return "" if x is None else repr(float(x))

        values = {**vars(self), **self.residuals, **self.easy}
        return [self.trial, self.seed, int(self.ok), *(num(values.get(k)) for k in self.CSV_FIELDS[3:])]

    def to_json_dict(self) -> dict:
        return asdict(self)


def trial_seed(master_seed: int, trial: int) -> int:
    """The documented derivation of per-trial seeds from the master seed."""
    return _seed_int(np.random.SeedSequence(master_seed, spawn_key=(trial,)))


def _run_trial(config: ExperimentConfig, trial: int) -> VerifierReport:
    """One trial: its instance, its norm, then the rest of its report.

    The norm needs only the kernel, so a trial that ``_helper_for`` sends to
    the helper hands it the instance's config and seed first, builds the instance
    and runs the battery meanwhile, and reads the norm last.  Failures keep
    the in-process order: the instance's comes first, then the norm's, then
    the battery's."""
    seed = trial_seed(config.seed, trial)
    helper = _helper_for(GridSpec(config.dim, config.depth))
    if helper is None:
        inst = build_instance(config, seed)
        norm = operator_norm(inst.kernel)
        return _trial_report(trial, inst, norm, _after_norm(inst))
    helper.submit((config, seed))
    inst = None
    try:
        inst = build_instance(config, seed)
        rest = _after_norm(inst)
    except Exception:
        failure = helper.reply()[1]  # read before raising, so the next trial reads its own
        if inst is not None and failure is not None:
            raise failure from None
        raise
    except BaseException:  # an interrupt does not wait for the norm
        helper.stop(kill=True)
        raise
    norm, failure = helper.reply()
    if failure is not None:
        raise failure
    return _trial_report(trial, inst, norm, rest)


def _after_norm(inst: Instance) -> dict | None:
    """The report fields a trial measures after its norm; None after a failed
    delta search, which ends the trial."""
    if not inst.ok:
        return None
    forest = inst.forest
    packing = max(inst.dsearch.trace[-1][1:])  # the search measured this forest last
    carleson = max(forest_carleson(forest, 1), forest_carleson(forest, 2))
    residuals = run_identity_checks(inst)
    eps_max, eps_bound = residuals.pop("epsilon_max"), residuals.pop("epsilon_bound")
    # the rank-one pairings were made by the expansion check: no bilinear call here
    easy = easy_terms_check(inst.pairings)
    return {"delta": inst.dsearch.delta, "packing": packing, "carleson": carleson,
            "residuals": residuals, "epsilon_max": eps_max, "epsilon_bound": eps_bound,
            "easy": easy}


def _trial_report(trial: int, inst: Instance, norm: float, rest: dict | None) -> VerifierReport:
    return VerifierReport(trial, inst.seed, rest is not None, norm, inst.tloc, norm / (1.0 + inst.tloc),
                          delta_trace=inst.dsearch.trace, **(rest or {}))


def main_theorem_experiment(config: ExperimentConfig) -> list[VerifierReport]:
    """Run the seeded trials in trial-index order."""
    return [_run_trial(config, t) for t in range(config.trials)]


# -- the norm helper ------------------------------------------------------------------


class _NormHelper:
    """A second interpreter that computes trial norms while the trials go on.

    One per process, started by the first trial that can use it and kept
    until this process exits.  It is a fresh ``sys.executable`` (a fork after
    BLAS has started can deadlock, and ``multiprocessing``'s spawn imports
    the caller's ``__main__``) that imports dytb from this package's
    directory and inherits the environment, in a session of its own, so a
    terminal's interrupt reaches only this process.  It sends one reply once
    imported, then answers each request ``(config, seed)`` with ``(norm,
    None)`` or ``(None, exception)``, pickled on its stdout: it measures
    ``_instance_kernel(config, seed)``, the trial's own kernel, so ``norm`` is
    the float ``operator_norm`` gives here.  It exits at EOF of its stdin,
    when ``stop`` closes it or this process dies.
    """

    def __init__(self) -> None:
        self.proc = None  # the helper's Popen
        self.owner = 0  # the pid that started proc; a forked child starts its own
        self.ready = False

    def poll(self) -> bool:
        """Start the helper if this process has none; True once it has sent its
        first reply.  The helper's modules are imported here, so a process
        that never starts one does not load them."""
        import select
        import subprocess

        if self.proc is None or self.owner != os.getpid():
            self.proc = subprocess.Popen(_helper_argv(), stdin=subprocess.PIPE,
                                         stdout=subprocess.PIPE, start_new_session=True)
            self.owner, self.ready = os.getpid(), False
        if not self.ready and select.select([self.proc.stdout], [], [], 0)[0]:
            self.reply()
            self.ready = True
        return self.ready

    def submit(self, request: tuple) -> None:
        try:
            self.proc.stdin.write(pickle.dumps(request))
            self.proc.stdin.flush()
        except BrokenPipeError:
            self._died()

    def reply(self) -> tuple:
        """The next reply.  A dead helper raises RuntimeError; an interrupt
        while waiting stops the helper, whose replies would be out of step."""
        try:
            return pickle.load(self.proc.stdout)
        except EOFError:
            self._died()
        except BaseException:
            self.stop(kill=True)
            raise

    def _died(self) -> NoReturn:
        proc = self.proc
        self.stop()
        raise RuntimeError(f"the norm helper exited with code {proc.returncode}") from None

    def stop(self, kill: bool = False) -> None:
        """Close the helper's stdin and wait for it to exit; kill it first
        when asked to, or while it is still starting, so that no run waits
        for its imports.  The next ``poll`` starts a new one."""
        proc, ready, self.proc, self.ready = self.proc, self.ready, None, False
        if proc is None or self.owner != os.getpid():
            return
        import subprocess

        if kill or not ready:
            proc.kill()
        try:
            proc.stdin.close()
        except BrokenPipeError:  # the request a dead helper did not read
            pass
        try:
            proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


_HELPER = _NormHelper()
atexit.register(_HELPER.stop)


def _helper_for(spec: GridSpec) -> _NormHelper | None:
    """The helper, when it takes the norm of a trial on ``spec``: the norm is a
    Lanczos run, a second CPU is free for it and the helper has reported
    ready (the first such trial starts it).  None runs the norm here."""
    if spec.n_cells <= AUTO_DENSE_CELLS or not _spare_cpu():
        return None
    return _HELPER if _HELPER.poll() else None


def _spare_cpu() -> bool:
    """More than one CPU is usable (on systems that report affinity), and this
    is the main thread, the one that owns the helper's pipes."""
    affinity = getattr(os, "sched_getaffinity", None)
    return (affinity is not None and len(affinity(0)) > 1
            and threading.current_thread() is threading.main_thread())


def _helper_argv() -> list[str]:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return [sys.executable, "-c", f"import sys; sys.path.insert(0, {root!r}); "
            "from dytb.verify import _serve_norms; _serve_norms()"]


def _serve_norms() -> None:
    """The helper's loop (see ``_NormHelper``).  A write to a parent that has
    died ends the helper quietly, as SIGPIPE does any filter."""
    import signal

    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    requests, replies = sys.stdin.buffer, sys.stdout.buffer
    reply = (None, None)
    while True:
        replies.write(pickle.dumps(reply))
        replies.flush()
        try:
            config, seed = pickle.load(requests)
        except EOFError:
            return
        try:
            reply = (operator_norm(_instance_kernel(config, seed)), None)
        except Exception as e:
            reply = (None, e)
