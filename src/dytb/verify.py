"""Norm estimation, testing constants, and the full decomposition battery.

This module measures the quantities the whole construction is about: the
operator norm on L^2, the local testing constant

    Tloc = max over cubes Q of ( |Q|^-1 int_Q |T b_Q|^q )^(1/q)

(and its adjoint twin), and the exact decomposition identities that reduce
the pairing <Tf, g> for sign functions f, g to corona blocks.  The experiment
runner generates seeded random instances, chooses delta, builds the corona,
and reports the ratio operator_norm / (1 + Tloc) together with every residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .accretive import AccretiveSystem
from .corona import (
    CoronaForest,
    DeltaSearch,
    TbConfig,
    _subtree_mask,
    carleson_constant,
    choose_delta,
    conjugate,
    packing_ratio,
)
from .grid import DyadicCube, GridFunction, GridSpec, cube_blocks, spread
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
    SignChoice,
    TwistedContext,
    _check_blocks,
    corona_levels,
    decomposition_identity_check,
    delta_decomp_check,
    make_context,
    measure_comparison_check,
    transform,
)

__all__ = [
    "PowerResult",
    "power_norm",
    "operator_norm",
    "testing_constant",
    "easy_terms_check",
    "bilinear_expansion_check",
    "FormSplit",
    "form_split",
    "PerSResult",
    "b_above_per_s_check",
    "b_above_aggregation",
    "epsilon_coefficient",
    "diagonal_lemma_check",
    "box_square_function_check",
    "SearchResult",
    "adversarial_transform_search",
    "Instance",
    "build_instance",
    "run_identity_checks",
    "identity_suite",
    "check_forest_blocks",
    "ExperimentConfig",
    "VerifierReport",
    "main_theorem_experiment",
]

DENSE_CAP = 4096


# -- operator norm ----------------------------------------------------------------


@dataclass(frozen=True)
class PowerResult:
    value: float
    converged: bool
    iterations: int
    achieved_tol: float


def power_norm(
    kernel: PerfectKernel, tol: float = 1e-8, max_iter: int = 10_000, seed: int = 0
) -> PowerResult:
    """L^2 operator norm by power iteration on T*T via the fast apply.

    Non-convergence is reported in the result, not raised; the value is then
    the last iterate with its achieved tolerance.
    """
    spec = kernel.spec
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(spec.n_cells)
    x /= np.linalg.norm(x)
    adj = adjoint(kernel)
    prev = np.inf
    sigma = 0.0
    rel = np.inf
    for it in range(1, max_iter + 1):
        y = apply_values(kernel, x)
        sigma = float(np.linalg.norm(y))
        if sigma == 0.0:
            return PowerResult(0.0, True, it, 0.0)
        rel = abs(sigma - prev) / sigma
        if rel <= tol:
            return PowerResult(sigma, True, it, rel)
        prev = sigma
        z = apply_values(adj, y)
        zn = np.linalg.norm(z)
        if zn == 0.0:
            return PowerResult(sigma, True, it, 0.0)
        x = z / zn
    return PowerResult(sigma, False, max_iter, rel)


def operator_norm(kernel: PerfectKernel, method: str = "dense-svd", **kwargs) -> float:
    """The L^2 -> L^2 norm (cell-basis spectral norm); an unconverged power iteration raises."""
    if method == "dense-svd":
        if kernel.spec.n_cells > DENSE_CAP:
            raise ValueError(f"dense-svd only allowed up to {DENSE_CAP} cells")
        m = dense_matrix(kernel, max_cells=DENSE_CAP)
        return float(np.linalg.svd(m, compute_uv=False)[0]) if m.size else 0.0
    if method == "power":
        res = power_norm(kernel, **kwargs)
        if not res.converged:
            raise RuntimeError(f"power iteration did not converge in {res.iterations} iterations "
                               f"(achieved tolerance {res.achieved_tol:.3g})")
        return res.value
    raise ValueError(f"unknown method {method!r}")


# -- testing constants -------------------------------------------------------------


def testing_constant(
    kernel: PerfectKernel, system: AccretiveSystem, q: float, side: str = "direct"
) -> float:
    """max over all cubes Q of (|Q|^-1 int_Q |T b_Q|^q)^(1/q); side "adjoint"
    tests T* instead.

    One apply per level: on each cube Q of a level, T of that level's tiled
    b-array equals T b_Q once the entries above the level are dropped (see
    ``kernels._sweep_from``).  Taking the max before the root is exact, since
    the power is monotone.
    """
    if not q > 1.0:
        raise ValueError(f"exponent must exceed 1, got {q}")
    if side not in ("direct", "adjoint"):
        raise ValueError(f"side must be 'direct' or 'adjoint', got {side!r}")
    op = kernel if side == "direct" else adjoint(kernel)
    spec = kernel.spec
    best = 0.0
    for level in range(spec.depth + 1):
        tb = _sweep_from(op, system.level_values(level), level)
        mean_pow = np.mean(np.abs(cube_blocks(spec, level, tb)) ** q, axis=1)
        best = max(best, float(mean_pow.max()))
    return best ** (1.0 / q)


# -- expansion of the pairing ------------------------------------------------------


def _both_levels(forest, sys1, sys2, f, g, levels=None):
    """The per-level corona calculus of f against S_1 and of g against S_2."""
    return levels or (corona_levels(forest, 1, sys1, f), corona_levels(forest, 2, sys2, g))


def easy_terms_check(kernel, forest, sys1, sys2, f, g, tloc, _levels=None) -> dict:
    """The two rank-one pieces of the expansion with their testing bounds:
    |<T E f, g>| <= Tloc |Q0| and |<T sum-of-differences f, E g>| <= A Tloc |Q0|."""
    spec, q0 = forest.spec, forest.q0
    lf, lg = _both_levels(forest, sys1, sys2, f, g, _levels)
    e1f = GridFunction(spec, lf.expectations[q0.level])
    e2g = GridFunction(spec, lg.expectations[q0.level])
    return {
        "easy1": abs(bilinear(kernel, e1f, g)),
        "easy1_bound": tloc * q0.volume,
        "easy2": abs(bilinear(kernel, GridFunction(spec, lf.delta_sum), e2g)),
        "easy2_bound": forest.config.A * tloc * q0.volume,
    }


def bilinear_expansion_check(
    kernel, forest, sys1, sys2, f, g, _levels=None
) -> tuple[float, dict]:
    """Residual of <Tf, g> = <T E f, g> + <T (sum D f), E g> + sum_{P,Q} <T D_P f, D_Q g>
    with every piece computed independently; relative to 1 + |<Tf, g>|."""
    spec, top = forest.spec, forest.q0.level
    lf, lg = _both_levels(forest, sys1, sys2, f, g, _levels)
    total = bilinear(kernel, f, g)
    term1 = bilinear(kernel, GridFunction(spec, lf.expectations[top]), g)
    term2 = bilinear(kernel, GridFunction(spec, lf.delta_sum),
                     GridFunction(spec, lg.expectations[top]))
    gb = [GridFunction(spec, gv) for gv in lg.deltas.values()]
    term3 = 0.0
    for fv in lf.deltas.values():
        ff = GridFunction(spec, fv)
        for gg in gb:
            term3 += bilinear(kernel, ff, gg)
    residual = abs(total - term1 - term2 - term3) / (1.0 + abs(total))
    return residual, {"total": total, "term1": term1, "term2": term2, "term3": term3}


@dataclass(frozen=True)
class FormSplit:
    b_above: float
    b_equal: float
    b_below: float
    total: float
    residual: float


def form_split(kernel, forest, sys1, sys2, f, g, _levels=None) -> FormSplit:
    """Split sum_{P,Q} <T D_P f, D_Q g> by the side lengths of P and Q.

    Cubes P strictly bigger than Q form the nested "above" part (non-nested
    different-level pairs vanish by the cancellation of the perfect kernel);
    the "below" part is evaluated through the adjoint, and the equal-level
    part contains the diagonal.  The residual compares the three parts with
    an independently computed total.
    """
    spec = forest.spec
    lf, lg = _both_levels(forest, sys1, sys2, f, g, _levels)
    adj = adjoint(kernel)
    gb = {b: GridFunction(spec, gv) for b, gv in lg.deltas.items()}
    above = equal = below = 0.0
    for a, fv in lf.deltas.items():
        ff = GridFunction(spec, fv)
        for b, gg in gb.items():
            if a < b:
                above += bilinear(kernel, ff, gg)
            elif a == b:
                equal += bilinear(kernel, ff, gg)
            else:
                below += bilinear(adj, gg, ff)
    total = bilinear(kernel, GridFunction(spec, lf.delta_sum), GridFunction(spec, lg.delta_sum))
    residual = abs(above + equal + below - total) / (1.0 + abs(total))
    return FormSplit(above, equal, below, total, residual)


# -- the nested form, block by block ----------------------------------------------


@dataclass(frozen=True)
class PerSResult:
    member: DyadicCube
    value: float  # signed block contribution
    bound: float  # Tloc * |S|
    pullout_residual: float  # worst relative mismatch of the constant pull-out


def b_above_per_s_check(
    kernel, forest, sys1, sys2, f, g, member, tloc, _levels=None
) -> PerSResult:
    """One corona block's share of the nested form:

        1_{S != Q0} <f>_S sum_{Q in S} <T b_S, D_Q g>
        + sum_{P: parent(P) = S} sum_{Q strictly in P} <T (b_S w_P), D_Q g>

    with w_P the per-cube block difference (constant on P's children).  Each
    inner pairing is also recomputed in pulled-out form
    <w_P>_{child of P over Q} * <T b_S, D_Q g> and the worst relative
    mismatch reported.
    """
    spec = forest.spec
    lf, lg = _both_levels(forest, sys1, sys2, f, g, _levels)
    g_blocks = {b: cube_blocks(spec, b, lg.deltas[b]) for b in range(member.level, spec.depth)}

    def pairings(u):
        """<u, D_Q g> for every cube Q of each level, one row-wise dot per level."""
        return {b: np.sum(cube_blocks(spec, b, u) * gv, axis=1) * spec.cell_volume
                for b, gv in g_blocks.items()}

    bs = sys1.get_b(member).values
    tbs = pairings(apply_values(kernel, bs))
    # first piece: telescoped pairing against the block function itself
    value = 0.0
    if member != forest.q0:
        acc = sum(float(v[_subtree_mask(spec.dim, member, b)].sum()) for b, v in tbs.items())
        value += f.average(member) * acc
    # second piece: per-cube differences inside the block
    pull_res = 0.0
    for p in forest.block_cubes(1, member):
        if p.level >= spec.depth:
            continue
        half = lf.half_twisted[p.level]
        w = spread(spec, p.level + 1, half) * spread(spec, p.level, _subtree_mask(spec.dim, p, p.level))
        u = pairings(apply_values(kernel, bs * w))
        for b in range(p.level + 1, spec.depth):
            inside = _subtree_mask(spec.dim, p, b)
            direct = u[b][inside]
            pulled = spread(spec, p.level + 1, half, b)[inside] * tbs[b][inside]
            mismatch = np.abs(direct - pulled) / (1.0 + np.abs(direct))
            pull_res = max(pull_res, float(mismatch.max()))
            value += float(direct.sum())
    return PerSResult(member, value, tloc * member.volume, pull_res)


def b_above_aggregation(kernel, forest, sys1, sys2, f, g, tloc, _levels=None):
    """Sum the per-block contributions over all of S_1 and compare with the
    directly computed nested form sum_{P strictly above Q} <T D_P f, D_Q g>.

    Pairs of cubes on different levels that are not nested contribute zero
    (perfect cancellation), so the reference is sum_{a < b} <T D_a f, D_b g>
    over the level differences.  Returns (per-block results, reference value,
    relative residual)."""
    levels = lf, lg = _both_levels(forest, sys1, sys2, f, g, _levels)
    reference = 0.0
    for a, fv in lf.deltas.items():
        u = apply_values(kernel, fv)
        reference += sum(float(u @ gv) * forest.spec.cell_volume
                         for b, gv in lg.deltas.items() if a < b)
    results = [
        b_above_per_s_check(kernel, forest, sys1, sys2, f, g, s, tloc, _levels=levels)
        for s in sorted(forest.members(1))
    ]
    total = sum(r.value for r in results)
    residual = abs(total - reference) / (1.0 + abs(reference))
    return results, reference, residual


def epsilon_coefficient(forest, sys1, f, member, cube) -> float:
    """The telescoped coefficient attached to a cube strictly inside a block:
    the sum over ancestors P of the cube with corona parent ``member`` of the
    block difference's constant value on the child of P towards the cube."""
    if not member.contains(cube) or member == cube:
        raise ValueError(f"{cube} is not strictly inside {member}")
    spec, owners = forest.spec, forest.owner_levels(1)
    half = corona_levels(forest, 1, sys1, f).half_twisted
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


def diagonal_lemma_check(kernel, forest, sys1, sys2, cube, tloc) -> float:
    """max over ordered child pairs (Q1, Q2) and the four test-function choices
    of |<T(b1 1_Q1), b2 1_Q2>| / ((1 + Tloc) |Q|)."""
    if cube.level >= forest.spec.depth:
        raise ValueError("diagonal check needs a cube with children")
    b1_choices = lambda q1: (sys1.get_b(forest.pi(1, cube)), sys1.get_b(q1))
    b2_choices = lambda q2: (sys2.get_b(forest.pi(2, cube)), sys2.get_b(q2))
    best = 0.0
    for q1 in cube.children():
        for q2 in cube.children():
            for b1 in b1_choices(q1):
                for b2 in b2_choices(q2):
                    val = abs(bilinear(kernel, b1.restrict(q1), b2.restrict(q2)))
                    best = max(best, val / ((1.0 + tloc) * cube.volume))
    return best


def box_square_function_check(forest, j, system, f, q) -> float:
    """|| (sum over cubes of box-difference^2)^(1/2) ||_q / |Q0|^(1/q)."""
    levels = corona_levels(forest, j, system, f)
    sq = np.zeros(forest.spec.n_cells)
    for level in levels.deltas:
        sq += levels.box(level) ** 2
    return GridFunction(forest.spec, np.sqrt(sq)).lp_norm(q) / forest.q0.volume ** (1.0 / q)


# -- adversarial transform search ---------------------------------------------------


@dataclass(frozen=True)
class SearchResult:
    ratio: float
    eps: SignChoice
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
    with random restarts finds it (deterministically for a fixed seed).  Each
    restart draws a fresh random sign function f on the base cube unless a
    fixed list is supplied.
    """
    spec = ctx.spec
    rng = np.random.default_rng(seed)
    cubes = ctx.q_cubes()
    indices = [spec.cell_indices(q) for q in cubes]
    s0_idx = spec.cell_indices(ctx.s0)
    cv = spec.cell_volume
    best = None
    for r in range(n_restarts):
        if functions is not None:
            f = functions[r % len(functions)]
        else:
            vals = np.zeros(spec.n_cells)
            vals[s0_idx] = rng.choice([-1.0, 1.0], s0_idx.size)
            f = GridFunction(spec, vals)
        fnorm = f.lp_norm(p)
        levels = ctx.levels(f)
        supports = [(idx, levels.deltas[q.level][idx]) for q, idx in zip(cubes, indices)]
        eps = rng.choice([-1.0, 1.0], len(cubes))
        cur = levels.transform(ctx.coefficients(SignChoice(dict(zip(cubes, eps)))))
        for _ in range(max_passes):
            improved = False
            for k, (idx, dv) in enumerate(supports):
                local = cur[idx]
                cand = local - 2.0 * eps[k] * dv
                gain = np.sum(np.abs(cand) ** p) - np.sum(np.abs(local) ** p)
                if gain > 1e-14 * (1.0 + np.sum(np.abs(local) ** p)):
                    cur[idx] = cand
                    eps[k] = -eps[k]
                    improved = True
            if not improved:
                break
        ratio = float(np.sum(np.abs(cur) ** p) * cv) ** (1.0 / p) / fnorm
        if best is None or ratio > best.ratio:
            best = SearchResult(ratio, SignChoice(dict(zip(cubes, eps))), f, r + 1)
    return best


# -- instances and the identity battery ---------------------------------------------


@dataclass
class Instance:
    """One fully built random instance: kernel, systems, testing constant,
    chosen delta, corona forest and a pair of sign functions."""

    spec: GridSpec
    kernel: PerfectKernel
    sys1: AccretiveSystem
    sys2: AccretiveSystem
    cfg: TbConfig
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
    def levels(self) -> tuple[CoronaLevels, CoronaLevels]:
        """The per-level corona calculus of f against S_1 and of g against S_2."""
        return _both_levels(self.forest, self.sys1, self.sys2, self.f, self.g)


def build_instance(
    dim: int,
    depth: int,
    seed: int,
    p1: float = 2.0,
    p2: float = 2.0,
    kernel_kind: str = "random",
    kernel_scale: float = 1.0,
    accretive_kind: str = "random",
    amp: float | None = None,
    A: float | None = None,
    tau_target: float = 0.9,
) -> Instance:
    """Deterministically build an instance from a single seed.

    Sub-streams (kernel, each system, the sign pair, the amplitude draw) are
    derived from the seed with fixed spawn keys, so any trial of any run can
    be reproduced in isolation.
    """
    spec = GridSpec(dim, depth)
    _, k_sys1, k_sys2, k_fg, k_amp = [
        np.random.SeedSequence(seed, spawn_key=(i,)) for i in range(5)
    ]
    kernel = generate_kernel(kernel_kind, spec, seed=seed, scale=kernel_scale)
    params = {}
    if accretive_kind == "random":
        if amp is None:
            amp = float(np.random.default_rng(k_amp).uniform(0.2, 0.8))
        params = {"amp": amp}
        if A is None:
            A = 1.0 + amp
    elif accretive_kind == "two-value":
        params = {"s": amp if amp is not None else 0.5}
    if A is None:
        A = 1.5
    sys1 = AccretiveSystem(spec, accretive_kind, p1, A, seed=_seed_int(k_sys1), params=params)
    sys2 = AccretiveSystem(spec, accretive_kind, p2, A, seed=_seed_int(k_sys2), params=params)
    tloc = max(
        testing_constant(kernel, sys1, conjugate(p2), "direct"),
        testing_constant(kernel, sys2, conjugate(p1), "adjoint"),
    )
    cfg = TbConfig(p1=p1, p2=p2, delta=0.5, A=A, Tloc=tloc, tau_target=tau_target)
    q0 = spec.root()
    dsearch = choose_delta(q0, sys1, sys2, kernel, cfg)
    if dsearch.ok:
        cfg = replace(cfg, delta=dsearch.delta)
    rng = np.random.default_rng(k_fg)
    f = GridFunction(spec, rng.choice([-1.0, 1.0], spec.n_cells))
    g = GridFunction(spec, rng.choice([-1.0, 1.0], spec.n_cells))
    return Instance(spec, kernel, sys1, sys2, cfg, tloc, dsearch, f, g, seed)


def _seed_int(ss: np.random.SeedSequence) -> int:
    return int(ss.generate_state(1, dtype=np.uint64)[0] % (2**63))


def check_forest_blocks(forest, sys1, sys2) -> int:
    """The invariants ``block_context`` validates on every corona block, in
    one pass per family over the stitched level arrays (each cube Q against
    b_pi(Q)); raises ValueError on a violation, returns the number of blocks."""
    cfg = forest.config
    for j, system, p in ((1, sys1, cfg.p1), (2, sys2, cfg.p2)):
        _check_blocks(corona_levels(forest, j, system, None), p, cfg.delta, cfg.A)
    return len(forest.members(1)) + len(forest.members(2))


def run_identity_checks(inst: Instance) -> dict[str, float]:
    """Every exact identity of the construction on one instance, as relative
    residuals, plus the telescoped-coefficient and measure-comparison margins.
    """
    forest = inst.forest
    spec, kernel, sys1, sys2, f, g = inst.spec, inst.kernel, inst.sys1, inst.sys2, inst.f, inst.g
    q0 = forest.q0
    levels = lf, lg = inst.levels
    out: dict[str, float] = {}

    # martingale expansion reconstructs h on the nose
    rec = 0.0
    for lv, h in ((lf, f), (lg, g)):
        total = lv.expectations[q0.level] + lv.delta_sum
        rec = max(rec, float(np.max(np.abs(total - h.values))) / (1.0 + float(np.max(np.abs(h.values)))))
    out["representation"] = rec

    # twisted context checks at the chosen delta
    ctx = make_context(sys1, q0, inst.cfg.delta)
    rng = np.random.default_rng(np.random.SeedSequence(inst.seed, spawn_key=(17,)))
    eps = SignChoice.random_signs(ctx.q_cubes(), rng)
    three = 0.0
    for q in ctx.q_cubes():
        for child in q.children():
            if not ctx.family.is_terminal(child):
                three = max(three, decomposition_identity_check(ctx, q, child, f))
    out["three_term"] = three
    scale = 1.0 + float(np.max(np.abs(transform(ctx, eps, f).values), initial=0.0))
    out["delta_decomp"] = delta_decomp_check(ctx, eps, f) / scale
    out["measure_comparison_excess"] = measure_comparison_check(ctx, eps, f)

    out["bilinear_expansion"], _ = bilinear_expansion_check(
        kernel, forest, sys1, sys2, f, g, _levels=levels)
    out["form_split"] = form_split(kernel, forest, sys1, sys2, f, g, _levels=levels).residual
    per_s, _, agg_res = b_above_aggregation(
        kernel, forest, sys1, sys2, f, g, inst.tloc, _levels=levels)
    out["b_above_aggregation"] = agg_res
    out["pullout"] = max((r.pullout_residual for r in per_s), default=0.0)

    # telescoping of the g-side differences over each block of S_1
    tele = 0.0
    gmax = 1.0 + float(np.max(np.abs(g.values)))
    for s in forest.members(1):
        idx = spec.cell_indices(s)
        total = lg.expectations[s.level][idx] + sum(
            lg.deltas[lev][idx] for lev in range(s.level, spec.depth))
        tele = max(tele, float(np.max(np.abs(total - g.values[idx]))) / gmax)
    out["g_telescoping"] = tele

    # telescoped coefficients against the 2/delta budget
    out["epsilon_max"] = _epsilon_max(lf)
    out["epsilon_bound"] = 2.0 / inst.cfg.delta
    return out


def identity_suite(dim: int, depth: int, seed: int, **kwargs) -> dict[str, float]:
    """Build one instance and run the full identity battery on it."""
    inst = build_instance(dim, depth, seed, **kwargs)
    if not inst.ok:
        raise RuntimeError(f"delta search failed on seed {seed}")
    return run_identity_checks(inst)


# -- the main experiment -------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
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
    norm_method: str = "dense-svd"


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
    """One row of the experiment: norms, ratio, structure and residuals."""

    trial: int
    seed: int
    ok: bool
    operator_norm: float
    tloc: float
    ratio: float
    delta: float | None
    packing: float
    carleson: float
    residuals: dict = field(default_factory=dict)
    epsilon_max: float = 0.0
    epsilon_bound: float = 0.0
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
        def num(x):
            return repr(float(x))

        base = [self.trial, self.seed, int(self.ok), num(self.operator_norm),
                num(self.tloc), num(self.ratio),
                num(self.delta) if self.delta is not None else "",
                num(self.packing), num(self.carleson)]
        for name in RESIDUAL_FIELDS:
            base.append(num(self.residuals[name]) if name in self.residuals else "")
        mce = self.residuals.get("measure_comparison_excess")
        base.append(num(mce) if mce is not None else "")
        base.append(num(self.epsilon_max))
        base.append(num(self.epsilon_bound))
        for name in ("easy1", "easy1_bound", "easy2", "easy2_bound"):
            base.append(num(self.easy[name]) if name in self.easy else "")
        return base

    def to_json_dict(self) -> dict:
        return {
            "trial": self.trial, "seed": self.seed, "ok": self.ok,
            "operator_norm": self.operator_norm, "tloc": self.tloc,
            "ratio": self.ratio, "delta": self.delta, "packing": self.packing,
            "carleson": self.carleson, "residuals": dict(self.residuals),
            "epsilon_max": self.epsilon_max, "epsilon_bound": self.epsilon_bound,
            "easy": dict(self.easy), "delta_trace": [list(t) for t in self.delta_trace],
        }


def trial_seed(master_seed: int, trial: int) -> int:
    """The documented derivation of per-trial seeds from the master seed."""
    return _seed_int(np.random.SeedSequence(master_seed, spawn_key=(trial,)))


def _run_trial(config: ExperimentConfig, trial: int) -> VerifierReport:
    seed = trial_seed(config.seed, trial)
    inst = build_instance(
        config.dim, config.depth, seed,
        p1=config.p1, p2=config.p2,
        kernel_kind=config.kernel_kind, kernel_scale=config.kernel_scale,
        accretive_kind=config.accretive_kind, amp=config.amp, A=config.A,
        tau_target=config.tau_target,
    )
    if config.norm_method == "dense-svd" and inst.spec.n_cells <= DENSE_CAP:
        norm = operator_norm(inst.kernel, "dense-svd")
    else:
        norm = operator_norm(inst.kernel, "power")
    ratio = norm / (1.0 + inst.tloc)
    if not inst.ok:
        return VerifierReport(
            trial, seed, False, norm, inst.tloc, ratio, None,
            float("nan"), float("nan"), delta_trace=inst.dsearch.trace,
        )
    forest = inst.forest
    packing = max(packing_ratio(forest, 1), packing_ratio(forest, 2))
    carleson = max(
        carleson_constant(forest.members(1), forest.q0),
        carleson_constant(forest.members(2), forest.q0),
    )
    check_forest_blocks(forest, inst.sys1, inst.sys2)
    residuals = run_identity_checks(inst)
    eps_max = residuals.pop("epsilon_max")
    eps_bound = residuals.pop("epsilon_bound")
    easy = easy_terms_check(inst.kernel, forest, inst.sys1, inst.sys2, inst.f, inst.g, inst.tloc,
                            _levels=inst.levels)
    return VerifierReport(
        trial, seed, True, norm, inst.tloc, ratio, inst.cfg.delta,
        packing, carleson, residuals, eps_max, eps_bound, easy, inst.dsearch.trace,
    )


def main_theorem_experiment(config: ExperimentConfig) -> list[VerifierReport]:
    """Run the seeded trials in trial-index order."""
    return [_run_trial(config, t) for t in range(config.trials)]
