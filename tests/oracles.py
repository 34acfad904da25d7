"""Measurements and per-cube forms that only the tests read.

No trial, CLI command or demo calls these, so they live beside the tests
instead of in ``dytb``: the splitting operators behind terms (ii) and (iii)
of the three-term splitting and their L^1 sizes on indicators, the classical
martingale transform, the box differences and their square function, the
diagonal lemma's pairings, the block invariants of a whole forest, the
packing ratio of a bare stopping set and the closed form of the haar-shift
kernel's testing constant.  Each reads the package's level engine
and gives the floats the package once gave; the frozen box and diagonal
constants come from here (``make_fixtures.py``).  References for product
paths that replaced them are kept here too: the level-by-level kernel plan
builder, for the whole-plan build, the kernel sweep over the whole cube-sum
tree, for the one that sums only the levels it reads, the cube-by-cube
adversarial transform search, for the level-by-level one, and the member
cubes' forms of a stopping family (``nearest_marked``, ``stopping_children``),
for the owner pass of ``block_context``.  Per-cube
coefficients are plain ``{cube: eps}`` dicts (a missing cube counts as 0);
``level_coefficients`` turns them into the product's per-level arrays.
"""

import itertools
import math
from collections import Counter
from typing import NamedTuple

import numpy as np

from dytb.corona import _subtree_mask
from dytb.grid import GridFunction, coarsen_step, cube_sum_vector, spread
from dytb.kernels import PerfectKernel, _child_flats, _Plan, _pair_radius, bilinear, size_bound
from dytb.twisted import corona_levels
from dytb.verify import _check_families


def on_cube(spec, cube, cells) -> np.ndarray:
    """The cell array ``cells`` on ``cube`` and zero elsewhere: one cube's
    slice of a level array, such as Delta_Q h out of ``levels.deltas[l]``."""
    out = np.zeros(spec.n_cells)
    idx = spec.cell_indices(cube)
    out[idx] = cells[idx]
    return out


def corona_parent(forest, j, cube):
    """pi_j(cube), the smallest member of S_j containing ``cube``, read from
    the owner arrays."""
    return cube.ancestor(int(forest.owner_levels(j)[cube.level][forest.spec.cube_flat(cube)]))


def nearest_marked(spec, top, cubes) -> list:
    """Per level from ``top`` down (None above), for every cube (row-major),
    the level of its smallest ancestor-or-self among ``cubes``, -1 if none:
    each of ``cubes``, coarse to fine, stamps its level on every cube inside
    it.  The owner arrays of a terminal family ``cubes`` = (s0, *terminals)."""
    out = [None] * top + [np.full(spec.n_cubes(level), -1) for level in range(top, spec.depth + 1)]
    for cube in sorted(cubes):
        for level in range(cube.level, spec.depth + 1):
            out[level][_subtree_mask(spec.dim, cube, level)] = cube.level
    return out


def is_member(forest, j, cube) -> bool:
    """Whether ``cube`` is a member of S_j: a cube inside q0 that owns itself."""
    owners = forest.owner_levels(j)
    return forest.q0.contains(cube) and owners[cube.level][forest.spec.cube_flat(cube)] == cube.level


def stopping_children(forest, j, member) -> tuple:
    """The stopping children of ``member`` in S_j, sorted: the members met
    first on the walks down from its children, which go on only through
    cubes that are no members."""
    kids, below = [], [member]
    while below:
        cube = below.pop()
        if cube != member and is_member(forest, j, cube):
            kids.append(cube)
        elif cube.level < forest.spec.depth:
            below.extend(cube.children())
    return tuple(sorted(kids))


# -- the twisted context ------------------------------------------------------------


def level_coefficients(ctx, eps) -> dict:
    """``{cube: eps}`` as one coefficient array per level of the derived
    family (row-major), zero off the family: the argument of ``transform``."""
    spec, masks = ctx.spec, ctx.q_masks()
    coeffs = {lev: np.zeros(m.size) for lev, m in masks.items()}
    for q, e in eps.items():
        if q.level in coeffs and q.dim == spec.dim:
            coeffs[q.level][spec.cube_flat(q)] = e
    return {lev: np.where(masks[lev], c, 0.0) for lev, c in coeffs.items()}


def random_signs(cubes, rng) -> dict:
    """A random sign per cube, drawn as one ``rng.choice([-1.0, 1.0])``: with
    ``cubes = ctx.q_cubes()``, the draw of ``ctx.random_coefficients``."""
    cubes = list(cubes)
    return dict(zip(cubes, rng.choice([-1.0, 1.0], size=len(cubes))))


def classical_transform(eps, f, cubes):
    """sum_Q eps_Q sum_{Q' child of Q} (<f>_Q' - <f>_Q) 1_Q'."""
    spec = f.spec
    out = np.zeros(spec.n_cells)
    for q in cubes:
        e = eps.get(q, 0.0)
        if e == 0.0 or q.level >= spec.depth:
            continue
        base = f.average(q)
        for child in q.children():
            out[spec.cell_indices(child)] += e * (f.average(child) - base)
    return GridFunction(spec, out)


def _context_rule(ctx, eps, f, rule):
    return GridFunction(ctx.spec, ctx.levels(f).child_rule(level_coefficients(ctx, eps), rule))


def pi_transform(ctx, eps, f):
    """The operator behind splitting term (ii): per cube and non-terminal child,
    eps_Q (<b>_Q' - <b>_Q) <f>_Q' 1_Q', summed over the derived family."""
    return _context_rule(ctx, eps, f, lambda e, fc, bc, fq, bq: e * (bc - bq) * fc)


def amalgam_transform(ctx, eps, f):
    """The operator behind splitting term (iii): squared b-increments,
    eps_Q (<b>_Q' - <b>_Q)^2 <f>_Q' / (<b>_Q' <b>_Q^2) 1_Q'."""
    return _context_rule(
        ctx, eps, f, lambda e, fc, bc, fq, bq: e * (bc - bq) ** 2 * fc / (bc * bq**2))


def proof_operators(ctx, eps, test_cube):
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


class PerCubeSearch(NamedTuple):
    """The best restart of ``per_cube_transform_search``, signs per cube."""

    ratio: float
    eps: dict
    f: GridFunction
    restarts: int


def per_cube_transform_search(ctx, p, n_restarts=8, max_passes=50, seed=0, functions=None):
    """``verify.adversarial_transform_search`` one derived cube at a time: each
    pass visits the cubes coarse to fine and row-major, and flips a cube's
    sign when that raises the p-th power of the transform's norm on its cells."""
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
        cur = levels.transform(level_coefficients(ctx, dict(zip(cubes, eps))))
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
            best = PerCubeSearch(ratio, dict(zip(cubes, eps.tolist())), f, r + 1)
    return best


# -- the corona calculus ------------------------------------------------------------


def box(levels, level):
    """The box difference of every cube Q of ``level`` as one cell array:
    |half-twisted difference of h at Q, within its corona block| plus the
    indicator of Q when one of its children is a stopping cube (the
    indicator stands in for the skipped terminal children)."""
    spec, stopped = levels.spec, levels.owners[level + 1] == level + 1
    diff = np.where(stopped, 0.0, np.abs(levels.half_twisted[level]))
    parents = coarsen_step(spec.dim, stopped) > 0
    return spread(spec, level + 1, diff + spread(spec, level, parents, level + 1))


def box_square_function_check(forest, j, f, q) -> float:
    """|| (sum over cubes of box-difference^2)^(1/2) ||_q / |Q0|^(1/q)."""
    levels = corona_levels(forest, j, f)
    sq = np.zeros(forest.spec.n_cells)
    for level in levels.deltas:
        sq += box(levels, level) ** 2
    return GridFunction(forest.spec, np.sqrt(sq)).lp_norm(q) / forest.q0.volume ** (1.0 / q)


def diagonal_lemma_check(forest, cube) -> float:
    """max over ordered child pairs (Q1, Q2) and the four test-function choices
    of |<T(b1 1_Q1), b2 1_Q2>| / ((1 + Tloc) |Q|), with the forest's kernel,
    systems and Tloc."""
    if cube.level >= forest.spec.depth:
        raise ValueError("diagonal check needs a cube with children")
    kernel, sys1, sys2, tloc = forest.kernel, forest.sys1, forest.sys2, forest.tloc
    b1_choices = lambda q1: (sys1.get_b(corona_parent(forest, 1, cube)), sys1.get_b(q1))
    b2_choices = lambda q2: (sys2.get_b(corona_parent(forest, 2, cube)), sys2.get_b(q2))
    best = 0.0
    for q1 in cube.children():
        for q2 in cube.children():
            for b1 in b1_choices(q1):
                for b2 in b2_choices(q2):
                    val = abs(bilinear(kernel, b1.restrict(q1), b2.restrict(q2)))
                    best = max(best, val / ((1.0 + tloc) * cube.volume))
    return best


def check_forest_blocks(forest) -> int:
    """The block invariants of every corona block of both families (the
    check ``run_identity_checks`` makes first); returns the number of blocks
    and raises RuntimeError at a violation."""
    return _check_families(forest, corona_levels(forest, 1, None), corona_levels(forest, 2, None))


def haar_shift_tloc(dim, depth, q) -> float:
    """The testing constant of the haar-shift kernel against a constant
    system (b_Q = 1_Q) at exponent q, in closed form.

    At a point x of Q, T 1_Q(x) sums one value per cube R with x in R inside
    Q and R above the finest level: with i the child of R holding x, the
    entries kappa_{R,i,j} = sign(j - i) (2^-(l+1) r_ij)^-dim against
    |R_j| = 2^-dim(l+1) give v_i = sum_{j != i} sign(j - i) r_ij^-dim, where
    r_ij is the child pair's radius (``kernels._pair_radius``): +-1/2 in 1D,
    +-0.525 or +-0.125 in 2D.  A cube R above Q adds nothing, since R_j misses
    Q.  Over the cells of Q the children i are independent and uniform, so
    |Q|^-1 int_Q |T b_Q|^q is the q-th moment of a sum of (depth - level)
    independent values, each uniform on the v_i.  Their mean is zero, so the
    moment grows with the number of terms (Jensen) and the root's, a sum of
    ``depth`` values, is the largest.  The adjoint's entries are the
    negatives, with the same moments.  The moment is summed exactly over the
    multisets of children, each with its multinomial weight."""
    n = 2**dim
    values = [sum(math.copysign(_pair_radius(i, j, dim) ** -dim, j - i) for j in range(n) if j != i)
              for i in range(n)]
    moment = 0.0
    for children in itertools.combinations_with_replacement(range(n), depth):
        ways = math.factorial(depth)
        for count in Counter(children).values():
            ways //= math.factorial(count)
        moment += ways / n**depth * abs(sum(values[i] for i in children)) ** q
    return moment ** (1.0 / q)


def set_packing_ratio(members, top) -> float:
    """Packing ratio of a bare stopping set (children derived by tree walks)."""
    memberset = set(members)
    mass = {m: 0.0 for m in memberset}
    for m in memberset:
        if m == top:
            continue
        cur = m.parent()
        while cur not in memberset:
            cur = cur.parent()
        mass[cur] += m.volume
    return max((v / s.volume for s, v in mass.items()), default=0.0)


# -- the kernel plan, level by level ----------------------------------------------------


def whole_tree_sweep(kernel, values, start) -> np.ndarray:
    """``kernels._sweep_from`` reading the cube sums from the whole tree
    (``cube_sum_vector``), built even from the finest level on."""
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
    return cur if start + 2 <= spec.depth else cur.copy()


def per_level_kernel(spec, entries) -> PerfectKernel:
    """``PerfectKernel(spec, entries)`` built level by level: the dict split
    into sorted per-level arrays, each level validated and placed on its own."""
    keys = np.array(list(entries), dtype=np.int64).reshape(-1, 4)
    vals = np.array(list(entries.values()), dtype=float)
    order = np.lexsort(keys.T[::-1])  # by level, then flat, i, j
    keys, vals = keys[order], vals[order]
    cuts = np.flatnonzero(np.diff(keys[:, 0])) + 1
    return _per_level_build(spec, {int(k[0, 0]): (k[:, 1], k[:, 2], k[:, 3], v)
                                   for k, v in zip(np.split(keys, cuts), np.split(vals, cuts))
                                   if len(v)})


def per_level_generate_kernel(kind, spec, seed=0, scale=1.0) -> PerfectKernel:
    """``generate_kernel`` built level by level: one (pairs x cubes) block per
    level, the random kind drawn as ``rng.uniform(-1, 1, (pairs, cubes))``
    per level in level order, bounds from ``size_bound``."""
    if kind == "zero":
        return per_level_kernel(spec, {})
    nch = 2**spec.dim
    pi, pj = np.array([(i, j) for i in range(nch) for j in range(nch) if i != j]).T
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    levels = {}
    for level in range(spec.depth):
        ncubes = spec.n_cubes(level)
        bounds = np.array([size_bound(level, i, j, spec.dim) for i, j in zip(pi.tolist(), pj.tolist())])
        if kind == "haar-shift":
            block = np.repeat(np.where(pi < pj, bounds, -bounds)[:, None], ncubes, axis=1)
        else:
            block = (scale * bounds)[:, None] * rng.uniform(-1.0, 1.0, (len(pi), ncubes))
        levels[level] = (np.repeat(np.arange(ncubes), len(pi)), np.tile(pi, ncubes),
                         np.tile(pj, ncubes), block.T.ravel())
    return _per_level_build(spec, levels)


def _per_level_build(spec, levels) -> PerfectKernel:
    """A kernel from non-empty per-level ``(flats, ii, jj, vals)``, each sorted
    by (flat, i, j), validated level by level in level order."""
    counts = [0] * (spec.depth + 1)
    empty = np.zeros(0, dtype=np.int64)
    parts = [(empty, empty, empty, np.zeros(0), empty, empty)]
    for level, (flats, ii, jj, vals) in sorted(levels.items()):
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
        parts.append((flats, ii, jj, vals, off + _child_flats(spec, level, flats, jj),
                      off + _child_flats(spec, level, flats, ii)))
        counts[level + 1] = len(vals)
    flats, ii, jj, vals, src, dst = map(np.concatenate, zip(*parts))
    return PerfectKernel._from(_Plan(spec, itertools.accumulate(counts), flats, ii, jj, src, dst), vals)
