"""Measurements and per-cube forms that only the tests read.

No trial, CLI command or demo calls these, so they live beside the tests
instead of in ``dytb``: the splitting operators behind terms (ii) and (iii)
of the three-term splitting and their L^1 sizes on indicators, the classical
martingale transform, the box differences and their square function, the
diagonal lemma's pairings, the block invariants of a whole forest and the
packing ratio of a bare stopping set.  Each reads the package's level engine
and gives the floats the package once gave; the frozen box and diagonal
constants come from here (``make_fixtures.py``).
"""

import numpy as np

from dytb.grid import GridFunction, coarsen_step, spread
from dytb.kernels import bilinear
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


# -- the twisted context ------------------------------------------------------------


def classical_transform(eps, f, cubes):
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


def _context_rule(ctx, eps, f, rule):
    return GridFunction(ctx.spec, ctx.levels(f).child_rule(ctx.coefficients(eps), rule))


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


def box_square_function_check(forest, j, system, f, q) -> float:
    """|| (sum over cubes of box-difference^2)^(1/2) ||_q / |Q0|^(1/q)."""
    levels = corona_levels(forest, j, system, f)
    sq = np.zeros(forest.spec.n_cells)
    for level in levels.deltas:
        sq += box(levels, level) ** 2
    return GridFunction(forest.spec, np.sqrt(sq)).lp_norm(q) / forest.q0.volume ** (1.0 / q)


def diagonal_lemma_check(kernel, forest, sys1, sys2, cube, tloc) -> float:
    """max over ordered child pairs (Q1, Q2) and the four test-function choices
    of |<T(b1 1_Q1), b2 1_Q2>| / ((1 + Tloc) |Q|)."""
    if cube.level >= forest.spec.depth:
        raise ValueError("diagonal check needs a cube with children")
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


def check_forest_blocks(forest, sys1, sys2) -> int:
    """The block invariants of every corona block of both families (the
    check ``run_identity_checks`` makes first); returns the number of blocks
    and raises RuntimeError at a violation."""
    return _check_families(forest, corona_levels(forest, 1, sys1, None),
                           corona_levels(forest, 2, sys2, None))


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
