import re

import numpy as np
import pytest

from dytb.accretive import AccretiveSystem
from dytb.corona import build_corona
from dytb.grid import DyadicCube, GridFunction, GridSpec
from dytb.kernels import generate_kernel
from dytb.twisted import (
    TwistedContext,
    block_context,
    corona_levels,
    decomposition_identity_check,
    delta_decomp_check,
    expand,
    half_transform,
    make_context,
    measure_comparison_check,
    transform,
    twisted_delta,
)
from dytb.verify import ExperimentConfig, build_instance

from conftest import rand_fun, rand_signs
from oracles import (
    box,
    classical_transform,
    is_member,
    level_coefficients,
    nearest_marked,
    on_cube,
    proof_operators,
    random_signs,
    stopping_children,
)
from test_corona import coarsened_context, family_of


def classical_ctx(depth=2, dim=1):
    spec = GridSpec(dim, depth)
    const = AccretiveSystem(spec, "constant", 2.0, 1.5)
    return make_context(const, spec.root(), 0.5)


def terminal_ctx(depth=6, seed=5, s=0.8, delta=0.45):
    spec = GridSpec(1, depth)
    sys_ = AccretiveSystem(spec, "two-value", 2.0, 1.5, seed=seed, params={"s": s})
    return make_context(sys_, spec.root(), delta)


def classical_forest(spec):
    const = AccretiveSystem(spec, "constant", 2.0, 1.5)
    return build_corona(spec.root(), const, const, generate_kernel("zero", spec), 0.5, 0.0)


# -- oracles ----------------------------------------------------------------------


def oracle_twisted(ctx, cube, f):
    spec = ctx.spec
    out = np.zeros(spec.n_cells)
    qidx = spec.cell_indices(cube)
    base = np.mean(f.values[qidx]) / np.mean(ctx.b.values[qidx])
    for child in cube.children():
        idx = spec.cell_indices(child)
        bq = ctx.system.get_b(child) if ctx.is_terminal(child) else ctx.b
        ratio = np.mean(f.values[idx]) / np.mean(bq.values[idx])
        out[idx] = ratio * bq.values[idx] - base * ctx.b.values[idx]
    return out


def oracle_half_twisted(ctx, cube, f):
    spec = ctx.spec
    out = np.zeros(spec.n_cells)
    qidx = spec.cell_indices(cube)
    base = np.mean(f.values[qidx]) / np.mean(ctx.b.values[qidx])
    for child in cube.children():
        if ctx.is_terminal(child):
            continue
        idx = spec.cell_indices(child)
        out[idx] = np.mean(f.values[idx]) / np.mean(ctx.b.values[idx]) - base
    return out


def oracle_corona_delta(forest, j, cube, h):
    spec, system = forest.spec, forest.system(j)
    members = set(forest.members(j))

    def pi(c):
        while c not in members:
            c = c.parent()
        return c

    def expectation(c):
        out = np.zeros(spec.n_cells)
        idx = spec.cell_indices(c)
        b = system.get_b(pi(c))
        out[idx] = np.mean(h.values[idx]) / np.mean(b.values[idx]) * b.values[idx]
        return out

    out = np.zeros(spec.n_cells)
    eq = expectation(cube)
    for child in cube.children():
        idx = spec.cell_indices(child)
        out[idx] = expectation(child)[idx] - eq[idx]
    return out


# The per-cube enumeration bodies of the corona calculus, kept as oracles for
# the per-level implementation in dytb.twisted: pi by walking up to a member,
# every b_S a full-grid get_b copy, every average a GridFunction tree sum, so
# the level arrays must match them bit for bit.


def walk_pi(forest, j, cube):
    while not is_member(forest, j, cube):
        cube = cube.parent()
    return cube


def enumerated_corona_expectation(forest, j, cube, h):
    spec, system = forest.spec, forest.system(j)
    b = system.get_b(walk_pi(forest, j, cube))
    coeff = h.average(cube) / b.average(cube)
    out = np.zeros(spec.n_cells)
    idx = spec.cell_indices(cube)
    out[idx] = coeff * b.values[idx]
    return out


def enumerated_corona_delta(forest, j, cube, h):
    spec, system = forest.spec, forest.system(j)
    out = np.zeros(spec.n_cells)
    if cube.level >= spec.depth:
        return out
    s = walk_pi(forest, j, cube)
    b = system.get_b(s)
    base = h.average(cube) / b.average(cube)
    for child in cube.children():
        idx = spec.cell_indices(child)
        bc = system.get_b(walk_pi(forest, j, child))
        coeff = h.average(child) / bc.average(child)
        out[idx] = coeff * bc.values[idx] - base * b.values[idx]
    return out


def enumerated_box(forest, j, cube, h):
    spec, system = forest.spec, forest.system(j)
    out = np.zeros(spec.n_cells)
    if cube.level >= spec.depth:
        return out
    b = system.get_b(walk_pi(forest, j, cube))
    base = h.average(cube) / b.average(cube)
    for child in cube.children():
        if is_member(forest, j, child):
            continue
        out[spec.cell_indices(child)] = h.average(child) / b.average(child) - base
    np.abs(out, out)
    if any(is_member(forest, j, c) for c in cube.children()):
        out[spec.cell_indices(cube)] += 1.0
    return out


def enumerated_half_twisted_block(forest, j, cube, h):
    spec, system = forest.spec, forest.system(j)
    out = np.zeros(spec.n_cells)
    if cube.level >= spec.depth:
        return out
    b = system.get_b(walk_pi(forest, j, cube))
    out[spec.cell_indices(cube)] = -h.average(cube) / b.average(cube)
    for child in cube.children():
        if is_member(forest, j, child):
            continue
        out[spec.cell_indices(child)] += h.average(child) / b.average(child)
    return out


# The per-cube bodies of the twisted-context calculus, kept as oracles for the
# level engine: one full-grid array per cube, every average a GridFunction
# tree sum, the coefficients applied in the same order, so the level arrays
# must match them bit for bit.


def enumerated_twisted_delta(ctx, cube, f):
    spec = ctx.spec
    out = np.zeros(spec.n_cells)
    if cube.level >= spec.depth:
        return out
    base = f.average(cube) / ctx.b.average(cube)
    for child in cube.children():
        idx = spec.cell_indices(child)
        bc = ctx.system.get_b(child) if ctx.is_terminal(child) else ctx.b
        out[idx] = f.average(child) / bc.average(child) * bc.values[idx] - base * ctx.b.values[idx]
    return out


def enumerated_half_twisted_D(ctx, cube, f):
    spec = ctx.spec
    out = np.zeros(spec.n_cells)
    if cube.level >= spec.depth:
        return out
    base = f.average(cube) / ctx.b.average(cube)
    for child in cube.children():
        if not ctx.is_terminal(child):
            out[spec.cell_indices(child)] = f.average(child) / ctx.b.average(child) - base
    return out


def enumerated_transform(ctx, eps, f, difference=enumerated_twisted_delta):
    out = np.zeros(ctx.spec.n_cells)
    for q in ctx.q_cubes():
        e = eps.get(q, 0.0)
        if e != 0.0:
            out += e * difference(ctx, q, f)
    return out


def enumerated_half_transform(ctx, eps, f):
    return enumerated_transform(ctx, eps, f, enumerated_half_twisted_D)


def enumerated_splitting(ctx, eps, f, rule):
    """sum over the derived family and non-terminal children of
    rule(e, <f>_Q', <b>_Q', <f>_Q, <b>_Q) 1_Q'."""
    spec = ctx.spec
    out = np.zeros(spec.n_cells)
    for q in ctx.q_cubes():
        e = eps.get(q, 0.0)
        if e == 0.0:
            continue
        for child in q.children():
            if not ctx.is_terminal(child):
                out[spec.cell_indices(child)] += rule(
                    e, f.average(child), ctx.b.average(child), f.average(q), ctx.b.average(q))
    return out


def enumerated_delta_decomp(ctx, eps, f):
    lhs = enumerated_transform(ctx, eps, f)
    rhs = enumerated_half_transform(ctx, eps, f) * ctx.b.values
    for t in ctx.members:
        parent = t.parent()
        e = eps.get(parent, 0.0)
        idx = ctx.spec.cell_indices(t)
        rhs[idx] += e * f.average(t) * ctx.system.get_b(t).values[idx]
        rhs[idx] -= e * (f.average(parent) / ctx.b.average(parent)) * ctx.b.values[idx]
    return float(np.max(np.abs(lhs - rhs)))


def enumerated_pi_transform(ctx, eps, f):
    return enumerated_splitting(ctx, eps, f, lambda e, fc, bc, fq, bq: e * (bc - bq) * fc)


def enumerated_amalgam_transform(ctx, eps, f):
    return enumerated_splitting(
        ctx, eps, f, lambda e, fc, bc, fq, bq: e * (bc - bq) ** 2 * fc / (bc * bq**2))


# -- twisted differences -----------------------------------------------------------


def test_twisted_classical_example():
    ctx = classical_ctx(depth=2)
    f = GridFunction.indicator(ctx.spec, DyadicCube(2, (0,)))
    d = twisted_delta(ctx, ctx.s0, f)
    assert d.values.tolist() == [0.25, 0.25, -0.25, -0.25]


def test_twisted_of_b_vanishes_without_terminals():
    ctx = classical_ctx(depth=3)
    for q in ctx.q_cubes():
        assert np.all(twisted_delta(ctx, q, ctx.b).values == 0.0)


def test_twisted_requires_q_membership():
    ctx = terminal_ctx()
    t = ctx.members[0]
    with pytest.raises(ValueError):
        twisted_delta(ctx, t.children()[0] if t.level < ctx.spec.depth else t, ctx.b)


def test_twisted_matches_direct_evaluation(rng):
    ctx = terminal_ctx(depth=5, seed=2)
    f = rand_fun(ctx.spec, rng)
    for q in ctx.q_cubes():
        got = twisted_delta(ctx, q, f)
        want = oracle_twisted(ctx, q, f)
        assert np.allclose(got.values, want, atol=1e-12)
        # support and mean-zero invariants
        outside = np.delete(got.values, ctx.spec.cell_indices(q))
        assert np.all(outside == 0.0)
        assert abs(got.integral()) <= 1e-12 * q.volume * (1 + np.abs(f.values).max())


def test_half_twisted_matches_direct_evaluation(rng):
    ctx = terminal_ctx(depth=5, seed=9)
    f = rand_fun(ctx.spec, rng)
    for q in ctx.q_cubes():
        got = half_transform(ctx, level_coefficients(ctx, {q: 1.0}), f)
        assert np.allclose(got.values, oracle_half_twisted(ctx, q, f), atol=1e-12)


def test_half_twisted_all_children_terminal_is_zero():
    # craft a context whose root has both children terminal by coarsening
    spec = GridSpec(1, 3)
    sys_ = AccretiveSystem(spec, "two-value", 2.0, 1.5, seed=4, params={"s": 0.8})
    root = spec.root()
    ctx = TwistedContext(sys_, root, family_of(spec, root, root.children()), 0.4)
    assert np.all(half_transform(ctx, {0: np.ones(1)}, sys_.get_b(root)).values == 0.0)


# -- transforms ----------------------------------------------------------------------


def test_transform_zero_eps(rng):
    ctx = terminal_ctx()
    f = rand_fun(ctx.spec, rng)
    for call in (transform, half_transform):
        assert np.all(call(ctx, {}, f).values == 0.0)


def test_transform_full_telescoping():
    ctx = classical_ctx(depth=4)
    f = GridFunction.indicator(ctx.spec, DyadicCube(3, (5,)))
    eps = {lev: m.astype(float) for lev, m in ctx.q_masks().items()}
    out = transform(ctx, eps, f)
    assert np.allclose(out.values, f.values - f.average(), atol=1e-14)


def test_transform_parseval_ceiling(rng):
    ctx = classical_ctx(depth=5)
    for _ in range(20):
        f = rand_fun(ctx.spec, rng)
        eps = ctx.random_coefficients(rng)
        assert transform(ctx, eps, f).lp_norm(2.0) <= f.lp_norm(2.0) * (1 + 1e-12)


def test_classical_transform_matches_twisted_at_b_one(rng):
    ctx = classical_ctx(depth=4)
    f = rand_fun(ctx.spec, rng)
    eps = random_signs(ctx.q_cubes(), rng)
    a = transform(ctx, level_coefficients(ctx, eps), f)
    b = classical_transform(eps, f, ctx.q_cubes())
    assert np.allclose(a.values, b.values, atol=1e-13)


def test_coefficient_validation(rng):
    # every public transform rejects a key off the derived family's levels, an
    # array of the wrong length and an entry that is not finite with |eps| <= 1,
    # naming the first bad level (coarse to fine) and flat index
    ctx = terminal_ctx(depth=5, seed=9)
    f = rand_fun(ctx.spec, rng)
    bad_cases = [({5: np.zeros(32)}, r"coefficient level 5 is not a level of the derived family \(0\.\.4\)"),
                 ({-1: np.zeros(1)}, "coefficient level -1 is not"),
                 ({"1": np.zeros(2)}, "coefficient level '1' is not"),
                 ({2: np.zeros(3)}, r"level 2 needs 4 coefficients, got shape \(3,\)"),
                 ({2: np.zeros((2, 2))}, r"level 2 needs 4 coefficients, got shape \(2, 2\)")]
    for value in (float("nan"), np.inf, -np.inf, 1 + 1e-12, -1 - 1e-12):
        c = np.zeros(4)
        c[3] = value
        bad_cases.append(({3: np.ones(8), 2: c},
                          re.escape(f"|eps| must be <= 1, got {value!r} at level 2, flat index 3")))
    for call in (transform, half_transform, delta_decomp_check, measure_comparison_check):
        for coeffs, message in bad_cases:
            with pytest.raises(ValueError, match=message):
                call(ctx, coeffs, f)
        # the bounds themselves pass, and a missing level counts as zero
        call(ctx, {1: np.array([1.0, -1.0]), 4: -np.ones(16)}, f)


# -- three-term decomposition and the factorization ------------------------------------


def test_three_term_classical_zero(rng):
    ctx = classical_ctx(depth=3)
    f = rand_fun(ctx.spec, rng)
    q = ctx.s0
    assert decomposition_identity_check(ctx, q, q.children()[0], f) == 0.0


def test_three_term_f_equals_b(rng):
    ctx = terminal_ctx(depth=5, seed=11)
    for q in ctx.q_cubes()[:10]:
        for child in q.children():
            if not ctx.is_terminal(child):
                assert decomposition_identity_check(ctx, q, child, ctx.b) <= 1e-13


def test_three_term_random(rng):
    ctx = terminal_ctx(depth=6, seed=3)
    f = rand_fun(ctx.spec, rng)
    for q in ctx.q_cubes():
        fq = f.average(q)
        for child in q.children():
            if ctx.is_terminal(child):
                continue
            lhs = f.average(child) / ctx.avg_b(child) - fq / ctx.avg_b(q)
            assert decomposition_identity_check(ctx, q, child, f) <= 1e-12 * max(1.0, abs(lhs))


def test_delta_decomp_no_terminals(rng):
    ctx = classical_ctx(depth=4)
    f = rand_fun(ctx.spec, rng)
    eps = ctx.random_coefficients(rng)
    assert delta_decomp_check(ctx, eps, f) <= 1e-12


def test_delta_decomp_zero_eps(rng):
    ctx = terminal_ctx()
    assert delta_decomp_check(ctx, {}, rand_fun(ctx.spec, rng)) == 0.0


def test_delta_decomp_with_terminals(rng):
    for seed in range(5):
        ctx = terminal_ctx(depth=6, seed=seed)
        assert ctx.members  # want actual terminals in this class
        f = rand_fun(ctx.spec, rng)
        eps = ctx.random_coefficients(rng)
        scale = 1.0 + np.abs(transform(ctx, eps, f).values).max()
        assert delta_decomp_check(ctx, eps, f) <= 1e-11 * scale


def test_delta_decomp_with_coarsened_terminals(rng):
    spec = GridSpec(1, 6)
    sys_ = AccretiveSystem(spec, "two-value", 2.0, 1.5, seed=5, params={"s": 0.8})
    ctx = coarsened_context(sys_, spec.root(), 0.45, np.random.default_rng(1))
    f = rand_fun(spec, rng)
    eps = ctx.random_coefficients(rng)
    assert delta_decomp_check(ctx, eps, f) <= 1e-11


# -- corona differences ------------------------------------------------------------------


def test_corona_delta_classical_case(rng):
    spec = GridSpec(1, 4)
    forest = classical_forest(spec)
    h = rand_fun(spec, rng)
    deltas = corona_levels(forest, 1, h).deltas
    for q in spec.all_cubes(spec.root(), max_level=spec.depth - 1):
        want = np.zeros(spec.n_cells)
        base = h.average(q)
        for child in q.children():
            want[spec.cell_indices(child)] = h.average(child) - base
        assert np.allclose(on_cube(spec, q, deltas[q.level]), want, atol=1e-14)


def test_corona_delta_annihilates_block_function():
    spec = GridSpec(1, 4)
    forest = classical_forest(spec)
    b0 = forest.sys1.get_b(spec.root())
    # the root's block is the whole grid: every level array is zero
    assert all(np.all(d == 0.0) for d in corona_levels(forest, 1, b0).deltas.values())


def test_corona_delta_matches_oracle_on_random_instance(rng):
    inst = build_instance(ExperimentConfig(dim=1, depth=5), 31)
    forest = inst.forest
    h = rand_fun(inst.spec, rng)
    spec = inst.spec
    for j in (1, 2):
        assert len(forest.members(j)) > 1  # exercise real stopping structure
        deltas = corona_levels(forest, j, h).deltas
        for q in spec.all_cubes(forest.q0, max_level=spec.depth - 1):
            got = on_cube(spec, q, deltas[q.level])
            want = oracle_corona_delta(forest, j, q, h)
            assert np.allclose(got, want, atol=1e-11)
            assert abs(got.sum() * spec.cell_volume) <= 1e-12 * (1 + np.abs(h.values).max())


def test_corona_orthogonality_classical(rng):
    spec = GridSpec(1, 4)
    forest = classical_forest(spec)
    h = rand_fun(spec, rng)
    levels = corona_levels(forest, 1, h)
    deltas = [on_cube(spec, q, levels.deltas[q.level])
              for q in spec.all_cubes(spec.root(), max_level=spec.depth - 1)]
    for a in range(len(deltas)):
        for b in range(a + 1, len(deltas)):
            dot = float(np.sum(deltas[a] * deltas[b])) * spec.cell_volume
            assert abs(dot) <= 1e-12


# -- expansion -----------------------------------------------------------------------------


def test_expand_constant_function():
    spec = GridSpec(1, 4)
    forest = classical_forest(spec)
    ones = GridFunction.constant(spec, 1.0)
    e, deltas = expand(forest, 1, spec.root(), ones)
    assert np.allclose(e.values, 1.0)
    assert all(np.all(d.values == 0.0) for _, d in deltas)


def test_expand_single_cell_indicator():
    inst = build_instance(ExperimentConfig(dim=1, depth=5), 8)
    spec = inst.spec
    h = GridFunction.indicator(spec, DyadicCube(spec.depth, (17,)))
    e, deltas = expand(inst.forest, 1, spec.root(), h)
    total = e.values + sum(d.values for _, d in deltas)
    assert np.max(np.abs(total - h.values)) <= 1e-12


def test_expand_random_reconstruction_all_members(rng):
    inst = build_instance(ExperimentConfig(dim=1, depth=6), 13)
    spec = inst.spec
    h = rand_fun(spec, rng)
    hmax = np.abs(h.values).max()
    for j in (1, 2):
        for top in list(inst.forest.members(j))[:5]:
            e, deltas = expand(inst.forest, j, top, h)
            total = e.values + sum(d.values for _, d in deltas)
            target = np.zeros(spec.n_cells)
            idx = spec.cell_indices(top)
            target[idx] = h.values[idx]
            assert np.max(np.abs(total - target)) <= 1e-11 * (1 + hmax)


def test_corona_transform_classical_telescopes(rng):
    # the corona transform with every sign 1 is the sum of the level differences
    spec = GridSpec(1, 4)
    forest = classical_forest(spec)
    f = rand_fun(spec, rng)
    out = corona_levels(forest, 1, f).delta_sum
    assert np.allclose(out, f.values - f.average(), atol=1e-13)


# -- box differences ------------------------------------------------------------------------


def test_box_classical_case(rng):
    spec = GridSpec(1, 4)
    forest = classical_forest(spec)
    h = rand_fun(spec, rng)
    q = DyadicCube(1, (0,))
    got = on_cube(spec, q, box(corona_levels(forest, 1, h), q.level))
    want = np.zeros(spec.n_cells)
    base = h.average(q)
    for child in q.children():
        want[spec.cell_indices(child)] = abs(h.average(child) - base)
    assert np.allclose(got, want, atol=1e-14)


def test_box_indicator_on_stopping_child(rng):
    inst = build_instance(ExperimentConfig(dim=1, depth=5), 31)
    forest = inst.forest
    stopped = [s for s in forest.members(1) if s != forest.q0]
    assert stopped
    parent = stopped[0].parent()
    got = box(corona_levels(forest, 1, inst.f), parent.level)
    idx = inst.spec.cell_indices(parent)
    assert np.all(got[idx] >= 1.0)


def test_box_matches_componentwise_recomputation(rng):
    inst = build_instance(ExperimentConfig(dim=1, depth=5), 31)
    forest, system = inst.forest, inst.sys1
    spec = inst.spec
    members = set(forest.members(1))
    h = rand_fun(spec, rng)
    levels = corona_levels(forest, 1, h)
    for q in spec.all_cubes(forest.q0, max_level=spec.depth - 1):
        got = on_cube(spec, q, box(levels, q.level))
        pi = q
        while pi not in members:
            pi = pi.parent()
        b = system.get_b(pi)
        want = np.zeros(spec.n_cells)
        qidx = spec.cell_indices(q)
        base = np.mean(h.values[qidx]) / np.mean(b.values[qidx])
        for child in q.children():
            if child in members:
                continue
            idx = spec.cell_indices(child)
            want[idx] = abs(np.mean(h.values[idx]) / np.mean(b.values[idx]) - base)
        if any(c in members for c in q.children()):
            want[qidx] += 1.0
        assert np.allclose(got, want, atol=1e-11)


# -- splitting operators ---------------------------------------------------------------------


def test_proof_operators_annihilated_at_b_one(rng):
    ctx = classical_ctx(depth=4)
    eps = random_signs(ctx.q_cubes(), rng)
    pi_img, am_img, norms = proof_operators(ctx, eps, DyadicCube(1, (0,)))
    assert np.all(pi_img.values == 0.0) and np.all(am_img.values == 0.0)
    assert norms == (0.0, 0.0)


def test_proof_operators_zero_eps(rng):
    ctx = terminal_ctx(depth=5)
    _, _, norms = proof_operators(ctx, {}, ctx.s0)
    assert norms == (0.0, 0.0)


def oracle_operator_matrix(ctx, eps, which):
    """Column-by-column dense application of the splitting operators."""
    spec = ctx.spec
    n = spec.n_cells
    m = np.zeros((n, n))
    for col in range(n):
        fcol = np.zeros(n)
        fcol[col] = 1.0
        for q in ctx.q_cubes():
            e = eps.get(q, 0.0)
            if e == 0.0:
                continue
            qidx = spec.cell_indices(q)
            bq = np.mean(ctx.b.values[qidx])
            for child in q.children():
                if ctx.is_terminal(child):
                    continue
                idx = spec.cell_indices(child)
                bc = np.mean(ctx.b.values[idx])
                favg = np.mean(fcol[idx])
                if which == "pi":
                    m[idx, col] += e * (bc - bq) * favg
                else:
                    m[idx, col] += e * (bc - bq) ** 2 * favg / (bc * bq**2)
    return m


def test_proof_operators_match_dense_oracle(rng):
    ctx = terminal_ctx(depth=5, seed=7)
    eps = dict.fromkeys(ctx.q_cubes(), 1.0)
    f_cube = ctx.s0
    pi_img, am_img, norms = proof_operators(ctx, eps, f_cube)
    ind = GridFunction.indicator(ctx.spec, f_cube)
    m_pi = oracle_operator_matrix(ctx, eps, "pi")
    m_am = oracle_operator_matrix(ctx, eps, "amalgam")
    assert np.allclose(pi_img.values, m_pi @ ind.values, atol=1e-12)
    assert np.allclose(am_img.values, m_am @ ind.values, atol=1e-12)
    idx = ctx.spec.cell_indices(f_cube)
    cv = ctx.spec.cell_volume
    assert norms[0] == pytest.approx(float(np.sum(np.abs((m_pi @ ind.values)[idx]))) * cv)
    assert norms[1] == pytest.approx(float(np.sum(np.abs((m_am @ ind.values)[idx]))) * cv)


def test_pi_transform_l1_testing_bound(rng):
    # the local L1 size of the splitting operator on indicators, relative to |F|
    ctx = terminal_ctx(depth=6, seed=1)
    eps = dict.fromkeys(ctx.q_cubes(), 1.0)
    for level in (0, 1, 2):
        f_cube = DyadicCube(level, (0,))
        _, _, norms = proof_operators(ctx, eps, f_cube)
        assert np.isfinite(norms[0]) and np.isfinite(norms[1])


# -- measure comparison -------------------------------------------------------------------


def test_measure_comparison_holds_on_random_contexts(rng):
    for seed in range(20):
        ctx = terminal_ctx(depth=6, seed=seed)
        f = rand_signs(ctx.spec, rng)
        eps = ctx.random_coefficients(rng)
        cap = 2.0**ctx.spec.dim * ctx.delta**-ctx.system.p * ctx.system.A**ctx.system.p
        assert measure_comparison_check(ctx, eps, f) <= 1e-12 * cap


def test_finest_cell_bound(rng):
    # non-terminal finest cells obey |b| < delta^(-1/p) A
    for seed in range(10):
        ctx = terminal_ctx(depth=6, seed=seed)
        cap = ctx.delta ** (-1.0 / ctx.system.p) * ctx.system.A
        finest = ctx.owners[ctx.spec.depth] == ctx.s0.level
        assert finest.any() and np.all(np.abs(ctx.b.values[finest]) < cap)


# -- block contexts -----------------------------------------------------------------------


def test_block_context_roundtrip():
    inst = build_instance(ExperimentConfig(dim=1, depth=5), 31)
    forest = inst.forest
    deltas = corona_levels(forest, 1, inst.f).deltas
    for member in forest.members(1):
        ctx = block_context(forest, 1, member)
        assert ctx.s0 == member
        assert ctx.members == stopping_children(forest, 1, member)
        # block twisted differences agree with corona differences inside the block
        for q in ctx.q_cubes():
            a = twisted_delta(ctx, q, inst.f)
            assert np.allclose(a.values, on_cube(ctx.spec, q, deltas[q.level]), atol=1e-12)


def owner_bytes(owners) -> list:
    return [None if o is None else (o.dtype.str, o.tobytes()) for o in owners]


@pytest.mark.parametrize("dim, depths", [(1, range(9)), (2, range(6))])
def test_block_context_owners_equal_nearest_marked_oracle(dim, depths):
    # the one owner pass over the forest's arrays against the member cubes'
    # form: each block's base cube and stopping children stamped cube by cube
    blocks = 0
    for depth in depths:
        for seed in range(3):
            inst = build_instance(ExperimentConfig(dim=dim, depth=depth), seed)
            assert inst.ok
            forest = inst.forest
            for j in (1, 2):
                for member in forest.members(j):
                    ctx = block_context(forest, j, member)
                    kids = stopping_children(forest, j, member)
                    want = nearest_marked(forest.spec, member.level, (member, *kids))
                    assert owner_bytes(ctx.owners) == owner_bytes(want)
                    assert ctx.members == kids
                    blocks += 1
    assert blocks > 100


def test_block_context_rejects_cubes_outside_the_family():
    spec = GridSpec(1, 4)
    signed = AccretiveSystem(spec, "signed", 2.0, 1.5)
    q0 = DyadicCube(1, (1,))
    forest = build_corona(q0, signed, signed, generate_kernel("zero", spec), 0.25, 0.0)
    members = set(forest.members(1))
    inside = [c for c in spec.all_cubes(q0) if c not in members]
    assert q0 in members and inside
    for cube in (inside[0], spec.root(), DyadicCube(2, (0,)), DyadicCube(1, (1, 0)), DyadicCube(5, (0,))):
        with pytest.raises(ValueError, match=re.escape(f"{cube} is not a member of S_1")):
            block_context(forest, 1, cube)
    for member in sorted(members):
        assert block_context(forest, 1, member).members == stopping_children(forest, 1, member)


@pytest.mark.parametrize("dim,depth", [(1, 8), (2, 4)])
def test_contexts_make_no_b_copies(monkeypatch, dim, depth):
    # every b of a context, the base cube's included, is read from the
    # system's level arrays
    inst = build_instance(ExperimentConfig(dim=dim, depth=depth), 1)
    assert inst.ok
    blocks = [(j, s) for j in (1, 2) for s in sorted(inst.forest.members(j))]
    want = [inst.forest.system(j).get_b(s).values for j, s in blocks]

    def no_copies(self, cube):
        raise AssertionError("a twisted context made a full-grid b copy")

    monkeypatch.setattr(AccretiveSystem, "get_b", no_copies)
    for (j, s), b in zip(blocks, want):
        assert np.array_equal(block_context(inst.forest, j, s).b.values, b)
    for system in (inst.sys1, inst.sys2):
        make_context(system, inst.forest.q0, inst.dsearch.delta)
        coarsened_context(system, inst.forest.q0, inst.dsearch.delta, np.random.default_rng(depth))
