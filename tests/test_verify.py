import itertools

import numpy as np
import pytest

from dytb.accretive import AccretiveSystem
from dytb.corona import TbConfig, build_corona
from dytb.grid import DyadicCube, GridFunction, GridSpec, child_containing
from dytb.kernels import PerfectKernel, adjoint, apply_values, generate_kernel
from dytb.twisted import corona_delta, make_context, twisted_delta
from dytb.verify import (
    RESIDUAL_FIELDS,
    ExperimentConfig,
    adversarial_transform_search,
    b_above_aggregation,
    b_above_per_s_check,
    bilinear_expansion_check,
    box_square_function_check,
    build_instance,
    check_forest_blocks,
    diagonal_lemma_check,
    easy_terms_check,
    epsilon_coefficient,
    form_split,
    identity_suite,
    main_theorem_experiment,
    operator_norm,
    power_norm,
    run_identity_checks,
    trial_seed,
)
from dytb.verify import testing_constant as measure_tloc

from conftest import rand_signs
from test_accretive import GRIDS, KIND_SETUPS
from test_kernels import lca_dense_matrix
from test_twisted import enumerated_corona_delta, enumerated_half_twisted_block, walk_pi


def classical_setup(depth=4, dim=1):
    spec = GridSpec(dim, depth)
    const = AccretiveSystem(spec, "constant", 2.0, 1.5)
    cfg = TbConfig(2.0, 2.0, 0.5, 1.5, Tloc=0.0)
    forest = build_corona(spec.root(), const, const, generate_kernel("zero", spec), cfg)
    return spec, const, forest


# -- operator norm ------------------------------------------------------------------


def test_norm_zero_kernel():
    spec = GridSpec(1, 3)
    zk = generate_kernel("zero", spec)
    assert operator_norm(zk, "dense-svd") == 0.0
    assert operator_norm(zk, "power") == 0.0


def test_norm_depth1_example():
    spec = GridSpec(1, 1)
    t = PerfectKernel(spec, {(0, 0, 0, 1): 1.0, (0, 0, 1, 0): -1.0})
    # 2x2 oracle in the normalized cell basis: [[0, .5], [-.5, 0]]
    oracle = np.linalg.svd(np.array([[0.0, 0.5], [-0.5, 0.0]]), compute_uv=False)[0]
    assert operator_norm(t, "dense-svd") == pytest.approx(oracle)
    assert oracle == pytest.approx(0.5)


def test_power_matches_dense_on_50_kernels():
    spec = GridSpec(1, 5)
    for seed in range(50):
        t = generate_kernel("random", spec, seed=seed)
        dense = operator_norm(t, "dense-svd")
        power = power_norm(t, tol=1e-10)
        assert power.converged
        assert power.value == pytest.approx(dense, rel=1e-6)


def test_power_reports_nonconvergence():
    spec = GridSpec(1, 5)
    t = generate_kernel("random", spec, seed=1)
    res = power_norm(t, tol=1e-16, max_iter=2)
    assert not res.converged
    assert res.iterations == 2 and res.achieved_tol > 1e-16


def test_unconverged_power_norm_raises():
    t = generate_kernel("random", GridSpec(1, 5), seed=1)
    with pytest.raises(RuntimeError, match=r"did not converge in 2 iterations"):
        operator_norm(t, "power", tol=1e-16, max_iter=2)
    assert operator_norm(t, "power", tol=1e-10) == power_norm(t, tol=1e-10).value


def test_dense_norm_guard():
    spec = GridSpec(1, 13)
    t = generate_kernel("zero", spec)
    with pytest.raises(ValueError):
        operator_norm(t, "dense-svd")


# -- testing constant ----------------------------------------------------------------


def test_tloc_zero_kernel():
    spec = GridSpec(1, 4)
    const = AccretiveSystem(spec, "constant", 2.0, 1.5)
    assert measure_tloc(generate_kernel("zero", spec), const, 2.0) == 0.0


def test_tloc_depth1_haar_shift():
    spec = GridSpec(1, 1)
    const = AccretiveSystem(spec, "constant", 2.0, 1.5)
    hs = generate_kernel("haar-shift", spec)
    assert measure_tloc(hs, const, 2.0, "direct") == pytest.approx(0.5)
    assert measure_tloc(hs, const, 2.0, "adjoint") == pytest.approx(0.5)


def test_tloc_matches_brute_force(rng):
    spec = GridSpec(1, 4)
    t = generate_kernel("random", spec, seed=12)
    sys_ = AccretiveSystem(spec, "random", 2.0, 1.6, seed=3, params={"amp": 0.6})
    dense = lca_dense_matrix(t)
    for side, m in (("direct", dense), ("adjoint", dense.T)):
        best = 0.0
        for cube in spec.all_cubes():
            b = sys_.get_b(cube)
            tb = m @ b.values
            idx = spec.cell_indices(cube)
            best = max(best, float(np.mean(np.abs(tb[idx]) ** 2)) ** 0.5)
        assert measure_tloc(t, sys_, 2.0, side) == pytest.approx(best, rel=1e-12)


def tloc_by_enumeration(kernel, system, qs, side):
    """Reference Tloc per exponent: one full-grid apply of T b_Q per cube Q."""
    op = kernel if side == "direct" else adjoint(kernel)
    spec = kernel.spec
    best = dict.fromkeys(qs, 0.0)
    for cube in spec.all_cubes():
        tb = apply_values(op, system.get_b(cube).values)
        local = tb[spec.cell_indices(cube)]
        for q in qs:
            mean_pow = float(np.mean(np.abs(local) ** q))
            best[q] = max(best[q], mean_pow ** (1.0 / q))
    return best


@pytest.mark.parametrize("dim,depth", GRIDS)
def test_tloc_equals_per_cube_oracle(dim, depth):
    spec = GridSpec(dim, depth)
    kernels = [generate_kernel(kind, spec, seed=depth + 3) for kind in ("random", "haar-shift", "zero")]
    for kind, (A, params) in KIND_SETUPS.items():
        sys_ = AccretiveSystem(spec, kind, 2.0, A, seed=11 + depth, params=params)
        for kernel, side in itertools.product(kernels, ("direct", "adjoint")):
            oracle = tloc_by_enumeration(kernel, sys_, (1.5, 2.0), side)
            for q, expected in oracle.items():
                assert measure_tloc(kernel, sys_, q, side) == expected


def test_tloc_memory_stays_level_tiled():
    # a return to one full-grid b_Q per cube would be O(cells^2) memory
    spec = GridSpec(1, 12)
    kernel = generate_kernel("random", spec, seed=1)
    sys_ = AccretiveSystem(spec, "random", 2.0, 1.6, seed=2, params={"amp": 0.6})
    measure_tloc(kernel, sys_, 2.0, "direct")
    measure_tloc(kernel, sys_, 2.0, "adjoint")
    assert sorted(sys_._levels) == list(range(spec.depth + 1))
    assert all(v.shape == (spec.n_cells,) for v in sys_._levels.values())
    assert sys_._memo == {}


# -- bilinear expansion -----------------------------------------------------------------


def test_expansion_zero_kernel(rng):
    spec, const, forest = classical_setup()
    residual, parts = bilinear_expansion_check(
        generate_kernel("zero", spec), forest, const, const,
        rand_signs(spec, rng), rand_signs(spec, rng))
    assert parts["total"] == 0.0 and residual == 0.0


def test_expansion_classical_ones():
    spec = GridSpec(1, 5)
    const = AccretiveSystem(spec, "constant", 2.0, 1.5)
    kernel = generate_kernel("random", spec, seed=2)
    tloc = max(measure_tloc(kernel, const, 2.0, "direct"),
               measure_tloc(kernel, const, 2.0, "adjoint"))
    cfg = TbConfig(2.0, 2.0, 0.5, 1.5, Tloc=tloc)
    forest = build_corona(spec.root(), const, const, kernel, cfg)
    ones = GridFunction.constant(spec, 1.0)
    residual, _ = bilinear_expansion_check(kernel, forest, const, const, ones, ones)
    assert residual <= 1e-10


def test_expansion_random_instances():
    for seed in (5, 6, 7):
        inst = build_instance(1, 5, seed=seed)
        residual, _ = bilinear_expansion_check(
            inst.kernel, inst.forest, inst.sys1, inst.sys2, inst.f, inst.g)
        assert residual <= 1e-9


# -- form split --------------------------------------------------------------------------


def test_form_split_zero_kernel(rng):
    spec, const, forest = classical_setup()
    fs = form_split(generate_kernel("zero", spec), forest, const, const,
                    rand_signs(spec, rng), rand_signs(spec, rng))
    assert fs.b_above == fs.b_equal == fs.b_below == fs.total == 0.0


def test_form_split_depth1_all_in_equal(rng):
    spec = GridSpec(1, 1)
    const = AccretiveSystem(spec, "constant", 2.0, 1.5)
    kernel = PerfectKernel(spec, {(0, 0, 0, 1): 1.0, (0, 0, 1, 0): -1.0})
    tloc = measure_tloc(kernel, const, 2.0)
    cfg = TbConfig(2.0, 2.0, 0.5, 1.5, Tloc=tloc)
    forest = build_corona(spec.root(), const, const, kernel, cfg)
    f, g = rand_signs(spec, rng), rand_signs(spec, rng)
    fs = form_split(kernel, forest, const, const, f, g)
    assert fs.b_above == 0.0 and fs.b_below == 0.0
    assert fs.b_equal == pytest.approx(fs.total, abs=1e-15)


def test_form_split_matches_double_loop_oracle(rng):
    inst = build_instance(1, 5, seed=9)
    spec, forest = inst.spec, inst.forest
    fs = form_split(inst.kernel, forest, inst.sys1, inst.sys2, inst.f, inst.g)
    assert fs.residual <= 1e-9
    dense = lca_dense_matrix(inst.kernel)
    cv = spec.cell_volume
    cubes = [q for q in spec.all_cubes(forest.q0) if q.level < spec.depth]
    df = {q: corona_delta(forest, 1, inst.sys1, q, inst.f).values for q in cubes}
    dg = {q: corona_delta(forest, 2, inst.sys2, q, inst.g).values for q in cubes}
    above = equal = below = 0.0
    for p, fv in df.items():
        for q, gv in dg.items():
            val = float(gv @ dense @ fv) * cv
            if p.level < q.level:
                above += val
            elif p.level == q.level:
                equal += val
            else:
                below += val
    assert fs.b_above == pytest.approx(above, abs=1e-10)
    assert fs.b_equal == pytest.approx(equal, abs=1e-10)
    assert fs.b_below == pytest.approx(below, abs=1e-10)


# -- nested form per block -----------------------------------------------------------------


def test_per_s_zero_kernel(rng):
    spec, const, forest = classical_setup()
    res = b_above_per_s_check(generate_kernel("zero", spec), forest, const, const,
                              rand_signs(spec, rng), rand_signs(spec, rng),
                              spec.root(), 0.0)
    assert res.value == 0.0 and res.bound == 0.0


def test_per_s_single_block_is_whole_form(rng):
    # with S_1 = {Q0} the single block carries all of the nested form
    spec = GridSpec(1, 4)
    const = AccretiveSystem(spec, "constant", 2.0, 1.5)
    kernel = generate_kernel("random", spec, seed=3, scale=0.2)
    tloc = max(measure_tloc(kernel, const, 2.0, "direct"),
               measure_tloc(kernel, const, 2.0, "adjoint"))
    cfg = TbConfig(2.0, 2.0, 0.25, 1.5, Tloc=tloc)
    forest = build_corona(spec.root(), const, const, kernel, cfg)
    assert set(forest.members(1)) == {spec.root()}
    f, g = rand_signs(spec, rng), rand_signs(spec, rng)
    results, reference, residual = b_above_aggregation(
        kernel, forest, const, const, f, g, tloc)
    assert len(results) == 1
    assert results[0].value == pytest.approx(reference, abs=1e-12)
    assert residual <= 1e-12


def test_per_s_aggregation_random_instances():
    for seed in (21, 22):
        inst = build_instance(1, 5, seed=seed)
        results, reference, residual = b_above_aggregation(
            inst.kernel, inst.forest, inst.sys1, inst.sys2, inst.f, inst.g, inst.tloc)
        assert residual <= 1e-9
        assert max(r.pullout_residual for r in results) <= 1e-12


def quadratic_b_above_reference(kernel, forest, sys1, sys2, f, g):
    """sum over nested pairs P strictly above Q of <T Delta_P f, Delta_Q g>, one
    enumerated difference per cube (O(cubes^2) pairings, for small depths)."""
    spec = forest.spec
    cubes = list(spec.all_cubes(forest.q0, max_level=spec.depth - 1))
    dg = {q: enumerated_corona_delta(forest, 2, sys2, q, g) for q in cubes}
    total = 0.0
    for p in cubes:
        u = apply_values(kernel, enumerated_corona_delta(forest, 1, sys1, p, f))
        for q, gv in dg.items():
            if p.contains(q) and q != p:
                total += float(u @ gv) * spec.cell_volume
    return total


def epsilon_by_walk(forest, sys1, f, member, cube):
    """The telescoped coefficient summed ancestor by ancestor."""
    spec = forest.spec
    total = 0.0
    p = cube.parent()
    while True:
        if walk_pi(forest, 1, p) == member:
            wp = enumerated_half_twisted_block(forest, 1, sys1, p, f)
            total += float(wp[spec.cell_indices(child_containing(p, cube))[0]])
        if p == forest.q0 or p == member:
            break
        p = p.parent()
    return total


# -- telescoped coefficients ------------------------------------------------------------------


def test_epsilon_constant_f_vanishes():
    spec, const, forest = classical_setup(depth=4)
    ones = GridFunction.constant(spec, 1.0)
    root = spec.root()
    for cube in list(spec.all_cubes(root))[1:20]:
        assert epsilon_coefficient(forest, const, ones, root, cube) == pytest.approx(0.0, abs=1e-14)


def test_epsilon_classical_bound(rng):
    spec, const, forest = classical_setup(depth=5)
    root = spec.root()
    for _ in range(5):
        f = rand_signs(spec, rng)
        for cube in list(spec.all_cubes(root))[1:]:
            val = epsilon_coefficient(forest, const, f, root, cube)
            assert abs(val) <= 2.0 + 1e-12


def test_epsilon_accretive_bound():
    for seed in (31, 32):
        inst = build_instance(1, 5, seed=seed)
        forest = inst.forest
        cap = 2.0 / inst.cfg.delta
        for s in forest.members(1):
            for cube in inst.spec.all_cubes(s):
                if cube == s:
                    continue
                val = epsilon_coefficient(forest, inst.sys1, inst.f, s, cube)
                assert abs(val) <= cap * (1 + 1e-12)


# -- diagonal lemma ----------------------------------------------------------------------------


def test_diagonal_zero_kernel(rng):
    spec, const, forest = classical_setup()
    assert diagonal_lemma_check(generate_kernel("zero", spec), forest, const, const,
                                spec.root(), 0.0) == 0.0


def test_diagonal_matches_dense_oracle():
    spec = GridSpec(1, 2)
    const = AccretiveSystem(spec, "constant", 2.0, 1.5)
    kernel = generate_kernel("haar-shift", spec)
    tloc = max(measure_tloc(kernel, const, 2.0, "direct"),
               measure_tloc(kernel, const, 2.0, "adjoint"))
    cfg = TbConfig(2.0, 2.0, 0.25, 1.5, Tloc=tloc)
    forest = build_corona(spec.root(), const, const, kernel, cfg)
    dense = lca_dense_matrix(kernel)
    cv = spec.cell_volume
    for cube in [spec.root(), DyadicCube(1, (0,))]:
        best = 0.0
        for q1 in cube.children():
            for q2 in cube.children():
                for b1 in (const.get_b(forest.pi(1, cube)), const.get_b(q1)):
                    for b2 in (const.get_b(forest.pi(2, cube)), const.get_b(q2)):
                        h1 = b1.restrict(q1).values
                        h2 = b2.restrict(q2).values
                        val = abs(float(h2 @ dense @ h1)) * cv
                        best = max(best, val / ((1 + tloc) * cube.volume))
        assert diagonal_lemma_check(kernel, forest, const, const, cube, tloc) == \
            pytest.approx(best, rel=1e-12)


def test_diagonal_finite_on_random_instances():
    inst = build_instance(1, 5, seed=41)
    worst = max(
        diagonal_lemma_check(inst.kernel, inst.forest, inst.sys1, inst.sys2, q, inst.tloc)
        for q in inst.spec.all_cubes(inst.forest.q0)
        if q.level < inst.spec.depth
    )
    assert np.isfinite(worst) and worst > 0.0


# -- box square function -----------------------------------------------------------------------


def test_box_square_function_trivial():
    spec, const, forest = classical_setup()
    ones = GridFunction.constant(spec, 1.0)
    assert box_square_function_check(forest, 1, const, ones, 2.0) == 0.0


def test_box_square_function_classical_case(rng):
    spec, const, forest = classical_setup(depth=5)
    f = rand_signs(spec, rng)
    got = box_square_function_check(forest, 1, const, f, 2.0)
    # classical square function computed directly
    sq = np.zeros(spec.n_cells)
    for q in spec.all_cubes(spec.root()):
        if q.level >= spec.depth:
            continue
        d = np.zeros(spec.n_cells)
        base = f.average(q)
        for child in q.children():
            d[spec.cell_indices(child)] = f.average(child) - base
        sq += d * d
    want = GridFunction(spec, np.sqrt(sq)).lp_norm(2.0)
    assert got == pytest.approx(want, rel=1e-12)


def test_box_square_function_finite_on_instances():
    inst = build_instance(1, 5, seed=51)
    for q in (1.5, 2.0, 3.0):
        val = box_square_function_check(inst.forest, 1, inst.sys1, inst.f, q)
        assert np.isfinite(val)


# -- adversarial search ------------------------------------------------------------------------


def test_search_parseval_ceiling_classical():
    spec = GridSpec(1, 5)
    const = AccretiveSystem(spec, "constant", 2.0, 1.5)
    ctx = make_context(const, spec.root(), 0.5)
    res = adversarial_transform_search(ctx, 2.0, n_restarts=6, seed=0)
    assert res.ratio <= 1.0 + 1e-10


def test_search_matches_exhaustive_corners(rng):
    # depth <= 3: enumerate every corner for the same fixed f
    spec = GridSpec(1, 3)
    sys_ = AccretiveSystem(spec, "two-value", 2.0, 1.5, seed=3, params={"s": 0.8})
    ctx = make_context(sys_, spec.root(), 0.4)
    cubes = ctx.q_cubes()
    assert len(cubes) <= 7
    f = rand_signs(spec, rng)
    res = adversarial_transform_search(ctx, 1.5, n_restarts=32, seed=1, functions=[f])
    deltas = [twisted_delta(ctx, q, f).values for q in cubes]
    fnorm = f.lp_norm(1.5)
    best = 0.0
    for corner in itertools.product([-1.0, 1.0], repeat=len(cubes)):
        vals = sum(e * d for e, d in zip(corner, deltas))
        best = max(best, GridFunction(spec, vals).lp_norm(1.5) / fnorm)
    assert res.ratio == pytest.approx(best, rel=1e-12)


def test_search_deterministic():
    spec = GridSpec(1, 4)
    sys_ = AccretiveSystem(spec, "random", 2.0, 1.6, seed=5, params={"amp": 0.6})
    ctx = make_context(sys_, spec.root(), 0.3)
    a = adversarial_transform_search(ctx, 2.0, n_restarts=4, seed=7)
    b = adversarial_transform_search(ctx, 2.0, n_restarts=4, seed=7)
    assert a.ratio == b.ratio
    assert all(a.eps.get(q) == b.eps.get(q) for q in ctx.q_cubes())


# -- instances, identity battery, experiment ----------------------------------------------------


def test_trial_seed_stream_derivation():
    assert trial_seed(1, 0) != trial_seed(1, 1)
    assert trial_seed(1, 5) == trial_seed(1, 5)
    assert trial_seed(2, 5) != trial_seed(1, 5)


def test_build_instance_deterministic():
    a = build_instance(1, 4, seed=99)
    b = build_instance(1, 4, seed=99)
    assert a.kernel.entries == b.kernel.entries
    assert a.tloc == b.tloc and a.cfg.delta == b.cfg.delta
    assert np.array_equal(a.f.values, b.f.values)


def test_run_identity_checks_keys_and_sizes():
    inst = build_instance(2, 3, seed=77)
    res = run_identity_checks(inst)
    expected = {
        "representation", "three_term", "delta_decomp", "measure_comparison_excess",
        "bilinear_expansion", "form_split", "b_above_aggregation", "pullout",
        "g_telescoping", "epsilon_max", "epsilon_bound",
    }
    assert set(res) == expected
    for name in expected - {"measure_comparison_excess", "epsilon_max", "epsilon_bound"}:
        assert res[name] <= 1e-9


def test_identity_suite_wrapper():
    res = identity_suite(1, 4, 3)
    assert res["representation"] <= 1e-9


def test_identity_battery_with_asymmetric_exponents():
    # nothing ties the two exponents together; conjugates must stay straight
    inst = build_instance(1, 5, seed=17, p1=1.5, p2=3.0)
    assert inst.ok
    res = run_identity_checks(inst)
    for name in RESIDUAL_FIELDS:
        assert res[name] <= 1e-9
    assert res["epsilon_max"] <= res["epsilon_bound"] * (1 + 1e-12)


def test_easy_terms_bounds_hold():
    for seed in (61, 62, 63):
        inst = build_instance(1, 5, seed=seed)
        easy = easy_terms_check(inst.kernel, inst.forest, inst.sys1, inst.sys2,
                                inst.f, inst.g, inst.tloc)
        assert easy["easy1"] <= easy["easy1_bound"] * (1 + 1e-12)
        assert easy["easy2"] <= easy["easy2_bound"] * (1 + 1e-12)


def test_experiment_zero_kernel_ratio_zero():
    cfg = ExperimentConfig(dim=1, depth=3, trials=2, seed=4, kernel_kind="zero",
                           accretive_kind="constant", A=1.5)
    reports = main_theorem_experiment(cfg)
    assert all(r.ratio == 0.0 for r in reports)
    assert all(r.ok for r in reports)


def test_experiment_haar_depth1_reproduces_constants():
    cfg = ExperimentConfig(dim=1, depth=1, trials=1, seed=9, kernel_kind="haar-shift",
                           accretive_kind="constant", A=1.5)
    report = main_theorem_experiment(cfg)[0]
    assert report.operator_norm == pytest.approx(0.5)
    assert report.tloc == pytest.approx(0.5)
    assert report.ratio == pytest.approx(0.5 / 1.5)


def test_forest_blocks_validate():
    inst = build_instance(1, 5, seed=71)
    n = check_forest_blocks(inst.forest, inst.sys1, inst.sys2)
    assert n == len(inst.forest.members(1)) + len(inst.forest.members(2))


# -- frozen regression values ---------------------------------------------------------------


def _fixtures():
    import json
    from pathlib import Path

    return json.loads(
        (Path(__file__).parent / "fixtures" / "frozen_constants.json").read_text())


def test_box_square_matches_frozen():
    frozen = _fixtures()["box_square"]
    for seed in (51, 52, 53):
        inst = build_instance(1, 5, seed=seed)
        for q in (1.5, 2.0, 3.0):
            val = box_square_function_check(inst.forest, 1, inst.sys1, inst.f, q)
            assert val == pytest.approx(frozen[f"seed{seed}|q{q}"], rel=1e-12)


def test_diagonal_matches_frozen():
    frozen = _fixtures()["diagonal_max"]
    for seed in (41, 42, 43):
        inst = build_instance(1, 5, seed=seed)
        worst = max(
            diagonal_lemma_check(inst.kernel, inst.forest, inst.sys1, inst.sys2, q, inst.tloc)
            for q in inst.spec.all_cubes(inst.forest.q0) if q.level < inst.spec.depth
        )
        assert worst == pytest.approx(frozen[f"seed{seed}"], rel=1e-12)


def test_choose_delta_matches_frozen_regression():
    frozen = _fixtures()["choose_delta_depth8"]
    # spot-check five of the twenty committed seeds (the acceptance suite
    # re-runs the whole packing criterion at this depth anyway)
    for key in sorted(frozen)[:5]:
        inst = build_instance(1, 8, seed=int(key))
        assert inst.ok and inst.cfg.delta == frozen[key]
