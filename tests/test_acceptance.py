"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Frozen empirical constants live in fixtures/frozen_constants.json (regenerate
with make_fixtures.py); everything else is checked against stated tolerances
or independent oracles computed here.
"""

import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest

from dytb.accretive import AccretiveSystem
from dytb.corona import build_corona, carleson_constant, packing_ratio
from dytb.grid import DyadicCube, GridFunction, GridSpec
from dytb.kernels import apply, bilinear, dense_matrix, generate_kernel
from dytb.twisted import (
    corona_levels,
    make_context,
    measure_comparison_check,
    transform,
    twisted_delta,
)
from dytb.verify import (
    RESIDUAL_FIELDS,
    ExperimentConfig,
    adversarial_transform_search,
    build_instance,
    epsilon_coefficient,
    main_theorem_experiment,
    lanczos_norm,
    operator_norm,
    run_identity_checks,
    trial_seed,
)

from oracles import check_forest_blocks, on_cube

FIXTURES = json.loads((Path(__file__).parent / "fixtures" / "frozen_constants.json").read_text())


def report(number, name, ok, detail):
    print(f"ACCEPTANCE {number} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} [{name}] failed: {detail}"


@pytest.fixture(scope="module")
def identity_runs():
    """200 random instances: 100 in 1D at depths up to 6, 100 in 2D at depths
    up to 3; the whole identity battery on each."""
    start = time.perf_counter()
    runs = []
    for dim, depths, master in ((1, (4, 5, 6), 1001), (2, (2, 3), 2002)):
        for k in range(100):
            seed = trial_seed(master, k)
            inst = build_instance(ExperimentConfig(dim=dim, depth=depths[k % len(depths)]), seed)
            assert inst.ok, f"delta search failed on identity seed {seed}"
            runs.append((inst, run_identity_checks(inst)))
    return runs, time.perf_counter() - start


@pytest.fixture(scope="module")
def experiment_run():
    start = time.perf_counter()
    reports = main_theorem_experiment(ExperimentConfig())
    return reports, time.perf_counter() - start


def test_criterion_1_exact_identities(identity_runs):
    runs, elapsed = identity_runs
    checked = ("representation", "three_term", "delta_decomp", "bilinear_expansion",
               "form_split", "b_above_aggregation", "g_telescoping")
    worst = max(res[name] for _, res in runs for name in checked)
    ok = worst <= 1e-9 and elapsed <= 60.0
    report(1, "exact-identities", ok,
           f"max residual {worst:.3e} over {len(runs)} instances in {elapsed:.1f}s")


def test_criterion_2_oracle_equivalence():
    spec = GridSpec(1, 5)
    rng = np.random.default_rng(5150)
    worst = 0.0
    worst_norm = 0.0
    for seed in range(50):
        kernel = generate_kernel("random", spec, seed=seed)
        dense = dense_matrix(kernel)
        f = GridFunction(spec, rng.uniform(-1, 1, spec.n_cells))
        g = GridFunction(spec, rng.uniform(-1, 1, spec.n_cells))
        fast = apply(kernel, f).values
        ref = dense @ f.values
        scale = float(np.max(np.abs(ref))) + 1e-30
        worst = max(worst, float(np.max(np.abs(fast - ref))) / scale)
        quad = float(g.values @ dense @ f.values) * spec.cell_volume
        worst = max(worst, abs(bilinear(kernel, f, g) - quad) / (1 + abs(quad)))
        svd = operator_norm(kernel, "dense-svd")
        worst_norm = max(worst_norm, abs(lanczos_norm(kernel).value - svd) / svd)
    ok = worst <= 1e-6 and worst_norm <= 1e-12

    big = GridSpec(1, 14)
    big_kernel = generate_kernel("random", big, seed=0)
    big_f = GridFunction(big, np.random.default_rng(0).uniform(-1, 1, big.n_cells))
    t0 = time.perf_counter()
    apply(big_kernel, big_f)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    report(2, "oracle-equivalence", ok,
           f"max rel err {worst:.3e}; Lanczos norm rel err {worst_norm:.3e}; "
           f"depth-14 apply {elapsed * 1000:.0f}ms")


def test_criterion_3_perfect_cancellation():
    rng = np.random.default_rng(333)
    worst = 0.0
    for k in range(200):
        spec = GridSpec(1, 6)
        kernel = generate_kernel("random", spec, seed=k % 20)
        level = int(rng.integers(1, 6))
        fp, fq = rng.choice(2**level, size=2, replace=False)
        p = DyadicCube(level, (int(fp),))
        q = DyadicCube(level, (int(fq),))
        fv = np.zeros(spec.n_cells)
        idx = spec.cell_indices(p)
        vals = rng.uniform(-1, 1, idx.size)
        fv[idx] = vals - vals.mean()
        f = GridFunction(spec, fv)
        gv = np.zeros(spec.n_cells)
        gv[spec.cell_indices(q)] = rng.uniform(-1, 1, idx.size)
        g = GridFunction(spec, gv)
        bound = 1e-12 * f.lp_norm(2.0) * g.lp_norm(2.0)
        val = abs(bilinear(kernel, f, g))
        worst = max(worst, val / bound if bound else 0.0)
        assert val <= bound
    report(3, "perfect-cancellation", True, f"200 pairs, worst at {worst:.2e} of the budget")


def test_criterion_4_classical_reductions():
    spec = GridSpec(1, 6)
    const = AccretiveSystem(spec, "constant", 2.0, 1.5)
    ctx = make_context(const, spec.root(), 0.5)
    forest = build_corona(spec.root(), const, const, generate_kernel("zero", spec), 0.5, 0.0)
    rng = np.random.default_rng(444)
    f = GridFunction(spec, rng.uniform(-1, 1, spec.n_cells))
    deltas = corona_levels(forest, 1, f).deltas
    cellwise = 0.0
    for q in ctx.q_cubes():
        classical = np.zeros(spec.n_cells)
        base = f.average(q)
        for child in q.children():
            classical[spec.cell_indices(child)] = f.average(child) - base
        cellwise = max(cellwise, float(np.max(np.abs(twisted_delta(ctx, q, f).values - classical))))
        cellwise = max(cellwise, float(np.max(np.abs(on_cube(spec, q, deltas[q.level]) - classical))))
    ratio_worst = 0.0
    for _ in range(200):
        signs = GridFunction(spec, rng.choice([-1.0, 1.0], spec.n_cells))
        eps = ctx.random_coefficients(rng)
        ratio_worst = max(ratio_worst,
                          transform(ctx, eps, signs).lp_norm(2.0) / signs.lp_norm(2.0))
    ok = cellwise <= 1e-12 and ratio_worst <= 1.0 + 1e-10
    report(4, "classical-reductions", ok,
           f"cellwise {cellwise:.2e}; worst 2-norm ratio {ratio_worst:.12f}")


def test_criterion_5_corona_structure():
    spec = GridSpec(1, 4)
    const = AccretiveSystem(spec, "constant", 2.0, 1.5)
    trivial = build_corona(spec.root(), const, const, generate_kernel("zero", spec), 0.5, 0.0)
    ok = set(trivial.members(1)) == {spec.root()} and set(trivial.members(2)) == {spec.root()}

    worst_pack = 0.0
    worst_carleson = 0.0
    blocks = 0
    for k in range(100):
        inst = build_instance(ExperimentConfig(dim=1, depth=8), trial_seed(777, k))
        ok = ok and inst.ok
        forest = inst.forest
        pack = max(packing_ratio(forest, 1), packing_ratio(forest, 2))
        carl = max(carleson_constant(forest.members(1), forest.q0),
                   carleson_constant(forest.members(2), forest.q0))
        worst_pack = max(worst_pack, pack)
        worst_carleson = max(worst_carleson, carl)
        blocks += check_forest_blocks(forest)
    ok = ok and worst_pack <= 0.9 and worst_carleson <= 11.0
    report(5, "corona-structure", ok,
           f"100 depth-8 instances; packing <= {worst_pack:.3f}, Carleson <= "
           f"{worst_carleson:.3f}, {blocks} blocks denominator-safe")


def test_criterion_6_measure_comparison():
    rng = np.random.default_rng(666)
    worst = -np.inf
    count = 0
    for kind, params, a_const, delta in (
        ("two-value", {"s": 0.8}, 1.5, 0.45),
        ("random", {"amp": 0.6}, 1.6, 0.3),
    ):
        spec = GridSpec(1, 6)
        for seed in range(50):
            system = AccretiveSystem(spec, kind, 2.0, a_const, seed=seed, params=params)
            ctx = make_context(system, spec.root(), delta)
            f = GridFunction(spec, rng.choice([-1.0, 1.0], spec.n_cells))
            eps = ctx.random_coefficients(rng)
            cap = 2.0**spec.dim * delta**-2.0 * a_const**2.0
            excess = measure_comparison_check(ctx, eps, f)
            worst = max(worst, excess / cap)
            assert excess <= 1e-12 * cap
            count += 1
    report(6, "measure-comparison", True,
           f"{count} contexts, worst excess {worst:.2e} of the cap")


def test_criterion_7_transform_bound_regression():
    # exhaustive corner enumeration at depth 3 matches the search exactly
    spec = GridSpec(1, 3)
    rng = np.random.default_rng(777)
    exact = True
    for seed in range(5):
        system = AccretiveSystem(spec, "two-value", 1.5, 1.5, seed=seed, params={"s": 0.8})
        ctx = make_context(system, spec.root(), 0.4)
        cubes = ctx.q_cubes()
        f = GridFunction(spec, rng.choice([-1.0, 1.0], spec.n_cells))
        res = adversarial_transform_search(ctx, 1.5, n_restarts=32, seed=seed, functions=[f])
        deltas = [twisted_delta(ctx, q, f).values for q in cubes]
        best = max(
            GridFunction(spec, sum(e * d for e, d in zip(corner, deltas))).lp_norm(1.5)
            for corner in itertools.product([-1.0, 1.0], repeat=len(cubes))
        ) / f.lp_norm(1.5)
        exact = exact and abs(res.ratio - best) <= 1e-12 * best

    # depth-6 classes against the frozen constants
    spec6 = GridSpec(1, 6)
    frozen_ok = True
    worst_margin = 0.0
    for name, kind, params, a_const, delta in (
        ("two-value-s0.8-A1.5-d0.45", "two-value", {"s": 0.8}, 1.5, 0.45),
        ("random-amp0.6-A1.6-d0.3", "random", {"amp": 0.6}, 1.6, 0.3),
    ):
        for p in (1.5, 2.0, 3.0):
            cap = FIXTURES["search_ratio_max"][f"{name}|p{p}"]
            for seed in range(10):
                system = AccretiveSystem(spec6, kind, p, a_const, seed=seed, params=params)
                ctx = make_context(system, spec6.root(), delta)
                res = adversarial_transform_search(ctx, p, n_restarts=8, seed=seed)
                frozen_ok = frozen_ok and res.ratio <= cap * (1 + 1e-12)
                worst_margin = max(worst_margin, res.ratio / cap)
    ok = exact and frozen_ok
    report(7, "transform-bound-regression", ok,
           f"exhaustive match at depth 3; depth-6 worst at {worst_margin:.6f} of frozen")


def test_criterion_8_main_theorem_smoke(experiment_run):
    reports, elapsed = experiment_run
    cap = FIXTURES["main_ratio_max"]
    ok = len(reports) == 100 and all(r.ok for r in reports)
    worst = max(r.ratio for r in reports)
    ok = ok and worst <= cap * (1 + 1e-12)
    worst_res = max(r.residuals[name] for r in reports for name in RESIDUAL_FIELDS)
    ok = ok and worst_res <= 1e-9 and elapsed <= 300.0

    zero = main_theorem_experiment(ExperimentConfig(
        depth=3, trials=1, kernel_kind="zero", accretive_kind="constant", A=1.5))[0]
    ok = ok and zero.ratio == 0.0
    haar = main_theorem_experiment(ExperimentConfig(
        depth=1, trials=1, kernel_kind="haar-shift", accretive_kind="constant", A=1.5))[0]
    ok = ok and abs(haar.tloc - 0.5) <= 1e-12 and abs(haar.operator_norm - 0.5) <= 1e-12
    report(8, "main-theorem-smoke", ok,
           f"100 seeds in {elapsed:.1f}s; max ratio {worst:.6f} <= {cap:.6f}; "
           f"max residual {worst_res:.2e}; zero-kernel ratio 0; depth-1 constants 0.5/0.5")


def test_criterion_9_epsilon_bound(identity_runs, experiment_run):
    runs, _ = identity_runs
    reports, _ = experiment_run
    ok = all(res["epsilon_max"] <= res["epsilon_bound"] * (1 + 1e-12) for _, res in runs)
    ok = ok and all(r.epsilon_max <= r.epsilon_bound * (1 + 1e-12) for r in reports)
    worst_classical = 0.0
    for seed in range(10):
        inst = build_instance(ExperimentConfig(dim=1, depth=5, accretive_kind="constant", A=1.5),
                              trial_seed(909, seed))
        assert inst.ok
        forest = inst.forest
        for s in forest.members(1):
            for cube in inst.spec.all_cubes(s):
                if cube == s:
                    continue
                val = abs(epsilon_coefficient(forest, inst.f, s, cube))
                worst_classical = max(worst_classical, val)
    ok = ok and worst_classical <= 2.0 + 1e-12
    report(9, "epsilon-coefficient-bound", ok,
           f"2/delta bound on all CI instances; classical class max {worst_classical:.4f} <= 2")
