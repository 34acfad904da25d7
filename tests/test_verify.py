import gc
import itertools
import math
import tracemalloc
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from dytb import cli, corona, kernels, twisted, verify
from dytb.accretive import AccretiveSystem
from dytb.corona import build_corona, conjugate, packing_ratio
from dytb.grid import DyadicCube, GridFunction, GridSpec, cube_blocks, spread
from dytb.kernels import PerfectKernel, adjoint, apply_values, generate_kernel
from dytb.twisted import TwistedContext, corona_levels, make_context, twisted_delta
from dytb.verify import (
    AUTO_DENSE_CELLS,
    RESIDUAL_FIELDS,
    ExperimentConfig,
    LanczosResult,
    Pairings,
    adversarial_transform_search,
    b_above_aggregation,
    bilinear_expansion_check,
    build_instance,
    easy_terms_check,
    epsilon_coefficient,
    form_split,
    identity_suite,
    lanczos_norm,
    main_theorem_experiment,
    operator_norm,
    run_identity_checks,
    trial_seed,
)
from dytb.verify import testing_constant as measure_tloc

from conftest import rand_signs
import make_cli_golden
from oracles import (box_square_function_check, check_forest_blocks, diagonal_lemma_check,
                     haar_shift_tloc, on_cube)
from test_accretive import GRIDS, KIND_SETUPS
from test_kernels import lca_dense_matrix
from test_twisted import enumerated_corona_delta, enumerated_half_twisted_block, walk_pi


def classical_setup(depth=4, dim=1):
    spec = GridSpec(dim, depth)
    const = AccretiveSystem(spec, "constant", 2.0, 1.5)
    forest = build_corona(spec.root(), const, const, generate_kernel("zero", spec), 0.5, 0.0)
    return spec, forest


# -- operator norm ------------------------------------------------------------------


@dataclass(frozen=True)
class PowerResult:
    value: float
    converged: bool
    iterations: int
    achieved_tol: float


def power_norm(
    kernel: PerfectKernel, tol: float = 1e-8, max_iter: int = 10_000, seed: int = 0
) -> PowerResult:
    """Oracle: L^2 operator norm by power iteration on T*T via the fast apply.

    It stops when the iterate stops moving, not when it is close to sigma_1,
    so its true error can exceed ``tol`` by orders of magnitude.
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


def test_norm_zero_kernel():
    spec = GridSpec(1, 3)
    zk = generate_kernel("zero", spec)
    assert operator_norm(zk, "dense-svd") == 0.0
    assert operator_norm(zk, "lanczos") == 0.0
    res = lanczos_norm(zk)
    assert res == LanczosResult(0.0, True, 1, 0.0)


def test_norm_depth1_example():
    spec = GridSpec(1, 1)
    t = PerfectKernel(spec, {(0, 0, 0, 1): 1.0, (0, 0, 1, 0): -1.0})
    # 2x2 oracle in the normalized cell basis: [[0, .5], [-.5, 0]]
    oracle = np.linalg.svd(np.array([[0.0, 0.5], [-0.5, 0.0]]), compute_uv=False)[0]
    assert operator_norm(t, "dense-svd") == pytest.approx(oracle)
    assert oracle == pytest.approx(0.5)
    # T*T = I/4: the first step spans an invariant pair and the run stops there
    res = lanczos_norm(t)
    assert res.converged and res.steps == 1
    assert res.value == pytest.approx(0.5, rel=1e-15)


LANCZOS_CASES = [
    *[(1, 5, "random", seed, 1.0) for seed in range(50)],
    *[(1, depth, "random", seed, 1.0) for depth in (8, 9, 10) for seed in range(3)],
    *[(2, depth, "random", seed, 1.0) for depth in (3, 4, 5) for seed in range(3)],
    *[(dim, depth, "haar-shift", 0, 1.0) for dim, depth in ((1, 5), (1, 9), (2, 3), (2, 5))],
    *[(dim, depth, "random", 7, 0.3) for dim, depth in ((1, 8), (1, 10), (2, 4), (2, 5))],
    *[(dim, depth, "random", 4, 1.0) for dim, depth in ((1, 1), (1, 2), (2, 1))],  # all cells spanned
]


def every_step_lanczos(kernel, tol=verify.RITZ_TOL, max_steps=500, seed=0) -> LanczosResult:
    """Oracle: ``lanczos_norm`` with a Ritz check at every step of the same
    recurrence."""
    n = kernel.spec.n_cells
    steps = min(max_steps, n)
    sigma, residual = 0.0, np.inf
    for k, alpha, beta in verify._golub_kahan(kernel, steps, seed):
        sigma, residual = verify._ritz(alpha, beta, k)
        if residual <= tol * sigma or k + 1 == n:
            return LanczosResult(sigma, True, k + 1, residual)
    return LanczosResult(sigma, False, steps, residual)


def two_sided_lanczos(kernel, tol=verify.RITZ_TOL, seed=0) -> LanczosResult:
    """Oracle: Golub-Kahan-Lanczos with both bases kept and reorthogonalised
    (classical Gram-Schmidt, twice, through BLAS) and a Ritz check at every
    step."""
    n = kernel.spec.n_cells
    adj = adjoint(kernel)
    steps = min(500, n)
    V, U = np.zeros((steps + 1, n)), np.zeros((steps, n))
    alpha, beta = np.zeros(steps), np.zeros(steps)
    v = np.random.default_rng(seed).standard_normal(n)
    V[0] = v / np.linalg.norm(v)
    for k in range(steps):
        u = apply_values(kernel, V[k])
        if k:
            u -= beta[k - 1] * U[k - 1]
            for _ in range(2):
                u -= U[:k].T @ (U[:k] @ u)
        alpha[k] = np.linalg.norm(u)
        if alpha[k] == 0.0:
            return LanczosResult(verify._ritz(alpha, beta, k)[0], True, k + 1, 0.0)
        U[k] = u / alpha[k]
        w = apply_values(adj, U[k]) - alpha[k] * V[k]
        for _ in range(2):
            w -= V[: k + 1].T @ (V[: k + 1] @ w)
        beta[k] = np.linalg.norm(w)
        sigma, residual = verify._ritz(alpha, beta, k)
        if residual <= tol * sigma or k + 1 == n:
            return LanczosResult(sigma, True, k + 1, residual)
        V[k + 1] = w / beta[k]
    return LanczosResult(sigma, False, steps, residual)


def test_lanczos_matches_dense():
    """Lanczos against dense SVD at 1e-12 relative (the power oracle met 1e-6)."""
    for dim, depth, kind, seed, scale in LANCZOS_CASES:
        t = generate_kernel(kind, GridSpec(dim, depth), seed=seed, scale=scale)
        dense = operator_norm(t, "dense-svd")
        res = lanczos_norm(t)
        assert res.converged and res.residual <= 1e-13 * res.value, (dim, depth, kind, seed)
        assert res.value == pytest.approx(dense, rel=1e-12), (dim, depth, kind, seed)


def test_lanczos_beats_the_power_oracle():
    """At the power oracle's tolerance its true error is far above Lanczos's."""
    t = generate_kernel("random", GridSpec(1, 9), seed=1)
    dense = operator_norm(t, "dense-svd")
    power = power_norm(t, tol=1e-8)
    assert power.converged
    assert abs(lanczos_norm(t).value - dense) <= 1e-12 * dense < abs(power.value - dense)


def test_lanczos_is_deterministic():
    t = generate_kernel("random", GridSpec(2, 5), seed=3)
    assert lanczos_norm(t) == lanczos_norm(t)
    assert lanczos_norm(t, seed=1).value == pytest.approx(lanczos_norm(t).value, rel=1e-12)


def test_lanczos_reports_nonconvergence():
    t = generate_kernel("random", GridSpec(1, 5), seed=1)
    res = lanczos_norm(t, max_steps=2)
    assert not res.converged
    assert res.steps == 2 and res.residual > 1e-13 * res.value


def test_scheduled_ritz_checks_match_a_check_at_every_step():
    kernels_ = [generate_kernel(kind, GridSpec(dim, depth), seed=seed, scale=scale)
                for dim, depth, kind, seed, scale in LANCZOS_CASES]
    golden = ExperimentConfig(dim=2, depth=5)  # the 2D d5 golden trials
    kernels_ += [build_instance(golden, trial_seed(0, trial)).kernel
                 for trial in range(make_cli_golden.TB_TRIALS)]
    for t in kernels_:
        assert lanczos_norm(t) == every_step_lanczos(t), t.spec
    zk = generate_kernel("zero", GridSpec(1, 3))
    assert lanczos_norm(zk) == every_step_lanczos(zk) == LanczosResult(0.0, True, 1, 0.0)
    t = PerfectKernel(GridSpec(1, 1), {(0, 0, 0, 1): 1.0, (0, 0, 1, 0): -1.0})
    assert lanczos_norm(t) == every_step_lanczos(t) and lanczos_norm(t).steps == 1
    t = generate_kernel("random", GridSpec(1, 5), seed=1)
    assert lanczos_norm(t, max_steps=2) == every_step_lanczos(t, max_steps=2)
    assert not lanczos_norm(t, max_steps=2).converged


def test_ritz_svd_runs_on_the_schedule(monkeypatch):
    t = build_instance(ExperimentConfig(dim=2, depth=5), trial_seed(0, 0)).kernel
    res = lanczos_norm(t)
    checks = []
    real = verify._ritz
    monkeypatch.setattr(verify, "_ritz", lambda *a: checks.append(a[2]) or real(*a))
    assert lanczos_norm(t) == res and res.steps == 35
    # every 4th step (0-based k = 3, 7, ...) up to the check that passes at
    # k = 35, then the skipped steps in order up to the first that converged
    assert checks == [*range(3, 36, 4), 32, 33, 34]


def test_one_sided_reorthogonalisation_keeps_the_two_sided_steps():
    """Reorthogonalising only V takes the same number of steps as both bases
    and moves the value only by rounding."""
    for depth in (10, 12, 14):
        for seed in range(3):
            t = generate_kernel("random", GridSpec(1, depth), seed=seed)
            res, ref = lanczos_norm(t), two_sided_lanczos(t)
            assert res.converged and res.steps == ref.steps, (depth, seed)
            assert res.value == pytest.approx(ref.value, rel=1e-14), (depth, seed)


def test_lanczos_memory_is_the_basis_blocks():
    """The norm keeps V in blocks of BASIS_BLOCK rows and no left basis: its
    tracemalloc peak is the filled rows plus one block, plus O(n)
    temporaries (a run passes a converged step by at most RITZ_EVERY - 1)."""
    t = generate_kernel("random", GridSpec(1, 12), seed=0)
    adjoint(t)  # built once per kernel, outside the measured run
    tracemalloc.start()
    try:
        res = lanczos_norm(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = res.steps + verify.RITZ_EVERY + verify.BASIS_BLOCK
    assert res.converged and peak <= (rows + 16) * t.spec.n_cells * 8


def test_unconverged_lanczos_norm_raises():
    t = generate_kernel("random", GridSpec(1, 5), seed=1)
    with pytest.raises(RuntimeError, match=r"did not converge in 2 steps"):
        operator_norm(t, "lanczos", max_steps=2)
    assert operator_norm(t, "lanczos") == lanczos_norm(t).value


def test_auto_norm_dispatch():
    for dim, depth in ((1, 8), (2, 4)):  # 256 cells: still the dense SVD
        t = generate_kernel("random", GridSpec(dim, depth), seed=2)
        assert t.spec.n_cells == AUTO_DENSE_CELLS
        assert operator_norm(t) == operator_norm(t, "auto") == operator_norm(t, "dense-svd")
    t = generate_kernel("random", GridSpec(1, 9), seed=2)
    assert operator_norm(t) == lanczos_norm(t).value
    with pytest.raises(ValueError, match="unknown method"):
        operator_norm(t, "power")


def test_trial_at_dense_size_reports_the_dense_norm():
    for dim, depth in ((1, 8), (2, 4)):
        config = ExperimentConfig(dim=dim, depth=depth, trials=1, seed=5)
        [report] = main_theorem_experiment(config)
        inst = build_instance(ExperimentConfig(dim=dim, depth=depth), trial_seed(5, 0))
        assert report.operator_norm == operator_norm(inst.kernel, "dense-svd")


def test_trial_packing_is_the_max_of_both_packing_ratios():
    attempts = []
    for dim, depth, tau_target in ((1, 5, 0.9), (1, 6, 0.3), (2, 3, 0.9), (2, 4, 0.3)):
        config = ExperimentConfig(dim=dim, depth=depth, trials=3, seed=11, tau_target=tau_target)
        for trial, report in enumerate(main_theorem_experiment(config)):
            inst = build_instance(config, trial_seed(11, trial))
            assert report.ok and inst.ok
            forest = inst.forest
            assert report.packing == max(packing_ratio(forest, 1), packing_ratio(forest, 2))
            attempts.append(len(report.delta_trace))
    assert max(attempts) > 1  # some search kept the last of several forests


def test_failed_delta_search_has_no_forest_and_no_battery():
    # signed systems can never pack below 1/2: the search to 0.3 reaches the floor
    config = ExperimentConfig(depth=4, trials=1, accretive_kind="signed", tau_target=0.3)
    seed = trial_seed(config.seed, 0)
    inst = build_instance(config, seed)
    assert not inst.ok and len(inst.dsearch.trace) == 20
    with pytest.raises(RuntimeError, match="delta search failed; no forest on this instance"):
        inst.forest
    with pytest.raises(RuntimeError, match=f"delta search failed on seed {seed}"):
        identity_suite(config, seed)
    [report] = main_theorem_experiment(config)
    assert not report.ok and report.ratio == report.operator_norm / (1.0 + inst.tloc)
    assert (report.delta, report.packing, report.carleson, report.epsilon_max,
            report.epsilon_bound) == (None,) * 5
    assert report.residuals == {} and report.easy == {} and report.delta_trace == inst.dsearch.trace


def test_dense_norm_guard():
    spec = GridSpec(1, 13)
    t = generate_kernel("zero", spec)
    with pytest.raises(ValueError):
        operator_norm(t, "dense-svd")
    assert operator_norm(t) == 0.0


# -- testing constant ----------------------------------------------------------------


def test_tloc_zero_kernel():
    spec = GridSpec(1, 4)
    const = AccretiveSystem(spec, "constant", 2.0, 1.5)
    assert measure_tloc(generate_kernel("zero", spec), const, 2.0) == 0.0


def test_tloc_depth1_haar_shift():
    spec = GridSpec(1, 1)
    const = AccretiveSystem(spec, "constant", 2.0, 1.5)
    hs = generate_kernel("haar-shift", spec)
    assert measure_tloc(hs, const, 2.0) == pytest.approx(0.5)
    assert measure_tloc(adjoint(hs), const, 2.0) == pytest.approx(0.5)


@pytest.mark.parametrize("dim,max_depth", [(1, 16), (2, 8)])
def test_haar_shift_tloc_has_its_closed_form(dim, max_depth):
    # constant systems against the haar-shift kernel: an instance's Tloc is a
    # moment of a sum of independent child values (oracles.haar_shift_tloc),
    # and with p1 != p2 the larger dual exponent wins
    for depth in range(max_depth + 1):
        spec = GridSpec(dim, depth)
        kernel = generate_kernel("haar-shift", spec)
        for p1, p2 in ((1.25, 1.25), (2.0, 2.0), (3.0, 3.0), (1.5, 3.0)):
            sys1, sys2 = (AccretiveSystem(spec, "constant", p, 1.5) for p in (p1, p2))
            tloc = verify._tloc(kernel, sys1, sys2)
            assert tloc == pytest.approx(haar_shift_tloc(dim, depth, max(conjugate(p1), conjugate(p2))),
                                         rel=1e-13, abs=0.0)
            if dim == 1 and p1 == p2 == 2.0:
                assert tloc == pytest.approx(math.sqrt(depth) / 2, rel=1e-13, abs=0.0)


def test_tloc_overflowing_exponent_is_a_config_error():
    spec = GridSpec(1, 4)
    const = AccretiveSystem(spec, "constant", 2.0, 1.5)
    kernel = generate_kernel("random", spec, seed=0)
    assert max(np.abs(const.level_sweep(adjoint(kernel), level)).max() for level in range(5)) > 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^exponent q=10000000000.0 \(conjugate to 1.0000000001"
                                             r"\d*\) is too large for float64 powers$"):
            measure_tloc(adjoint(kernel), const, 1e10)


@pytest.mark.parametrize("kind", ["constant", "signed"])
def test_instance_rejects_amp_of_a_kind_without_one(kind):
    # an amp that no system would read is an error, not a value in the report's config
    with pytest.raises(ValueError, match=f"^{kind} systems take no parameter 'amp'$"):
        build_instance(ExperimentConfig(dim=1, depth=3, accretive_kind=kind, amp=0.3), 0)
    assert build_instance(ExperimentConfig(dim=1, depth=3, accretive_kind=kind), 0).sys1.params == {}
    assert cli.main(["identities", "--depth", "3", "--accretive-kind", kind, "--amp", "0.3"]) == cli.EXIT_CONFIG


def test_tloc_matches_brute_force(rng):
    spec = GridSpec(1, 4)
    t = generate_kernel("random", spec, seed=12)
    sys_ = AccretiveSystem(spec, "random", 2.0, 1.6, seed=3, params={"amp": 0.6})
    dense = lca_dense_matrix(t)
    for op, m in ((t, dense), (adjoint(t), dense.T)):
        best = 0.0
        for cube in spec.all_cubes():
            b = sys_.get_b(cube)
            tb = m @ b.values
            idx = spec.cell_indices(cube)
            best = max(best, float(np.mean(np.abs(tb[idx]) ** 2)) ** 0.5)
        assert measure_tloc(op, sys_, 2.0) == pytest.approx(best, rel=1e-12)


def tloc_by_enumeration(op, system, qs):
    """Reference Tloc per exponent: one full-grid apply of T b_Q per cube Q."""
    spec = op.spec
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
        for op in [op for kernel in kernels for op in (kernel, adjoint(kernel))]:
            for q, expected in tloc_by_enumeration(op, sys_, (1.5, 2.0)).items():
                assert measure_tloc(op, sys_, q) == expected


def test_tloc_memory_stays_level_tiled(monkeypatch):
    # a return to one full-grid b_Q per cube would be O(cells^2) memory
    spec = GridSpec(1, 12)
    kernel = generate_kernel("random", spec, seed=1)
    sys_ = AccretiveSystem(spec, "random", 2.0, 1.6, seed=2, params={"amp": 0.6})

    def no_copies(self, cube):
        raise AssertionError("testing_constant made a full-grid b copy")

    monkeypatch.setattr(AccretiveSystem, "get_b", no_copies)
    measure_tloc(kernel, sys_, 2.0)
    measure_tloc(adjoint(kernel), sys_, 2.0)
    assert sorted(sys_._levels) == list(range(spec.depth + 1))
    assert all(v.shape == (spec.n_cells,) for v in sys_._levels.values())


def test_each_level_array_is_swept_once(monkeypatch, capsys):
    # testing_constant, the corona's stopping rule (3) in every choose_delta
    # attempt and the nested form read T b from the system's memo: no
    # (operator, values, start) is swept twice in a trial or a corona run
    real = kernels._sweep_from
    seen = []  # holds every swept array, so no id is reused within a run

    def counted(op, values, start):
        seen.append((op, values, start))
        return real(op, values, start)

    for module in (kernels, verify):
        monkeypatch.setattr(module, "_sweep_from", counted)
    for run in (lambda: verify._run_trial(ExperimentConfig(dim=2, depth=5, trials=1, seed=1), 0),
                lambda: cli.main(["corona", "--dim", "1", "--depth", "10"])):
        seen.clear()
        run()
        keys = [(id(op), id(values), start) for op, values, start in seen]
        assert len(keys) == len(set(keys))
        assert sum(start > 0 for *_, start in seen) >= 10  # the level arrays went through
    capsys.readouterr()


def test_trial_pairs_each_pair_of_levels_once(monkeypatch):
    # the battery reads every <T D_a f, D_b g> from one table: four bilinear
    # calls per trial (total, the two rank-one terms, the split's total), and
    # the block invariants are checked on the trial's own level calculus
    calls = []
    for module, name in ((kernels, "bilinear"), (verify, "bilinear"),
                         (twisted, "corona_levels"), (verify, "corona_levels")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, real=real, name=name: calls.append(name) or real(*a))
    for dim, depth in ((1, 6), (2, 5)):
        calls.clear()
        assert verify._run_trial(ExperimentConfig(dim=dim, depth=depth, trials=1, seed=1), 0).ok
        assert (calls.count("bilinear"), calls.count("corona_levels")) == (4, 2)


def test_sweep_memo_is_read_only_and_weak():
    inst = build_instance(ExperimentConfig(dim=2, depth=4), 3)
    for system, op in ((inst.sys1, inst.kernel), (inst.sys2, adjoint(inst.kernel))):
        memo = system._sweeps[op]
        assert sorted(memo) == list(range(inst.spec.depth + 1))
        for level, tb in memo.items():
            assert not tb.flags.writeable and system.level_sweep(op, level) is tb
            fresh = kernels._sweep_from(op, system.level_values(level), level)
            assert tb.tobytes() == fresh.tobytes()
    sys1 = inst.sys1
    del inst
    gc.collect()
    assert len(sys1._sweeps) == 0  # kept only while the operator lives


# -- bilinear expansion -----------------------------------------------------------------


def test_expansion_zero_kernel(rng):
    spec, forest = classical_setup()
    pairings = Pairings(forest, rand_signs(spec, rng), rand_signs(spec, rng))
    residual, parts = bilinear_expansion_check(pairings)
    assert parts["total"] == 0.0 and residual == 0.0


def test_expansion_classical_ones():
    spec = GridSpec(1, 5)
    const = AccretiveSystem(spec, "constant", 2.0, 1.5)
    kernel = generate_kernel("random", spec, seed=2)
    tloc = max(measure_tloc(kernel, const, 2.0),
               measure_tloc(adjoint(kernel), const, 2.0))
    forest = build_corona(spec.root(), const, const, kernel, 0.5, tloc)
    ones = GridFunction.constant(spec, 1.0)
    residual, _ = bilinear_expansion_check(Pairings(forest, ones, ones))
    assert residual <= 1e-10


def test_expansion_random_instances():
    for seed in (5, 6, 7):
        inst = build_instance(ExperimentConfig(dim=1, depth=5), seed)
        residual, _ = bilinear_expansion_check(Pairings(inst.forest, inst.f, inst.g))
        assert residual <= 1e-9


# -- form split --------------------------------------------------------------------------


def test_form_split_zero_kernel(rng):
    spec, forest = classical_setup()
    fs = form_split(Pairings(forest, rand_signs(spec, rng), rand_signs(spec, rng)))
    assert fs.b_above == fs.b_equal == fs.b_below == fs.total == 0.0


def test_form_split_depth1_all_in_equal(rng):
    spec = GridSpec(1, 1)
    const = AccretiveSystem(spec, "constant", 2.0, 1.5)
    kernel = PerfectKernel(spec, {(0, 0, 0, 1): 1.0, (0, 0, 1, 0): -1.0})
    tloc = measure_tloc(kernel, const, 2.0)
    forest = build_corona(spec.root(), const, const, kernel, 0.5, tloc)
    f, g = rand_signs(spec, rng), rand_signs(spec, rng)
    fs = form_split(Pairings(forest, f, g))
    assert fs.b_above == 0.0 and fs.b_below == 0.0
    assert fs.b_equal == pytest.approx(fs.total, abs=1e-15)


def test_form_split_matches_double_loop_oracle(rng):
    inst = build_instance(ExperimentConfig(dim=1, depth=5), 9)
    spec, forest = inst.spec, inst.forest
    fs = form_split(Pairings(forest, inst.f, inst.g))
    assert fs.residual <= 1e-9
    dense = lca_dense_matrix(inst.kernel)
    cv = spec.cell_volume
    cubes = list(spec.all_cubes(forest.q0, max_level=spec.depth - 1))
    lf, lg = corona_levels(forest, 1, inst.f), corona_levels(forest, 2, inst.g)
    df = {q: on_cube(spec, q, lf.deltas[q.level]) for q in cubes}
    dg = {q: on_cube(spec, q, lg.deltas[q.level]) for q in cubes}
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


@dataclass(frozen=True)
class PerBlock:
    value: float  # signed block contribution
    bound: float  # Tloc * |S|
    pullout_residual: float  # worst relative mismatch of the constant pull-out


def per_block_b_above(forest, f, g, member):
    """One corona block's share of the nested form, one full apply per block
    cube P (and one for the member):

        1_{S != Q0} <f>_S sum_{Q in S} <T b_S, D_Q g>
        + sum_{P: parent(P) = S} sum_{Q strictly in P} <T (b_S w_P), D_Q g>

    with w_P the per-cube block difference (constant on P's children).  Each
    inner pairing is also recomputed in pulled-out form
    <w_P>_{child of P over Q} * <T b_S, D_Q g> and the worst relative
    mismatch reported."""
    spec, kernel = forest.spec, forest.kernel
    lf, lg = corona_levels(forest, 1, f), corona_levels(forest, 2, g)
    g_blocks = {b: cube_blocks(spec, b, lg.deltas[b]) for b in range(member.level, spec.depth)}

    def pairings(u):
        """<u, D_Q g> for every cube Q of each level, one row-wise dot per level."""
        return {b: np.sum(cube_blocks(spec, b, u) * gv, axis=1) * spec.cell_volume
                for b, gv in g_blocks.items()}

    bs = forest.sys1.get_b(member).values
    tbs = pairings(apply_values(kernel, bs))
    # first piece: telescoped pairing against the block function itself
    value = 0.0
    if member != forest.q0:
        acc = sum(float(v[spec.subtree_mask(member, b)].sum()) for b, v in tbs.items())
        value += f.average(member) * acc
    # second piece: per-cube differences inside the block
    pull_res = 0.0
    for p in spec.all_cubes(member, max_level=spec.depth - 1):
        if walk_pi(forest, 1, p) != member:
            continue
        half = lf.half_twisted[p.level]
        w = spread(spec, p.level + 1, half) * spread(spec, p.level, spec.subtree_mask(p, p.level))
        u = pairings(apply_values(kernel, bs * w))
        for b in range(p.level + 1, spec.depth):
            inside = spec.subtree_mask(p, b)
            direct = u[b][inside]
            pulled = spread(spec, p.level + 1, half, b)[inside] * tbs[b][inside]
            mismatch = np.abs(direct - pulled) / (1.0 + np.abs(direct))
            pull_res = max(pull_res, float(mismatch.max()))
            value += float(direct.sum())
    return PerBlock(value, forest.tloc * member.volume, pull_res)


def per_block_b_above_all(forest, f, g):
    """``per_block_b_above`` of every member of S_1, in sorted order."""
    return [per_block_b_above(forest, f, g, s) for s in sorted(forest.members(1))]


def test_per_s_zero_kernel(rng):
    spec, forest = classical_setup()
    f, g = rand_signs(spec, rng), rand_signs(spec, rng)
    res = per_block_b_above(forest, f, g, spec.root())
    assert res.value == 0.0 and res.bound == 0.0
    assert b_above_aggregation(Pairings(forest, f, g)) == (0.0, 0.0, 0.0, 0.0)


def test_per_s_single_block_is_whole_form(rng):
    # with S_1 = {Q0} the single block carries all of the nested form
    spec = GridSpec(1, 4)
    const = AccretiveSystem(spec, "constant", 2.0, 1.5)
    kernel = generate_kernel("random", spec, seed=3, scale=0.2)
    tloc = max(measure_tloc(kernel, const, 2.0),
               measure_tloc(adjoint(kernel), const, 2.0))
    forest = build_corona(spec.root(), const, const, kernel, 0.25, tloc)
    assert set(forest.members(1)) == {spec.root()}
    f, g = rand_signs(spec, rng), rand_signs(spec, rng)
    total, _, reference, residual = b_above_aggregation(Pairings(forest, f, g))
    [block] = per_block_b_above_all(forest, f, g)
    assert block.value == pytest.approx(reference, abs=1e-12)
    assert total == pytest.approx(reference, abs=1e-12)
    assert residual <= 1e-12


def test_per_s_aggregation_random_instances():
    for seed in (21, 22):
        inst = build_instance(ExperimentConfig(dim=1, depth=5), seed)
        _, pullout, _, residual = b_above_aggregation(Pairings(inst.forest, inst.f, inst.g))
        assert residual <= 1e-9
        assert pullout <= 1e-12


def test_nested_form_sweeps_per_level_without_b_copies(monkeypatch):
    # the nested form takes at most 3 (depth + 1) sweeps (the reference's
    # applies included), however many members and block cubes there are
    inst = build_instance(ExperimentConfig(dim=1, depth=12), 3)
    forest, depth = inst.forest, inst.spec.depth
    assert len(forest.members(1)) > 3 * (depth + 1)
    sweeps = []
    real = kernels._sweep_from

    def counted(*args):
        sweeps.append(args[2])
        return real(*args)

    def no_copies(self, cube):
        raise AssertionError("b_above_aggregation made a full-grid b copy")

    for module in (kernels, verify):
        monkeypatch.setattr(module, "_sweep_from", counted)
    monkeypatch.setattr(AccretiveSystem, "get_b", no_copies)
    _, pullout, _, residual = b_above_aggregation(Pairings(forest, inst.f, inst.g))
    assert len(sweeps) <= 3 * (depth + 1)
    assert residual <= 1e-9 and pullout <= 1e-12


def test_identity_battery_reads_level_arrays_without_b_copies(monkeypatch):
    # the twisted context, its signs and the three-term check come from level
    # arrays: no get_b copy, no per-pair check and no list of derived cubes
    inst = build_instance(ExperimentConfig(dim=1, depth=12), 3)
    ctx = make_context(inst.sys1, inst.forest.q0, inst.dsearch.delta)
    assert len(ctx.members) > 3 * (inst.spec.depth + 1)

    def forbidden(what):
        def raise_(*args, **kwargs):
            raise AssertionError(f"the identity battery called {what}")
        return raise_

    monkeypatch.setattr(AccretiveSystem, "get_b", forbidden("get_b"))
    monkeypatch.setattr(TwistedContext, "q_cubes", forbidden("q_cubes"))
    for module in (twisted, verify):
        monkeypatch.setattr(module, "decomposition_identity_check", forbidden("the per-pair check"),
                            raising=False)
    residuals = run_identity_checks(inst)
    assert max(residuals[name] for name in verify.RESIDUAL_FIELDS) <= 1e-9
    assert residuals["measure_comparison_excess"] <= 0.0


@pytest.mark.parametrize("grid", [(1, 12), (2, 5)])
def test_context_path_builds_no_cubes(grid, monkeypatch):
    # a trial's context is its owner arrays: neither the terminal pass nor
    # the owner and block checks turn a cube index into a DyadicCube
    inst = build_instance(ExperimentConfig(*grid), 3)

    def forbidden(*args, **kwargs):
        raise AssertionError("make_context built a DyadicCube")

    for module in (corona, twisted):
        monkeypatch.setattr(module, "_cubes_where", forbidden)
    monkeypatch.setattr(GridSpec, "cube_from_flat", forbidden)
    ctx = make_context(inst.sys1, inst.forest.q0, inst.dsearch.delta)
    monkeypatch.undo()
    assert len(ctx.members) > 3 * (inst.spec.depth + 1)


def quadratic_b_above_reference(forest, f, g):
    """sum over nested pairs P strictly above Q of <T Delta_P f, Delta_Q g>, one
    enumerated difference per cube (O(cubes^2) pairings, for small depths)."""
    spec = forest.spec
    cubes = list(spec.all_cubes(forest.q0, max_level=spec.depth - 1))
    dg = {q: enumerated_corona_delta(forest, 2, q, g) for q in cubes}
    total = 0.0
    for p in cubes:
        u = apply_values(forest.kernel, enumerated_corona_delta(forest, 1, p, f))
        for q, gv in dg.items():
            if p.contains(q) and q != p:
                total += float(u @ gv) * spec.cell_volume
    return total


def epsilon_by_walk(forest, f, member, cube):
    """The telescoped coefficient summed ancestor by ancestor."""
    spec = forest.spec
    total = 0.0
    p = cube.parent()
    while True:
        if walk_pi(forest, 1, p) == member:
            wp = enumerated_half_twisted_block(forest, 1, p, f)
            total += float(wp[spec.cell_indices(cube.ancestor(p.level + 1))[0]])
        if p == forest.q0 or p == member:
            break
        p = p.parent()
    return total


# -- telescoped coefficients ------------------------------------------------------------------


def test_epsilon_constant_f_vanishes():
    spec, forest = classical_setup(depth=4)
    ones = GridFunction.constant(spec, 1.0)
    root = spec.root()
    for cube in list(spec.all_cubes(root))[1:20]:
        assert epsilon_coefficient(forest, ones, root, cube) == pytest.approx(0.0, abs=1e-14)


def test_epsilon_classical_bound(rng):
    spec, forest = classical_setup(depth=5)
    root = spec.root()
    for _ in range(5):
        f = rand_signs(spec, rng)
        for cube in list(spec.all_cubes(root))[1:]:
            val = epsilon_coefficient(forest, f, root, cube)
            assert abs(val) <= 2.0 + 1e-12


def test_epsilon_accretive_bound():
    for seed in (31, 32):
        inst = build_instance(ExperimentConfig(dim=1, depth=5), seed)
        forest = inst.forest
        cap = 2.0 / inst.dsearch.delta
        for s in forest.members(1):
            for cube in inst.spec.all_cubes(s):
                if cube == s:
                    continue
                val = epsilon_coefficient(forest, inst.f, s, cube)
                assert abs(val) <= cap * (1 + 1e-12)


def test_epsilon_rejects_a_non_member_and_a_cube_off_the_grid():
    inst = build_instance(ExperimentConfig(dim=1, depth=6), 5)
    forest, f = inst.forest, inst.f
    outsider = DyadicCube(1, (0,))
    for call in (lambda: twisted.block_context(forest, 1, outsider),
                 lambda: epsilon_coefficient(forest, f, outsider, DyadicCube(3, (0,)))):
        with pytest.raises(ValueError, match=r"^Q\(1; 0\) is not a member of S_1$"):
            call()
    with pytest.raises(ValueError, match=r"^cube Q\(9; 3\) does not fit a dim=1 depth=6 grid$"):
        epsilon_coefficient(forest, f, forest.q0, DyadicCube(9, (3,)))


# -- diagonal lemma ----------------------------------------------------------------------------


def test_diagonal_zero_kernel(rng):
    spec, forest = classical_setup()
    assert diagonal_lemma_check(forest, spec.root()) == 0.0


def test_diagonal_matches_dense_oracle():
    spec = GridSpec(1, 2)
    const = AccretiveSystem(spec, "constant", 2.0, 1.5)
    kernel = generate_kernel("haar-shift", spec)
    tloc = max(measure_tloc(kernel, const, 2.0),
               measure_tloc(adjoint(kernel), const, 2.0))
    forest = build_corona(spec.root(), const, const, kernel, 0.25, tloc)
    dense = lca_dense_matrix(kernel)
    cv = spec.cell_volume
    for cube in [spec.root(), DyadicCube(1, (0,))]:
        best = 0.0
        for q1 in cube.children():
            for q2 in cube.children():
                for b1 in (const.get_b(walk_pi(forest, 1, cube)), const.get_b(q1)):
                    for b2 in (const.get_b(walk_pi(forest, 2, cube)), const.get_b(q2)):
                        h1 = b1.restrict(q1).values
                        h2 = b2.restrict(q2).values
                        val = abs(float(h2 @ dense @ h1)) * cv
                        best = max(best, val / ((1 + tloc) * cube.volume))
        assert diagonal_lemma_check(forest, cube) == \
            pytest.approx(best, rel=1e-12)


def test_diagonal_finite_on_random_instances():
    inst = build_instance(ExperimentConfig(dim=1, depth=5), 41)
    worst = max(
        diagonal_lemma_check(inst.forest, q)
        for q in inst.spec.all_cubes(inst.forest.q0)
        if q.level < inst.spec.depth
    )
    assert np.isfinite(worst) and worst > 0.0


# -- box square function -----------------------------------------------------------------------


def test_box_square_function_trivial():
    spec, forest = classical_setup()
    ones = GridFunction.constant(spec, 1.0)
    assert box_square_function_check(forest, 1, ones, 2.0) == 0.0


def test_box_square_function_classical_case(rng):
    spec, forest = classical_setup(depth=5)
    f = rand_signs(spec, rng)
    got = box_square_function_check(forest, 1, f, 2.0)
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
    inst = build_instance(ExperimentConfig(dim=1, depth=5), 51)
    for q in (1.5, 2.0, 3.0):
        val = box_square_function_check(inst.forest, 1, inst.f, q)
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


def test_search_rejects_bad_functions():
    spec = GridSpec(1, 4)
    sys_ = AccretiveSystem(spec, "two-value", 2.0, 2.0, seed=3, params={"s": 0.9})
    ctx = make_context(sys_, spec.root(), 0.45)
    sub = make_context(sys_, DyadicCube(1, (1,)), 0.45)
    ones = GridFunction.constant(spec, 1.0)
    left = GridFunction(spec, np.where(np.arange(spec.n_cells) < 8, 1.0, 0.0))
    cases = [
        (ctx, [], r"functions must hold at least one function"),
        (ctx, (), r"functions must hold at least one function"),
        (ctx, [ones, GridFunction.constant(GridSpec(1, 3), 1.0)],
         r"functions\[1\] lives on GridSpec\(dim=1, depth=3\), not GridSpec\(dim=1, depth=4\)"),
        (ctx, [GridFunction.constant(spec, 0.0)], r"functions\[0\] is zero on Q\(0; 0\)"),
        (sub, [ones, left], r"functions\[1\] is zero on Q\(1; 1\)"),  # nonzero off s0 only
    ]
    for context, functions, message in cases:
        with pytest.raises(ValueError, match=message):
            adversarial_transform_search(context, 2.0, functions=functions)
    # a function that is nonzero on s0 passes them
    assert adversarial_transform_search(sub, 2.0, n_restarts=2, functions=[ones]).ratio > 0.0


@pytest.mark.parametrize("p, passes", [(1000.0, 50), (3000.0, 0)])
def test_search_overflowing_exponent_is_a_config_error(p, passes):
    # |transform|^p overflows in a pass's gains (at p = 1000 the random
    # corners fit, the ascent outgrows float64), or with no pass in the ratio
    spec = GridSpec(1, 4)
    ctx = make_context(AccretiveSystem(spec, "constant", 1000.0, 1.5), spec.root(), 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^exponent p={p!r} is too large for float64 powers$"):
            adversarial_transform_search(ctx, p, n_restarts=2, max_passes=passes)


def test_search_deterministic():
    spec = GridSpec(1, 4)
    sys_ = AccretiveSystem(spec, "random", 2.0, 1.6, seed=5, params={"amp": 0.6})
    ctx = make_context(sys_, spec.root(), 0.3)
    a = adversarial_transform_search(ctx, 2.0, n_restarts=4, seed=7)
    b = adversarial_transform_search(ctx, 2.0, n_restarts=4, seed=7)
    assert a.ratio == b.ratio
    assert list(a.coeffs) == list(b.coeffs)
    assert all(a.coeffs[lev].tobytes() == b.coeffs[lev].tobytes() for lev in a.coeffs)


# -- instances, identity battery, experiment ----------------------------------------------------


def test_trial_seed_stream_derivation():
    assert trial_seed(1, 0) != trial_seed(1, 1)
    assert trial_seed(1, 5) == trial_seed(1, 5)
    assert trial_seed(2, 5) != trial_seed(1, 5)


def test_build_instance_deterministic():
    a = build_instance(ExperimentConfig(dim=1, depth=4), 99)
    b = build_instance(ExperimentConfig(dim=1, depth=4), 99)
    assert a.kernel.entries == b.kernel.entries
    assert a.tloc == b.tloc and a.dsearch.delta == b.dsearch.delta
    assert np.array_equal(a.f.values, b.f.values)


def test_run_identity_checks_keys_and_sizes():
    inst = build_instance(ExperimentConfig(dim=2, depth=3), 77)
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
    res = identity_suite(ExperimentConfig(dim=1, depth=4), 3)
    assert res["representation"] <= 1e-9


def test_identity_battery_with_asymmetric_exponents():
    # nothing ties the two exponents together; conjugates must stay straight
    inst = build_instance(ExperimentConfig(dim=1, depth=5, p1=1.5, p2=3.0), 17)
    assert inst.ok
    res = run_identity_checks(inst)
    for name in RESIDUAL_FIELDS:
        assert res[name] <= 1e-9
    assert res["epsilon_max"] <= res["epsilon_bound"] * (1 + 1e-12)


def test_easy_terms_bounds_hold():
    for seed in (61, 62, 63):
        inst = build_instance(ExperimentConfig(dim=1, depth=5), seed)
        easy = easy_terms_check(Pairings(inst.forest, inst.f, inst.g))
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
    inst = build_instance(ExperimentConfig(dim=1, depth=5), 71)
    n = check_forest_blocks(inst.forest)
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
        inst = build_instance(ExperimentConfig(dim=1, depth=5), seed)
        for q in (1.5, 2.0, 3.0):
            val = box_square_function_check(inst.forest, 1, inst.f, q)
            assert val == pytest.approx(frozen[f"seed{seed}|q{q}"], rel=1e-12)


def test_diagonal_matches_frozen():
    frozen = _fixtures()["diagonal_max"]
    for seed in (41, 42, 43):
        inst = build_instance(ExperimentConfig(dim=1, depth=5), seed)
        worst = max(
            diagonal_lemma_check(inst.forest, q)
            for q in inst.spec.all_cubes(inst.forest.q0) if q.level < inst.spec.depth
        )
        assert worst == pytest.approx(frozen[f"seed{seed}"], rel=1e-12)


def test_choose_delta_matches_frozen_regression():
    frozen = _fixtures()["choose_delta_depth8"]
    # spot-check five of the twenty committed seeds (the acceptance suite
    # re-runs the whole packing criterion at this depth anyway)
    for key in sorted(frozen)[:5]:
        inst = build_instance(ExperimentConfig(dim=1, depth=8), int(key))
        assert inst.ok and inst.dsearch.delta == frozen[key]
