"""Differential tests: the level engine against its per-cube oracles.

Hypothesis draws seeded instances and twisted contexts (derandomized, bounded
example counts) on 1D grids up to depth 8 and 2D grids up to depth 4, and
every level array is compared with the enumeration it replaced, for both
stopping families and for contexts with canonical and coarsened terminals.
The stopping constructions themselves (one owner pass) are compared with the
per-member construction on 1D grids up to depth 10 and 2D grids up to depth 5.
"""

import re
from collections import Counter
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from dytb import twisted
from dytb.accretive import ACCRETIVE_KINDS, AccretiveSystem
from dytb.corona import (
    CoronaForest,
    TbConfig,
    TerminalFamily,
    build_corona,
    conjugate,
    terminal_cubes,
)
from dytb.grid import GridFunction, GridSpec, spread
from dytb.kernels import KERNEL_KINDS, adjoint, generate_kernel
from dytb.twisted import (
    SignChoice,
    TwistedContext,
    amalgam_transform,
    block_context,
    box,
    corona_delta,
    corona_expectation,
    corona_levels,
    corona_transform,
    delta_decomp_check,
    expand,
    half_transform,
    half_twisted_block,
    half_twisted_D,
    make_context,
    measure_comparison_check,
    pi_transform,
    transform,
    twisted_delta,
)
from dytb.verify import (
    _epsilon_max,
    b_above_aggregation,
    build_instance,
    check_forest_blocks,
    epsilon_coefficient,
)
from dytb.verify import testing_constant as measure_tloc

from test_accretive import KIND_SETUPS
from test_corona import per_member_family, scanned_terminal_cubes, walked_owner_levels

from test_twisted import (
    enumerated_amalgam_transform,
    enumerated_box,
    enumerated_corona_delta,
    enumerated_corona_expectation,
    enumerated_delta_decomp,
    enumerated_half_transform,
    enumerated_half_twisted_block,
    enumerated_half_twisted_D,
    enumerated_pi_transform,
    enumerated_splitting,
    enumerated_transform,
    enumerated_twisted_delta,
    walk_pi,
)
from test_verify import epsilon_by_walk, quadratic_b_above_reference

GRIDS = [(1, depth) for depth in range(1, 9)] + [(2, depth) for depth in range(1, 5)]
SMALL_GRIDS = [(dim, depth) for dim, depth in GRIDS if depth <= 6]
BOUNDED = settings(max_examples=30, derandomize=True, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])
SEEDS = st.integers(0, 2**32 - 1)
STOPPING_GRIDS = [(1, depth) for depth in range(1, 11)] + [(2, depth) for depth in range(1, 6)]


def drawn_instance(grid, seed):
    inst = build_instance(*grid, seed=seed)
    assume(inst.ok)
    return inst


def sample(items, rng, k):
    return [items[i] for i in rng.choice(len(items), size=min(k, len(items)), replace=False)]


@BOUNDED
@given(grid=st.sampled_from(GRIDS), seed=SEEDS)
def test_level_arrays_equal_enumeration(grid, seed):
    inst = drawn_instance(grid, seed)
    forest, spec = inst.forest, inst.spec
    rng = np.random.default_rng(seed)
    h = GridFunction(spec, rng.uniform(-1.0, 1.0, spec.n_cells))
    cubes = list(spec.all_cubes(forest.q0))
    for j, system in ((1, inst.sys1), (2, inst.sys2)):
        levels = corona_levels(forest, j, system, h)
        for q in cubes:
            assert forest.pi(j, q) == walk_pi(forest, j, q)
            idx = spec.cell_indices(q)
            want = enumerated_corona_expectation(forest, j, system, q, h)
            assert np.array_equal(levels.expectations[q.level][idx], want[idx])
            if q.level == spec.depth:
                continue
            want = enumerated_corona_delta(forest, j, system, q, h)
            assert np.array_equal(levels.deltas[q.level][idx], want[idx])
            want = enumerated_half_twisted_block(forest, j, system, q, h)
            got = spread(spec, q.level + 1, levels.half_twisted[q.level])
            assert np.array_equal(got[idx], want[idx])
            want = enumerated_box(forest, j, system, q, h)
            assert np.array_equal(levels.box(q.level)[idx], want[idx])
        # the public per-cube functions are slices of the same arrays
        for q in sample(cubes, rng, 6):
            for fast, oracle in ((corona_expectation, enumerated_corona_expectation),
                                 (corona_delta, enumerated_corona_delta),
                                 (half_twisted_block, enumerated_half_twisted_block),
                                 (box, enumerated_box)):
                assert np.array_equal(fast(forest, j, system, q, h).values,
                                      oracle(forest, j, system, q, h))
        for s in forest.members(j):
            block = [q for q in spec.all_cubes(s) if walk_pi(forest, j, q) == s]
            assert forest.block_cubes(j, s) == block
        [top] = sample(sorted(forest.members(j)), rng, 1)
        e_top, deltas = expand(forest, j, system, top, h)
        assert np.array_equal(e_top.values, enumerated_corona_expectation(forest, j, system, top, h))
        for q, d in deltas:
            assert np.array_equal(d.values, enumerated_corona_delta(forest, j, system, q, h))
        eps = SignChoice.random_signs(cubes, rng)
        want = np.zeros(spec.n_cells)
        for q in cubes:
            want += eps.get(q) * enumerated_corona_delta(forest, j, system, q, h)
        assert np.array_equal(corona_transform(forest, j, system, eps, h).values, want)


@BOUNDED
@given(grid=st.sampled_from(SMALL_GRIDS), seed=SEEDS)
def test_nested_form_and_epsilon_match_quadratic_oracles(grid, seed):
    inst = drawn_instance(grid, seed)
    forest, spec, f = inst.forest, inst.spec, inst.f
    args = (inst.kernel, forest, inst.sys1, inst.sys2, f, inst.g)
    _, reference, _ = b_above_aggregation(*args, inst.tloc)
    quadratic = quadratic_b_above_reference(*args)
    assert abs(reference - quadratic) <= 1e-12 * (1.0 + abs(quadratic))

    # with h = b_{Q0} every in-block term vanishes and the stopping-cube terms
    # -<h>_S/<b_S>_S carry the maximum
    pairs = [(s, q) for s in sorted(forest.members(1)) for q in spec.all_cubes(s) if q != s]
    for h in (f, inst.sys1.get_b(forest.q0)):
        walked = {pair: epsilon_by_walk(forest, inst.sys1, h, *pair) for pair in pairs}
        for pair in sample(pairs, np.random.default_rng(seed), 8):
            assert epsilon_coefficient(forest, inst.sys1, h, *pair) == walked[pair]
        worst = max((abs(v) for v in walked.values()), default=0.0)
        telescoped = _epsilon_max(corona_levels(forest, 1, inst.sys1, h))
        assert abs(telescoped - worst) <= 1e-12 * (1.0 + worst)


# (kind, params, A, delta): terminal cubes from the mean condition; "signed"
# b_T vanish on half of T, so averages strictly inside a terminal cube can be 0
CONTEXT_KINDS = [("two-value", {"s": 0.8}, 1.5, 0.45), ("random", {"amp": 0.9}, 1.9, 0.3),
                 ("signed", {}, 1.5, 0.45)]


def drawn_context(grid, seed, kind, coarsen):
    spec = GridSpec(*grid)
    name, params, a_const, delta = kind
    system = AccretiveSystem(spec, name, 2.0, a_const, seed=seed, params=params)
    try:
        return make_context(system, spec.root(), delta,
                            coarsen_rng=np.random.default_rng(seed) if coarsen else None)
    except ValueError:  # the base cube itself triggers the stopping conditions
        assume(False)


def unsafe_cube(b, family, p, delta, a_const):
    """The first cube of the derived family (coarse to fine, row-major) whose
    averages fail the denominator bounds, by enumeration."""
    pows = GridFunction(b.spec, np.abs(b.values) ** p)
    for q in b.spec.all_cubes(family.s0):
        if family.in_q(q) and (abs(b.integral(q)) <= delta * q.volume
                               or pows.integral(q) >= a_const**p / delta * q.volume):
            return q
    return None


@BOUNDED
@given(grid=st.sampled_from(GRIDS), seed=SEEDS, kind=st.sampled_from(CONTEXT_KINDS),
       coarsen=st.booleans())
def test_context_levels_equal_enumeration(grid, seed, kind, coarsen):
    ctx = drawn_context(grid, seed, kind, coarsen)
    spec, rng = ctx.spec, np.random.default_rng(seed)
    f = GridFunction(spec, rng.uniform(-1.0, 1.0, spec.n_cells))
    for q in ctx.q_cubes(active_only=False):
        assert ctx.avg_b(q) == ctx.b.average(q)
        assert np.array_equal(twisted_delta(ctx, q, f).values, enumerated_twisted_delta(ctx, q, f))
        assert np.array_equal(half_twisted_D(ctx, q, f).values, enumerated_half_twisted_D(ctx, q, f))
    # coefficients on every cube of the grid: those off the derived family
    # (inside terminal cubes, finest level) must not count
    cubes = list(spec.all_cubes())
    values = np.where(rng.random(len(cubes)) < 0.25, 0.0, rng.uniform(-1.0, 1.0, len(cubes)))
    eps = SignChoice(dict(zip(cubes, values)))
    for fast, oracle in ((transform, enumerated_transform),
                         (half_transform, enumerated_half_transform),
                         (pi_transform, enumerated_pi_transform)):
        assert np.array_equal(fast(ctx, eps, f).values, oracle(ctx, eps, f))
    # the per-cube body squares Python floats through the C library's pow,
    # which is not correctly rounded (x ** 2 != x * x on about 0.1% of
    # doubles), while numpy squares exactly: allow 8 ulps of the summed terms
    size = enumerated_splitting(
        ctx, eps, f, lambda e, fc, bc, fq, bq: abs(e * (bc - bq) ** 2 * fc / (bc * bq**2)))
    miss = np.abs(amalgam_transform(ctx, eps, f).values - enumerated_amalgam_transform(ctx, eps, f))
    assert np.all(miss <= 8 * np.finfo(float).eps * size)
    # the checks built on the transforms give the floats of the per-cube formulas
    assert delta_decomp_check(ctx, eps, f) == enumerated_delta_decomp(ctx, eps, f)
    with mock.patch.object(twisted, "half_transform",
                           lambda c, e, h: GridFunction(spec, enumerated_half_transform(c, e, h))):
        per_cube = measure_comparison_check(ctx, eps, f)
    assert measure_comparison_check(ctx, eps, f) == per_cube
    # a context missing one terminal cube fails at the first unabsorbed cube
    members = ctx.family.members
    if members:
        dropped = members[int(rng.integers(len(members)))]
        rest = tuple(m for m in members if m != dropped)
        family = TerminalFamily(spec, ctx.s0, (), rest, {m: ctx.family.b_for[m] for m in rest})
        want = unsafe_cube(ctx.b, family, ctx.p, ctx.delta, ctx.A)
        with pytest.raises(ValueError, match=re.escape(f"denominator safety fails at {want}:")):
            TwistedContext(family, ctx.b, ctx.p, ctx.delta, ctx.A)


def reconfigured(forest, **changes):
    """The same stopping families under a changed configuration."""
    families = [(forest.members(j), {s: forest.stopping_children(j, s) for s in forest.members(j)},
                 forest.owner_levels(j)) for j in (1, 2)]
    return CoronaForest(forest.spec, forest.q0, families, replace(forest.config, **changes))


def enumerated_block_check(forest, j, system, member):
    """The validation of ``block_context`` cube by cube: the first of the
    member and its stopping children whose b misses its integral or norm
    budget, else the first unsafe cube of the block, else None."""
    cfg = forest.config
    p = cfg.p1 if j == 1 else cfg.p2
    kids = forest.stopping_children(j, member)
    family = TerminalFamily(forest.spec, member, kids, kids, {k: system.get_b(k) for k in kids})
    b = system.get_b(member)
    for cube, g in ((member, b), *family.b_for.items()):
        if (abs(g.integral(cube) - cube.volume) > 1e-12 * cube.volume
                or g.lp_norm(p, cube) > cfg.A * cube.volume ** (1 / p) * (1 + 1e-12)):
            return cube
    return unsafe_cube(b, family, p, cfg.delta, cfg.A)


def test_block_check_matches_block_contexts():
    rejected = Counter()
    for grid in ((1, 6), (1, 8), (2, 4), (2, 5)):
        for seed in range(4):
            inst = build_instance(*grid, seed=seed)
            if not inst.ok:
                continue
            cfg = inst.forest.config
            # a raised delta and a lowered A fail the denominator bounds; an A
            # near 1 fails the members' norm budgets first
            for mutation, changes in (("none", {}), ("raised delta", {"delta": min(0.9, 4 * cfg.delta)}),
                                      ("lowered A", {"A": 1.0 + (cfg.A - 1.0) / 4}),
                                      ("A near 1", {"A": 1.01})):
                forest = reconfigured(inst.forest, **changes)
                blocks = [(j, system, s) for j, system in ((1, inst.sys1), (2, inst.sys2))
                          for s in sorted(forest.members(j))]
                rejects = [enumerated_block_check(forest, *block) is not None for block in blocks]
                for block, reject in zip(blocks, rejects):
                    if reject:
                        with pytest.raises(ValueError):
                            block_context(forest, *block)
                    else:
                        block_context(forest, *block)
                if any(rejects):
                    rejected[mutation] += 1
                    with pytest.raises(ValueError):
                        check_forest_blocks(forest, inst.sys1, inst.sys2)
                else:
                    assert check_forest_blocks(forest, inst.sys1, inst.sys2) == len(blocks)
    assert rejected["none"] == 0
    assert all(rejected[m] > 0 for m in ("raised delta", "lowered A", "A near 1"))


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(grid=st.sampled_from(STOPPING_GRIDS), kind=st.sampled_from(ACCRETIVE_KINDS),
       kernel_kind=st.sampled_from(KERNEL_KINDS), ps=st.sampled_from([(2.0, 2.0), (1.5, 3.0)]),
       halvings=st.integers(0, 5), tloc_scale=st.sampled_from([1.0, 0.25]),
       sub=st.booleans(), seed=SEEDS)
def test_owner_pass_equals_per_member_construction(grid, kind, kernel_kind, ps, halvings,
                                                    tloc_scale, sub, seed):
    spec = GridSpec(*grid)
    rng = np.random.default_rng(seed)
    kernel = generate_kernel(kernel_kind, spec, seed=seed)
    A, params = KIND_SETUPS[kind]
    p1, p2 = ps
    sys1 = AccretiveSystem(spec, kind, p1, A, seed=seed, params=params)
    sys2 = AccretiveSystem(spec, kind, p2, A, seed=seed + 1, params=params)
    # a lowered Tloc makes condition (3) stop cubes too
    tloc = tloc_scale * max(measure_tloc(kernel, sys1, conjugate(p2)),
                            measure_tloc(kernel, sys2, conjugate(p1), "adjoint"))
    delta = 0.5 / 2**halvings
    level = int(rng.integers(1, spec.depth + 1)) if sub else 0
    q0 = spec.cube_from_flat(level, int(rng.integers(spec.n_cubes(level))))
    cfg = TbConfig(p1, p2, delta, A, Tloc=tloc)
    forest = build_corona(q0, sys1, sys2, kernel, cfg)
    for j, system, op, p_exp, q_exp in ((1, sys1, kernel, p1, cfg.p2_conj),
                                        (2, sys2, adjoint(kernel), p2, cfg.p1_conj)):
        members, children = per_member_family(spec, q0, system, op, p_exp, q_exp, cfg)
        assert forest.members(j) == members
        for s in members:
            assert forest.stopping_children(j, s) == tuple(sorted(children[s]))
        for got, want in zip(forest.owner_levels(j), walked_owner_levels(spec, q0, members)):
            assert (got is None and want is None) or np.array_equal(got, want)
    b = sys1.get_b(q0)
    assert terminal_cubes(b, q0, delta, p1, A) == scanned_terminal_cubes(b, q0, delta, p1, A)
