"""Differential tests: the level engine against its per-cube oracles.

Hypothesis draws seeded instances and twisted contexts (derandomized, bounded
example counts) on 1D grids up to depth 8 and 2D grids up to depth 4, and
every level array is compared with the enumeration it replaced, for both
stopping families and for contexts with canonical and coarsened terminals.
The stopping constructions themselves (one owner pass) are compared with the
per-member construction on 1D grids up to depth 10 and 2D grids up to depth 5,
and the adversarial transform search with the cube-by-cube search it replaced
on 1D grids up to depth 12 and 2D grids up to depth 6.
"""

import copy
import json
import re
from collections import Counter
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from dytb import accretive, cli, twisted
from dytb.accretive import ACCRETIVE_KINDS, AccretiveSystem
from dytb.corona import (
    build_corona,
    carleson_constant,
    choose_delta,
    conjugate,
    forest_carleson,
    forest_to_json_dict,
    packing_ratio,
    terminal_cubes,
)
from dytb.grid import (
    GridFunction,
    GridSpec,
    coarsen_step,
    cube_blocks,
    from_cube_blocks,
    row_reduce,
    spread,
)
from dytb.kernels import KERNEL_KINDS, adjoint, bilinear, generate_kernel
from dytb.twisted import (
    _three_term,
    TwistedContext,
    block_context,
    corona_levels,
    decomposition_identity_check,
    delta_decomp_check,
    expand,
    half_transform,
    make_context,
    measure_comparison_check,
    three_term_check,
    transform,
    twisted_delta,
)
from dytb.verify import (
    ExperimentConfig,
    Pairings,
    _epsilon_max,
    _g_telescoping,
    adversarial_transform_search,
    b_above_aggregation,
    build_instance,
    epsilon_coefficient,
)
from dytb.verify import testing_constant as measure_tloc

from conftest import level_states
from oracles import (
    amalgam_transform,
    box,
    check_forest_blocks,
    corona_parent,
    level_coefficients,
    nearest_marked,
    per_cube_transform_search,
    pi_transform,
    random_signs,
    stopping_children,
)
from test_accretive import KIND_SETUPS
from test_corona import (
    coarsened_context,
    family_of,
    in_q,
    per_member_family,
    per_member_packing_ratio,
    scanned_terminal_cubes,
    walked_owner_levels,
)

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
from test_verify import epsilon_by_walk, per_block_b_above_all, quadratic_b_above_reference

GRIDS = [(1, depth) for depth in range(1, 9)] + [(2, depth) for depth in range(1, 5)]
SMALL_GRIDS = [(dim, depth) for dim, depth in GRIDS if depth <= 6]
BOUNDED = settings(max_examples=30, derandomize=True, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])
SEEDS = st.integers(0, 2**32 - 1)
STOPPING_GRIDS = [(1, depth) for depth in range(1, 11)] + [(2, depth) for depth in range(1, 6)]


def drawn_instance(grid, seed):
    inst = build_instance(ExperimentConfig(*grid), seed)
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
    for j in (1, 2):
        levels = corona_levels(forest, j, h)
        for q in cubes:
            assert corona_parent(forest, j, q) == walk_pi(forest, j, q)
            idx = spec.cell_indices(q)
            want = enumerated_corona_expectation(forest, j, q, h)
            assert np.array_equal(levels.expectations[q.level][idx], want[idx])
            if q.level == spec.depth:
                continue
            want = enumerated_corona_delta(forest, j, q, h)
            assert np.array_equal(levels.deltas[q.level][idx], want[idx])
            want = enumerated_half_twisted_block(forest, j, q, h)
            got = spread(spec, q.level + 1, levels.half_twisted[q.level])
            assert np.array_equal(got[idx], want[idx])
            want = enumerated_box(forest, j, q, h)
            assert np.array_equal(box(levels, q.level)[idx], want[idx])
        [top] = sample(sorted(forest.members(j)), rng, 1)
        e_top, deltas = expand(forest, j, top, h)
        assert np.array_equal(e_top.values, enumerated_corona_expectation(forest, j, top, h))
        for q, d in deltas:
            assert np.array_equal(d.values, enumerated_corona_delta(forest, j, q, h))


@BOUNDED
@given(grid=st.sampled_from(SMALL_GRIDS), seed=SEEDS)
def test_nested_form_and_epsilon_match_quadratic_oracles(grid, seed):
    inst = drawn_instance(grid, seed)
    forest, spec, f = inst.forest, inst.spec, inst.f
    args = (forest, f, inst.g)
    _, _, reference, _ = b_above_aggregation(Pairings(*args))
    quadratic = quadratic_b_above_reference(*args)
    assert abs(reference - quadratic) <= 1e-12 * (1.0 + abs(quadratic))

    # with h = b_{Q0} every in-block term vanishes and the stopping-cube terms
    # -<h>_S/<b_S>_S carry the maximum
    pairs = [(s, q) for s in sorted(forest.members(1)) for q in spec.all_cubes(s) if q != s]
    for h in (f, forest.sys1.get_b(forest.q0)):
        walked = {pair: epsilon_by_walk(forest, h, *pair) for pair in pairs}
        for pair in sample(pairs, np.random.default_rng(seed), 8):
            assert epsilon_coefficient(forest, h, *pair) == walked[pair]
        worst = max((abs(v) for v in walked.values()), default=0.0)
        telescoped = _epsilon_max(corona_levels(forest, 1, h))
        assert abs(telescoped - worst) <= 1e-12 * (1.0 + worst)


@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(grid=st.sampled_from(GRIDS), kind=st.sampled_from(ACCRETIVE_KINDS),
       kernel_kind=st.sampled_from(KERNEL_KINDS), tloc_scale=st.sampled_from([1.0, 0.25]),
       sub=st.booleans(), seed=SEEDS)
def test_nested_form_level_sweeps_equal_per_block_oracle(grid, kind, kernel_kind, tloc_scale,
                                                         sub, seed):
    spec = GridSpec(*grid)
    rng = np.random.default_rng(seed)
    kernel = generate_kernel(kernel_kind, spec, seed=seed)
    A, params = KIND_SETUPS[kind]
    sys1 = AccretiveSystem(spec, kind, 2.0, A, seed=seed, params=params)
    sys2 = AccretiveSystem(spec, kind, 2.0, A, seed=seed + 1, params=params)
    # a lowered Tloc stops more cubes, so more blocks share the form
    tloc = tloc_scale * max(measure_tloc(kernel, sys1, 2.0), measure_tloc(adjoint(kernel), sys2, 2.0))
    level = int(rng.integers(1, spec.depth + 1)) if sub else 0
    q0 = spec.cube_from_flat(level, int(rng.integers(spec.n_cubes(level))))
    forest = build_corona(q0, sys1, sys2, kernel, 0.25, tloc)
    f, g = (GridFunction(spec, rng.choice([-1.0, 1.0], spec.n_cells)) for _ in range(2))
    args = (forest, f, g)
    total, pullout, reference, residual = b_above_aggregation(Pairings(*args))
    blocks = per_block_b_above_all(*args)
    want = sum(block.value for block in blocks)
    assert pullout == max(block.pullout_residual for block in blocks)
    assert abs(total - want) <= 1e-12 * (1.0 + abs(want))
    assert residual <= 1e-9


def term_size(kernel, f, g):
    """The sum of the |terms| that ``bilinear(kernel, f, g)`` adds up."""
    terms = kernel.vals * f.sum_vector[kernel.src] * g.sum_vector[kernel.dst]
    return float(np.sum(np.abs(terms))) * kernel.spec.cell_volume**2


def per_pair_tables(forest, f, g, pair=bilinear):
    """<T D_a f, D_b g> (rows a) and <T* D_b g, D_a f> (rows b) over the
    difference levels, one ``pair`` call per pair of levels."""
    spec, kernel = forest.spec, forest.kernel
    adj = adjoint(kernel)
    df = [GridFunction(spec, v) for v in corona_levels(forest, 1, f).deltas.values()]
    dg = [GridFunction(spec, v) for v in corona_levels(forest, 2, g).deltas.values()]
    table = [[pair(kernel, ff, gg) for gg in dg] for ff in df]
    adjoint_table = [[pair(adj, gg, ff) for ff in df] for gg in dg]
    return (np.reshape(table, (len(df), len(dg))), np.reshape(adjoint_table, (len(dg), len(df))))


@BOUNDED
@given(grid=st.sampled_from(SMALL_GRIDS), root=st.sampled_from(("top", "sub", "finest")),
       kernel_kind=st.sampled_from(KERNEL_KINDS), seed=SEEDS)
def test_pairing_tables_equal_per_pair_oracle(grid, root, kernel_kind, seed):
    spec = GridSpec(*grid)
    rng = np.random.default_rng(seed)
    kernel = generate_kernel(kernel_kind, spec, seed=seed)
    A, params = KIND_SETUPS["random"]
    sys1 = AccretiveSystem(spec, "random", 2.0, A, seed=seed, params=params)
    sys2 = AccretiveSystem(spec, "random", 2.0, A, seed=seed + 1, params=params)
    tloc = max(measure_tloc(kernel, sys1, 2.0), measure_tloc(adjoint(kernel), sys2, 2.0))
    # a root on the finest level has no differences: both tables are empty
    level = {"top": 0, "sub": int(rng.integers(1, spec.depth + 1)), "finest": spec.depth}[root]
    q0 = spec.cube_from_flat(level, int(rng.integers(spec.n_cubes(level))))
    forest = build_corona(q0, sys1, sys2, kernel, 0.25, tloc)
    f, g = (GridFunction(spec, rng.choice([-1.0, 1.0], spec.n_cells)) for _ in range(2))
    args = (forest, f, g)
    pairings = Pairings(*args)
    n = spec.depth - level
    tables = zip((pairings.table, pairings.adjoint_table), per_pair_tables(*args),
                 per_pair_tables(*args, pair=term_size))
    for got, want, size in tables:
        assert got.shape == want.shape == (n, n)
        # relative to the largest entry, plus a few ulps of the largest sum of
        # |terms|: a table whose entries are all roundoff of zero (haar-shift,
        # 1D depth 2) has no scale of its own
        scale = float(np.max(np.abs(want), initial=0.0))
        floor = 8 * np.finfo(float).eps * float(np.max(size, initial=0.0))
        assert np.all(np.abs(got - want) <= 1e-12 * scale + floor)
        if kernel_kind == "zero":
            assert not got.any()


@BOUNDED
@given(grid=st.sampled_from(SMALL_GRIDS), root=st.sampled_from(("top", "sub", "finest")),
       kernel_kind=st.sampled_from(KERNEL_KINDS), delta=st.sampled_from(("auto", 0.25, 0.3)),
       seed=SEEDS)
@example(grid=(2, 3), root="finest", kernel_kind="zero", delta=0.3, seed=1)
@example(grid=(1, 6), root="top", kernel_kind="zero", delta="auto", seed=2)
def test_forest_rows_from_templates_equal_json_dumps(grid, root, kernel_kind, delta, seed):
    spec = GridSpec(*grid)
    rng = np.random.default_rng(seed)
    kernel = generate_kernel(kernel_kind, spec, seed=seed)
    A, params = KIND_SETUPS["random"]
    sys1 = AccretiveSystem(spec, "random", 2.0, A, seed=seed, params=params)
    sys2 = AccretiveSystem(spec, "random", 2.0, A, seed=seed + 1, params=params)
    tloc = max(measure_tloc(kernel, sys1, 2.0), measure_tloc(adjoint(kernel), sys2, 2.0))
    level = {"top": 0, "sub": int(rng.integers(1, spec.depth + 1)), "finest": spec.depth}[root]
    q0 = spec.cube_from_flat(level, int(rng.integers(spec.n_cubes(level))))
    if delta == "auto":
        search = choose_delta(q0, sys1, sys2, kernel, tloc)
        assume(search.ok)
        forest = search.forest
    else:
        forest = build_corona(q0, sys1, sys2, kernel, delta, tloc)
    payload = forest_to_json_dict(forest)
    text = cli._forest_json_text(forest)
    assert text == json.dumps(payload, indent=1, sort_keys=True)
    if root == "finest":  # a root on the finest level holds no other member
        assert len(payload["s1"]) == len(payload["s2"]) == 1


# (kind, params, A, delta): terminal cubes from the mean condition; "signed"
# b_T vanish on half of T, so averages strictly inside a terminal cube can be 0
CONTEXT_KINDS = [("two-value", {"s": 0.8}, 1.5, 0.45), ("random", {"amp": 0.9}, 1.9, 0.3),
                 ("signed", {}, 1.5, 0.45)]


def drawn_context(grid, seed, kind, coarsen, sub=False):
    """A context on the root, or with ``sub`` on a cube below it."""
    spec = GridSpec(*grid)
    name, params, a_const, delta = kind
    system = AccretiveSystem(spec, name, 2.0, a_const, seed=seed, params=params)
    level = 1 + seed % spec.depth if sub else 0
    s0 = spec.cube_from_flat(level, seed % spec.n_cubes(level))
    # b_{s0} has average 1 and norm at most A on s0, so s0 never stops and
    # a ValueError here is a fault
    if coarsen:
        return coarsened_context(system, s0, delta, np.random.default_rng(seed))
    return make_context(system, s0, delta)


def unsafe_cube(b, s0, owners, p, delta, a_const):
    """The first cube of the derived family of the owner arrays ``owners``
    below ``s0`` (coarse to fine, row-major) whose averages fail the
    denominator bounds, by enumeration."""
    spec = b.spec
    pows = GridFunction(spec, np.abs(b.values) ** p)
    for q in spec.all_cubes(s0):
        if owners[q.level][spec.cube_flat(q)] == s0.level and (
                abs(b.integral(q)) <= delta * q.volume or pows.integral(q) >= a_const**p / delta * q.volume):
            return q
    return None


@BOUNDED
@given(grid=st.sampled_from(GRIDS), seed=SEEDS, kind=st.sampled_from(CONTEXT_KINDS),
       coarsen=st.booleans())
def test_context_levels_equal_enumeration(grid, seed, kind, coarsen):
    ctx = drawn_context(grid, seed, kind, coarsen)
    spec, rng = ctx.spec, np.random.default_rng(seed)
    f = GridFunction(spec, rng.uniform(-1.0, 1.0, spec.n_cells))
    finest = np.flatnonzero(ctx.owners[spec.depth] == ctx.s0.level)
    for q in ctx.q_cubes() + [spec.cube_from_flat(spec.depth, int(k)) for k in finest]:
        assert ctx.avg_b(q) == ctx.b.average(q)
        assert np.array_equal(twisted_delta(ctx, q, f).values, enumerated_twisted_delta(ctx, q, f))
        assert np.array_equal(half_transform(ctx, level_coefficients(ctx, {q: 1.0}), f).values,
                              enumerated_half_twisted_D(ctx, q, f))
    # coefficients on every cube of the grid: those off the derived family
    # (inside terminal cubes, finest level) must not count.  The product
    # takes the levels of the family whole, off-family entries included
    cubes = list(spec.all_cubes())
    values = np.where(rng.random(len(cubes)) < 0.25, 0.0, rng.uniform(-1.0, 1.0, len(cubes)))
    eps = dict(zip(cubes, values))
    coeffs = {lev: np.array([eps[spec.cube_from_flat(lev, k)] for k in range(spec.n_cubes(lev))])
              for lev in ctx.q_masks()}
    for fast, oracle in ((transform, enumerated_transform), (half_transform, enumerated_half_transform)):
        assert np.array_equal(fast(ctx, coeffs, f).values, oracle(ctx, eps, f))
    assert np.array_equal(pi_transform(ctx, eps, f).values, enumerated_pi_transform(ctx, eps, f))
    # the per-cube body squares Python floats through the C library's pow,
    # which is not correctly rounded (x ** 2 != x * x on about 0.1% of
    # doubles), while numpy squares exactly: allow 8 ulps of the summed terms
    size = enumerated_splitting(
        ctx, eps, f, lambda e, fc, bc, fq, bq: abs(e * (bc - bq) ** 2 * fc / (bc * bq**2)))
    miss = np.abs(amalgam_transform(ctx, eps, f).values - enumerated_amalgam_transform(ctx, eps, f))
    assert np.all(miss <= 8 * np.finfo(float).eps * size)
    # the checks built on the transforms give the floats of the per-cube formulas
    assert delta_decomp_check(ctx, coeffs, f) == enumerated_delta_decomp(ctx, eps, f)
    with mock.patch.object(twisted, "half_transform",
                           lambda c, e, h: GridFunction(spec, enumerated_half_transform(c, eps, h))):
        per_cube = measure_comparison_check(ctx, coeffs, f)
    assert measure_comparison_check(ctx, coeffs, f) == per_cube
    # a context missing one terminal cube fails at the first unabsorbed cube
    members = ctx.members
    if members:
        dropped = members[int(rng.integers(len(members)))]
        owners = family_of(spec, ctx.s0, tuple(m for m in members if m != dropped))
        want = unsafe_cube(ctx.b, ctx.s0, owners, ctx.system.p, ctx.delta, ctx.system.A)
        with pytest.raises(ValueError, match=re.escape(f"denominator safety fails at {want}:")):
            TwistedContext(ctx.system, ctx.s0, owners, ctx.delta)


@BOUNDED
@given(grid=st.sampled_from(GRIDS), seed=SEEDS, kind=st.sampled_from(CONTEXT_KINDS),
       coarsen=st.booleans(), sub=st.booleans())
def test_code_built_context_equals_copies(grid, seed, kind, coarsen, sub):
    # the context read from level arrays against B_l stitched from get_b
    # copies: b_{s0} at s0's level, the sum of the b_T copies below it
    ctx = drawn_context(grid, seed, kind, coarsen, sub)
    spec, system = ctx.spec, ctx.system
    b0 = system.get_b(ctx.s0)
    copies = sum((system.get_b(m).values for m in ctx.members), np.zeros(spec.n_cells))
    assert np.array_equal(ctx.b.values, b0.values)
    owners = ctx._levels.owners
    b = twisted._stitch(spec, owners, lambda lev: b0.values if lev == ctx.s0.level else copies)
    rng = np.random.default_rng(seed)
    f = GridFunction(spec, rng.uniform(-1.0, 1.0, spec.n_cells))
    oracle = twisted.CoronaLevels(spec, owners, b, f)
    for got, want in ((ctx._levels.b, b), (ctx._levels.b_avg, oracle.b_avg)):
        assert list(got) == list(want)
        assert all(np.array_equal(got[lev], want[lev]) for lev in got)
    coeffs = ctx.random_coefficients(rng)
    assert np.array_equal(transform(ctx, coeffs, f).values, oracle.transform(coeffs))
    assert np.array_equal(half_transform(ctx, coeffs, f).values, oracle.child_rule(coeffs, twisted._half_step))
    cubes, terminal = list(spec.all_cubes()), set(ctx.members)
    assert [ctx.is_terminal(q) for q in cubes] == [q in terminal for q in cubes]
    derived = [ctx.s0.contains(q) and not any(m.contains(q) for m in ctx.members) for q in cubes]
    assert [in_q(ctx, q) for q in cubes] == derived
    assert ctx.q_cubes() == [q for q, d in zip(cubes, derived) if d and q.level < spec.depth]


def check_three_term_and_signs(ctx, f, seed):
    """The level ``three_term_check`` against the per-pair oracle, and the
    split sign draw against one sign per cube of ``q_cubes()``, bit for bit."""
    pairs = [(q, child) for q in ctx.q_cubes() for child in q.children()
             if not ctx.is_terminal(child)]
    per_pair = max((decomposition_identity_check(ctx, *pair, f) for pair in pairs), default=0.0)
    level = three_term_check(ctx, ctx.levels(f))
    # the per-pair floats square through the C library's pow, the level
    # arrays through numpy's exact square: equal up to the last bits
    assert per_pair <= 1e-9 and level <= 1e-9
    assert abs(level - per_pair) <= 1e-14
    # the per-pair formula on numpy values squares like the level arrays
    averages = lambda q, c: (f.average(c), ctx.avg_b(c), f.average(q), ctx.avg_b(q))
    exact = max((float(_three_term(*np.array([averages(*pair)]).T)[0]) for pair in pairs), default=0.0)
    assert level == exact
    seq = np.random.SeedSequence(seed)
    drawn, oracle = np.random.default_rng(seq), np.random.default_rng(seq)
    got = ctx.random_coefficients(drawn)
    want = level_coefficients(ctx, random_signs(ctx.q_cubes(), oracle))
    assert list(got) == list(want)
    assert all(got[lev].tobytes() == want[lev].tobytes() for lev in got)
    assert drawn.random() == oracle.random()


@BOUNDED
@given(grid=st.sampled_from(GRIDS), seed=SEEDS, kind=st.sampled_from(CONTEXT_KINDS),
       coarsen=st.booleans(), sub=st.booleans())
def test_three_term_and_signs_on_level_arrays(grid, seed, kind, coarsen, sub):
    ctx = drawn_context(grid, seed, kind, coarsen, sub)
    f = GridFunction(ctx.spec, np.random.default_rng(seed).uniform(-1.0, 1.0, ctx.spec.n_cells))
    check_three_term_and_signs(ctx, f, seed)


@pytest.mark.parametrize("grid", [(1, 6), (1, 9), (2, 4), (2, 5)])
def test_trial_contexts_three_term_and_signs(grid):
    # the contexts the identity battery builds, canonical and coarsened
    terminal = 0
    for seed in range(4):
        inst = build_instance(ExperimentConfig(*grid), seed)
        if not inst.ok:
            continue
        q0, delta = inst.forest.q0, inst.dsearch.delta
        for ctx in (make_context(inst.sys1, q0, delta),
                    coarsened_context(inst.sys1, q0, delta, np.random.default_rng(seed))):
            terminal += len(ctx.members)
            check_three_term_and_signs(ctx, inst.f, seed)
    assert terminal > 0


@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(grid=st.sampled_from(STOPPING_GRIDS), kind=st.sampled_from(ACCRETIVE_KINDS),
       halvings=st.integers(0, 4), tloc_scale=st.sampled_from([1.0, 0.25]),
       sub=st.booleans(), seed=SEEDS)
def test_packing_and_carleson_equal_per_member_loops(grid, kind, halvings, tloc_scale, sub, seed):
    spec = GridSpec(*grid)
    rng = np.random.default_rng(seed)
    kernel = generate_kernel("random", spec, seed=seed)
    A, params = KIND_SETUPS[kind]
    sys1 = AccretiveSystem(spec, kind, 2.0, A, seed=seed, params=params)
    sys2 = AccretiveSystem(spec, kind, 2.0, A, seed=seed + 1, params=params)
    tloc = tloc_scale * max(measure_tloc(kernel, sys1, 2.0), measure_tloc(adjoint(kernel), sys2, 2.0))
    level = int(rng.integers(1, spec.depth + 1)) if sub else 0
    q0 = spec.cube_from_flat(level, int(rng.integers(spec.n_cubes(level))))
    forest = build_corona(q0, sys1, sys2, kernel, 0.5 / 2**halvings, tloc)
    for j in (1, 2):
        assert packing_ratio(forest, j) == per_member_packing_ratio(forest, j)
        assert forest_carleson(forest, j) == carleson_constant(forest.members(j), q0)


def owner_walk_children(forest, j):
    """The children map the owner pass used to build per member: each member
    after q0, in sorted order, is a child of the member its parent's owner
    level names, found by ``parent``/``ancestor`` walks."""
    spec, owners = forest.spec, forest.owner_levels(j)
    members = sorted(spec.cube_from_flat(lev, int(flat))
                     for lev in range(forest.q0.level, spec.depth + 1)
                     for flat in np.flatnonzero(owners[lev] == lev))
    children = {m: [] for m in members}
    for kid in members[1:]:
        parent = kid.parent()
        children[kid.ancestor(int(owners[parent.level][spec.cube_flat(parent)]))].append(kid)
    return children


def per_member_forest_json(forest):
    """``forest_to_json_dict`` built from the member cubes and their stopping
    children, one row per sorted member."""

    def cube_dict(c):
        return {"level": c.level, "coords": list(c.coords)}

    def family(j):
        parent_of = {kid: s for s in forest.members(j) for kid in stopping_children(forest, j, s)}
        return [{**cube_dict(m), "parent": cube_dict(parent_of[m]) if m in parent_of else None}
                for m in sorted(forest.members(j))]

    return {"dim": forest.spec.dim, "depth": forest.spec.depth, "q0": cube_dict(forest.q0),
            "delta": forest.delta, "s1": family(1), "s2": family(2)}


def per_member_g_telescoping(forest, lg, g):
    """``_g_telescoping`` as a loop over the members of S_1 and their cells."""
    spec = forest.spec
    tele = 0.0
    gmax = 1.0 + float(np.max(np.abs(g.values)))
    for s in forest.members(1):
        idx = spec.cell_indices(s)
        total = lg.expectations[s.level][idx] + sum(
            lg.deltas[lev][idx] for lev in range(s.level, spec.depth))
        tele = max(tele, float(np.max(np.abs(total - g.values[idx]))) / gmax)
    return tele


@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(grid=st.sampled_from(STOPPING_GRIDS), kind=st.sampled_from(ACCRETIVE_KINDS),
       halvings=st.integers(0, 4), sub=st.booleans(), seed=SEEDS)
def test_g_telescoping_equals_per_member_loop(grid, kind, halvings, sub, seed):
    spec = GridSpec(*grid)
    rng = np.random.default_rng(seed)
    kernel = generate_kernel("random", spec, seed=seed)
    A, params = KIND_SETUPS[kind]
    sys1 = AccretiveSystem(spec, kind, 2.0, A, seed=seed, params=params)
    sys2 = AccretiveSystem(spec, kind, 2.0, A, seed=seed + 1, params=params)
    tloc = max(measure_tloc(kernel, sys1, 2.0), measure_tloc(adjoint(kernel), sys2, 2.0))
    level = int(rng.integers(1, spec.depth + 1)) if sub else 0
    q0 = spec.cube_from_flat(level, int(rng.integers(spec.n_cubes(level))))
    forest = build_corona(q0, sys1, sys2, kernel, 0.5 / 2**halvings, tloc)
    for g in (GridFunction(spec, rng.choice([-1.0, 1.0], spec.n_cells)),
              GridFunction(spec, rng.uniform(-3.0, 3.0, spec.n_cells))):
        lg = corona_levels(forest, 2, g)
        assert _g_telescoping(forest, lg, g) == per_member_g_telescoping(forest, lg, g)


@settings(max_examples=80, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(grid=st.sampled_from(STOPPING_GRIDS), kind=st.sampled_from(ACCRETIVE_KINDS),
       delta=st.sampled_from([0.5, 0.45, 0.3, 0.1]), sub=st.booleans(), seed=SEEDS)
def test_terminal_owner_pass_equals_scan(grid, kind, delta, sub, seed):
    # the owner arrays of the one terminal pass against the owner arrays of
    # the maximal cubes that the scan finds
    spec = GridSpec(*grid)
    A, params = KIND_SETUPS[kind]
    system = AccretiveSystem(spec, kind, 2.0, A, seed=seed, params=params)
    level = 1 + seed % spec.depth if sub else 0
    s0 = spec.cube_from_flat(level, seed % spec.n_cubes(level))
    b = GridFunction(spec, system.level_values(s0.level))
    want = nearest_marked(spec, s0.level, (s0, *scanned_terminal_cubes(b, s0, delta, 2.0, A)))
    got = make_context(system, s0, delta).owners
    assert len(got) == len(want) == spec.depth + 1
    assert all((g is None and w is None) or np.array_equal(g, w) for g, w in zip(got, want))


def planted(system, **changes):
    """A shallow copy of ``system`` with ``changes`` set after construction,
    sharing its checked level arrays: a planted fault that the constructor
    would reject."""
    system = copy.copy(system)
    vars(system).update(changes)
    return system


def enumerated_block_check(forest, j, member):
    """The validation of ``block_context`` cube by cube, with the p and A of
    S_j's system: the first of the member and its stopping children whose b
    misses its integral or norm budget, else the first unsafe cube of the
    block, else None."""
    system = forest.system(j)
    p, A, delta = system.p, system.A, forest.delta
    kids = stopping_children(forest, j, member)
    b = system.get_b(member)
    for cube, g in ((member, b), *((k, system.get_b(k)) for k in kids)):
        if (abs(g.integral(cube) - cube.volume) > 1e-12 * cube.volume
                or g.lp_norm(p, cube) > A * cube.volume ** (1 / p) * (1 + 1e-12)):
            return cube
    return unsafe_cube(b, member, family_of(system.spec, member, kids), p, delta, A)


def test_block_check_matches_block_contexts():
    rejected = Counter()
    for grid in ((1, 6), (1, 8), (2, 4), (2, 5)):
        for seed in range(4):
            inst = build_instance(ExperimentConfig(*grid), seed)
            if not inst.ok:
                continue
            delta = inst.forest.delta
            # a raised delta and a lowered A fail the denominator bounds; an A
            # near 1 fails the members' norm budgets first.  A is lowered on
            # copies of the systems, planted in a copy of the forest
            for mutation, planted_delta, lower_A in (
                    ("none", delta, None), ("raised delta", min(0.9, 4 * delta), None),
                    ("lowered A", delta, lambda A: 1.0 + (A - 1.0) / 4),
                    ("A near 1", delta, lambda A: 1.01)):
                sys1, sys2 = (s if lower_A is None else planted(s, A=lower_A(s.A))
                              for s in (inst.sys1, inst.sys2))
                forest = replace(inst.forest, delta=planted_delta, sys1=sys1, sys2=sys2)
                blocks = [(j, s) for j in (1, 2) for s in sorted(forest.members(j))]
                rejects = [enumerated_block_check(forest, *block) is not None for block in blocks]
                for block, reject in zip(blocks, rejects):
                    if reject:
                        with pytest.raises(ValueError):
                            block_context(forest, *block)
                    else:
                        block_context(forest, *block)
                if any(rejects):
                    rejected[mutation] += 1
                    with pytest.raises(RuntimeError, match="breaks a block invariant"):
                        check_forest_blocks(forest)
                else:
                    assert check_forest_blocks(forest) == len(blocks)
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
                            measure_tloc(adjoint(kernel), sys2, conjugate(p1)))
    delta = 0.5 / 2**halvings
    level = int(rng.integers(1, spec.depth + 1)) if sub else 0
    q0 = spec.cube_from_flat(level, int(rng.integers(spec.n_cubes(level))))
    forest = build_corona(q0, sys1, sys2, kernel, delta, tloc)
    for j, system, op, q_exp in ((1, sys1, kernel, conjugate(p2)), (2, sys2, adjoint(kernel), conjugate(p1))):
        members, children = per_member_family(spec, q0, system, op, q_exp, delta, tloc)
        assert forest.members(j) == sorted(members) and forest.member_count(j) == len(members)
        walked = owner_walk_children(forest, j)
        for s in members:
            assert stopping_children(forest, j, s) == tuple(sorted(children[s])) == tuple(walked[s])
        for got, want in zip(forest.owner_levels(j), walked_owner_levels(spec, q0, members)):
            assert (got is None and want is None) or np.array_equal(got, want)
    assert json.dumps(forest_to_json_dict(forest)) == json.dumps(per_member_forest_json(forest))
    b = sys1.get_b(q0)
    assert terminal_cubes(b, q0, delta, p1, A) == scanned_terminal_cubes(b, q0, delta, p1, A)


# -- the adversarial transform search ------------------------------------------------
#
# The level-by-level search flips every gaining cube of a level at once; the
# cube-by-cube search it replaced (``oracles.per_cube_transform_search``)
# flips them one at a time.  Cubes of a level are disjoint, so both must give
# the same ratio, signs, function and restart count, compared with ``==``.

SEARCH_GRIDS = [(1, depth) for depth in range(13)] + [(2, depth) for depth in range(7)]


def search_context(grid, kind, delta, A=None, params=None):
    spec = GridSpec(*grid)
    kind_A, kind_params = KIND_SETUPS[kind]
    system = AccretiveSystem(spec, kind, 2.0, A or kind_A, seed=sum(grid), params=params or kind_params)
    return make_context(system, spec.root(), delta)


def assert_same_search(ctx, p, **kwargs):
    got = adversarial_transform_search(ctx, p, **kwargs)
    want = per_cube_transform_search(ctx, p, **kwargs)
    assert (got.ratio, got.restarts) == (want.ratio, want.restarts)
    # one coefficient array per level, zero off the derived family, whose
    # signs in q_cubes() order are the per-cube search's
    masks = ctx.q_masks()
    assert list(got.coeffs) == list(masks) and list(want.eps) == ctx.q_cubes()
    assert all(not c[~masks[lev]].any() for lev, c in got.coeffs.items())
    signs = [e for lev, c in got.coeffs.items() for e in c[masks[lev]].tolist()]
    assert signs == [want.eps[q] for q in ctx.q_cubes()]
    assert got.f.values.tobytes() == want.f.values.tobytes()


@pytest.mark.parametrize("grid", SEARCH_GRIDS)
@pytest.mark.parametrize("kind", ACCRETIVE_KINDS)
def test_level_search_equals_per_cube_search(grid, kind):
    ctx = search_context(grid, kind, 0.3)
    restarts = 2 if ctx.spec.n_cells <= 512 else 1  # the per-cube oracle is slow above
    for p in (1.5, 2.0, 3.0):
        assert_same_search(ctx, p, n_restarts=restarts, seed=grid[1])


@pytest.mark.parametrize("grid", [(1, 10), (2, 5)])
def test_level_search_equals_per_cube_search_with_terminal_cubes(grid):
    ctx = search_context(grid, "two-value", 0.45, A=2.0, params={"s": 0.9})
    assert ctx.members  # the delta leaves terminal cubes
    spec, rng = ctx.spec, np.random.default_rng(grid[1])
    functions = [GridFunction(spec, rng.uniform(-1.0, 1.0, spec.n_cells)) for _ in range(2)]
    for p in (1.5, 2.0, 3.0):
        assert_same_search(ctx, p, n_restarts=3, seed=1)
        assert_same_search(ctx, p, n_restarts=3, seed=1, functions=functions)
        assert_same_search(ctx, p, n_restarts=3, seed=1, max_passes=0)


# -- reductions along the long axis -------------------------------------------------
#
# ``coarsen_step``, ``row_reduce`` and ``_uniform_rows`` reproduce numpy's own
# reductions and draws in another loop order.  The oracles are the numpy calls
# they replaced; a failure names the numpy version, since a numpy whose
# reduction order changed fails here first, and not only as a moved hash.

NUMPY = f"numpy {np.__version__}"


def spread_magnitudes(rng, shape):
    """Signed values over 1e-16..1e16, with some signed zeros: any other
    addition order shows in the last bits."""
    x = rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.uniform(-16.0, 16.0, shape)
    x[rng.random(shape) < 0.05] = 0.0
    x[rng.random(shape) < 0.05] = -0.0
    return x


@pytest.mark.parametrize("m", range(1, 65))
def test_coarsen_step_2d_equals_reshape_sum(m):
    rng = np.random.default_rng(m)
    for fine in (spread_magnitudes(rng, 4 * m * m), np.full(4 * m * m, -0.0)):
        want = fine.reshape(m, 2, m, 2).sum(axis=(1, 3)).ravel()
        got = coarsen_step(2, fine)
        assert got.tobytes() == want.tobytes(), f"m={m}, {NUMPY}"
        out = np.full(m * m, np.nan)
        assert coarsen_step(2, fine, out) is out
        assert out.tobytes() == want.tobytes(), f"m={m} with out=, {NUMPY}"


@pytest.mark.parametrize("m", range(1, 65))
def test_stacked_coarsen_step_equals_each_row_alone(m):
    # a leading axis of level arrays (the corona's stitched b, |b|^p and
    # |T b|^q) coarsens each row as it would alone, with out= too
    rng = np.random.default_rng(500 + m)
    for dim, size in ((1, 2 * m), (2, 4 * m * m)):
        for rows in (1, 3):
            fine = spread_magnitudes(rng, (rows, size))
            fine[0] = -0.0
            got = coarsen_step(dim, fine)
            msg = f"dim={dim}, {rows} rows of {size}, {NUMPY}"
            for row, cells in zip(got, fine):
                assert row.tobytes() == coarsen_step(dim, cells).tobytes(), msg
            out = np.full(got.shape, np.nan)
            assert coarsen_step(dim, fine, out) is out and out.tobytes() == got.tobytes(), msg


@pytest.mark.parametrize("n", range(1, 131))
def test_row_reduce_equals_numpy_row_reductions(n):
    rng = np.random.default_rng(1000 + n)
    for count in (1, 3, 97):
        x = spread_magnitudes(rng, (count, n))
        x[0] = -0.0  # numpy's sum starts from 0.0: a row of -0.0 sums to 0.0
        msg = f"{count} rows of {n}, {NUMPY}"
        assert row_reduce(np.add, x).tobytes() == x.sum(axis=1).tobytes(), msg
        assert row_reduce(np.maximum, x).tobytes() == x.max(axis=1).tobytes(), msg
        assert (row_reduce(np.add, x) / n).tobytes() == x.mean(axis=1).tobytes(), msg
    with pytest.raises(ValueError, match="C-contiguous"):
        row_reduce(np.add, np.ones((4, n))[::2])


def per_cube_draws(seed, level, count, n):
    """The rows of numpy's own per-cube generators, stacked contiguously."""
    return np.array([np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(level, flat)))
                     .uniform(-1.0, 1.0, n) for flat in range(count)])


@pytest.mark.parametrize("dim,depth", [(1, 12), (2, 6)])
def test_uniform_rows_and_levels_equal_per_cube_generators(dim, depth):
    # both orientations: coarse levels draw more cells than they have cubes,
    # fine ones (1D levels 7-11, 2D levels 4-5) have more cubes than cells,
    # among them levels whose rows reach numpy's pairwise sums (n >= 8)
    spec, seed, amp = GridSpec(dim, depth), 7 * depth + dim, 0.6
    system = AccretiveSystem(spec, "random", 2.0, 1.7, seed=seed, params={"amp": amp})
    wide_pairwise = 0
    for level in range(depth):
        count, n = spec.n_cubes(level), spec.n_cells // spec.n_cubes(level)
        wide_pairwise += count > n >= 8
        rows = accretive._uniform_rows(*level_states(seed, spec, level), n)
        want = per_cube_draws(seed, level, count, n)
        assert rows.tobytes() == want.tobytes(), f"level {level}, {NUMPY}"
        # the batch normalisation _level_blocks had before row_reduce
        want -= want.mean(axis=1, keepdims=True)
        peak = np.abs(want).max(axis=1, keepdims=True)
        np.divide(want, peak, out=want, where=peak > 1.0)
        want = from_cube_blocks(spec, level, 1.0 + amp * want)
        assert system.level_values(level).tobytes() == want.tobytes(), f"level {level}, {NUMPY}"
        assert rows.flags.c_contiguous, f"level {level}"
    assert wide_pairwise >= 1


@pytest.mark.parametrize("batch", [1, 5, 64, 1 << 10])
def test_emulated_rows_in_runs_equal_per_cube_generators(monkeypatch, batch):
    # a draw of more than _BATCH values is emulated in runs of whole cubes,
    # one cube a run at the smallest sizes, in both layouts
    spec, seed = GridSpec(1, 11), 2**64 + 5
    monkeypatch.setattr(accretive, "_BATCH", batch)
    for level in range(spec.depth):
        count, n = spec.n_cubes(level), spec.n_cells // spec.n_cubes(level)
        rows = accretive._emulated_rows(*level_states(seed, spec, level), n)
        assert rows.flags.c_contiguous, f"level {level}"
        assert rows.tobytes() == per_cube_draws(seed, level, count, n).tobytes(), f"level {level}, {NUMPY}"


def per_cube_generators(seed, level, count):
    return [np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(level, flat)))
            for flat in range(count)]


@pytest.mark.parametrize("dim,depth", [(1, d) for d in range(15)] + [(2, d) for d in range(8)])
def test_drawn_levels_equal_per_cube_generators_at_any_cut_over(monkeypatch, dim, depth):
    # every level of both drawn kinds equals numpy's per-cube generators byte
    # for byte, with each cut-over (numpy's own generator against the
    # emulation for random draws, per-cube against batched permutations for
    # two-value shuffles) at half, once and twice its size; grids of 4096
    # cells and more take one seed each, to keep the oracle within seconds
    spec, amp, s = GridSpec(dim, depth), 0.6, 0.7
    native, batch = accretive._NATIVE_CELLS, accretive._TWO_VALUE_BATCH
    for seed in (0, 7, 2**64 + 5) if spec.n_cells < 4096 else (2**64 + 5,):
        for level in range(depth + 1):
            count, n = spec.n_cubes(level), spec.n_cells // spec.n_cubes(level)
            draws = per_cube_draws(seed, level, count, n)
            w = draws - draws.mean(axis=1, keepdims=True)
            peak = np.abs(w).max(axis=1, keepdims=True)
            np.divide(w, peak, out=w, where=peak > 1.0)
            halves = np.full((count, n), 1.0 - s)
            for row, rng in zip(halves, per_cube_generators(seed, level, count)):
                row[rng.permutation(n)[: n // 2]] = 1.0 + s
            want = {"random": 1.0 + amp * w, "two-value": halves}
            for scale in (0.5, 1, 2):
                monkeypatch.setattr(accretive, "_NATIVE_CELLS", int(native * scale))
                monkeypatch.setattr(accretive, "_TWO_VALUE_BATCH", int(batch * scale))
                msg = f"seed {seed}, level {level}, cut-overs x{scale}, {NUMPY}"
                rows = accretive._uniform_rows(*level_states(seed, spec, level), n)
                assert rows.tobytes() == draws.tobytes() and rows.flags.c_contiguous, msg
                for kind, blocks in want.items():
                    system = AccretiveSystem(spec, kind, 2.0, 1.7, seed=seed,
                                             params={"amp": amp} if kind == "random" else {"s": s})
                    cells = from_cube_blocks(spec, level, blocks if n > 1 else np.ones((count, 1)))
                    assert system.level_values(level).tobytes() == cells.tobytes(), f"{kind}, {msg}"


@pytest.mark.parametrize("dim,depth", [(1, 9), (2, 5)])
def test_testing_constant_equals_row_mean_oracle(dim, depth):
    spec = GridSpec(dim, depth)
    kernel = generate_kernel("random", spec, seed=depth)
    for side, op in (("direct", kernel), ("adjoint", adjoint(kernel))):
        system = AccretiveSystem(spec, "random", 2.0, 1.7, seed=dim, params={"amp": 0.6})
        best = max(float(np.mean(np.abs(cube_blocks(spec, level, system.level_sweep(op, level)))
                                 ** 3.0, axis=1).max()) for level in range(depth + 1))
        assert measure_tloc(op, system, 3.0) == best ** (1.0 / 3.0), f"{side}, {NUMPY}"
