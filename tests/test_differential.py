"""Differential tests: the per-level corona calculus against its per-cube oracles.

Hypothesis draws seeded instances (derandomized, bounded example counts) on
1D grids up to depth 8 and 2D grids up to depth 4, and every level array is
compared with the enumeration it replaced, for both stopping families.
"""

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from dytb.grid import GridFunction, spread
from dytb.twisted import (
    SignChoice,
    box,
    corona_delta,
    corona_expectation,
    corona_levels,
    corona_transform,
    expand,
    half_twisted_block,
)
from dytb.verify import _epsilon_max, b_above_aggregation, build_instance, epsilon_coefficient

from test_twisted import (
    enumerated_box,
    enumerated_corona_delta,
    enumerated_corona_expectation,
    enumerated_half_twisted_block,
    walk_pi,
)
from test_verify import epsilon_by_walk, quadratic_b_above_reference

GRIDS = [(1, depth) for depth in range(1, 9)] + [(2, depth) for depth in range(1, 5)]
SMALL_GRIDS = [(dim, depth) for dim, depth in GRIDS if depth <= 6]
BOUNDED = settings(max_examples=30, derandomize=True, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])
SEEDS = st.integers(0, 2**32 - 1)


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
