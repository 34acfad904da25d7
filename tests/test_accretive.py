import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dytb import accretive
from dytb.accretive import AccretiveSystem, validate
from dytb.grid import DyadicCube, GridFunction, GridSpec, lp_norm

from conftest import cubes_at, level_states, rand_cube


def test_constant_kind_is_indicator():
    spec = GridSpec(1, 3)
    sys_ = AccretiveSystem(spec, "constant", 2.0, 1.5)
    q = DyadicCube(1, (1,))
    b = sys_.get_b(q)
    assert np.array_equal(b.values, GridFunction.indicator(spec, q).values)
    ok, measured = validate(sys_, q)
    assert ok and measured == pytest.approx(1.0)


def test_two_value_closed_form():
    spec = GridSpec(1, 4)
    s = 0.5
    sys_ = AccretiveSystem(spec, "two-value", 2.0, 1.5, seed=1, params={"s": s})
    q = DyadicCube(1, (0,))
    b = sys_.get_b(q)
    inside = b.values[spec.cell_indices(q)]
    assert sorted(set(inside.tolist())) == [1.0 - s, 1.0 + s]
    assert np.count_nonzero(inside == 1.0 + s) == inside.size // 2
    assert b.integral(q) == pytest.approx(q.volume, abs=1e-16)
    expected_norm_p = (q.volume / 2) * ((1 + s) ** 2 + (1 - s) ** 2)
    assert lp_norm(b, 2.0, q) ** 2 == pytest.approx(expected_norm_p, rel=1e-13)


def test_signed_kind_halves_and_constant():
    spec = GridSpec(1, 3)
    sys_ = AccretiveSystem(spec, "signed", 2.0, 1.5)
    root = spec.root()
    b = sys_.get_b(root)
    assert np.all(b.values[:4] == 0.0) and np.all(b.values[4:] == 2.0)
    assert b.integral() == root.volume  # mean exactly |Q|
    assert b.average(root) == 1.0
    ok, measured = validate(sys_, root)
    assert ok and measured == pytest.approx(np.sqrt(2.0), rel=1e-14)


def test_signed_single_cell_falls_back_to_one():
    spec = GridSpec(1, 2)
    sys_ = AccretiveSystem(spec, "signed", 2.0, 1.5)
    cell = DyadicCube(2, (3,))
    b = sys_.get_b(cell)
    assert b.values[spec.cell_indices(cell)].tolist() == [1.0]


def test_random_kind_bounds_and_mean(rng):
    spec = GridSpec(2, 3)
    amp = 0.7
    sys_ = AccretiveSystem(spec, "random", 1.5, 1.0 + amp, seed=42, params={"amp": amp})
    for _ in range(20):
        q = rand_cube(spec, rng)
        b = sys_.get_b(q)
        inside = b.values[spec.cell_indices(q)]
        assert np.all(inside >= 1.0 - amp - 1e-12)
        assert np.all(inside <= 1.0 + amp + 1e-12)
        assert abs(b.integral(q) - q.volume) <= 1e-12 * q.volume
        ok, measured = validate(sys_, q)
        assert ok and measured <= 1.0 + amp + 1e-12


def test_validate_matches_brute_force_norm(rng):
    spec = GridSpec(1, 6)
    sys_ = AccretiveSystem(spec, "random", 3.0, 1.6, seed=7, params={"amp": 0.6})
    for _ in range(100):
        q = rand_cube(spec, rng)
        b = sys_.get_b(q)
        idx = spec.cell_indices(q)
        brute = (np.sum(np.abs(b.values[idx]) ** 3) * spec.cell_volume) ** (1 / 3)
        _, measured = validate(sys_, q)
        assert measured == pytest.approx(brute / q.volume ** (1 / 3), rel=1e-13)


def test_determinism_and_caching():
    spec = GridSpec(1, 5)
    a = AccretiveSystem(spec, "random", 2.0, 1.5, seed=9, params={"amp": 0.5})
    b = AccretiveSystem(spec, "random", 2.0, 1.5, seed=9, params={"amp": 0.5})
    q = DyadicCube(3, (5,))
    assert np.array_equal(a.get_b(q).values, b.get_b(q).values)
    assert a.level_values(q.level) is a.level_values(q.level)  # cached level array
    assert np.array_equal(a.get_b(q).values, a.get_b(q).values)
    assert a.get_b(q) is not a.get_b(q)  # a fresh copy per call, nothing memoised
    c = AccretiveSystem(spec, "random", 2.0, 1.5, seed=10, params={"amp": 0.5})
    assert not np.array_equal(a.get_b(q).values, c.get_b(q).values)


def test_constant_scale_covariance():
    # restriction of b_Q to a child, renormalized, is b_child for the constant kind
    spec = GridSpec(1, 4)
    sys_ = AccretiveSystem(spec, "constant", 2.0, 1.5)
    q = DyadicCube(1, (0,))
    child = q.children()[1]
    restricted = sys_.get_b(q).restrict(child)
    renormalized = restricted.values * (child.volume / restricted.integral(child))
    assert np.array_equal(renormalized, sys_.get_b(child).values)


def test_signed_mean_normalization_exact(rng):
    spec = GridSpec(2, 3)
    sys_ = AccretiveSystem(spec, "signed", 2.0, 1.5)
    for _ in range(20):
        q = rand_cube(spec, rng)
        assert abs(sys_.get_b(q).average(q)) == 1.0


def test_min_abs_value_guard(rng):
    spec = GridSpec(1, 6)
    sys_ = AccretiveSystem(spec, "two-value", 2.0, 2.0, seed=1, params={"s": 0.999})
    for _ in range(20):
        q = rand_cube(spec, rng)
        inside = sys_.get_b(q).values[spec.cell_indices(q)]
        assert np.abs(inside).min() >= 1e-6


def test_parameter_validation():
    spec = GridSpec(1, 3)
    with pytest.raises(ValueError):
        AccretiveSystem(spec, "lacunary", 2.0, 1.5)
    with pytest.raises(ValueError):
        AccretiveSystem(spec, "constant", 1.0, 1.5)  # p must exceed 1
    with pytest.raises(ValueError):
        AccretiveSystem(spec, "constant", 2.0, 1.0)  # A must exceed 1
    with pytest.raises(ValueError):
        AccretiveSystem(spec, "two-value", 2.0, 1.5, params={"s": 1.0})
    with pytest.raises(ValueError):
        AccretiveSystem(spec, "random", 2.0, 1.5, params={"amp": 0.0})
    # declared A below the kind's worst-case constant is a config error
    with pytest.raises(ValueError):
        AccretiveSystem(spec, "signed", 2.0, 1.01)


@pytest.mark.parametrize("kind, own", [("constant", {}), ("two-value", {"s": 0.8}),
                                       ("signed", {}), ("random", {"amp": 0.8})])
def test_parameter_keys_of_another_kind_are_rejected(kind, own):
    # a key the kind does not read, misspelt or another kind's, is named with
    # the kind instead of leaving the default in place
    spec = GridSpec(1, 3)
    system = AccretiveSystem(spec, kind, 2.0, 1.9, seed=3, params=own)
    assert system._param == own.get("s", own.get("amp", 0.5))
    for key in ("s", "amp", "S"):
        if key not in own:
            with pytest.raises(ValueError, match=f"^{kind} systems take no parameter '{key}'$"):
                AccretiveSystem(spec, kind, 2.0, 1.9, seed=3, params={**own, key: 0.8})


def test_exponents_past_float64_are_config_errors():
    spec = GridSpec(1, 3)
    with pytest.raises(ValueError, match=r"^p must be finite, got inf$"):
        AccretiveSystem(spec, "constant", np.inf, 1.5)
    # A^p, the budget of every |b_Q|^p, overflows
    with pytest.raises(ValueError, match=r"^exponent p=2000.0 is too large for float64 powers$"):
        AccretiveSystem(spec, "signed", 2000.0, 1.9)
    # the budget A^p = 2^1023.6 fits, the cells' powers 2^p = 2^1024.5 do not
    sys_ = AccretiveSystem(spec, "signed", 1024.5, 2.0 ** (1023.6 / 1024.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^exponent p=1024.5 is too large for float64 powers$"):
            sys_.level_values(0)


@pytest.mark.parametrize("p", [1.01, 1.5, 2.0, 3.0, 7.5, 40.0])
@pytest.mark.parametrize("kind, params", [("two-value", {"s": 0.0}), ("two-value", {"s": 0.7}),
                                          ("signed", {})])
def test_worst_constant_closed_forms(kind, params, p):
    # the forms that cannot overflow equal the powers they replace, and bound
    # what validate() measures
    spec = GridSpec(1, 4)
    sys_ = AccretiveSystem(spec, kind, p, 2.0, seed=3, params=params)
    s = params.get("s", 0.5)
    direct = (((1 + s) ** p + (1 - s) ** p) / 2.0) ** (1 / p) if kind == "two-value" else (2.0**p / 2.0) ** (1 / p)
    assert sys_.worst_constant() == pytest.approx(direct, rel=1e-15)
    assert validate(sys_, spec.root())[1] <= sys_.worst_constant() * (1 + 1e-12)
    sys_.p = 1e6  # past the powers of a constructible system
    assert 1.0 <= sys_.worst_constant() <= 2.0


def test_generator_invariant_violation_is_internal_error(monkeypatch):
    # a generator bug (not a config error) must surface as RuntimeError
    spec = GridSpec(1, 3)
    sys_ = AccretiveSystem(spec, "constant", 2.0, 1.5)
    # mean is 2|Q|, not |Q|
    monkeypatch.setattr(sys_, "_level_blocks",
                        lambda level, n: np.full((spec.n_cubes(level), n), 2.0))
    with pytest.raises(RuntimeError):
        sys_.get_b(spec.root())
    # a huge cell overflows |b_Q|^p while the budget A^p |Q| fits: still the
    # generator's fault, not the exponent's
    sys_ = AccretiveSystem(spec, "constant", 2.0, 1.5)
    monkeypatch.setattr(sys_, "_level_blocks",
                        lambda level, n: np.full((spec.n_cubes(level), n), 1e200))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match=r"^generator bug: "):
            sys_.get_b(spec.root())


def test_one_bad_cube_fails_its_whole_level(monkeypatch):
    spec = GridSpec(2, 4)
    sys_ = AccretiveSystem(spec, "random", 2.0, 1.5, seed=5, params={"amp": 0.5})
    good = sys_._level_blocks

    def broken(level, n):
        blocks = good(level, n)
        if level == 3:
            blocks[37, 0] = 0.0
        return blocks

    monkeypatch.setattr(sys_, "_level_blocks", broken)
    sys_.get_b(DyadicCube(2, (1, 1)))  # other levels are unaffected
    with pytest.raises(RuntimeError, match=r"generator bug: .* on Q\(3; 4,5\)"):
        sys_.get_b(DyadicCube(3, (0, 0)))  # any cube of the bad level


LEVEL_CHECKS = ("mean of b_Q off", "norm budget exceeded", "near-zero cell value")


def plant(row, check):
    """Break a row of ones (a constant-kind b_Q of at least two cells, A =
    1.5, p = 2) for the one ``_check_level`` check ``check`` only."""
    if check == "mean of b_Q off":
        row[0] += 0.5
    elif check == "norm budget exceeded":  # mean 1 exactly, mean square 3.25 > A^2
        row[0::2], row[1::2] = 2.5, -0.5
    else:  # every partial sum is exact, so the mean stays |Q|
        row[0], row[1] = 2.0**-30, 2.0 - 2.0**-30


@pytest.mark.parametrize("check", LEVEL_CHECKS)
@pytest.mark.parametrize("fine", [True, False], ids=["fine", "coarse"])
@pytest.mark.parametrize("dim, depth", [(1, 5), (2, 3)])
def test_each_level_check_names_the_first_bad_cube(monkeypatch, dim, depth, fine, check):
    spec = GridSpec(dim, depth)
    level = depth - 1 if fine else 1
    count = spec.n_cubes(level)
    bad = sorted({max(1, count // 3), count - 1})  # the first bad cube is not flat 0
    sys_ = AccretiveSystem(spec, "constant", 2.0, 1.5)

    def planted(lev, n):
        blocks = np.ones((spec.n_cubes(lev), n))
        for flat in bad if lev == level else ():
            plant(blocks[flat], check)
        return blocks

    monkeypatch.setattr(sys_, "_level_blocks", planted)
    assert sys_.level_values(level - 1).min() == 1.0  # the other levels build
    with pytest.raises(RuntimeError) as err:
        sys_.level_values(level)
    assert str(err.value) == f"generator bug: {check} on {spec.cube_from_flat(level, bad[0])}"
    assert level not in sys_._levels


@pytest.mark.parametrize("dim, depth", [(1, 5), (2, 3)])
def test_level_checks_run_in_order(monkeypatch, dim, depth):
    # the checks run in LEVEL_CHECKS order, each planted first on an earlier
    # cube than the one before it: the first failing check names its cube
    spec = GridSpec(dim, depth)
    level = depth - 1
    flats = dict(zip(LEVEL_CHECKS, (4, 3, 2)))
    for start, check in enumerate(LEVEL_CHECKS):
        sys_ = AccretiveSystem(spec, "constant", 2.0, 1.5)

        def planted(lev, n, checks=LEVEL_CHECKS[start:]):
            blocks = np.ones((spec.n_cubes(lev), n))
            for c in checks:
                plant(blocks[flats[c]], c)
            return blocks

        monkeypatch.setattr(sys_, "_level_blocks", planted)
        with pytest.raises(RuntimeError) as err:
            sys_.level_values(level)
        assert str(err.value) == f"generator bug: {check} on {spec.cube_from_flat(level, flats[check])}"


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("kind", ["constant", "signed", "random"])
@pytest.mark.parametrize("dim, depth", [(1, 5), (2, 3)])
def test_non_finite_cell_fails_its_level_first(monkeypatch, dim, depth, kind, value):
    # NaN compares False in every other check and +inf would read as a mean
    # off: the finite check runs first and names the first non-finite cube,
    # though cube 0 has a mean off as well
    spec = GridSpec(dim, depth)
    A, params = KIND_SETUPS[kind]
    sys_ = AccretiveSystem(spec, kind, 2.0, A, seed=5, params=params)
    level, good = depth - 1, sys_._level_blocks
    bad = sorted({2, spec.n_cubes(level) - 1})

    def planted(lev, n):
        blocks = good(lev, n)
        if lev == level:
            blocks[0, -1] += 0.5
            for flat in bad:
                blocks[flat, flat % n] = value
        return blocks

    monkeypatch.setattr(sys_, "_level_blocks", planted)
    with pytest.raises(RuntimeError) as err:
        sys_.level_values(level)
    assert str(err.value) == f"generator bug: non-finite cell value on {spec.cube_from_flat(level, bad[0])}"
    assert level not in sys_._levels


def per_cube_values(system, cube):
    """Reference generator: b_Q drawn for one cube from its own generator, the
    values of its cells in ``cell_indices`` order."""
    spec = system.spec
    n = spec.cell_indices(cube).size
    rng = np.random.default_rng(
        np.random.SeedSequence(system.seed, spawn_key=(cube.level, spec.cube_flat(cube))))
    vals = np.ones(n)
    if system.kind == "constant" or n == 1:
        pass
    elif system.kind == "two-value":
        s = float(system.params.get("s", 0.5))
        vals[:] = 1.0 - s
        vals[rng.permutation(n)[: n // 2]] = 1.0 + s
    elif system.kind == "signed":
        vals[: n // 2], vals[n // 2 :] = 0.0, 2.0
    else:
        amp = float(system.params.get("amp", 0.5))
        w = rng.uniform(-1.0, 1.0, n)
        w -= w.mean()
        peak = np.abs(w).max()
        if peak > 1.0:
            w /= peak
        vals = 1.0 + amp * w
    return vals


def per_cube_b(system, cube):
    """``per_cube_values`` written into a zero full-grid array."""
    vals = np.zeros(system.spec.n_cells)
    vals[system.spec.cell_indices(cube)] = per_cube_values(system, cube)
    return vals


KIND_SETUPS = {
    "constant": (1.5, {}),
    "two-value": (1.9, {"s": 0.7}),
    "signed": (1.9, {}),
    "random": (1.7, {"amp": 0.6}),
}
GRIDS = [(1, d) for d in range(10)] + [(2, d) for d in range(6)]


@pytest.mark.parametrize("dim,depth", GRIDS)
def test_level_arrays_match_per_cube_generation(dim, depth):
    spec = GridSpec(dim, depth)
    for kind, (A, params) in KIND_SETUPS.items():
        sys_ = AccretiveSystem(spec, kind, 2.0, A, seed=11 + depth, params=params)
        for level in range(depth + 1):
            expected = np.zeros(spec.n_cells)
            for cube in cubes_at(spec, level):
                b = per_cube_b(sys_, cube)
                assert sys_.get_b(cube).values.tobytes() == b.tobytes()
                idx = spec.cell_indices(cube)
                expected[idx] = b[idx]
            assert sys_.level_values(level).tobytes() == expected.tobytes()
        assert len(sys_._levels) == depth + 1


def stitched_per_cube(system, level):
    """One level's cell array stitched from ``per_cube_values`` of each of its cubes."""
    spec = system.spec
    out = np.zeros(spec.n_cells)
    for cube in cubes_at(spec, level):
        out[spec.cell_indices(cube)] = per_cube_values(system, cube)
    return out


@pytest.mark.parametrize("dim,depth,levels", [(1, 10, 11), (1, 11, 12), (1, 12, 13), (2, 6, 7),
                                              (1, 14, 3), (2, 7, 3)])
def test_batched_levels_match_per_cube_generators(dim, depth, levels):
    # the grids above GRIDS, without get_b's full-grid copy per cube; the
    # level 0 cubes of 1D d14 and 2D d7 hold 16384 cells, past numpy's
    # 8192-element reduction buffer, so the batch's row mean must sum like
    # the 1-D mean there
    spec = GridSpec(dim, depth)
    for kind, (A, params) in KIND_SETUPS.items():
        sys_ = AccretiveSystem(spec, kind, 2.0, A, seed=3 * depth + dim, params=params)
        for level in range(levels):
            assert sys_.level_values(level).tobytes() == stitched_per_cube(sys_, level).tobytes()


SEED_LADDER = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 + 5, 2**128 + 7]


def system_pair(spec, kind, seed, amps=(0.6, 0.6)):
    """Two systems of one kind as an instance has them: p1 != p2, seeds apart;
    the random kind may take a different amplitude per side."""
    A, params = KIND_SETUPS[kind]
    return tuple(AccretiveSystem(spec, kind, p, A, seed=s, params=dict(params, amp=amp)
                                 if kind == "random" else params)
                 for p, s, amp in zip((2.0, 3.0), (seed, 2 * seed + 1), amps))


@pytest.mark.parametrize("dim,depth", [(1, d) for d in (0, 1, 2, 6, 9)] + [(2, d) for d in (1, 3, 5)])
@pytest.mark.parametrize("kind", accretive.ACCRETIVE_KINDS)
def test_draw_levels_equals_each_system_drawn_alone(monkeypatch, dim, depth, kind):
    # every level read lazily, in shuffled order, and each level read on its
    # own by a fresh system, equal the levels drawn together
    spec = GridSpec(dim, depth)
    rng = np.random.default_rng(10 * dim + depth)
    # small batches cut the seeding passes and the draws of one level apart
    for batch in (1, 5, 64, accretive._BATCH) if kind == "random" else (accretive._BATCH,):
        monkeypatch.setattr(accretive, "_BATCH", batch)
        for seed in (0, 5, 2**63 - 1, 2**128 + 7):
            for amps in ((0.6, 0.6), (0.3, 0.6)):
                pair, alone = system_pair(spec, kind, seed, amps), system_pair(spec, kind, seed, amps)
                accretive.draw_levels(pair)
                for together, single in zip(pair, alone):
                    assert sorted(together._levels) == list(range(depth + 1))
                    for level in rng.permutation(depth + 1).tolist():
                        got, want = together.level_values(level), single.level_values(level)
                        assert got.tobytes() == want.tobytes() and not got.flags.writeable
                for level in range(depth + 1):
                    for together, single in zip(pair, system_pair(spec, kind, seed, amps)):
                        assert single.level_values(level).tobytes() == together.level_values(level).tobytes()
                        assert list(single._levels) == [level]


def test_draw_levels_mixes_kinds_and_keeps_built_levels():
    # a level built before the batch is kept as it is, and kinds mix freely
    spec = GridSpec(2, 4)
    first, second = system_pair(spec, "random", 9)
    other = system_pair(spec, "two-value", 9)[0]
    kept = first.level_values(2)
    accretive.draw_levels((first, other, second))
    assert first.level_values(2) is kept
    for system in (first, other, second):
        clone = replace(system)
        for level in range(spec.depth + 1):
            assert system.level_values(level).tobytes() == clone.level_values(level).tobytes()
    with pytest.raises(ValueError, match="grid mismatch"):
        accretive.draw_levels((first, AccretiveSystem(GridSpec(1, 4), "constant", 2.0, 1.5)))


def plant_random(row, check):
    """Break a random-kind b_Q row for the one ``_check_level`` check
    ``check`` only: the cell sum is kept (up to rounding) unless the mean is
    the check."""
    if check == "mean of b_Q off":
        row[0] += 0.5
    elif check == "norm budget exceeded":
        row[0], row[1] = row[0] + 10.0, row[1] - 10.0
    else:
        row[0], row[1] = 2.0**-30, row[1] + row[0] - 2.0**-30


@pytest.mark.parametrize("check", LEVEL_CHECKS)
@pytest.mark.parametrize("dim,depth,level", [(1, 6, 0), (1, 6, 4), (2, 4, 3)])
def test_planted_bad_level_fails_alike_drawn_together_or_alone(monkeypatch, dim, depth, level, check):
    spec = GridSpec(dim, depth)
    flat = spec.n_cubes(level) // 2
    store = AccretiveSystem._store

    def planted(system, lev, blocks):
        if system.seed == 3 and lev == level:  # the second system of the pair only
            blocks = blocks.copy()
            plant_random(blocks[flat], check)
        return store(system, lev, blocks)

    monkeypatch.setattr(AccretiveSystem, "_store", planted)
    want = f"generator bug: {check} on {spec.cube_from_flat(level, flat)}"
    first, second = system_pair(spec, "random", 1)
    with pytest.raises(RuntimeError) as together:
        accretive.draw_levels((first, second))
    assert str(together.value) == want
    # the first system's level passed its own check; the second keeps no bad level
    assert level in first._levels and level not in second._levels
    assert sorted(second._levels) == list(range(level))
    alone = system_pair(spec, "random", 1)[1]
    for lev in range(level):
        alone.level_values(lev)
    with pytest.raises(RuntimeError) as single:
        alone.level_values(level)
    assert str(single.value) == want


@pytest.mark.parametrize("seed", SEED_LADDER)
def test_seed_ladder_matches_seed_sequence_and_pcg64(seed):
    # 2**128 + 7 has five entropy words: one is mixed in past the pool size,
    # so beside seed 3 (one word) the two pools end on different constants
    spec = GridSpec(2, 3)
    seeds = [seed, 3]
    levels = np.repeat(np.arange(spec.depth), [spec.n_cubes(lev) for lev in range(spec.depth)])
    flats = np.concatenate([np.arange(spec.n_cubes(lev)) for lev in range(spec.depth)])
    which, levels, flats = np.repeat([0, 1], len(levels)), np.tile(levels, 2), np.tile(flats, 2)
    words = accretive._generate_state(seeds, which, levels, flats)
    state, inc = accretive._pcg_states(seeds, which, levels, flats)
    for i, (k, level, flat) in enumerate(zip(which.tolist(), levels.tolist(), flats.tolist())):
        ss = np.random.SeedSequence(seeds[k], spawn_key=(level, flat))
        want = ss.generate_state(4, np.uint64)
        got = [int(words[2 * w][i]) | int(words[2 * w + 1][i]) << 32 for w in range(4)]
        assert got == want.tolist()
        pcg = np.random.PCG64(ss).state["state"]
        assert int(state[0][i]) << 64 | int(state[1][i]) == pcg["state"]
        assert int(inc[0][i]) << 64 | int(inc[1][i]) == pcg["inc"]
    sys_ = AccretiveSystem(GridSpec(1, 5), "random", 2.0, 1.7, seed=seed, params={"amp": 0.6})
    for level in range(6):
        assert sys_.level_values(level).tobytes() == stitched_per_cube(sys_, level).tobytes()


def test_jump_tables_are_powers_of_the_pcg_multiplier():
    # the table holds G_(k+1) = sum_{i<=k} M^i only: no power M^(k+1) is kept
    mult, mod = accretive._PCG_MULT, 1 << 128
    sums = accretive._jump_table(300)
    assert sums.shape[0] == 2 and sums.shape[1] >= 300 and sums.dtype == np.uint64
    as_int = lambda table, k: int(table[0, k]) << 64 | int(table[1, k])
    g = 0
    for k in range(sums.shape[1]):
        g = (g + pow(mult, k, mod)) % mod  # G_(k+1) = sum_{i<=k} M^i
        assert as_int(sums, k) == g


def test_jump_tables_grow_by_doubling_from_a_small_size(monkeypatch):
    # a 3-cell draw builds the table to size 4; a 4097-cell draw doubles
    # it to 8192; every row must still be numpy's per-cube stream
    monkeypatch.setattr(accretive, "_jumps", None)
    seed, spec = 5, GridSpec(2, 2)
    for n, size in ((3, 4), (4097, 8192)):
        for level in range(spec.depth):
            rows = accretive._uniform_rows(*level_states(seed, spec, level), n)
            assert accretive._jumps.shape == (2, size)
            for flat, row in enumerate(rows):
                rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(level, flat)))
                assert row.tobytes() == rng.uniform(-1.0, 1.0, n).tobytes()


WORD_EDGES = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
words = st.one_of(st.sampled_from(WORD_EDGES), st.integers(0, 2**64 - 1))
u128 = st.builds(lambda hi, lo: hi << 64 | lo, words, words)


def as_pair(values):
    return (np.array([x >> 64 for x in values], dtype=np.uint64),
            np.array([x & (2**64 - 1) for x in values], dtype=np.uint64))


def as_ints(pair):
    return [int(hi) << 64 | int(lo) for hi, lo in zip(*pair)]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.tuples(u128, u128, u128), min_size=1, max_size=8), u128)
def test_128_bit_product_and_sum_match_python_ints(triples, scalar):
    a, b, c = (list(col) for col in zip(*triples))
    mod = 2**128
    assert as_ints(accretive._mul128(as_pair(a), as_pair(b))) == [x * y % mod for x, y in zip(a, b)]
    assert as_ints(accretive._add128(as_pair(a), as_pair(c))) == [(x + z) % mod for x, z in zip(a, c)]
    got = accretive._add128(accretive._mul128(as_pair(a), as_pair(b)), as_pair(c))
    assert as_ints(got) == [(x * y + z) % mod for x, y, z in zip(a, b, c)]
    # a numpy-scalar operand on either side, as in the seeding and the tables
    half = accretive._halves(scalar)
    assert as_ints(accretive._mul128(half, as_pair(b))) == [scalar * y % mod for y in b]
    assert as_ints(accretive._mul128(as_pair(a), half)) == [x * scalar % mod for x in a]
    assert as_ints(accretive._add128(half, as_pair(c))) == [(scalar + z) % mod for z in c]


def pcg64_at(state, inc):
    """A numpy Generator on PCG64 with its 128-bit ``(state, inc)`` set directly."""
    bit_generator = np.random.PCG64()
    bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                           "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bit_generator)


odd_u128 = u128.map(lambda x: x | 1)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.lists(st.tuples(u128, odd_u128), min_size=1, max_size=5))
def test_uniform_rows_follow_pcg64_from_any_state(pairs):
    # the draws of an arbitrary stream, on either side of the table's
    # doubling at 4096, in the narrow layout (no more cubes than draws) and
    # the wide one (more cubes, repeated); a wide 4097-draw batch would hold
    # 4098 rows of 4097 values, so 4097 is drawn narrow only
    want = {n: [pcg64_at(*pair).uniform(-1.0, 1.0, n).tobytes() for pair in pairs]
            for n in (2, 3, 4, 4097)}
    for n, rows in want.items():
        for count in {min(len(pairs), n), n + 1} if n < 4097 else {len(pairs)}:
            cubes = [pairs[c % len(pairs)] for c in range(count)]
            state, inc = (as_pair(col) for col in zip(*cubes))
            got = accretive._uniform_rows(state, inc, n)
            assert got.shape == (count, n) and got.flags.c_contiguous
            assert [row.tobytes() for row in got] == [rows[c % len(pairs)] for c in range(count)]


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.lists(st.tuples(u128, odd_u128), min_size=1, max_size=6),
       st.sampled_from([2, 3, 5, 8, 17, 64, 100]))
def test_permutations_follow_pcg64_from_any_state(pairs, n):
    state, inc = (as_pair(col) for col in zip(*pairs))
    got = accretive._permutations(state, inc, n)
    assert got.shape == (n, len(pairs))
    for col, pair in zip(got.T, pairs):
        assert col.tolist() == pcg64_at(*pair).permutation(n).tolist()


def test_permutations_refill_a_spent_window(monkeypatch):
    # a cube reads n outputs (2n halves) before it draws more; at n = 3 a
    # cube needs more when its first six halves all end in the bits 11,
    # which about 1 in 4096 streams do
    rng = np.random.default_rng(4)
    pairs = [(int(hi) << 64 | int(lo), int(ihi) << 64 | int(ilo) | 1)
             for hi, lo, ihi, ilo in rng.integers(0, 2**64, (20000, 4), dtype=np.uint64)]
    calls = []
    outputs = accretive._outputs
    monkeypatch.setattr(accretive, "_outputs", lambda *args: calls.append(1) or outputs(*args))
    got = accretive._permutations(*(as_pair(col) for col in zip(*pairs)), 3)
    assert len(calls) > 1  # the first window of every cube, then the refills
    for col, pair in zip(got.T, pairs):
        assert col.tolist() == pcg64_at(*pair).permutation(3).tolist()


TWO_VALUE_DRAWS = [(0, 0.0), (7, 0.5), (2**64 + 5, 0.9)]


@pytest.mark.parametrize("dim,depth", [(1, d) for d in range(15)] + [(2, d) for d in range(8)])
def test_two_value_levels_match_per_cube_permutations(dim, depth):
    # s moves the values of a cube, not its permutation: the grids of 8192
    # cells and more take one (seed, s) each, to keep the oracle's one
    # generator per cube within a few seconds
    spec = GridSpec(dim, depth)
    draws = TWO_VALUE_DRAWS if spec.n_cells < 8192 else [TWO_VALUE_DRAWS[depth % 3]]
    for seed, s in draws:
        sys_ = AccretiveSystem(spec, "two-value", 2.0, 2.0, seed=seed, params={"s": s})
        for level in range(depth + 1):
            assert sys_.level_values(level).tobytes() == stitched_per_cube(sys_, level).tobytes()


def test_two_value_batch_builds_no_generator(monkeypatch):
    # the levels of many more cubes than cells per cube are shuffled in one
    # batch, with no generator per cube; the others build one per cube
    spec = GridSpec(1, 12)
    calls = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *args: calls.append(1) or default_rng(*args))
    batched = []
    for level in range(spec.depth):
        count, n = spec.n_cubes(level), spec.n_cells // spec.n_cubes(level)
        calls.clear()
        AccretiveSystem(spec, "two-value", 2.0, 2.0, seed=3, params={"s": 0.9}).level_values(level)
        assert len(calls) == (0 if count >= 16 * n else count)
        batched += [level] * (not calls)
    assert batched == [8, 9, 10, 11]


def test_two_value_level_read_alone_equals_draw_levels():
    spec = GridSpec(1, 12)
    pair = system_pair(spec, "two-value", 5)
    accretive.draw_levels(pair)
    for level in (0, 8, 9, 11):
        for together, alone in zip(pair, system_pair(spec, "two-value", 5)):
            assert alone.level_values(level).tobytes() == together.level_values(level).tobytes()
            assert list(alone._levels) == [level]


@pytest.mark.parametrize("dim,depth", [(1, 12), (2, 6)])
def test_random_levels_build_without_warnings(dim, depth, monkeypatch):
    # the uint64 products wrap on purpose; a numpy-scalar product on the
    # draw path would warn of overflow instead
    monkeypatch.setattr(accretive, "_jumps", None)
    spec = GridSpec(dim, depth)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in (0, 2**64 + 5):
            sys_ = AccretiveSystem(spec, "random", 2.0, 1.7, seed=seed, params={"amp": 0.6})
            for level in range(depth + 1):
                sys_.level_values(level)


def test_recentring_divide_branch_matches_per_cube():
    # the peak of w - mean(w) exceeds 1 on some cubes; those are rescaled
    spec = GridSpec(1, 7)
    rescaled = 0
    for seed in range(3):
        for amp in (0.1, 0.5, 1.0 - 1e-5):
            sys_ = AccretiveSystem(spec, "random", 2.0, 2.0, seed=seed, params={"amp": amp})
            for level in range(spec.depth):
                assert sys_.level_values(level).tobytes() == stitched_per_cube(sys_, level).tobytes()
                for flat in range(spec.n_cubes(level)):
                    rng = np.random.default_rng(
                        np.random.SeedSequence(seed, spawn_key=(level, flat)))
                    w = rng.uniform(-1.0, 1.0, spec.n_cells >> level)
                    rescaled += np.abs(w - w.mean()).max() > 1.0
    assert rescaled > 0


def test_negative_seed_raises_like_seed_sequence():
    spec = GridSpec(1, 3)
    with pytest.raises(ValueError):
        np.random.SeedSequence(-1, spawn_key=(0, 0))
    for kind, (A, params) in KIND_SETUPS.items():
        if kind in ("random", "two-value"):
            sys_ = AccretiveSystem(spec, kind, 2.0, A, seed=-1, params=params)
            with pytest.raises(ValueError):
                sys_.level_values(0)

