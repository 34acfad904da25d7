import numpy as np
import pytest

from dytb import accretive
from dytb.accretive import AccretiveSystem, validate
from dytb.grid import DyadicCube, GridFunction, GridSpec, lp_norm

from conftest import rand_cube


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
    assert a.get_b(q) is a.get_b(q)  # cached object
    c = AccretiveSystem(spec, "random", 2.0, 1.5, seed=10, params={"amp": 0.5})
    assert not np.array_equal(a.get_b(q).values, c.get_b(q).values)


def test_constant_scale_covariance():
    # restriction of b_Q to a child, renormalized, is b_child for the constant kind
    spec = GridSpec(1, 4)
    sys_ = AccretiveSystem(spec, "constant", 2.0, 1.5)
    q = DyadicCube(1, (0,))
    child = q.children()[1]
    restricted = sys_.get_b(q).restrict(child)
    renormalized = restricted * (child.volume / restricted.integral(child))
    assert np.array_equal(renormalized.values, sys_.get_b(child).values)


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


def test_generator_invariant_violation_is_internal_error(monkeypatch):
    # a generator bug (not a config error) must surface as RuntimeError
    spec = GridSpec(1, 3)
    sys_ = AccretiveSystem(spec, "constant", 2.0, 1.5)
    # mean is 2|Q|, not |Q|
    monkeypatch.setattr(sys_, "_level_blocks",
                        lambda level, n: np.full((spec.n_cubes(level), n), 2.0))
    with pytest.raises(RuntimeError):
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


def per_cube_b(system, cube):
    """Reference generator: b_Q drawn for one cube, written into a zero array."""
    spec = system.spec
    idx = spec.cell_indices(cube)
    vals = np.zeros(spec.n_cells)
    n = idx.size
    rng = np.random.default_rng(
        np.random.SeedSequence(system.seed, spawn_key=(cube.level, spec.cube_flat(cube))))
    if system.kind == "constant" or n == 1:
        vals[idx] = 1.0
    elif system.kind == "two-value":
        s = float(system.params.get("s", 0.5))
        half = rng.permutation(n)[: n // 2]
        vals[idx] = 1.0 - s
        vals[idx[half]] = 1.0 + s
    elif system.kind == "signed":
        vals[idx[n // 2 :]] = 2.0
    else:
        amp = float(system.params.get("amp", 0.5))
        w = rng.uniform(-1.0, 1.0, n)
        w -= w.mean()
        peak = np.abs(w).max()
        if peak > 1.0:
            w /= peak
        vals[idx] = 1.0 + amp * w
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
            for cube in spec.cubes_at(level):
                b = per_cube_b(sys_, cube)
                assert sys_.get_b(cube).values.tobytes() == b.tobytes()
                idx = spec.cell_indices(cube)
                expected[idx] = b[idx]
            assert sys_.level_values(level).tobytes() == expected.tobytes()
        assert len(sys_._levels) == depth + 1


def stitched_per_cube(system, level):
    """One level's cell array stitched from ``per_cube_b`` of each of its cubes."""
    spec = system.spec
    out = np.zeros(spec.n_cells)
    for cube in spec.cubes_at(level):
        idx = spec.cell_indices(cube)
        out[idx] = per_cube_b(system, cube)[idx]
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


@pytest.mark.parametrize("seed", SEED_LADDER)
def test_seed_ladder_matches_seed_sequence_and_pcg64(seed):
    # 2**128 + 7 has five entropy words: one is mixed in past the pool size
    spec = GridSpec(2, 3)
    levels = np.repeat(np.arange(spec.depth), [spec.n_cubes(lev) for lev in range(spec.depth)])
    flats = np.concatenate([np.arange(spec.n_cubes(lev)) for lev in range(spec.depth)])
    words = accretive._generate_state(seed, levels, flats)
    seeds = accretive._seed_levels(seed, spec)
    for i, (level, flat) in enumerate(zip(levels.tolist(), flats.tolist())):
        ss = np.random.SeedSequence(seed, spawn_key=(level, flat))
        want = ss.generate_state(4, np.uint64)
        got = [int(words[2 * k][i]) | int(words[2 * k + 1][i]) << 32 for k in range(4)]
        assert got == want.tolist()
        state, inc = seeds[level]
        pcg = np.random.PCG64(ss).state["state"]
        assert sum(int(limb[flat]) << (32 * k) for k, limb in enumerate(state)) == pcg["state"]
        assert sum(int(limb[flat]) << (32 * k) for k, limb in enumerate(inc)) == pcg["inc"]
    sys_ = AccretiveSystem(GridSpec(1, 5), "random", 2.0, 1.7, seed=seed, params={"amp": 0.6})
    for level in range(6):
        assert sys_.level_values(level).tobytes() == stitched_per_cube(sys_, level).tobytes()


def test_jump_tables_are_powers_of_the_pcg_multiplier():
    mult, mod = accretive._PCG_MULT, 1 << 128
    powers, sums = accretive._jump_tables(300)
    assert powers.shape[1] >= 300 and sums.shape == powers.shape
    as_int = lambda table, k: sum(int(table[i, k]) << (32 * i) for i in range(4))
    g = 0
    for k in range(powers.shape[1]):
        g = (g + pow(mult, k, mod)) % mod  # G_(k+1) = sum_{i<=k} M^i
        assert as_int(powers, k) == pow(mult, k + 1, mod)
        assert as_int(sums, k) == g


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



def test_descriptor_roundtrip():
    spec = GridSpec(1, 4)
    sys_ = AccretiveSystem(spec, "two-value", 2.5, 1.4, seed=8, params={"s": 0.25})
    data = sys_.to_json_dict()
    assert data == {"kind": "two-value", "p": 2.5, "A": 1.4, "seed": 8, "params": {"s": 0.25}}
    clone = AccretiveSystem.from_json_dict(spec, data)
    q = DyadicCube(2, (1,))
    assert np.array_equal(clone.get_b(q).values, sys_.get_b(q).values)
