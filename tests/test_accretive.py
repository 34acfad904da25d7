import numpy as np
import pytest

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
    monkeypatch.setattr(sys_, "_cube_values", lambda level, flat, n: np.full(n, 2.0))
    with pytest.raises(RuntimeError):
        sys_.get_b(spec.root())


def test_one_bad_cube_fails_its_whole_level(monkeypatch):
    spec = GridSpec(2, 4)
    sys_ = AccretiveSystem(spec, "random", 2.0, 1.5, seed=5, params={"amp": 0.5})
    good = sys_._cube_values

    def broken(level, flat, n):
        vals = good(level, flat, n)
        if (level, flat) == (3, 37):
            vals[0] = 0.0
        return vals

    monkeypatch.setattr(sys_, "_cube_values", broken)
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


def test_descriptor_roundtrip():
    spec = GridSpec(1, 4)
    sys_ = AccretiveSystem(spec, "two-value", 2.5, 1.4, seed=8, params={"s": 0.25})
    data = sys_.to_json_dict()
    assert data == {"kind": "two-value", "p": 2.5, "A": 1.4, "seed": 8, "params": {"s": 0.25}}
    clone = AccretiveSystem.from_json_dict(spec, data)
    q = DyadicCube(2, (1,))
    assert np.array_equal(clone.get_b(q).values, sys_.get_b(q).values)
