import numpy as np
import pytest

from dytb.grid import (
    DyadicCube,
    GridFunction,
    GridSpec,
    cube_blocks,
    dyadic_maximal,
    from_cube_blocks,
    level_sum,
    level_sums,
    lp_norm,
)

from conftest import cubes_at, rand_cube, rand_fun


def brute_integral(f, cube):
    """Direct-summation oracle: raw sum over the cube's cells."""
    return float(np.sum(f.values[f.spec.cell_indices(cube)])) * f.spec.cell_volume


# -- spec and cube geometry -----------------------------------------------------


def test_gridspec_rejects_bad_dims_and_cap():
    with pytest.raises(ValueError):
        GridSpec(3, 2)
    with pytest.raises(ValueError):
        GridSpec(1, -1)
    # exactly at the cap of 2^20 cells, then one level over; specs allocate no arrays
    for dim, depth in ((1, 20), (2, 10)):
        assert GridSpec(dim, depth).n_cells == 2**20
        with pytest.raises(ValueError, match=rf"^2\^\({dim}\*{depth + 1}\) cells exceed the cell cap 1048576$"):
            GridSpec(dim, depth + 1)


def test_cube_geometry():
    q = DyadicCube(2, (1, 3))
    assert q.side == 0.25
    assert q.volume == 0.0625
    assert q.parent() == DyadicCube(1, (0, 1))
    kids = q.children()
    assert len(kids) == 4
    assert kids[0] == DyadicCube(3, (2, 6))
    assert all(q.contains(k) for k in kids)
    with pytest.raises(ValueError):
        DyadicCube(1, (2,))  # coords out of range


def test_cell_indices_2d_row_major():
    spec = GridSpec(2, 2)
    idx = spec.cell_indices(DyadicCube(1, (0, 1)))
    assert sorted(idx.tolist()) == [2, 3, 6, 7]


# -- average ---------------------------------------------------------------------


def test_average_constant_one():
    spec = GridSpec(1, 3)
    f = GridFunction.constant(spec, 1.0)
    for level in range(4):
        for k in range(2**level):
            assert f.average(DyadicCube(level, (k,))) == 1.0


def test_average_half_mass():
    spec = GridSpec(1, 3)
    f = GridFunction.indicator(spec, DyadicCube(1, (0,)))
    assert f.average(spec.root()) == 0.5


def test_average_matches_direct_sum(rng):
    spec = GridSpec(1, 3)
    f = rand_fun(spec, rng)
    q = DyadicCube(2, (0,))
    direct = float(np.sum(f.values[:2])) * 2.0**-3 / 2.0**-2
    assert f.average(q) == pytest.approx(direct, rel=1e-15)


def test_average_outside_grid_errors():
    spec = GridSpec(1, 2)
    f = GridFunction.constant(spec, 1.0)
    with pytest.raises(ValueError):
        f.average(DyadicCube(5, (0,)))
    with pytest.raises(ValueError):
        f.average(DyadicCube(1, (0, 0)))  # wrong dimension


def test_average_random_cubes_both_dims(rng):
    for dim, depth in ((1, 6), (2, 3)):
        spec = GridSpec(dim, depth)
        f = rand_fun(spec, rng)
        for _ in range(50):
            q = rand_cube(spec, rng)
            assert f.average(q) * q.volume == pytest.approx(brute_integral(f, q), abs=1e-15)


# -- lp_norm ----------------------------------------------------------------------


def test_lp_norm_constant():
    spec = GridSpec(1, 4)
    assert lp_norm(GridFunction.constant(spec, 1.0), 2.0) == pytest.approx(1.0)


def test_lp_norm_half_indicator():
    spec = GridSpec(1, 1)
    f = GridFunction(spec, 2.0 * GridFunction.indicator(spec, DyadicCube(1, (0,))).values)
    assert lp_norm(f, 2.0) == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_lp_norm_matches_direct_sum(rng):
    spec = GridSpec(1, 5)
    f = rand_fun(spec, rng)
    direct = float(np.sum(np.abs(f.values) ** 3) * spec.cell_volume) ** (1 / 3)
    assert lp_norm(f, 3.0) == pytest.approx(direct, rel=1e-14)


def test_lp_norm_rejects_small_p(rng):
    spec = GridSpec(1, 2)
    f = rand_fun(spec, rng)
    for p in (1.0, 0.5, -2.0, np.inf):
        with pytest.raises(ValueError):
            lp_norm(f, p)


def test_lp_norm_indicator_exact():
    # ||1_Q||_p = |Q|^(1/p) exactly for dyadic Q
    spec = GridSpec(2, 3)
    for level in range(4):
        q = DyadicCube(level, (0,) * 2 if level == 0 else (1, 0))
        ind = GridFunction.indicator(spec, q)
        for p in (1.5, 2.0, 3.0):
            assert lp_norm(ind, p) == pytest.approx(q.volume ** (1 / p), rel=1e-15)


def test_lp_norm_monotone(rng):
    spec = GridSpec(1, 4)
    f = rand_fun(spec, rng)
    g = GridFunction(spec, f.values * rng.uniform(0.0, 1.0, spec.n_cells))
    for p in (1.5, 2.0, 4.0):
        assert lp_norm(g, p) <= lp_norm(f, p) + 1e-15


# -- dyadic maximal function ---------------------------------------------------------


def test_maximal_constant():
    spec = GridSpec(1, 3)
    mf = dyadic_maximal(GridFunction.constant(spec, 1.0))
    assert np.all(mf.values == 1.0)


def test_maximal_quarter_indicator():
    spec = GridSpec(1, 2)
    mf = dyadic_maximal(GridFunction.indicator(spec, DyadicCube(2, (0,))))
    assert mf.values.tolist() == [1.0, 0.5, 0.25, 0.25]


def brute_maximal(f):
    spec = f.spec
    out = np.zeros(spec.n_cells)
    for cell_flat in range(spec.n_cells):
        cell = spec.cube_from_flat(spec.depth, cell_flat)
        best = 0.0
        for level in range(spec.depth + 1):
            anc = cell.ancestor(level)
            idx = spec.cell_indices(anc)
            best = max(best, abs(float(np.mean(f.values[idx]))))
        out[cell_flat] = best
    return out


def test_maximal_matches_brute_force(rng):
    for dim, depth in ((1, 5), (2, 3)):
        spec = GridSpec(dim, depth)
        f = rand_fun(spec, rng)
        assert np.allclose(dyadic_maximal(f).values, brute_maximal(f), rtol=1e-13, atol=1e-15)


def test_maximal_dominates(rng):
    spec = GridSpec(1, 6)
    f = rand_fun(spec, rng)
    mf = dyadic_maximal(f)
    assert np.all(mf.values >= abs(f.average()) - 1e-15)
    assert np.all(mf.values >= np.abs(f.values) - 1e-15)


@pytest.mark.parametrize("dim,depth", [(1, 0), (1, 5), (2, 0), (2, 3)])
def test_level_offsets_and_parents_match_cubes(dim, depth):
    spec = GridSpec(dim, depth)
    assert spec.offsets == tuple(sum(spec.n_cubes(k) for k in range(level))
                                 for level in range(depth + 2))
    for level in range(1, depth + 1):
        assert spec.parents[level].tolist() == [
            spec.cube_flat(cube.parent()) for cube in cubes_at(spec, level)]


@pytest.mark.parametrize("dim,depth", [(1, 0), (1, 9), (2, 0), (2, 5)])
def test_level_sum_is_exact(dim, depth, rng):
    # mixed magnitudes make the float sums depend on the order of additions
    spec = GridSpec(dim, depth)
    x = rng.standard_normal(spec.n_cells) * 10.0 ** rng.integers(-12, 13, spec.n_cells)
    tree = level_sums(spec, x)
    for level in range(depth + 1):
        got = level_sum(spec, x, level)
        assert np.array_equal(got, tree[level]) and got.tobytes() == tree[level].tobytes()
    with pytest.raises(ValueError, match="outside"):
        level_sum(spec, x, depth + 1)


@pytest.mark.parametrize("dim,depth", [(1, 0), (1, 6), (2, 0), (2, 4)])
def test_from_cube_blocks_inverts_cube_blocks(dim, depth, rng):
    spec = GridSpec(dim, depth)
    x = rng.standard_normal(spec.n_cells)
    for level in range(depth + 1):
        blocks = cube_blocks(spec, level, x)
        assert blocks.shape == (spec.n_cubes(level), spec.n_cells // spec.n_cubes(level))
        for cube in cubes_at(spec, level):  # row flat is the cube's cells in cell_indices order
            assert blocks[spec.cube_flat(cube)].tolist() == x[spec.cell_indices(cube)].tolist()
        back = from_cube_blocks(spec, level, blocks)
        assert back.shape == (spec.n_cells,) and back.tobytes() == x.tobytes()
        # the other way round: rows in, the same rows out
        rows = rng.standard_normal(blocks.shape)
        assert cube_blocks(spec, level, from_cube_blocks(spec, level, rows)).tobytes() == rows.tobytes()


# -- exactness invariants --------------------------------------------------------------


def test_integral_additivity_depth10(rng):
    spec = GridSpec(1, 10)
    f = rand_fun(spec, rng)
    for level in (0, 3, 7):
        for _ in range(20):
            q = rand_cube(spec, rng, min_level=level, max_level=level)
            total = sum(f.integral(c) for c in q.children())
            assert abs(f.integral(q) - total) <= 1e-13 * max(1.0, abs(f.integral(q)))


# -- serialization -----------------------------------------------------------------------


def test_csv_roundtrip(tmp_path, rng):
    spec = GridSpec(2, 2)
    f = rand_fun(spec, rng)
    path = tmp_path / "f.csv"
    f.save_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# 2,2"
    assert len(lines) == 1 + spec.n_cells
    g = GridFunction.load_csv(path)
    assert g.spec == GridSpec(2, 2)
    assert np.array_equal(g.values, f.values)


def test_values_are_immutable(rng):
    spec = GridSpec(1, 3)
    f = rand_fun(spec, rng)
    with pytest.raises(ValueError):
        f.values[0] = 99.0
