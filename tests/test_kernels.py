import math

import numpy as np
import pytest

from dytb.grid import DyadicCube, GridFunction, GridSpec
from dytb.kernels import (
    KERNEL_KINDS,
    PerfectKernel,
    adjoint,
    apply,
    bilinear,
    dense_matrix,
    generate_kernel,
    kernel_from_json_dict,
    load_kernel,
    save_kernel,
    size_bound,
    validate_size,
)

from conftest import rand_fun


def depth1_kernel():
    spec = GridSpec(1, 1)
    return PerfectKernel(spec, {(0, 0, 0, 1): 1.0, (0, 0, 1, 0): -1.0})


def lca_dense_matrix(kernel):
    """Independent dense oracle: per cell pair, walk to the least common
    ancestor and read the kernel value on its child rectangle."""
    spec = kernel.spec
    n = spec.n_cells
    m = np.zeros((n, n))
    for pf in range(n):
        p = spec.cube_from_flat(spec.depth, pf)
        for qf in range(n):
            if pf == qf:
                continue
            q = spec.cube_from_flat(spec.depth, qf)
            level = spec.depth
            while p.ancestor(level) != q.ancestor(level):
                level -= 1
            parent = p.ancestor(level)
            kids = parent.children()
            i = kids.index(p.ancestor(level + 1))
            j = kids.index(q.ancestor(level + 1))
            m[pf, qf] = kernel.value(parent, i, j)
    return m * spec.cell_volume


def per_entry_dense_matrix(kernel):
    """The entry-by-entry fill ``dense_matrix`` replaced: one ``np.ix_`` block
    per sparse entry, then one scaled copy."""
    spec = kernel.spec
    n = spec.n_cells
    m = np.zeros((n, n))
    for (level, flat, i, j), v in kernel.entries.items():
        kids = spec.cube_from_flat(level, flat).children()
        m[np.ix_(spec.cell_indices(kids[i]), spec.cell_indices(kids[j]))] += v
    return m * spec.cell_volume


# -- size bound --------------------------------------------------------------------


def test_size_bound_1d_is_parent_side():
    # both children of R are 2^-(l+1) wide; their closed sup distance is side(R)
    for level in range(5):
        assert size_bound(level, 0, 1, 1) == pytest.approx(2.0**level)
        assert size_bound(level, 1, 0, 1) == pytest.approx(2.0**level)


def test_size_bound_2d_values():
    h = 0.5
    assert size_bound(0, 0, 1, 2) == pytest.approx((h * math.sqrt(5)) ** -2)
    assert size_bound(0, 0, 3, 2) == pytest.approx((h * math.sqrt(8)) ** -2)
    assert size_bound(0, 0, 3, 2, metric="max") == pytest.approx((h * 2) ** -2)
    with pytest.raises(ValueError):
        size_bound(0, 1, 1, 2)
    with pytest.raises(ValueError):
        size_bound(0, 0, 1, 2, metric="manhattan")


# -- bilinear ----------------------------------------------------------------------


def test_bilinear_zero_kernel(rng):
    spec = GridSpec(1, 3)
    zk = generate_kernel("zero", spec)
    assert bilinear(zk, rand_fun(spec, rng), rand_fun(spec, rng)) == 0.0


def test_bilinear_single_rectangle():
    t = depth1_kernel()
    spec = t.spec
    f = GridFunction.indicator(spec, DyadicCube(1, (1,)))
    g = GridFunction.indicator(spec, DyadicCube(1, (0,)))
    assert bilinear(t, f, g) == pytest.approx(0.25)
    # swapped supports hit the other entry
    assert bilinear(t, g, f) == pytest.approx(-0.25)


def test_bilinear_grid_mismatch():
    t = depth1_kernel()
    f = GridFunction.constant(GridSpec(1, 2), 1.0)
    with pytest.raises(ValueError):
        bilinear(t, f, f)


@pytest.mark.parametrize("dim,depth", [(1, 5), (2, 2)])
def test_bilinear_matches_dense_quadratic_form(dim, depth, rng):
    spec = GridSpec(dim, depth)
    for seed in range(5):
        t = generate_kernel("random", spec, seed=seed)
        m = lca_dense_matrix(t)
        f, g = rand_fun(spec, rng), rand_fun(spec, rng)
        expected = float(g.values @ m @ f.values) * spec.cell_volume
        assert bilinear(t, f, g) == pytest.approx(expected, rel=1e-12, abs=1e-14)


# -- apply --------------------------------------------------------------------------


def test_apply_zero_kernel(rng):
    spec = GridSpec(1, 4)
    zk = generate_kernel("zero", spec)
    assert np.all(apply(zk, rand_fun(spec, rng)).values == 0.0)


def test_apply_depth1_example():
    t = depth1_kernel()
    out = apply(t, GridFunction.constant(t.spec, 1.0))
    assert out.values.tolist() == [0.5, -0.5]


@pytest.mark.parametrize("dim,depth", [(1, 5), (2, 2)])
def test_apply_matches_dense(dim, depth, rng):
    spec = GridSpec(dim, depth)
    for seed in range(5):
        t = generate_kernel("random", spec, seed=seed)
        m = lca_dense_matrix(t)
        f = rand_fun(spec, rng)
        assert np.allclose(apply(t, f).values, m @ f.values, rtol=1e-10, atol=1e-13)


def test_apply_bilinear_consistency(rng):
    spec = GridSpec(1, 5)
    t = generate_kernel("random", spec, seed=11)
    f, g = rand_fun(spec, rng), rand_fun(spec, rng)
    paired = float(np.sum(apply(t, f).values * g.values)) * spec.cell_volume
    assert paired == pytest.approx(bilinear(t, f, g), rel=1e-12, abs=1e-15)


# -- adjoint ------------------------------------------------------------------------


def test_adjoint_symmetric_fixed_point():
    spec = GridSpec(1, 2)
    sym = {(0, 0, 0, 1): 0.5, (0, 0, 1, 0): 0.5, (1, 0, 0, 1): 1.0, (1, 0, 1, 0): 1.0}
    t = PerfectKernel(spec, sym)
    assert adjoint(t).entries == t.entries


def test_adjoint_antisymmetric_negates():
    t = depth1_kernel()
    assert adjoint(t).entries == {(0, 0, 0, 1): -1.0, (0, 0, 1, 0): 1.0}


def test_adjoint_identity_50_pairs(rng):
    spec = GridSpec(1, 4)
    t = generate_kernel("random", spec, seed=3)
    ts = adjoint(t)
    for _ in range(50):
        f, g = rand_fun(spec, rng), rand_fun(spec, rng)
        lhs = bilinear(ts, g, f)
        rhs = bilinear(t, f, g)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


# -- generation and validation ----------------------------------------------------------


def test_generate_zero_is_empty():
    assert len(generate_kernel("zero", GridSpec(2, 3))) == 0


def test_generate_haar_shift_closed_form():
    spec = GridSpec(1, 3)
    t = generate_kernel("haar-shift", spec)
    for level in range(3):
        for flat in range(2**level):
            assert t.entries[(level, flat, 0, 1)] == pytest.approx(2.0**level)
            assert t.entries[(level, flat, 1, 0)] == pytest.approx(-(2.0**level))
    assert validate_size(t)
    # the haar entries sit exactly at the size bound
    assert all(
        abs(v) == size_bound(lev, i, j, 1) for (lev, _f, i, j), v in t.entries.items()
    )


def test_generate_deterministic():
    spec = GridSpec(2, 2)
    a = generate_kernel("random", spec, seed=9, scale=0.7)
    b = generate_kernel("random", spec, seed=9, scale=0.7)
    assert a.entries == b.entries
    c = generate_kernel("random", spec, seed=10, scale=0.7)
    assert a.entries != c.entries


def test_generate_rejects_bad_args():
    spec = GridSpec(1, 2)
    with pytest.raises(ValueError):
        generate_kernel("cauchy", spec)
    with pytest.raises(ValueError):
        generate_kernel("random", spec, scale=1.5)


def test_validate_size_violation():
    spec = GridSpec(1, 1)
    bad = PerfectKernel(spec, {(0, 0, 0, 1): 1.5})
    assert not validate_size(bad)


def test_validate_random_kernels_100_seeds():
    spec = GridSpec(1, 4)
    for seed in range(100):
        assert validate_size(generate_kernel("random", spec, seed=seed))


# -- structural invariants ----------------------------------------------------------------


def test_perfect_cancellation():
    # f supported on P with integral zero, g on disjoint Q: the pairing vanishes
    spec = GridSpec(1, 4)
    t = generate_kernel("random", spec, seed=21)
    p = DyadicCube(2, (1,))
    q = DyadicCube(2, (3,))
    fv = np.zeros(spec.n_cells)
    fv[spec.cell_indices(p)] = [1.0, -2.0, 0.5, 0.5]
    f = GridFunction(spec, fv)
    g = GridFunction.indicator(spec, q)
    assert abs(f.integral()) < 1e-15
    assert abs(bilinear(t, f, g)) <= 1e-13


def test_rectangle_tiling_depth6():
    # maximal constancy rectangles tile the off-diagonal exactly once
    for dim, depth in ((1, 6), (2, 3)):
        spec = GridSpec(dim, depth)
        total = 0.0
        nch = 2**dim
        for level in range(depth):
            for i in range(nch):
                for j in range(nch):
                    if i != j:
                        child_vol = 2.0 ** (-dim * (level + 1))
                        total += spec.n_cubes(level) * child_vol * child_vol
        assert total == pytest.approx(1.0 - spec.cell_volume, rel=1e-12)


def test_lp_boundedness_with_measured_constant(rng):
    # |<Tf, g>| <= C_p ||f||_p ||g||_p' with C_p measured from the dense matrix:
    # exact sigma_max at p = 2, interpolation of the max row/column sums else.
    spec = GridSpec(1, 6)
    for seed in range(5):
        t = generate_kernel("random", spec, seed=seed)
        m = lca_dense_matrix(t)
        col = float(np.max(np.sum(np.abs(m), axis=0)))
        row = float(np.max(np.sum(np.abs(m), axis=1)))
        sigma = float(np.linalg.svd(m, compute_uv=False)[0])
        for p in (1.5, 2.0, 3.0):
            q = p / (p - 1)
            cp = sigma if p == 2.0 else col ** (1 / p) * row ** (1 - 1 / p)
            for _ in range(10):
                f, g = rand_fun(spec, rng), rand_fun(spec, rng)
                lhs = abs(bilinear(t, f, g))
                assert lhs <= cp * f.lp_norm(p) * g.lp_norm(q) * (1 + 1e-10)


@pytest.mark.parametrize("dim,depths", [(1, range(11)), (2, range(6))])
def test_dense_matrix_equals_per_entry_fill(dim, depths):
    # scale 0 draws signed zeros, which the level fill must add, not assign
    for depth in depths:
        spec = GridSpec(dim, depth)
        for kind in KERNEL_KINDS:
            for scale in (1.0, 0.0):
                t = generate_kernel(kind, spec, seed=depth, scale=scale)
                assert dense_matrix(t).tobytes() == per_entry_dense_matrix(t).tobytes()


# -- serialization -----------------------------------------------------------------------


def test_depth_zero_grid_has_no_kernel():
    spec = GridSpec(1, 0)
    k = generate_kernel("random", spec, seed=1)
    assert len(k) == 0
    out = apply(k, GridFunction.constant(spec, 3.0))
    assert out.values.tolist() == [0.0]


def test_kernel_json_roundtrip(tmp_path):
    spec = GridSpec(2, 2)
    t = generate_kernel("random", spec, seed=5)
    path = tmp_path / "k.json"
    save_kernel(t, path)
    back = load_kernel(path)
    assert back.spec == spec
    assert back.entries == t.entries


def test_kernel_load_rechecks_size(tmp_path):
    data = {"dim": 1, "depth": 1, "entries": [
        {"level": 0, "coords": [0], "i": 0, "j": 1, "value": 1.5}]}
    with pytest.raises(ValueError):
        kernel_from_json_dict(data)
    k = kernel_from_json_dict(data, check_size=False)
    assert not validate_size(k)
