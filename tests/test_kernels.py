import copy
import json
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from dytb.grid import DyadicCube, GridFunction, GridSpec, level_sums, spread
from dytb.kernels import (
    KERNEL_KINDS,
    _PLAN_FIELDS,
    PerfectKernel,
    _child_flats,
    _sweep_from,
    adjoint,
    apply,
    bilinear,
    dense_matrix,
    generate_kernel,
    kernel_from_json_dict,
    kernel_to_json_dict,
    load_kernel,
    save_kernel,
    size_bound,
    validate_size,
)

from conftest import rand_fun
from oracles import per_level_generate_kernel, per_level_kernel, whole_tree_sweep


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


# -- the per-entry bodies the level plan replaced, kept as oracles -----------------


def per_entry_generate_kernel(kind, spec, seed=0, scale=1.0) -> dict:
    """The dict loop ``generate_kernel`` replaced: one ``rng.uniform(-1, 1, ncubes)``
    per (level, child pair), levels and pairs in order."""
    entries: dict = {}
    if kind == "zero":
        return entries
    nch = 2**spec.dim
    pairs = [(i, j) for i in range(nch) for j in range(nch) if i != j]
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    for level in range(spec.depth):
        ncubes = spec.n_cubes(level)
        for i, j in pairs:
            bound = size_bound(level, i, j, spec.dim)
            if kind == "haar-shift":
                for flat in range(ncubes):
                    entries[(level, flat, i, j)] = bound if i < j else -bound
            else:
                draws = rng.uniform(-1.0, 1.0, ncubes)
                for flat in range(ncubes):
                    entries[(level, flat, i, j)] = scale * bound * draws[flat]
    return entries


def dict_adjoint(entries: dict) -> dict:
    """The dict swap ``adjoint`` replaced."""
    return {(lev, flat, j, i): v for (lev, flat, i, j), v in entries.items()}


def dict_levels(entries: dict) -> dict:
    """The lazy per-level grouping the plan replaced: (flat, i, j, value)
    arrays per level, rows sorted as tuples."""
    grouped: dict = {}
    for (level, flat, i, j), v in entries.items():
        grouped.setdefault(level, []).append((flat, i, j, v))
    out = {}
    for level, rows in grouped.items():
        rows.sort()
        arr = np.asarray(rows, dtype=float)
        out[level] = (arr[:, 0].astype(np.int64), arr[:, 1].astype(np.int64),
                      arr[:, 2].astype(np.int64), arr[:, 3])
    return out


def add_at_sweep(spec, entries: dict, values, start):
    """The ``np.add.at`` body ``kernels._sweep_from`` replaced, on a dict of entries."""
    sums = level_sums(spec, values)
    if start >= spec.depth:
        return np.zeros(spec.n_cells)
    cv = spec.cell_volume
    contrib = {lev: np.zeros(spec.n_cubes(lev)) for lev in range(start + 1, spec.depth + 1)}
    for level, (flats, ii, jj, vals) in dict_levels(entries).items():
        if level < start:
            continue
        src = _child_flats(spec, level, flats, jj)
        dst = _child_flats(spec, level, flats, ii)
        np.add.at(contrib[level + 1], dst, vals * sums[level + 1][src] * cv)
    cur = contrib[start + 1]
    for lev in range(start + 2, spec.depth + 1):
        cur = spread(spec, lev - 1, cur, lev) + contrib[lev]
    return cur


def per_level_sums(spec, values) -> list:
    """The per-level list ``level_sums`` built before the cube-sum vector:
    one coarsening expression per level, finest first."""
    out = [np.asarray(values, dtype=float)]
    for _ in range(spec.depth):
        fine = out[-1]
        if spec.dim == 1:
            out.append(fine[0::2] + fine[1::2])
        else:
            m = math.isqrt(fine.size) // 2
            out.append(fine.reshape(m, 2, m, 2).sum(axis=(1, 3)).ravel())
    return out[::-1]


def level_slices(kernel) -> dict:
    """Per non-empty level, its slice of the kernel's whole-plan arrays."""
    return {level: slice(lo, hi)
            for level, (lo, hi) in enumerate(zip(kernel.starts, kernel.starts[1:])) if hi > lo}


def per_level_sweep(kernel, values, start):
    """The per-level body ``kernels._sweep_from`` had before the whole plan: a
    dict of zero arrays, one bincount per level and a ``spread`` per level."""
    spec = kernel.spec
    sums = per_level_sums(spec, values)
    if start >= spec.depth:
        return np.zeros(spec.n_cells)
    cv = spec.cell_volume
    contrib = {lev: np.zeros(spec.n_cubes(lev)) for lev in range(start + 1, spec.depth + 1)}
    for level, s in level_slices(kernel).items():
        if level >= start:
            src = _child_flats(spec, level, kernel.flats[s], kernel.jj[s])
            dst = _child_flats(spec, level, kernel.flats[s], kernel.ii[s])
            weights = kernel.vals[s] * sums[level + 1][src] * cv
            contrib[level + 1] = np.bincount(dst, weights, spec.n_cubes(level + 1))
    cur = contrib[start + 1]
    for lev in range(start + 2, spec.depth + 1):
        cur = spread(spec, lev - 1, cur, lev) + contrib[lev]
    return cur


def per_level_bilinear(kernel, f, g) -> float:
    """The per-level body ``bilinear`` had before the whole plan."""
    spec = kernel.spec
    cv = spec.cell_volume
    intf, intg = per_level_sums(spec, f.values), per_level_sums(spec, g.values)
    total = 0.0
    for level, s in level_slices(kernel).items():
        src = _child_flats(spec, level, kernel.flats[s], kernel.jj[s])
        dst = _child_flats(spec, level, kernel.flats[s], kernel.ii[s])
        total += float(np.sum(kernel.vals[s] * intf[level + 1][src] * intg[level + 1][dst])) * cv * cv
    return total


def per_entry_validate_size(entries: dict, dim) -> bool:
    """The per-entry loop ``validate_size`` replaced."""
    return all(abs(v) <= size_bound(level, i, j, dim)
               for (level, _flat, i, j), v in entries.items())


def assert_plan_equals(kernel, oracle: dict):
    """The kernel holds exactly the oracle's entries: ``entries == oracle``, and
    each level's slice of the plan equals the old sorted per-level arrays
    bit for bit (signed zeros too)."""
    assert kernel.entries == oracle
    assert len(kernel) == len(oracle)
    want = dict_levels(oracle)
    assert list(level_slices(kernel)) == sorted(want)
    for level, s in level_slices(kernel).items():
        got = (kernel.flats[s], kernel.ii[s], kernel.jj[s], kernel.vals[s])
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want[level]))


def sparse_entries(entries: dict, rng) -> dict:
    """A hand-built variant of ``entries``: some entries and whole levels
    missing, some explicit (signed) zeros, inserted in shuffled order."""
    dropped_level = int(rng.integers(-1, 1 + max((lev for lev, *_ in entries), default=0)))
    keys = [k for k in entries if k[0] != dropped_level and rng.random() < 0.7]
    out = {}
    for n in rng.permutation(len(keys)):
        key = keys[n]
        out[key] = float(rng.choice([entries[key], entries[key], 0.0, -0.0]))
    return out


def per_entry_to_json_dict(kernel) -> dict:
    """The per-entry writer ``kernel_to_json_dict`` replaced: one cube per entry."""
    entries = []
    for (level, flat, i, j), v in sorted(kernel.entries.items()):
        cube = kernel.spec.cube_from_flat(level, flat)
        entries.append({"level": level, "coords": list(cube.coords), "i": i, "j": j, "value": v})
    return {"dim": kernel.spec.dim, "depth": kernel.spec.depth, "entries": entries}


def per_entry_from_json_dict(data: dict, check_size: bool = True) -> PerfectKernel:
    """The per-entry reader ``kernel_from_json_dict`` replaced: one
    ``DyadicCube`` and one dict insertion per entry."""
    try:
        spec = GridSpec(int(data["dim"]), int(data["depth"]))
        rows = data["entries"]
    except KeyError as e:
        raise ValueError(f"kernel file lacks {e.args[0]!r}") from None
    entries = {}
    for n, e in enumerate(rows):
        missing = [name for name in ("level", "coords", "i", "j", "value") if name not in e]
        if missing:
            raise ValueError(f"kernel entry {n} lacks {missing[0]!r}")
        cube = DyadicCube(int(e["level"]), tuple(int(c) for c in e["coords"]))
        if cube.dim != spec.dim:
            raise ValueError(f"kernel entry {n} has {cube.dim} coords on a dim={spec.dim} grid")
        key = (cube.level, spec.cube_flat(cube), int(e["i"]), int(e["j"]))
        if key in entries:
            raise ValueError(f"kernel entry {n} repeats level {cube.level}, coords "
                             f"{list(cube.coords)}, pair ({key[2]}, {key[3]})")
        entries[key] = float(e["value"])
    kernel = PerfectKernel(spec, entries)
    if check_size and not validate_size(kernel):
        raise ValueError("kernel file violates the size bound")
    return kernel


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
    with pytest.raises(ValueError):
        size_bound(0, 1, 1, 2)


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


def plans_equal(a: PerfectKernel, b: PerfectKernel) -> bool:
    return a.starts == b.starts and all(
        getattr(a, name).tobytes() == getattr(b, name).tobytes() for name in _PLAN_FIELDS)


@pytest.mark.parametrize("dim,depth", [(1, 0), (1, 1), (1, 7), (2, 1), (2, 4)])
def test_adjoint_is_built_once_per_kernel(dim, depth, rng):
    spec = GridSpec(dim, depth)
    for t in (generate_kernel("random", spec, seed=depth),
              PerfectKernel(spec, sparse_entries(generate_kernel("random", spec).entries, rng))):
        ts = adjoint(t)
        assert adjoint(t) is ts
        fresh = adjoint(PerfectKernel(spec, t.entries))  # a new kernel's first build
        assert fresh is not ts and plans_equal(ts, fresh)
        assert plans_equal(adjoint(ts), t)


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


def test_validate_size_matches_per_entry_loop():
    # entries pushed one ulp over their bound are caught exactly
    for dim, depth in ((1, 6), (2, 3)):
        spec = GridSpec(dim, depth)
        haar = generate_kernel("haar-shift", spec)
        for key in list(haar.entries)[:: max(1, len(haar) // 7)]:
            entries = dict(haar.entries)
            entries[key] = np.nextafter(entries[key], 2 * entries[key])
            bumped = PerfectKernel(spec, entries)
            assert validate_size(bumped) == per_entry_validate_size(entries, dim)
            assert not validate_size(bumped)
        assert validate_size(haar)
    assert validate_size(generate_kernel("zero", GridSpec(1, 3)))


@pytest.mark.parametrize("entries,message", [
    ({(1, 0, 0, 1): 1.0}, r"entry level 1 outside \[0, 1\)"),
    ({(-1, 0, 0, 1): 1.0}, r"entry level -1 outside \[0, 1\)"),
    ({(0, 1, 0, 1): 1.0}, "entry cube index 1 out of range at level 0"),
    ({(0, -1, 0, 1): 1.0}, "entry cube index -1 out of range at level 0"),
    ({(0, 0, 1, 1): 1.0}, r"bad child pair \(1, 1\)"),
    ({(0, 0, 0, 2): 1.0}, r"bad child pair \(0, 2\)"),
    ({(0, 0, -1, 0): 1.0}, r"bad child pair \(-1, 0\)"),
    ({(0, 0, 0, 1): math.nan}, "non-finite kernel value"),
    ({(0, 0, 0, 1): 1.0, (0, 0, 1, 0): -math.inf}, "non-finite kernel value"),
])
def test_construction_validation_messages(entries, message):
    with pytest.raises(ValueError, match=message):
        PerfectKernel(GridSpec(1, 1), entries)


def test_plan_is_read_only():
    t = generate_kernel("random", GridSpec(2, 2), seed=1)
    for name in _PLAN_FIELDS:
        arr = getattr(t, name)
        with pytest.raises(ValueError):
            arr[0] = arr[0]


# -- the level plan against the per-entry oracles ------------------------------------------

ORACLE_GRIDS = [(1, depth) for depth in range(13)] + [(2, depth) for depth in range(7)]
SCALES = (0.0, 0.7, 1.0)


@pytest.mark.parametrize("dim,depth", ORACLE_GRIDS)
def test_generate_matches_per_entry_loop(dim, depth):
    spec = GridSpec(dim, depth)
    for kind in KERNEL_KINDS:
        for scale in SCALES:
            t = generate_kernel(kind, spec, seed=depth + 3, scale=scale)
            oracle = per_entry_generate_kernel(kind, spec, seed=depth + 3, scale=scale)
            assert_plan_equals(t, oracle)
            assert_plan_equals(adjoint(t), dict_adjoint(oracle))
            assert adjoint(adjoint(t)).entries == t.entries


@pytest.mark.parametrize("kind", KERNEL_KINDS)
@pytest.mark.parametrize("dim,depth", ORACLE_GRIDS)
@settings(max_examples=6, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scale=st.sampled_from(SCALES), sparse=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_sweep_matches_add_at_for_every_start(dim, depth, kind, scale, sparse, seed):
    spec = GridSpec(dim, depth)
    rng = np.random.default_rng(seed)
    entries = per_entry_generate_kernel(kind, spec, seed=seed, scale=scale)
    if sparse:
        entries = sparse_entries(entries, rng)
        t = PerfectKernel(spec, entries)
    else:
        t = generate_kernel(kind, spec, seed=seed, scale=scale)
    assert_plan_equals(t, entries)
    ts = adjoint(t)
    assert_plan_equals(ts, dict_adjoint(entries))
    assert_plan_equals(adjoint(ts), entries)
    values = rng.uniform(-1.0, 1.0, spec.n_cells)
    values[rng.random(spec.n_cells) < 0.2] = 0.0
    for kernel, oracle in ((t, entries), (ts, dict_adjoint(entries))):
        for start in range(spec.depth + 2):
            want = add_at_sweep(spec, oracle, values, start)
            assert _sweep_from(kernel, values, start).tobytes() == want.tobytes()


def gapped_kernel(spec, seed):
    """A random kernel read from a file that has no entries on every other
    level, the finest included when the depth is even."""
    data = kernel_to_json_dict(generate_kernel("random", spec, seed=seed))
    data["entries"] = [e for e in data["entries"] if e["level"] % 2 == 1]
    return kernel_from_json_dict(data)


SWEEP_GRIDS = [(1, depth) for depth in range(13)] + [(2, depth) for depth in range(7)]


@pytest.mark.parametrize("dim,depth", SWEEP_GRIDS)
def test_sweep_equals_whole_tree_sweep(dim, depth):
    # a sweep sums only the levels below its start, and none from the finest
    # level on: bit for bit the sweep over the whole cube-sum tree, on inputs
    # with 0.0 and -0.0 cells, for every kernel kind and a file with gaps
    spec = GridSpec(dim, depth)
    rng = np.random.default_rng(10 * dim + depth)
    ts = [generate_kernel(kind, spec, seed=depth) for kind in KERNEL_KINDS] + [gapped_kernel(spec, depth)]
    u = rng.random(spec.n_cells)
    mixed = np.where(u < 0.2, 0.0, np.where(u > 0.8, -0.0, rng.uniform(-1.0, 1.0, spec.n_cells)))
    zeros = np.where(u < 0.5, 0.0, -0.0)
    for t in ts:
        for kernel in (t, adjoint(t)):
            for start in range(spec.depth + 1):
                for values in (mixed, zeros):
                    want = whole_tree_sweep(kernel, values, start)
                    assert _sweep_from(kernel, values, start).tobytes() == want.tobytes()
                with pytest.raises(ValueError, match=f"expected {spec.n_cells} cell values"):
                    _sweep_from(kernel, np.zeros(spec.n_cells + 1), start)


WHOLE_PLAN_GRIDS = [(1, depth) for depth in range(1, 11)] + [(2, depth) for depth in range(1, 7)]


@pytest.mark.parametrize("dim,depth", WHOLE_PLAN_GRIDS)
def test_whole_plan_sweep_and_bilinear_equal_per_level_bodies(dim, depth):
    spec = GridSpec(dim, depth)
    rng = np.random.default_rng(100 * dim + depth)
    ts = [generate_kernel(kind, spec, seed=depth) for kind in ("random", "haar-shift", "zero")]
    ts.append(gapped_kernel(spec, depth))
    pairs = 2**dim * (2**dim - 1)
    assert np.diff(ts[-1].starts).tolist() == [pairs * spec.n_cubes(level) if level % 2 else 0
                                               for level in range(depth)] and not len(ts[2])
    values = rng.uniform(-1.0, 1.0, spec.n_cells)
    values[rng.random(spec.n_cells) < 0.2] = 0.0
    f, g = GridFunction(spec, values), rand_fun(spec, rng)
    assert np.concatenate(per_level_sums(spec, values)).tobytes() == f.sum_vector.tobytes()
    assert [a.tobytes() for a in level_sums(spec, values)] == [
        a.tobytes() for a in per_level_sums(spec, values)]
    for t in ts:
        for kernel in (t, adjoint(t)):
            for start in range(spec.depth + 2):
                want = per_level_sweep(kernel, values, start)
                assert _sweep_from(kernel, values, start).tobytes() == want.tobytes()
            for a, b in ((f, g), (g, f), (f, f)):
                assert np.float64(bilinear(kernel, a, b)).tobytes() == \
                    np.float64(per_level_bilinear(kernel, a, b)).tobytes()


def assert_same_kernel(got, want):
    """Equal starts and plan arrays, dtypes and bits (signed zeros too)."""
    assert got.spec == want.spec and got.starts == want.starts
    for name in _PLAN_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert a.flags.c_contiguous and not a.flags.writeable, name


@pytest.mark.parametrize("dim,depth", [(1, depth) for depth in range(11)] + [(2, depth) for depth in range(7)])
def test_whole_plan_generate_equals_per_level_builder(dim, depth):
    spec = GridSpec(dim, depth)
    for kind in ("random", "haar-shift", "zero"):
        for scale in (0.0, 1.0):
            for seed in (depth, 2**40 + 3):
                got = generate_kernel(kind, spec, seed=seed, scale=scale)
                assert_same_kernel(got, per_level_generate_kernel(kind, spec, seed=seed, scale=scale))
                assert_same_kernel(PerfectKernel(spec, got.entries), got)


PLAN_FAULTS = ("level -1", "level past the finest", "cube -1", "cube past the level", "pair i == j",
               "child too large", "child -1", "nan", "inf")


def plant_entry(spec, entries, fault, at):
    """One planted fault on entry ``at`` (a dict key order position) of ``entries``."""
    (level, flat, i, j), value = list(entries.items())[at % len(entries)]
    key = {"level -1": (-1, flat, i, j), "level past the finest": (spec.depth, flat, i, j),
           "cube -1": (level, -1, i, j), "cube past the level": (level, spec.n_cubes(level), i, j),
           "pair i == j": (level, flat, i, i), "child too large": (level, flat, i, 2**spec.dim),
           "child -1": (level, flat, -1, j)}.get(fault, (level, flat, i, j))
    entries.pop((level, flat, i, j))
    entries[key] = {"nan": math.nan, "inf": -math.inf}.get(fault, value)


def construction_outcome(build, spec, entries):
    try:
        return build(spec, entries)
    except ValueError as e:
        return str(e)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(grid=st.sampled_from([(1, 1), (1, 4), (2, 1), (2, 3)]), seed=st.integers(0, 2**32 - 1),
       faults=st.lists(st.tuples(st.sampled_from(PLAN_FAULTS), st.integers(0, 10**6)), max_size=3))
def test_plan_checks_fail_like_the_per_level_builder(grid, seed, faults):
    # every check runs on the whole plan, yet the error is the one a
    # level-by-level build meets first: lowest level, then the check order
    spec = GridSpec(*grid)
    rng = np.random.default_rng(seed)
    entries = sparse_entries(generate_kernel("random", spec, seed=seed).entries, rng)
    assume(entries)
    for fault, at in faults:
        plant_entry(spec, entries, fault, at)
    got = construction_outcome(PerfectKernel, spec, entries)
    want = construction_outcome(per_level_kernel, spec, entries)
    if isinstance(want, str):
        assert got == want
    else:
        assert_same_kernel(got, want)


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


@pytest.mark.parametrize("data,message", [
    ({"depth": 1, "entries": []}, "kernel file lacks 'dim'"),
    ({"dim": 1, "depth": 1}, "kernel file lacks 'entries'"),
    ({"dim": 1, "depth": 1, "entries": [{"level": 0, "coords": [0], "i": 0, "j": 1}]},
     "kernel entry 0 lacks 'value'"),
    ({"dim": 1, "depth": 1, "entries": [
        {"level": 0, "coords": [0], "i": 0, "j": 1, "value": 0.5},
        {"level": 0, "coords": [0], "i": 1, "j": 0, "value": 0.5},
        {"level": 0, "coords": [0], "i": 0, "j": 1, "value": -0.5}]},
     r"kernel entry 2 repeats level 0, coords \[0\], pair \(0, 1\)"),
    ({"dim": 2, "depth": 1, "entries": [{"level": 0, "coords": [0], "i": 0, "j": 1, "value": 0.1}]},
     "kernel entry 0 has 1 coords on a dim=2 grid"),
])
def test_kernel_file_errors_are_value_errors(data, message):
    with pytest.raises(ValueError, match=message):
        kernel_from_json_dict(data)


def test_kernel_load_rechecks_size(tmp_path):
    data = {"dim": 1, "depth": 1, "entries": [
        {"level": 0, "coords": [0], "i": 0, "j": 1, "value": 1.5}]}
    with pytest.raises(ValueError):
        kernel_from_json_dict(data)
    k = kernel_from_json_dict(data, check_size=False)
    assert not validate_size(k)


@pytest.mark.parametrize("dim,depths", [(1, range(9)), (2, range(5))])
def test_kernel_json_matches_per_entry_oracle(dim, depths):
    rng = np.random.default_rng(dim)
    for depth in depths:
        spec = GridSpec(dim, depth)
        for kind in KERNEL_KINDS:
            t = generate_kernel(kind, spec, seed=depth)
            for k in (t, PerfectKernel(spec, sparse_entries(t.entries, rng))):
                data = kernel_to_json_dict(k)
                assert json.dumps(data) == json.dumps(per_entry_to_json_dict(k))
                # read back in shuffled file order, with signed zeros kept
                data["entries"] = [data["entries"][n] for n in rng.permutation(len(data["entries"]))]
                back, want = kernel_from_json_dict(data), per_entry_from_json_dict(data)
                assert plans_equal(back, want)


def kernel_file_outcome(read, data):
    try:
        return read(copy.deepcopy(data)).entries
    except ValueError as e:
        return str(e)


FAULTS = ("drop field", "short coords", "long coords", "coords out of range", "negative coord",
          "negative level", "repeat", "level too deep", "diagonal pair", "nan", "oversized")


@settings(max_examples=150, derandomize=True, deadline=None)
@given(grid=st.sampled_from([(1, 3), (2, 2)]), seed=st.integers(0, 2**32 - 1),
       faults=st.lists(st.tuples(st.sampled_from(FAULTS), st.integers(0, 10**6)), max_size=4))
def test_kernel_file_errors_match_per_entry_oracle(grid, seed, faults):
    # the first bad entry in file order decides the message, whatever comes after it
    spec = GridSpec(*grid)
    rng = np.random.default_rng(seed)
    data = kernel_to_json_dict(PerfectKernel(spec, sparse_entries(
        generate_kernel("random", spec, seed=seed).entries, rng)))
    rows = data["entries"] = [data["entries"][n] for n in rng.permutation(len(data["entries"]))]
    assume(rows)
    for fault, at in faults:
        e = rows[at % len(rows)]
        if fault == "drop field":
            e.pop(("level", "coords", "i", "j", "value")[at % 5], None)
        elif "coords" in e and fault in ("short coords", "long coords"):
            e["coords"] = e["coords"][:-1] if fault == "short coords" else e["coords"] + [0]
        elif "coords" in e and e["coords"] and fault in ("coords out of range", "negative coord"):
            e["coords"][-1] = 2 ** e.get("level", 0) if fault == "coords out of range" else -1
        elif fault == "negative level":
            e["level"] = -1
        elif fault == "repeat":  # a copy of one entry, anywhere in the file
            rows.insert(at // 7 % (len(rows) + 1), dict(e, value=0.0))
        elif fault == "level too deep":
            e["level"] = spec.depth
        elif fault == "diagonal pair":
            e["j"] = e.get("i", 0)
        else:
            e["value"] = math.nan if fault == "nan" else 10.0
    for check_size in (True, False):
        read = partial(kernel_from_json_dict, check_size=check_size)
        oracle = partial(per_entry_from_json_dict, check_size=check_size)
        assert kernel_file_outcome(read, data) == kernel_file_outcome(oracle, data)
