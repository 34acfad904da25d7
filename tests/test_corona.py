import re

import numpy as np
import pytest

from dytb.accretive import AccretiveSystem
from dytb.corona import (
    ConfigError,
    TbConfig,
    TerminalFamily,
    build_corona,
    carleson_constant,
    choose_delta,
    coarsen_terminals,
    make_terminal_family,
    packing_ratio,
    set_packing_ratio,
    terminal_cubes,
)
from dytb.grid import DyadicCube, GridFunction, GridSpec
from dytb.kernels import dense_matrix, generate_kernel
from dytb.verify import testing_constant as measure_tloc

# -- oracles ------------------------------------------------------------------------


def oracle_terminals(b, s0, delta, p, a_const):
    """Exhaustive scan: mark every stopped cube, keep the maximal ones."""
    spec = b.spec
    cv = spec.cell_volume
    triggered = []
    for cube in spec.all_cubes(s0):
        idx = spec.cell_indices(cube)
        integ = float(np.sum(b.values[idx])) * cv
        power = float(np.sum(np.abs(b.values[idx]) ** p)) * cv
        if abs(integ) <= delta * cube.volume or power >= a_const**p / delta * cube.volume:
            triggered.append(cube)
    return {t for t in triggered if not any(o != t and o.contains(t) for o in triggered)}


def oracle_family(spec, q0, system, op_dense, p_exp, q_exp, cfg):
    """Recursive exhaustive recomputation of one stopping family, applying the
    operator through the dense matrix."""
    cv = spec.cell_volume
    members = {q0}
    stack = [q0]
    while stack:
        s = stack.pop()
        b = system.get_b(s)
        tb = op_dense @ b.values
        hits = []
        for cube in spec.all_cubes(s):
            if cube == s:
                continue
            idx = spec.cell_indices(cube)
            vol = cube.volume
            c1 = abs(float(np.sum(b.values[idx])) * cv) <= cfg.delta * vol
            c2 = float(np.sum(np.abs(b.values[idx]) ** p_exp)) * cv >= cfg.A**p_exp / cfg.delta * vol
            tpow = float(np.sum(np.abs(tb[idx]) ** q_exp)) * cv
            c3 = tpow >= cfg.Tloc**q_exp / cfg.delta * vol and tpow > 0.0
            if c1 or c2 or c3:
                hits.append(cube)
        maximal = [h for h in hits if not any(o != h and o.contains(h) for o in hits)]
        members.update(maximal)
        stack.extend(maximal)
    return members


def derive_children(members, top):
    ch = {m: [] for m in members}
    for m in members:
        if m == top:
            continue
        cur = m.parent()
        while cur not in members:
            cur = cur.parent()
        ch[cur].append(m)
    return ch


# -- terminal cubes -------------------------------------------------------------------


def test_terminals_constant_none():
    spec = GridSpec(1, 3)
    b = GridFunction.constant(spec, 1.0)
    assert terminal_cubes(b, spec.root(), 0.5, 2.0, 1.0 + 1e-9) == []


def test_terminals_hand_example():
    # b = 2 on the right half, 0 on the left; only the left child stops
    spec = GridSpec(1, 3)
    vals = np.zeros(spec.n_cells)
    vals[4:] = 2.0
    b = GridFunction(spec, vals)
    out = terminal_cubes(b, spec.root(), 0.25, 2.0, float(np.sqrt(2)))
    assert out == [DyadicCube(1, (0,))]


@pytest.mark.parametrize("dim,depth", [(1, 6), (2, 3)])
def test_terminals_match_exhaustive_scan(dim, depth, rng):
    spec = GridSpec(dim, depth)
    for seed in range(10):
        sys_ = AccretiveSystem(spec, "two-value", 2.0, 1.7, seed=seed, params={"s": 0.9})
        b = sys_.get_b(spec.root())
        delta = 0.4
        got = set(terminal_cubes(b, spec.root(), delta, 2.0, 1.7))
        assert got == oracle_terminals(b, spec.root(), delta, 2.0, 1.7)


def test_terminals_maximality_and_disjointness(rng):
    spec = GridSpec(1, 6)
    sys_ = AccretiveSystem(spec, "two-value", 2.0, 1.7, seed=3, params={"s": 0.9})
    b = sys_.get_b(spec.root())
    out = terminal_cubes(b, spec.root(), 0.45, 2.0, 1.7)
    for t in out:
        for o in out:
            assert t == o or not t.contains(o)
        # no proper ancestor (within S0) may satisfy either condition
        cur = t
        while cur.level > 0:
            cur = cur.parent()
            idx = spec.cell_indices(cur)
            integ = float(np.sum(b.values[idx])) * spec.cell_volume
            power = float(np.sum(np.abs(b.values[idx]) ** 2)) * spec.cell_volume
            assert abs(integ) > 0.45 * cur.volume
            assert power < 1.7**2 / 0.45 * cur.volume


def test_coarsening_is_legal(rng):
    spec = GridSpec(1, 6)
    sys_ = AccretiveSystem(spec, "two-value", 2.0, 1.7, seed=5, params={"s": 0.9})
    root = spec.root()
    b = sys_.get_b(root)
    tprime = terminal_cubes(b, root, 0.45, 2.0, 1.7)
    assert tprime
    for k in range(20):
        members = coarsen_terminals(tprime, root, np.random.default_rng(k))
        for t in tprime:
            assert any(m.contains(t) for m in members)
        for a in members:
            assert root.contains(a) and a != root
            for c in members:
                assert a == c or not a.contains(c)
        # family construction revalidates everything
        fam = TerminalFamily(spec, root, tuple(tprime), tuple(members),
                             {m: sys_.get_b(m) for m in members})
        for q in fam.q_cubes(active_only=False):
            assert not any(m.contains(q) for m in members)


def test_terminal_family_rejects_nested_members():
    spec = GridSpec(2, 4)
    sys_ = AccretiveSystem(spec, "constant", 2.0, 1.5)
    outer = DyadicCube(1, (1, 0))
    inner = DyadicCube(3, (4, 1))
    members = (outer, DyadicCube(2, (0, 3)), inner)
    message = f"terminal cubes {outer} and {inner} are nested"
    with pytest.raises(ValueError, match=re.escape(message)):
        TerminalFamily(spec, spec.root(), (), members, {m: sys_.get_b(m) for m in members})


def test_terminal_family_rejects_uncovered_maximal_cube():
    spec = GridSpec(1, 5)
    sys_ = AccretiveSystem(spec, "constant", 2.0, 1.5)
    members = (DyadicCube(2, (0,)), DyadicCube(3, (4,)))
    covered, uncovered = DyadicCube(4, (1,)), DyadicCube(4, (10,))
    with pytest.raises(ValueError, match=re.escape(f"maximal cube {uncovered} is not covered")):
        TerminalFamily(spec, spec.root(), (covered, uncovered), members,
                       {m: sys_.get_b(m) for m in members})
    # the same family accepts maximal cubes equal to or inside its members
    TerminalFamily(spec, spec.root(), (covered, members[1]), members,
                   {m: sys_.get_b(m) for m in members})


# -- corona construction -----------------------------------------------------------------


def test_corona_trivial_zero_kernel():
    spec = GridSpec(1, 4)
    const = AccretiveSystem(spec, "constant", 2.0, 1.5)
    cfg = TbConfig(2.0, 2.0, 0.5, 1.5, Tloc=0.0)
    forest = build_corona(spec.root(), const, const, generate_kernel("zero", spec), cfg)
    assert set(forest.members(1)) == {spec.root()}
    assert set(forest.members(2)) == {spec.root()}
    assert packing_ratio(forest, 1) == 0.0


def test_corona_signed_zero_half_child():
    spec = GridSpec(1, 3)
    signed = AccretiveSystem(spec, "signed", 2.0, 1.5)
    cfg = TbConfig(2.0, 2.0, 0.25, 1.5, Tloc=0.0)
    forest = build_corona(spec.root(), signed, signed, generate_kernel("zero", spec), cfg)
    assert DyadicCube(1, (0,)) in forest.stopping_children(1, spec.root())
    # the zero-half recursion reaches the finest level
    assert any(m.level == spec.depth for m in forest.members(1))


def test_corona_tloc_zero_nonzero_kernel_rejected():
    spec = GridSpec(1, 3)
    const = AccretiveSystem(spec, "constant", 2.0, 1.5)
    cfg = TbConfig(2.0, 2.0, 0.25, 1.5, Tloc=0.0)
    with pytest.raises(ConfigError):
        build_corona(spec.root(), const, const, generate_kernel("haar-shift", spec), cfg)


@pytest.mark.parametrize("p1,p2", [(2.0, 2.0), (1.5, 3.0)])
def test_corona_matches_exhaustive_oracle(p1, p2):
    spec = GridSpec(1, 3)
    kernel = generate_kernel("haar-shift", spec)
    const = AccretiveSystem(spec, "constant", p1, 1.5)
    const2 = AccretiveSystem(spec, "constant", p2, 1.5)
    q2 = p2 / (p2 - 1)
    q1 = p1 / (p1 - 1)
    tloc = max(measure_tloc(kernel, const, q2, "direct"),
               measure_tloc(kernel, const2, q1, "adjoint"))
    cfg = TbConfig(p1, p2, 0.25, 1.5, Tloc=tloc)
    forest = build_corona(spec.root(), const, const2, kernel, cfg)
    dense = dense_matrix(kernel)
    assert set(forest.members(1)) == oracle_family(spec, spec.root(), const, dense, p1, q2, cfg)
    assert set(forest.members(2)) == oracle_family(spec, spec.root(), const2, dense.T, p2, q1, cfg)


def test_corona_random_systems_match_oracle():
    spec = GridSpec(2, 2)
    kernel = generate_kernel("random", spec, seed=4)
    s1 = AccretiveSystem(spec, "random", 2.0, 1.8, seed=6, params={"amp": 0.8})
    s2 = AccretiveSystem(spec, "random", 2.0, 1.8, seed=7, params={"amp": 0.8})
    tloc = max(measure_tloc(kernel, s1, 2.0, "direct"),
               measure_tloc(kernel, s2, 2.0, "adjoint"))
    cfg = TbConfig(2.0, 2.0, 0.2, 1.8, Tloc=tloc)
    forest = build_corona(spec.root(), s1, s2, kernel, cfg)
    dense = dense_matrix(kernel)
    assert set(forest.members(1)) == oracle_family(spec, spec.root(), s1, dense, 2.0, 2.0, cfg)
    assert set(forest.members(2)) == oracle_family(spec, spec.root(), s2, dense.T, 2.0, 2.0, cfg)


def test_corona_pi_and_children():
    spec = GridSpec(1, 3)
    signed = AccretiveSystem(spec, "signed", 2.0, 1.5)
    cfg = TbConfig(2.0, 2.0, 0.25, 1.5, Tloc=0.0)
    root = spec.root()
    forest = build_corona(root, signed, signed, generate_kernel("zero", spec), cfg)
    members = set(forest.members(1))
    ch = derive_children(members, root)
    for m in members:
        assert sorted(forest.stopping_children(1, m)) == sorted(ch[m])
    # pi of a non-member is its nearest stopping ancestor
    for cube in spec.all_cubes(root):
        pi = forest.pi(1, cube)
        assert pi.contains(cube)
        cur = cube
        while cur != pi:
            assert cur not in members
            cur = cur.parent()


# -- packing and carleson ------------------------------------------------------------------


def test_packing_trivial_cases():
    root = DyadicCube(0, (0,))
    assert set_packing_ratio({root}, root) == 0.0
    family = {root, *root.children()}
    assert set_packing_ratio(family, root) == pytest.approx(1.0)


def test_packing_matches_direct_recomputation():
    spec = GridSpec(1, 4)
    signed = AccretiveSystem(spec, "signed", 2.0, 1.5)
    cfg = TbConfig(2.0, 2.0, 0.25, 1.5, Tloc=0.0)
    root = spec.root()
    forest = build_corona(root, signed, signed, generate_kernel("zero", spec), cfg)
    members = set(forest.members(1))
    ch = derive_children(members, root)
    direct = max(
        (sum(k.volume for k in kids) / s.volume for s, kids in ch.items() if kids),
        default=0.0,
    )
    assert packing_ratio(forest, 1) == pytest.approx(direct, rel=1e-15)
    assert set_packing_ratio(members, root) == pytest.approx(direct, rel=1e-15)


def test_carleson_trivial_and_geometric():
    root = DyadicCube(0, (0,))
    assert carleson_constant([root], root) == pytest.approx(1.0)
    spec = GridSpec(1, 5)
    assert carleson_constant(list(spec.all_cubes()), root) == pytest.approx(spec.depth + 1)


def test_carleson_matches_brute_force():
    spec = GridSpec(1, 5)
    signed = AccretiveSystem(spec, "signed", 2.0, 1.5)
    cfg = TbConfig(2.0, 2.0, 0.25, 1.5, Tloc=0.0)
    root = spec.root()
    forest = build_corona(root, signed, signed, generate_kernel("zero", spec), cfg)
    members = list(forest.members(1))
    brute = max(
        sum(s.volume for s in members if q.contains(s)) / q.volume
        for q in spec.all_cubes(root)
    )
    assert carleson_constant(members, root) == pytest.approx(brute, rel=1e-14)


# -- choose_delta ----------------------------------------------------------------------------


def test_choose_delta_trivial():
    spec = GridSpec(1, 4)
    const = AccretiveSystem(spec, "constant", 2.0, 1.5)
    cfg = TbConfig(2.0, 2.0, 0.5, 1.5, Tloc=0.0)
    search = choose_delta(spec.root(), const, const, generate_kernel("zero", spec), cfg)
    assert search.ok and search.delta == 0.5
    assert search.trace == ((0.5, 0.0, 0.0),)


def test_choose_delta_signed_needs_smaller_delta():
    # comparative run: same kernel, adversarial signed system vs constant one
    spec = GridSpec(1, 5)
    kernel = generate_kernel("haar-shift", spec)
    results = {}
    for kind in ("signed", "constant"):
        s1 = AccretiveSystem(spec, kind, 2.0, 1.6, seed=10)
        s2 = AccretiveSystem(spec, kind, 2.0, 1.6, seed=11)
        tloc = max(measure_tloc(kernel, s1, 2.0, "direct"),
                   measure_tloc(kernel, s2, 2.0, "adjoint"))
        cfg = TbConfig(2.0, 2.0, 0.5, 1.6, Tloc=tloc, tau_target=0.6)
        search = choose_delta(spec.root(), s1, s2, kernel, cfg)
        assert search.ok
        results[kind] = search.delta
    assert results["signed"] < results["constant"]


def test_choose_delta_trace_is_monotone():
    spec = GridSpec(1, 5)
    kernel = generate_kernel("haar-shift", spec)
    signed = AccretiveSystem(spec, "signed", 2.0, 1.6, seed=1)
    tloc = measure_tloc(kernel, signed, 2.0, "direct")
    cfg = TbConfig(2.0, 2.0, 0.5, 1.6, Tloc=tloc, tau_target=0.55)
    search = choose_delta(spec.root(), signed, signed, kernel, cfg)
    deltas = [t[0] for t in search.trace]
    assert deltas == sorted(deltas, reverse=True)
    assert all(a == 2 * b for a, b in zip(deltas, deltas[1:]))


def test_choose_delta_structured_failure():
    # a signed system can never pack below 1/2: the search must fail cleanly
    spec = GridSpec(1, 4)
    signed = AccretiveSystem(spec, "signed", 2.0, 1.5)
    cfg = TbConfig(2.0, 2.0, 0.5, 1.5, Tloc=0.0, tau_target=0.3)
    search = choose_delta(spec.root(), signed, signed, generate_kernel("zero", spec), cfg,
                          floor=2.0**-8)
    assert not search.ok
    assert search.delta is None and search.forest is None
    assert len(search.trace) == 8


# -- config validation -----------------------------------------------------------------------


def test_tbconfig_conjugates_and_validation():
    cfg = TbConfig(1.5, 3.0, 0.25, 1.5)
    assert cfg.p1_conj == pytest.approx(3.0)
    assert cfg.p2_conj == pytest.approx(1.5)
    for bad in (
        dict(p1=1.0, p2=2.0, delta=0.5, A=1.5),
        dict(p1=2.0, p2=2.0, delta=0.0, A=1.5),
        dict(p1=2.0, p2=2.0, delta=1.0, A=1.5),
        dict(p1=2.0, p2=2.0, delta=0.5, A=1.0),
        dict(p1=2.0, p2=2.0, delta=0.5, A=1.5, Tloc=-1.0),
        dict(p1=2.0, p2=2.0, delta=0.5, A=1.5, tau_target=1.0),
    ):
        with pytest.raises(ValueError):
            TbConfig(**bad)


def test_make_terminal_family_default_is_canonical(rng):
    spec = GridSpec(1, 5)
    sys_ = AccretiveSystem(spec, "two-value", 2.0, 1.7, seed=2, params={"s": 0.9})
    fam = make_terminal_family(sys_, spec.root(), 0.4)
    assert fam.members == fam.tprime
    for t in fam.members:
        assert abs(fam.b_for[t].average(t) - 1.0) <= 1e-12


def test_forest_json_export():
    from dytb.corona import forest_to_json_dict

    spec = GridSpec(1, 3)
    signed = AccretiveSystem(spec, "signed", 2.0, 1.5)
    cfg = TbConfig(2.0, 2.0, 0.25, 1.5, Tloc=0.0)
    root = spec.root()
    forest = build_corona(root, signed, signed, generate_kernel("zero", spec), cfg)
    data = forest_to_json_dict(forest)
    assert data["dim"] == 1 and data["depth"] == 3 and data["delta"] == 0.25
    assert data["q0"] == {"level": 0, "coords": [0]}
    rows = data["s1"]
    assert len(rows) == len(forest.members(1))
    by_cube = {(r["level"], tuple(r["coords"])): r for r in rows}
    assert by_cube[(0, (0,))]["parent"] is None
    # parent links agree with the corona child map
    members = set(forest.members(1))
    for r in rows:
        cube = DyadicCube(r["level"], tuple(r["coords"]))
        if r["parent"] is None:
            assert cube == root
            continue
        parent = DyadicCube(r["parent"]["level"], tuple(r["parent"]["coords"]))
        assert cube in forest.stopping_children(1, parent)
