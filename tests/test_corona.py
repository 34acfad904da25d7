import re
from collections import Counter

import numpy as np
import pytest

from dytb.accretive import AccretiveSystem
from dytb.corona import (
    ConfigError,
    build_corona,
    carleson_constant,
    choose_delta,
    packing_ratio,
    stopping_rule,
    terminal_cubes,
)
from dytb.grid import DyadicCube, GridFunction, GridSpec, level_sums, spread
from dytb.kernels import adjoint, apply, dense_matrix, generate_kernel
from dytb.twisted import TwistedContext, _check_owners, make_context
from dytb.verify import testing_constant as measure_tloc

from conftest import cubes_at
from oracles import corona_parent, nearest_marked, set_packing_ratio, stopping_children

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


def oracle_family(spec, q0, system, op_dense, q_exp, delta, tloc):
    """Recursive exhaustive recomputation of one stopping family, applying the
    operator through the dense matrix, with the system's p and A."""
    cv, p_exp = spec.cell_volume, system.p
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
            c1 = abs(float(np.sum(b.values[idx])) * cv) <= delta * vol
            c2 = float(np.sum(np.abs(b.values[idx]) ** p_exp)) * cv >= system.A**p_exp / delta * vol
            tpow = float(np.sum(np.abs(tb[idx]) ** q_exp)) * cv
            c3 = tpow >= tloc**q_exp / delta * vol and tpow > 0.0
            if c1 or c2 or c3:
                hits.append(cube)
        maximal = [h for h in hits if not any(o != h and o.contains(h) for o in hits)]
        members.update(maximal)
        stack.extend(maximal)
    return members


def maximal_triggered(spec, top, start_level, trigger):
    """The scan the owner pass replaced: the maximal cubes of ``top``'s subtree,
    from ``start_level`` down, where ``trigger(level)`` holds."""
    found = []
    blocked = np.zeros(spec.n_cubes(start_level), dtype=bool) if start_level <= spec.depth else None
    for level in range(start_level, spec.depth + 1):
        hits = trigger(level) & spec.subtree_mask(top, level) & ~blocked
        for flat in np.nonzero(hits)[0]:
            found.append(spec.cube_from_flat(level, int(flat)))
        if level < spec.depth:
            blocked = spread(spec, level, blocked | hits, level + 1)
    return found


def scanned_terminal_cubes(b, s0, delta, p, A):
    """``terminal_cubes`` as one ``maximal_triggered`` scan of b's tree sums."""
    spec = b.spec
    integ = [s * spec.cell_volume for s in b.cube_sums]
    pows = [s * spec.cell_volume for s in level_sums(spec, np.abs(b.values) ** p)]

    def trigger(level):
        vol = 2.0 ** (-spec.dim * level)
        return (np.abs(integ[level]) <= delta * vol) | (pows[level] >= A**p / delta * vol)

    return maximal_triggered(spec, s0, s0.level, trigger)


def per_member_family(spec, q0, system, op, q_exp, delta, tloc):
    """The per-member construction the owner pass replaced: for every member S
    one full-grid b_S, one apply and three level sums, then a scan of S's
    subtree, with the system's p and A.  Returns the members and their
    stopping children."""
    p_exp = system.p
    norm_cap = system.A**p_exp / delta
    test_cap = tloc**q_exp / delta
    children = {q0: []}
    stack = [q0]
    while stack:
        s = stack.pop()
        b = system.get_b(s)
        integ = [arr * spec.cell_volume for arr in b.cube_sums]
        pows = [arr * spec.cell_volume for arr in level_sums(spec, np.abs(b.values) ** p_exp)]
        tb = apply(op, b)
        tpows = [arr * spec.cell_volume for arr in level_sums(spec, np.abs(tb.values) ** q_exp)]

        def trigger(level):
            vol = 2.0 ** (-spec.dim * level)
            c1 = np.abs(integ[level]) <= delta * vol
            c2 = pows[level] >= norm_cap * vol
            c3 = (tpows[level] >= test_cap * vol) & (tpows[level] > 0.0)
            return c1 | c2 | c3

        children[s] = maximal_triggered(spec, s, s.level + 1, trigger)
        for kid in children[s]:
            children.setdefault(kid, [])
            stack.append(kid)
    return set(children), children


def walked_owner_levels(spec, top, members):
    """Per level from ``top``'s (None above), the level of each cube's smallest
    ancestor-or-self in ``members``, -1 if none, by walking up from every cube."""
    out = [None] * (spec.depth + 1)
    for level in range(top.level, spec.depth + 1):
        owners = np.full(spec.n_cubes(level), -1)
        for cube in cubes_at(spec, level):
            cur = cube
            while cur not in members and cur.level > top.level:
                cur = cur.parent()
            if cur in members:
                owners[spec.cube_flat(cube)] = cur.level
        out[level] = owners
    return out


def walked_family_error(s0, members):
    """The first nesting violation of a terminal family, by ancestor walks
    against the member set: its ``ValueError`` message, or None."""
    memberset = set(members)
    for b in sorted(members):
        for level in range(s0.level + 1, b.level):
            if (a := b.ancestor(level)) in memberset:
                return f"terminal cubes {a} and {b} are nested"
    return None


def family_of(spec, s0, members):
    """The owner arrays of the terminal family ``members`` below ``s0``."""
    return nearest_marked(spec, s0.level, (s0, *members))


def in_q(ctx, cube):
    """Whether ``cube`` lies in the derived family of ``ctx``."""
    try:
        ctx.check_in_q(cube)
    except ValueError:
        return False
    return True


def quadratic_coarsen_terminals(tprime, s0, rng, prob=0.3):
    """A random legal coarsening of the maximal cubes ``tprime``: disjoint
    cubes strictly inside ``s0``, each input cube inside one of them, found
    with a scan over the members for every cube."""
    members = []
    for t in sorted(tprime):
        if any(m.contains(t) for m in members):
            continue
        if t.level > s0.level + 1 and rng.random() < prob:
            lev = int(rng.integers(s0.level + 1, t.level + 1))
            anc = t.ancestor(lev)
            if all(not anc.contains(m) and not m.contains(anc) for m in members):
                members.append(anc)
                continue
        members.append(t)
    return members


def coarsened_context(system, s0, delta, rng):
    """The twisted context of ``system``'s function on ``s0`` with its maximal
    cubes coarsened at random by ``quadratic_coarsen_terminals``."""
    b = GridFunction(system.spec, system.level_values(s0.level))
    members = quadratic_coarsen_terminals(terminal_cubes(b, s0, delta, system.p, system.A), s0, rng)
    return TwistedContext(system, s0, family_of(system.spec, s0, members), delta)


def per_member_packing_ratio(forest, j):
    """``packing_ratio`` by a loop over the members and their stopping children."""
    best = 0.0
    for s in forest.members(j):
        kids = stopping_children(forest, j, s)
        if kids:
            best = max(best, sum(k.volume for k in kids) / s.volume)
    return best


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
    coarsened = 0
    for k in range(20):
        members = quadratic_coarsen_terminals(tprime, root, np.random.default_rng(k))
        coarsened += members != tprime
        for t in tprime:
            assert any(m.contains(t) for m in members)
        for a in members:
            assert root.contains(a) and a != root
            for c in members:
                assert a == c or not a.contains(c)
        # the context of its owner arrays holds exactly these cubes, and every
        # derived cube (the finest level's included) keeps safe denominators
        ctx = TwistedContext(sys_, root, family_of(spec, root, members), 0.45)
        assert ctx.members == tuple(sorted(members))
        for q in spec.all_cubes(root):
            assert in_q(ctx, q) == (not any(m.contains(q) for m in members))
    assert coarsened > 0


def test_terminal_family_rejects_nested_members():
    spec = GridSpec(2, 4)
    outer = DyadicCube(1, (1, 0))
    inner = DyadicCube(3, (4, 1))
    members = (outer, DyadicCube(2, (0, 3)), inner)
    message = f"terminal cubes {outer} and {inner} are nested"
    with pytest.raises(ValueError, match=re.escape(message)):
        _check_owners(spec, spec.root(), family_of(spec, spec.root(), members))


def test_context_rejects_uncovered_maximal_cube():
    # a family that leaves a maximal stopped cube uncovered is a family; the
    # context's denominator check rejects it at exactly that cube, because a
    # dyadic volume is a power of 2 and the two stopping tests then agree
    spec = GridSpec(1, 7)
    sys_ = AccretiveSystem(spec, "two-value", 2.0, 1.7, seed=5, params={"s": 0.9})
    root = spec.root()
    members = make_context(sys_, root, 0.45).members
    assert len(members) > 3
    for dropped in members:
        owners = family_of(spec, root, [m for m in members if m != dropped])
        with pytest.raises(ValueError, match=re.escape(f"denominator safety fails at {dropped}:")):
            TwistedContext(sys_, root, owners, 0.45)


@pytest.mark.parametrize("dim,depth,s0_level", [(1, 6, 0), (1, 7, 2), (2, 3, 0), (2, 4, 1)])
def test_family_checks_match_ancestor_walks(dim, depth, s0_level):
    # random caller-supplied families, many nested: the owner checks reject
    # exactly those the walks reject, with the same message, and a context
    # of an accepted family holds exactly its cubes
    spec = GridSpec(dim, depth)
    sys_ = AccretiveSystem(spec, "constant", 2.0, 1.5)
    rng = np.random.default_rng(depth + 10 * dim)
    s0 = spec.cube_from_flat(s0_level, int(rng.integers(spec.n_cubes(s0_level))))
    inside = [q for q in spec.all_cubes(s0) if q != s0]
    outcomes = Counter()
    for _ in range(150):
        members = [inside[i] for i in rng.choice(len(inside), size=int(rng.integers(1, 6)), replace=False)]
        want = walked_family_error(s0, members)
        outcomes["accepted" if want is None else "nested"] += 1
        owners = family_of(spec, s0, members)
        if want is None:
            _check_owners(spec, s0, owners)
            assert TwistedContext(sys_, s0, owners, 0.5).members == tuple(sorted(members))
        else:
            with pytest.raises(ValueError, match=re.escape(want)):
                _check_owners(spec, s0, owners)
    assert outcomes["accepted"] > 0 and outcomes["nested"] > 0


def test_code_built_family_checks_its_owner_arrays():
    # a code-built context finds the maximal cubes of b_{s0}; a caller's
    # owner arrays are checked for nesting, for s0 owning itself and for
    # every owned cube lying inside s0
    spec = GridSpec(1, 7)
    sys_ = AccretiveSystem(spec, "two-value", 2.0, 1.7, seed=5, params={"s": 0.9})
    root = spec.root()
    members = make_context(sys_, root, 0.45).members
    assert len(members) > 3
    assert list(members) == terminal_cubes(sys_.get_b(root), root, 0.45, sys_.p, sys_.A)
    outer = next(m for m in members if m.level < spec.depth)
    inner = outer.children()[1]
    with pytest.raises(ValueError, match=re.escape(walked_family_error(root, [*members, inner]))):
        _check_owners(spec, root, family_of(spec, root, [*members, inner]))
    s0, outside = DyadicCube(2, (1,)), DyadicCube(4, (2,))
    with pytest.raises(ValueError, match=re.escape(f"owned cube {outside} is not inside {s0}")):
        _check_owners(spec, s0, family_of(spec, s0, [DyadicCube(4, (5,)), outside]))
    with pytest.raises(ValueError, match=re.escape(f"base cube {s0} does not own itself")):
        _check_owners(spec, s0, nearest_marked(spec, s0.level, [DyadicCube(4, (5,))]))


# -- corona construction -----------------------------------------------------------------


def test_corona_trivial_zero_kernel():
    spec = GridSpec(1, 4)
    const = AccretiveSystem(spec, "constant", 2.0, 1.5)
    forest = build_corona(spec.root(), const, const, generate_kernel("zero", spec), 0.5, 0.0)
    assert set(forest.members(1)) == {spec.root()}
    assert set(forest.members(2)) == {spec.root()}
    assert packing_ratio(forest, 1) == 0.0


def test_corona_signed_zero_half_child():
    spec = GridSpec(1, 3)
    signed = AccretiveSystem(spec, "signed", 2.0, 1.5)
    forest = build_corona(spec.root(), signed, signed, generate_kernel("zero", spec), 0.25, 0.0)
    assert DyadicCube(1, (0,)) in stopping_children(forest, 1, spec.root())
    # the zero-half recursion reaches the finest level
    assert any(m.level == spec.depth for m in forest.members(1))


def test_corona_tloc_zero_nonzero_kernel_rejected():
    # a hand-passed Tloc = 0 against a kernel that moves b: rule (3) names the
    # first cube where T b_S is not zero
    spec = GridSpec(1, 3)
    const = AccretiveSystem(spec, "constant", 2.0, 1.5)
    with pytest.raises(ConfigError, match=re.escape("stopping condition (3) stop Q(1; 0)")):
        build_corona(spec.root(), const, const, generate_kernel("haar-shift", spec), 0.25, 0.0)


@pytest.mark.parametrize("dim,depth", [(1, 6), (1, 10), (2, 4)])
def test_corona_of_a_zero_scale_kernel_is_that_of_the_zero_kernel(dim, depth):
    # a random kernel at scale 0 has entries but moves nothing: its computed
    # Tloc is 0, and rule (3) stops nothing, as for the kernel without entries
    spec = GridSpec(dim, depth)
    s1 = AccretiveSystem(spec, "random", 2.0, 1.5, seed=1, params={"amp": 0.4})
    s2 = AccretiveSystem(spec, "random", 3.0, 1.5, seed=2, params={"amp": 0.4})
    scaled, zero = generate_kernel("random", spec, seed=3, scale=0.0), generate_kernel("zero", spec)
    assert len(scaled) > 0
    tloc = max(measure_tloc(scaled, s1, 1.5), measure_tloc(adjoint(scaled), s2, 2.0))
    assert tloc == 0.0
    for delta in (0.5, 0.125):
        got = build_corona(spec.root(), s1, s2, scaled, delta, tloc)
        want = build_corona(spec.root(), s1, s2, zero, delta, tloc)
        for j in (1, 2):
            assert all(a is None and b is None or np.array_equal(a, b)
                       for a, b in zip(got.owner_levels(j), want.owner_levels(j)))


def test_stopping_rule_reads_integrals_and_averages_alike(rng):
    # the block check feeds the rule averages times |Q|: scaling by a power of
    # two is exact, so every decision is that of the average form, ties included
    spec = GridSpec(2, 4)
    delta, A, p = 0.25, 1.5, 3.0
    for level in range(spec.depth + 1):
        n = spec.n_cubes(level)
        vol = 2.0 ** (-spec.dim * level)
        avg = np.where(rng.random(n) < 0.3, delta * rng.choice([-1.0, 1.0], n), rng.uniform(-1, 1, n))
        pows = np.where(rng.random(n) < 0.3, A**p / delta, rng.uniform(0, 2 * A**p / delta, n))
        want = (np.abs(avg) <= delta) | (pows >= A**p / delta)
        got = stopping_rule(spec, level, avg * vol, pows * vol, delta, A, p)
        assert np.array_equal(got, want)


def test_stopping_rule_three_needs_a_moved_cube():
    spec = GridSpec(1, 3)
    integ, pows = np.ones(4) / 4, np.ones(4) / 4
    quiet = np.zeros(4)
    # T b_S = 0 on every cube: rule (3) stops nothing, at any Tloc
    for tloc in (0.0, 1.0):
        assert not stopping_rule(spec, 2, integ, pows, 0.5, 1.5, 2.0, quiet, tloc, 2.0).any()
    moved = np.array([0.0, 0.0, 1.0, 0.25])  # against Tloc^2 / delta |Q| = 0.5
    assert list(stopping_rule(spec, 2, integ, pows, 0.5, 1.5, 2.0, moved, 1.0, 2.0)) == [0, 0, 1, 0]
    with pytest.raises(ConfigError, match=re.escape("stop Q(2; 2), where T b_S is not zero")):
        stopping_rule(spec, 2, integ, pows, 0.5, 1.5, 2.0, moved, 0.0, 2.0)
    with pytest.raises(ValueError, match=re.escape("delta must lie in (0, 1), got 1.0")):
        stopping_rule(spec, 2, integ, pows, 1.0, 1.5, 2.0)


@pytest.mark.parametrize("p1,p2", [(2.0, 2.0), (1.5, 3.0)])
def test_corona_matches_exhaustive_oracle(p1, p2):
    spec = GridSpec(1, 3)
    kernel = generate_kernel("haar-shift", spec)
    const = AccretiveSystem(spec, "constant", p1, 1.5)
    const2 = AccretiveSystem(spec, "constant", p2, 1.5)
    q2 = p2 / (p2 - 1)
    q1 = p1 / (p1 - 1)
    tloc = max(measure_tloc(kernel, const, q2),
               measure_tloc(adjoint(kernel), const2, q1))
    forest = build_corona(spec.root(), const, const2, kernel, 0.25, tloc)
    dense = dense_matrix(kernel)
    assert set(forest.members(1)) == oracle_family(spec, spec.root(), const, dense, q2, 0.25, tloc)
    assert set(forest.members(2)) == oracle_family(spec, spec.root(), const2, dense.T, q1, 0.25, tloc)


def test_corona_random_systems_match_oracle():
    spec = GridSpec(2, 2)
    kernel = generate_kernel("random", spec, seed=4)
    s1 = AccretiveSystem(spec, "random", 2.0, 1.8, seed=6, params={"amp": 0.8})
    s2 = AccretiveSystem(spec, "random", 2.0, 1.8, seed=7, params={"amp": 0.8})
    tloc = max(measure_tloc(kernel, s1, 2.0),
               measure_tloc(adjoint(kernel), s2, 2.0))
    forest = build_corona(spec.root(), s1, s2, kernel, 0.2, tloc)
    dense = dense_matrix(kernel)
    assert set(forest.members(1)) == oracle_family(spec, spec.root(), s1, dense, 2.0, 0.2, tloc)
    assert set(forest.members(2)) == oracle_family(spec, spec.root(), s2, dense.T, 2.0, 0.2, tloc)


@pytest.mark.parametrize("depth,kind,params,kernel_kind,cfg,tie", [  # cfg: (delta, Tloc)
    # <b>_Q = 1/2 = delta on Q(3; 1)
    (4, "two-value", {"s": 0.5}, "zero", (0.5, 0.0), DyadicCube(3, (1,))),
    # <|b|^2>_Q = 4 = A^2 / delta on the right half
    (3, "signed", {}, "zero", (1.5**2 / 4, 0.0), DyadicCube(1, (1,))),
    # <|T b|^2>_Q = 1 = Tloc^2 / delta on both halves
    (4, "constant", {}, "haar-shift", (0.25, 0.5), DyadicCube(1, (1,))),
])
def test_stopping_ties_stop(depth, kind, params, kernel_kind, cfg, tie):
    delta, tloc = cfg
    spec = GridSpec(1, depth)
    root = spec.root()
    A = 1.5  # rule (2) ties only in the signed case
    system = AccretiveSystem(spec, kind, 2.0, A, params=params)
    kernel = generate_kernel(kernel_kind, spec)
    forest = build_corona(root, system, system, kernel, delta, tloc)
    members, _ = per_member_family(spec, root, system, kernel, 2.0, delta, tloc)
    assert forest.members(1) == sorted(members) and tie in stopping_children(forest, 1, root)
    if kernel_kind == "zero":  # terminal cubes stop on conditions (1) and (2) alone
        b = system.get_b(root)
        got = terminal_cubes(b, root, delta, 2.0, A)
        assert tie in got and got == scanned_terminal_cubes(b, root, delta, 2.0, A)


def test_corona_pi_and_children():
    spec = GridSpec(1, 3)
    signed = AccretiveSystem(spec, "signed", 2.0, 1.5)
    root = spec.root()
    forest = build_corona(root, signed, signed, generate_kernel("zero", spec), 0.25, 0.0)
    members = set(forest.members(1))
    ch = derive_children(members, root)
    for m in members:
        assert sorted(stopping_children(forest, 1, m)) == sorted(ch[m])
    # the owner arrays name a non-member's nearest stopping ancestor
    for cube in spec.all_cubes(root):
        pi = corona_parent(forest, 1, cube)
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
    root = spec.root()
    forest = build_corona(root, signed, signed, generate_kernel("zero", spec), 0.25, 0.0)
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
    root = spec.root()
    forest = build_corona(root, signed, signed, generate_kernel("zero", spec), 0.25, 0.0)
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
    search = choose_delta(spec.root(), const, const, generate_kernel("zero", spec), 0.0)
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
        tloc = max(measure_tloc(kernel, s1, 2.0),
                   measure_tloc(adjoint(kernel), s2, 2.0))
        search = choose_delta(spec.root(), s1, s2, kernel, tloc, tau_target=0.6)
        assert search.ok
        results[kind] = search.delta
    assert results["signed"] < results["constant"]


def test_choose_delta_trace_is_monotone():
    spec = GridSpec(1, 5)
    kernel = generate_kernel("haar-shift", spec)
    signed = AccretiveSystem(spec, "signed", 2.0, 1.6, seed=1)
    tloc = measure_tloc(kernel, signed, 2.0)
    search = choose_delta(spec.root(), signed, signed, kernel, tloc, tau_target=0.55)
    deltas = [t[0] for t in search.trace]
    assert deltas == sorted(deltas, reverse=True)
    assert all(a == 2 * b for a, b in zip(deltas, deltas[1:]))


def test_choose_delta_structured_failure():
    # a signed system can never pack below 1/2: the search must fail cleanly
    spec = GridSpec(1, 4)
    signed = AccretiveSystem(spec, "signed", 2.0, 1.5)
    zero = generate_kernel("zero", spec)
    search = choose_delta(spec.root(), signed, signed, zero, 0.0, tau_target=0.3)
    assert not search.ok
    assert search.delta is None and search.forest is None
    # one attempt per delta 2^-1 .. 2^-20 = DELTA_FLOOR
    assert [t[0] for t in search.trace] == [2.0**-k for k in range(1, 21)]


# -- config validation -----------------------------------------------------------------------


def test_stopping_parameter_validation():
    spec = GridSpec(1, 3)
    const = AccretiveSystem(spec, "constant", 2.0, 1.5)
    zero = generate_kernel("zero", spec)
    for delta, tloc, message in ((0.0, 0.0, "delta must lie in (0, 1), got 0.0"),
                                 (1.0, 0.0, "delta must lie in (0, 1), got 1.0"),
                                 (0.5, -1.0, "Tloc must be non-negative, got -1.0")):
        with pytest.raises(ValueError, match=re.escape(message)):
            build_corona(spec.root(), const, const, zero, delta, tloc)
    for tau_target in (0.0, 1.0):
        message = f"tau_target must lie in (0, 1), got {tau_target}"
        with pytest.raises(ValueError, match=re.escape(message)):
            choose_delta(spec.root(), const, const, zero, 0.0, tau_target)


@pytest.mark.parametrize("tloc", [float("nan"), float("inf")])
def test_non_finite_tloc_is_rejected(tloc):
    # stopping rule (3) compares against Tloc^q / delta: at NaN or infinity it
    # would never fire, and the families would lose the cubes it stops
    spec = GridSpec(1, 6)
    system = AccretiveSystem(spec, "random", 2.0, 1.5, seed=1, params={"amp": 0.4})
    kernel = generate_kernel("random", spec, seed=0)
    with pytest.raises(ValueError, match=re.escape(f"Tloc must be finite, got {tloc}")):
        build_corona(spec.root(), system, system, kernel, 0.5, tloc)
    with pytest.raises(ValueError, match=re.escape(f"Tloc must be finite, got {tloc}")):
        choose_delta(spec.root(), system, system, kernel, tloc)


def test_make_context_terminals_are_canonical(rng):
    spec = GridSpec(1, 5)
    sys_ = AccretiveSystem(spec, "two-value", 2.0, 1.7, seed=2, params={"s": 0.9})
    ctx = make_context(sys_, spec.root(), 0.4)
    assert list(ctx.members) == terminal_cubes(sys_.get_b(spec.root()), spec.root(), 0.4, sys_.p, sys_.A)
    for t in ctx.members:
        assert abs(ctx.system.get_b(t).average(t) - 1.0) <= 1e-12


def test_forest_json_export():
    from dytb.corona import forest_to_json_dict

    spec = GridSpec(1, 3)
    signed = AccretiveSystem(spec, "signed", 2.0, 1.5)
    root = spec.root()
    forest = build_corona(root, signed, signed, generate_kernel("zero", spec), 0.25, 0.0)
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
        assert cube in stopping_children(forest, 1, parent)
