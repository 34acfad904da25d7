"""Twisted martingale differences and their exact identities.

The twisted difference rescales child averages through the test function b
(switching to the local b_T inside terminal cubes) so that each difference is
mean-zero and the whole family telescopes.  With b constant everything
collapses to the classical Haar differences.
"""

import numpy as np

from dytb import AccretiveSystem, GridFunction, GridSpec
from dytb import ExperimentConfig, build_instance, delta_decomp_check, decomposition_identity_check
from dytb import expand, make_context, measure_comparison_check, transform, twisted_delta

rng = np.random.default_rng(1)

# classical case: b = 1, no terminal cubes
spec = GridSpec(1, 4)
const = AccretiveSystem(spec, "constant", p=2.0, A=1.5)
ctx = make_context(const, spec.root(), delta=0.5)
f = GridFunction(spec, rng.choice([-1.0, 1.0], spec.n_cells))
eps = {lev: m.astype(float) for lev, m in ctx.q_masks().items()}  # eps_Q = 1 on every cube
full = transform(ctx, eps, f)
print("full transform telescopes to f - mean:",
      np.abs(full.values - (f.values - f.average())).max())

# a rough function produces terminal cubes; the calculus switches to b_T there
rough = AccretiveSystem(spec, "two-value", p=2.0, A=1.5, seed=5, params={"s": 0.8})
ctx = make_context(rough, spec.root(), delta=0.45)
print("\nterminal cubes:", list(ctx.members))

d = twisted_delta(ctx, spec.root(), f)
print("difference at the root is mean zero:", d.integral())

# the three-term splitting of an increment is an exact rational identity
q = ctx.q_cubes()[0]
child = next(c for c in q.children() if not ctx.is_terminal(c))
print("three-term residual:", decomposition_identity_check(ctx, q, child, f))

# the transform factors through the half-twisted one plus terminal corrections
eps = ctx.random_coefficients(rng)  # a random sign per cube, one array per level
print("factorization residual:", delta_decomp_check(ctx, eps, f))

# level sets of the half-twisted transform respect the |b|^p measure budget
print("measure comparison excess (<= 0 means it holds):",
      measure_comparison_check(ctx, eps, f))

# corona-adapted expansion reconstructs any function exactly
inst = build_instance(ExperimentConfig(dim=1, depth=5), 42)
h = GridFunction(inst.spec, rng.uniform(-1, 1, inst.spec.n_cells))
e_top, deltas = expand(inst.forest, 1, inst.spec.root(), h)
total = e_top.values + sum(dd.values for _, dd in deltas)
print("\nexpansion reconstruction error:", np.abs(total - h.values).max())
print("number of difference terms:", len(deltas))
