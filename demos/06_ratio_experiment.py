"""The main experiment: operator norm against the local testing constant.

Each seeded trial generates a kernel and two accretive systems, measures the
testing constant on every cube (both sides), picks delta so that the stopping
families pack geometrically, and reports operator_norm / (1 + Tloc) together
with every decomposition residual.  The boundedness claim under test says the
ratio stays uniformly controlled while the residuals stay at roundoff.
"""

import numpy as np

from dytb import ExperimentConfig, adversarial_transform_search, build_instance
from dytb import main_theorem_experiment, make_context
from dytb.accretive import AccretiveSystem
from dytb.grid import GridSpec

config = ExperimentConfig(dim=1, depth=5, trials=20, seed=2024)
reports = main_theorem_experiment(config)

ratios = [r.ratio for r in reports if r.ok]
print(f"{len(reports)} trials, {len(reports) - len(ratios)} flagged")
print(f"ratio ||T|| / (1 + Tloc): max {max(ratios):.4f}, "
      f"mean {np.mean(ratios):.4f}, min {min(ratios):.4f}")

worst_residual = max(max(r.residuals.values()) for r in reports if r.ok)
print("worst identity residual over all trials:", worst_residual)

worst_eps = max(r.epsilon_max / r.epsilon_bound for r in reports if r.ok)
print(f"telescoped coefficients reach {worst_eps:.2%} of their 2/delta budget")

# the adversarial transform search hunts for the worst sign pattern
spec = GridSpec(1, 6)
system = AccretiveSystem(spec, "two-value", p=2.0, A=1.5, seed=3, params={"s": 0.8})
ctx = make_context(system, spec.root(), delta=0.45)
for p in (1.5, 2.0, 3.0):
    res = adversarial_transform_search(ctx, p, n_restarts=8, seed=0)
    print(f"worst transform ratio at p={p}: {res.ratio:.4f}")

# single instances are reproducible from their seed alone
inst = build_instance(config, reports[0].seed)
print("\ntrial 0 reproduced:", inst.tloc == reports[0].tloc)
