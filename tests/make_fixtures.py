#!/usr/bin/env python3
"""Regenerate tests/fixtures/frozen_constants.json.

The frozen values are empirical regression anchors: worst transform ratios per
class, the max experiment ratio over the fixed seed suite, chosen deltas for
the depth-8 corona regression, and the box/diagonal measured constants.  Each
value is computed once here (cross-checked against an independent evaluation
where one exists) and committed; the acceptance suite reruns the deterministic
pipelines and compares against these numbers.  Regenerate only when a value
is meant to change; the script then names every constant that changed
against the file it overwrites (or prints "no change").

Usage: python tests/make_fixtures.py
"""

import json
from pathlib import Path

import numpy as np

from dytb.accretive import AccretiveSystem
from dytb.grid import GridFunction, GridSpec
from dytb.twisted import make_context, twisted_delta
from dytb.verify import (
    ExperimentConfig,
    adversarial_transform_search,
    build_instance,
    main_theorem_experiment,
    trial_seed,
)

from make_cli_golden import changed_names
from oracles import box_square_function_check, diagonal_lemma_check

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "frozen_constants.json"

# transform-search classes: (name, accretive kind, params, A, delta, b-seeds)
SEARCH_CLASSES = [
    ("two-value-s0.8-A1.5-d0.45", "two-value", {"s": 0.8}, 1.5, 0.45),
    ("random-amp0.6-A1.6-d0.3", "random", {"amp": 0.6}, 1.6, 0.3),
]
SEARCH_DEPTH = 6
SEARCH_SEEDS = range(10)
SEARCH_EXPONENTS = (1.5, 2.0, 3.0)

DELTA_REGRESSION_MASTER = 777
DELTA_REGRESSION_TRIALS = 20

BOX_INSTANCE_SEEDS = (51, 52, 53)
BOX_EXPONENTS = (1.5, 2.0, 3.0)

DIAGONAL_INSTANCE_SEEDS = (41, 42, 43)


def naive_transform_ratio(ctx, coeffs, f, p):
    """Independent evaluation of the achieved ratio: plain per-cube summation
    of the per-level coefficients."""
    total = np.zeros(ctx.spec.n_cells)
    for q in ctx.q_cubes():
        total += coeffs[q.level][ctx.spec.cube_flat(q)] * twisted_delta(ctx, q, f).values
    return GridFunction(ctx.spec, total).lp_norm(p) / f.lp_norm(p)


def freeze_search_constants():
    out = {}
    spec = GridSpec(1, SEARCH_DEPTH)
    for name, kind, params, a_const, delta in SEARCH_CLASSES:
        for p in SEARCH_EXPONENTS:
            worst = 0.0
            for seed in SEARCH_SEEDS:
                system = AccretiveSystem(spec, kind, p, a_const, seed=seed, params=params)
                ctx = make_context(system, spec.root(), delta)
                res = adversarial_transform_search(ctx, p, n_restarts=8, seed=seed)
                check = naive_transform_ratio(ctx, res.coeffs, res.f, p)
                assert abs(res.ratio - check) <= 1e-10 * (1 + check), (name, p, seed)
                worst = max(worst, res.ratio)
            out[f"{name}|p{p}"] = worst
    return out


def freeze_delta_regression():
    out = {}
    for k in range(DELTA_REGRESSION_TRIALS):
        seed = trial_seed(DELTA_REGRESSION_MASTER, k)
        inst = build_instance(ExperimentConfig(dim=1, depth=8), seed)
        assert inst.ok, f"delta search failed on regression seed {seed}"
        out[str(seed)] = inst.dsearch.delta
    return out


def freeze_main_ratio():
    reports = main_theorem_experiment(ExperimentConfig())
    ok = [r for r in reports if r.ok]
    assert len(ok) == len(reports), "flagged instances in the frozen suite"
    return max(r.ratio for r in ok)


def freeze_box_constants():
    out = {}
    for seed in BOX_INSTANCE_SEEDS:
        inst = build_instance(ExperimentConfig(dim=1, depth=5), seed)
        for q in BOX_EXPONENTS:
            out[f"seed{seed}|q{q}"] = box_square_function_check(inst.forest, 1, inst.f, q)
    return out


def freeze_diagonal_constants():
    out = {}
    for seed in DIAGONAL_INSTANCE_SEEDS:
        inst = build_instance(ExperimentConfig(dim=1, depth=5), seed)
        worst = max(
            diagonal_lemma_check(inst.forest, cube)
            for cube in inst.spec.all_cubes(inst.forest.q0)
            if cube.level < inst.spec.depth
        )
        out[f"seed{seed}"] = worst
    return out


def constants(data: dict) -> dict:
    """Every constant of a fixture by name: ``key`` for a single value,
    ``key/entry`` for an entry of a table."""
    out = {}
    for key, val in data.items():
        if isinstance(val, dict):
            out.update((f"{key}/{name}", v) for name, v in val.items())
        else:
            out[key] = val
    return out


def main():
    data = {
        "search_ratio_max": freeze_search_constants(),
        "choose_delta_depth8": freeze_delta_regression(),
        "main_ratio_max": freeze_main_ratio(),
        "box_square": freeze_box_constants(),
        "diagonal_max": freeze_diagonal_constants(),
    }
    old = json.loads(FIXTURE_PATH.read_text()) if FIXTURE_PATH.exists() else {}
    FIXTURE_PATH.parent.mkdir(exist_ok=True)
    with open(FIXTURE_PATH, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
    print(f"wrote {FIXTURE_PATH}: {len(constants(data))} constants")
    changed = changed_names(constants(old), constants(data))
    print("\n".join(f"changed: {name}" for name in changed) or "no change")


if __name__ == "__main__":
    main()
