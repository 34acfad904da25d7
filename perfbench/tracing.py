"""Spans around the calls into each dytb module, recorded from benchmark code.

The tracer swaps each traced function for a timing wrapper in the namespaces
the program calls it through, so the program runs unchanged with the same
arguments.  Spans (name, start, end, parent) stay in memory; per-layer
metrics are totals over the outermost span of each name, so a function that
calls itself, or two traced names mapped to one metric, never count twice.
"""

from __future__ import annotations

import contextlib
import statistics
import sys
import time
from collections import defaultdict

# (metric, dytb module defining the function, function name, call-site modules).
# None as call sites means every dytb module that holds the function.  The
# measurement and context-check spans are limited to the sites the trial and
# the CLI call them from, so the same functions used inside choose_delta or
# delta_decomp_check stay in those spans.
SPANS = (
    ("kernels.generate_kernel", "kernels", "generate_kernel", None),
    ("kernels.apply_values", "kernels", "apply_values", None),
    ("kernels.adjoint", "kernels", "adjoint", None),
    ("verify.testing_constant", "verify", "testing_constant", None),
    ("corona.choose_delta", "corona", "choose_delta", None),
    ("corona.measure", "corona", "packing_ratio", ("verify", "cli")),
    ("corona.measure", "corona", "carleson_constant", ("verify", "cli")),
    ("verify.operator_norm", "verify", "operator_norm", None),
    ("twisted.block_contexts", "twisted", "block_context", None),
    ("twisted.expand", "twisted", "expand", None),
    ("twisted.context_checks", "twisted", "make_context", ("verify",)),
    ("twisted.context_checks", "twisted", "decomposition_identity_check", ("verify",)),
    ("twisted.context_checks", "twisted", "delta_decomp_check", ("verify",)),
    ("twisted.context_checks", "twisted", "measure_comparison_check", ("verify",)),
    ("twisted.context_checks", "twisted", "transform", ("verify",)),
    ("verify.identity_checks", "verify", "run_identity_checks", None),
    ("verify.b_above_aggregation", "verify", "b_above_aggregation", None),
    ("verify.epsilon", "verify", "epsilon_coefficient", None),
    ("verify.bilinear_expansion", "verify", "bilinear_expansion_check", None),
    ("verify.form_split", "verify", "form_split", None),
    ("verify.easy_terms", "verify", "easy_terms_check", None),
    ("cli.forest_json", "corona", "forest_to_json_dict", None),
)

TIME_METRICS = tuple(dict.fromkeys(m for m, *_ in SPANS)) + ("accretive.get_b", "cli.write_reports")
COUNT_METRICS = ("accretive.b_count", "accretive.b_bytes", "verify.testing_constant.cubes",
                 "kernels.apply_values.calls", "kernels.entries", "corona.delta_attempts",
                 "corona.members", "twisted.blocks", "cli.report_bytes")


def unit(metric: str) -> str:
    if metric.endswith("_bytes"):
        return "B"
    return "s" if metric.endswith((".s", "_s")) else "count"


class Tracer:
    """In-memory spans and counts of the traced ops of one run.

    Install it around one op at a time: the distinct-``b_Q`` count keys on
    the identity of systems that live only as long as their op."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.counts: dict[str, int] = defaultdict(int)
        self.apply_samples: list[float] = []
        self.first_adjoint_apply_s = 0.0
        self.identity_results: list[dict] = []
        self._stack: list[int] = []
        self._fresh_adjoints: dict[int, object] = {}
        self._b_seen: set = set()

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            name_, start, _, parent_ = self.spans[index]
            self.spans[index] = (name_, start, time.perf_counter(), parent_)

    def _wrap(self, metric: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(metric):
                start = time.perf_counter()
                result = fn(*args, **kwargs)
                elapsed = time.perf_counter() - start
            tracer._count(metric, args, result, elapsed)
            return result

        return traced

    def _count(self, metric: str, args, result, elapsed: float) -> None:
        c = self.counts
        if metric == "kernels.apply_values":
            # The first apply of an adjoint kernel builds its per-level tables;
            # that cost belongs to the adjoint, not to the typical apply.
            if self._fresh_adjoints.pop(id(args[0]), None) is not None:
                self.first_adjoint_apply_s += elapsed
            else:
                self.apply_samples.append(elapsed)
            c["kernels.apply_values.calls"] += 1
        elif metric == "kernels.adjoint":
            self._fresh_adjoints[id(result)] = result
        elif metric == "kernels.generate_kernel":
            c["kernels.entries"] += len(result)
        elif metric == "verify.testing_constant":
            spec = args[0].spec
            c["verify.testing_constant.cubes"] += sum(spec.n_cubes(l) for l in range(spec.depth + 1))
        elif metric == "corona.choose_delta":
            c["corona.delta_attempts"] += len(result.trace)
            if result.ok:
                c["corona.members"] += len(result.forest.members(1)) + len(result.forest.members(2))
        elif metric == "twisted.block_contexts":
            c["twisted.blocks"] += 1
        elif metric == "verify.identity_checks":
            self.identity_results.append(dict(result))

    def _wrap_get_b(self, fn):
        tracer = self

        def get_b(system, cube):
            with tracer.span("accretive.get_b"):
                result = fn(system, cube)
            key = (id(system), cube)
            if key not in tracer._b_seen:
                tracer._b_seen.add(key)
                tracer.counts["accretive.b_count"] += 1
                tracer.counts["accretive.b_bytes"] += result.values.nbytes
            return result

        return get_b

    @contextlib.contextmanager
    def installed(self):
        """Swap the traced functions in; restore the originals on exit."""
        modules = {name.rsplit(".", 1)[-1]: mod for name, mod in sys.modules.items()
                   if name.startswith("dytb.") and mod is not None}
        swapped = []
        for metric, home, attr, sites in SPANS:
            original = getattr(modules[home], attr)
            wrapper = self._wrap(metric, original)
            targets = [modules[s] for s in sites] if sites else list(modules.values())
            for mod in targets:
                if getattr(mod, attr, None) is original:
                    swapped.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        system_cls = modules["accretive"].AccretiveSystem
        swapped.append((system_cls, "get_b", system_cls.get_b))
        system_cls.get_b = self._wrap_get_b(system_cls.get_b)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(swapped):
                setattr(owner, attr, original)
            self._fresh_adjoints.clear()
            self._b_seen.clear()

    def totals(self) -> dict[str, float]:
        """Seconds per metric over outermost spans, plus the counts."""
        out = {f"{m}.s": 0.0 for m in TIME_METRICS}
        for name, start, end, parent in self.spans:
            if not self._nested_in_same(name, parent):
                out[f"{name}.s"] += end - start
        out["kernels.adjoint.s"] += self.first_adjoint_apply_s
        out["kernels.apply_values.s"] = (statistics.median(self.apply_samples)
                                         if self.apply_samples else 0.0)
        out.update({m: self.counts.get(m, 0) for m in COUNT_METRICS})
        return out

    def _nested_in_same(self, name: str, parent: int) -> bool:
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False
