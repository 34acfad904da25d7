"""The benchmark's tracer wraps dytb functions by name; a rename or deletion
in dytb would leave its ``--trace`` run failing, so every name must resolve."""

import importlib
import importlib.util
from pathlib import Path

from dytb.accretive import AccretiveSystem
from dytb.corona import CoronaForest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = load_tracing()
    assert tracing.SPANS
    for metric, home, attr, sites in tracing.SPANS:
        assert callable(getattr(importlib.import_module(f"dytb.{home}"), attr, None)), \
            f"{metric} traces dytb.{home}.{attr}, which does not exist"
        for site in sites or ():
            importlib.import_module(f"dytb.{site}")
    # wrapped and read outside SPANS: the b copies and the member count
    assert callable(AccretiveSystem.get_b)
    assert callable(CoronaForest.members)
