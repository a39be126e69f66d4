"""perfbench's tracer wraps each layer's entry points by name: every name must still exist.

A traced function that is renamed or deleted would otherwise go unnoticed until
a benchmark run reports its metrics as missing.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# listed by the tracer, but deleted from the package before this test existed
STALE = {"rules.lepski_direct"}


def traced_entry_points() -> dict:
    """`ENTRY_POINTS` of the tracer, read from its file without importing perfbench."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.ENTRY_POINTS


def test_every_traced_name_is_a_callable_of_its_layer():
    entry_points = traced_entry_points()
    assert set(entry_points) == {"problems", "sequence_model", "rules", "montecarlo", "cli"}
    missing = {
        f"{layer}.{name}"
        for layer, names in entry_points.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"speccut.{layer}"), name, None))
    }
    assert missing <= STALE, sorted(missing - STALE)
