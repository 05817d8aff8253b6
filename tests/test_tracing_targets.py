"""The benchmark tracer wraps library functions by name: every entry of
``perfbench/tracing.py`` ``TARGETS`` must name a function that exists."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [f"latentpde.{layer}.{fname}" for layer, fname, _ in tracing.TARGETS
               if not callable(getattr(importlib.import_module(f"latentpde.{layer}"), fname,
                                       None))]
    assert not missing, missing
