"""Every name a module exports in __all__ is defined by that module, and
every layer boundary the benchmark harness traces still exists."""

import importlib
import importlib.util
import os
from pathlib import Path
from unittest import mock

import pytest

MODULES = ["energy", "fields", "cell", "oracle", "stats", "cli"]
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves(name):
    module = importlib.import_module(f"laminhom.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"laminhom.{name}.__all__ names undefined {missing}"


def test_benchmark_trace_points_resolve(monkeypatch):
    # perfbench/run.py wraps each (owner, attribute) of trace_points by name;
    # importing it pins thread variables in os.environ and imports its siblings
    monkeypatch.syspath_prepend(str(PERFBENCH))
    with mock.patch.dict(os.environ):
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    modules = [importlib.import_module(f"laminhom.{name}")
               for name in ("cli", "stats", "cell", "fields", "energy")]
    points = run.trace_points(modules)
    assert points
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in points
               if not hasattr(owner, attr)]
    assert not missing, f"the benchmark traces undefined {missing}"
