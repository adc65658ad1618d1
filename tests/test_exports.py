"""Every name a module exports in __all__ is defined by that module."""

import importlib

import pytest


@pytest.mark.parametrize("name", ["energy", "fields", "cell", "oracle", "stats", "cli"])
def test_all_resolves(name):
    module = importlib.import_module(f"laminhom.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"laminhom.{name}.__all__ names undefined {missing}"
