"""Each module's __all__ names what the module offers: every entry resolves,
and every public function and class the module defines is listed."""
from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import chitomo

MODULES = ["bec_analogue", "fileio", "fock_oracle", "gaussian_field", "pulse_protocol",
           "ramsey_readout", "tomography"]


@pytest.mark.parametrize("name", ["chitomo", *(f"chitomo.{m}" for m in MODULES)])
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.mark.parametrize("name", MODULES)
def test_every_public_function_and_class_is_exported(name):
    module = importlib.import_module(f"chitomo.{name}")
    defined = {
        entry for entry, obj in vars(module).items()
        if not entry.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    assert defined - set(module.__all__) == set()


def test_every_module_with_exports_is_checked():
    # cli and errors hold the command line and the field readers, and export nothing
    with_all = {m.name for m in pkgutil.iter_modules(chitomo.__path__)
                if hasattr(importlib.import_module(f"chitomo.{m.name}"), "__all__")}
    assert with_all == set(MODULES)
