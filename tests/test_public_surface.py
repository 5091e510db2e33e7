import importlib
import pkgutil

import pytest

import hermiton

MODULES = ["hermiton", *(f"hermiton.{m.name}" for m in pkgutil.iter_modules(hermiton.__path__))]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_public_name_exists(module_name):
    # a stale __all__ entry breaks `from module import *`
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]
    assert missing == []
