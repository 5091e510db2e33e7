import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import hermiton

MODULES = ["hermiton", *(f"hermiton.{m.name}" for m in pkgutil.iter_modules(hermiton.__path__))]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_public_name_exists(module_name):
    # a stale __all__ entry breaks `from module import *`
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]
    assert missing == []


def test_every_tracer_target_resolves():
    # perfbench/tracing.py rebinds these names while it traces a run: its
    # TARGETS, the recorder's builder and the charge monitor.  A name that
    # moves or goes fails here, not only in the traced benchmark run
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [(module, name) for module, name, _ in tracing.TARGETS]
    targets += [("hermiton.integrate", "_build_system"), ("hermiton.diagnostics", "monitor")]
    missing = [(module, name) for module, name in targets
               if not hasattr(importlib.import_module(module), name)]
    assert len(targets) > 2 and missing == []
