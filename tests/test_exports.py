import importlib
import pkgutil

import pytest

import entrocone

MODULES = sorted(info.name for info in pkgutil.iter_modules(entrocone.__path__, "entrocone."))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # nothing star-imports these modules, so a stale export list would
    # otherwise go unnoticed
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)


def test_library_modules_declare_exports():
    declared = {name for name in MODULES if hasattr(importlib.import_module(name), "__all__")}
    assert {f"entrocone.{m}" for m in ("bounds", "distributions", "logexact", "polycone", "qusearch")} <= declared
