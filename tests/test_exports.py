"""Public exports: the package and each submodule import, every name an
``__all__`` lists resolves, and ``from treekern import *`` binds them."""

import importlib
import pkgutil

import pytest

import treekern

MODULES = ["treekern"] + [
    f"treekern.{info.name}" for info in pkgutil.iter_modules(treekern.__path__) if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported))
    assert [n for n in exported if not hasattr(module, n)] == []


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from treekern import *", namespace)
    assert [n for n in treekern.__all__ if n not in namespace] == []
    assert len(MODULES) > 5  # the submodules were found
