"""Public exports: the package and each submodule import, every name an
``__all__`` lists resolves, ``from treekern import *`` binds them, and the
README's library quickstart runs."""

import importlib
import pkgutil
import re
from pathlib import Path

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


def test_readme_quickstart_runs(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"^```python\n(.*?)^```$", section, flags=re.MULTILINE | re.DOTALL)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md quickstart", "exec"), {})
    assert "['demo', 'other']" in capsys.readouterr().out
