"""Every module of the package imports on its own, and cheaply.

``permsteg/__init__`` does not import every submodule (``cli`` in
particular), so a module that fails at import time would otherwise show up
only as a collection error in whichever test file imports it. Importing the
package or its command line must not load scipy or numpy, which only the
chi-square checks use and which dominate start-up time when loaded.
"""

import importlib
import importlib.util
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

_PACKAGE = importlib.util.find_spec("permsteg")
MODULES = ["permsteg"] + sorted(
    f"permsteg.{info.name}" for info in pkgutil.iter_modules(_PACKAGE.submodule_search_locations)
)


def test_module_list_covers_the_cli():
    assert "permsteg.cli" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_module_imports(name):
    module = importlib.import_module(name)
    assert module.__name__ == name


@pytest.mark.parametrize("name", ["permsteg", "permsteg.cli"])
def test_import_loads_neither_scipy_nor_numpy(name):
    # A fresh interpreter: other test files have already loaded scipy here.
    src = str(pathlib.Path(_PACKAGE.origin).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        f"import sys, {name}; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] in ('scipy', 'numpy')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_every_exported_name_resolves():
    package = importlib.import_module("permsteg")
    exported = package.__all__
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    missing = [name for name in exported if not hasattr(package, name)]
    assert not missing, f"permsteg.__all__ names missing attributes: {missing}"
