"""Every module of the package imports on its own, and cheaply.

``permsteg/__init__`` does not import every submodule (``cli`` in
particular), so a module that fails at import time would otherwise show up
only as a collection error in whichever test file imports it. Nothing in
the package may load scipy or numpy: they are not runtime dependencies (the
chi-square tail is a stdlib sum), and they would dominate start-up time.
Nor may importing the package or its command line load the analysis suite,
the simulated sources or ``fractions``: the package exports their names
lazily, and only the commands that use them import them, so ``embed`` and
``extract`` do not pay for them.
"""

import importlib
import importlib.util
import json
import os
import pathlib
import pkgutil
import subprocess
import sys
import textwrap

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


def _fresh(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter on this source tree.

    Other test files have already loaded scipy and every submodule here.
    """
    src = str(pathlib.Path(_PACKAGE.origin).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout


@pytest.mark.parametrize("name", ["permsteg", "permsteg.cli"])
def test_import_loads_neither_scipy_nor_numpy(name):
    code = (
        f"import sys, {name}; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] in ('scipy', 'numpy')))"
    )
    assert _fresh(code).strip() == "[]"


def test_chi_square_runs_with_scipy_blocked(tmp_path):
    model = tmp_path / "model.txt"
    model.write_text("a 0.5\nb 0.3\nc 0.2\n")
    code = textwrap.dedent(f"""
        import json, sys
        sys.modules["scipy"] = None  # any import of scipy now raises ImportError
        from click.testing import CliRunner
        from permsteg.analysis import chi_square_gof
        from permsteg.cli import main
        _, p = chi_square_gof({{"a": 40, "b": 60}}, {{"a": 0.5, "b": 0.5}})
        result = CliRunner().invoke(main, [
            "analyze", "--model", {str(model)!r}, "-n", "3",
            "--mode", "empirical", "--samples", "2000",
        ])
        print(json.dumps({{
            "p": p,
            "exit_code": result.exit_code,
            "exception": repr(result.exception),
            "report_p": json.loads(result.output)["distribution"]["p_value"]
            if result.exit_code == 0 else None,
            "loaded": sorted(
                m for m, v in sys.modules.items()
                if v is not None and m.partition(".")[0] in ("scipy", "numpy")
            ),
        }}))
    """)
    out = json.loads(_fresh(code))
    assert out["exit_code"] == 0, out["exception"]
    assert 0.0 < out["p"] <= 1.0
    assert 0.0 < out["report_p"] <= 1.0
    assert out["loaded"] == []


@pytest.mark.parametrize("name", ["permsteg", "permsteg.cli"])
def test_import_loads_no_analysis_sources_or_fractions(name):
    unwanted = ["permsteg.analysis", "permsteg.sources", "fractions"]
    code = f"import sys, {name}; print(sorted(set({unwanted!r}) & set(sys.modules)))"
    assert _fresh(code).strip() == "[]"


def test_exported_names_are_their_home_modules_objects():
    # In a fresh interpreter, so the lazy names resolve on this first access.
    code = textwrap.dedent("""
        import importlib, json, pkgutil, permsteg
        before = set(dir(permsteg))
        values = {}
        for name in permsteg.__all__:
            namespace = {}
            exec(f"from permsteg import {name}", namespace)
            values[name] = namespace[name]
        homes = [
            importlib.import_module(f"permsteg.{info.name}")
            for info in pkgutil.iter_modules(permsteg.__path__) if info.name != "cli"
        ]
        wrong = [
            name for name, value in values.items()
            if not any(name in vars(home) for home in homes)
            or any(vars(home).get(name, value) is not value for home in homes)
        ]
        print(json.dumps({"wrong": wrong, "dir_lacks": sorted(set(permsteg.__all__) - before)}))
    """)
    assert json.loads(_fresh(code)) == {"wrong": [], "dir_lacks": []}


def test_star_import_binds_exactly_all():
    # the one consumer that reads __all__ itself; in a fresh interpreter, so
    # the lazy names resolve here and load their modules
    code = textwrap.dedent("""
        import json, sys
        before = set(globals()) | {"before"}
        from permsteg import *
        bound = set(globals()) - before
        import permsteg
        print(json.dumps({
            "bound": sorted(bound),
            "not_identical": [
                name for name in bound if globals()[name] is not getattr(permsteg, name)
            ],
            "loaded": [m for m in ("permsteg.analysis", "permsteg.sources") if m in sys.modules],
        }))
    """)
    out = json.loads(_fresh(code))
    assert out["bound"] == sorted(importlib.import_module("permsteg").__all__)
    assert out["not_identical"] == []
    assert out["loaded"] == ["permsteg.analysis", "permsteg.sources"]


def test_every_exported_name_resolves():
    package = importlib.import_module("permsteg")
    exported = package.__all__
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    missing = [name for name in exported if not hasattr(package, name)]
    assert not missing, f"permsteg.__all__ names missing attributes: {missing}"
