"""The names the benchmark's tracer patches stay importable where it looks.

``bench/tracing.py`` wraps functions by name in the ``permsteg.codec`` and
``permsteg.cli`` namespaces. Its name tables are read from the file as
literals, so the benchmark code is neither imported nor run here.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _name_table(name: str) -> dict:
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACING}")


@pytest.mark.parametrize(
    "module, table", [("permsteg.codec", "CODEC_NAMES"), ("permsteg.cli", "CLI_NAMES")]
)
def test_traced_names_resolve(module, table):
    names = _name_table(table)
    assert names
    namespace = importlib.import_module(module)
    missing = [attr for attr in names if not callable(getattr(namespace, attr, None))]
    assert not missing, f"{module} lacks {missing}"
