"""The names the benchmark's tracer patches stay importable where it looks.

``bench/tracing.py`` wraps functions by name in the ``permsteg.codec`` and
``permsteg.cli`` namespaces. Its name tables are read from the file as
literals, so the benchmark code is neither imported nor run here. The
benchmark derives its member-table hit ratio from the rank/unrank call
counts, so the codec calls each of them once per block that misses the
member tables, and not at all for a block that hits them.
"""

import ast
import importlib
import random
from pathlib import Path

import pytest

import permsteg.codec
from permsteg import stn_embed, stn_extract, symbol_alphabet

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


def _counting(monkeypatch, name):
    calls = []
    original = getattr(permsteg.codec, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(permsteg.codec, name, wrapper)
    return calls


def _round_trip_calls(monkeypatch, k, n, blocks):
    alphabet = symbol_alphabet(k)
    rng = random.Random(k * 1000 + n)
    cover = [rng.choice(alphabet.symbols) for _ in range(n * blocks)]
    hidden = [rng.getrandbits(1) for _ in range(n * blocks)]
    unrank_calls = _counting(monkeypatch, "unrank_indices")
    rank_calls = _counting(monkeypatch, "rank_indices")
    embedded = stn_embed(cover, hidden, n, alphabet, random.Random(1), random.Random(2))
    assert embedded.blocks == blocks
    assert not rank_calls
    stn_extract(embedded.stego, n, alphabet)
    return len(unrank_calls), len(rank_calls)


def test_one_rank_and_unrank_call_per_block_without_member_tables(monkeypatch):
    # uniform k=256, n=16: classes almost never recur, so no tables are built
    assert _round_trip_calls(monkeypatch, 256, 16, 200) == (200, 200)


def test_member_table_hits_skip_rank_and_unrank(monkeypatch):
    # k=3, n=4: at most 15 classes of at most 12 members, recurring often
    unranks, ranks = _round_trip_calls(monkeypatch, 3, 4, 600)
    assert 0 < unranks < 600
    assert 0 < ranks < 600
