"""The names the benchmark's tracer patches stay importable where it looks.

``bench/tracing.py`` wraps functions by name in the ``permsteg.codec`` and
``permsteg.cli`` namespaces. Its name tables are read from the file as
literals, so the benchmark code is neither imported nor run here. The
benchmark derives its member-table hit ratio from the unrank call count,
so embed calls unrank once per block that misses the member tables, and
not at all for a block that hits them. The tables fill on first use, so a
miss is a word of a small class that the call has not emitted before, or
any block of a larger class. A member table stores each word's record with
it, so the blocks that emit one word share one record object. Extract
keeps no member tables: it ranks each distinct block of a small class once
and looks up its decoding afterwards, and ranks every block of a larger
class.
"""

import ast
import importlib
import random
from pathlib import Path

import pytest

import permsteg.codec
import permsteg.ranking
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


def _counting(monkeypatch, name, modules=(permsteg.codec,)):
    """Count calls to ``name`` through each module's attribute of that name."""
    calls = []
    for module in modules:
        original = getattr(module, name)

        def wrapper(*args, _original=original, **kwargs):
            calls.append(name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
    return calls


def _stream(k, n, symbols, zipf=False):
    """A seeded cover of ``symbols`` tokens over k letters, and as many hidden bits."""
    alphabet = symbol_alphabet(k)
    rng = random.Random(k * 1000 + n)
    if zipf:
        weights = [1 / i for i in range(1, k + 1)]
        cover = rng.choices(alphabet.symbols, weights=weights, k=symbols)
    else:
        cover = [rng.choice(alphabet.symbols) for _ in range(symbols)]
    hidden = [rng.getrandbits(1) for _ in range(symbols)]
    return alphabet, cover, hidden


def _round_trip_calls(monkeypatch, k, n, symbols, zipf=False):
    """Unrank and rank calls of one embed and extract, with what bounds them.

    Unranks are counted whether embed calls them by the codec's name or the
    ranking module's. Returns those two counts, the number of distinct stego
    blocks, and the number of unranks that filling each member table on first
    use allows: one per distinct (sorted block, tau) of a class within the
    member-table limit, and one per block of a larger class.
    """
    alphabet, cover, hidden = _stream(k, n, symbols, zipf)
    unrank_calls = _counting(monkeypatch, "unrank_indices", (permsteg.codec, permsteg.ranking))
    rank_calls = _counting(monkeypatch, "rank_indices")
    embedded = stn_embed(cover, hidden, n, alphabet, random.Random(1), random.Random(2))
    assert embedded.blocks == symbols // n
    assert not rank_calls
    stn_extract(embedded.stego, n, alphabet)
    blocks = list(zip(*[iter(embedded.stego)] * n))
    words, large = set(), 0
    for block, (size, _, _, tau) in zip(blocks, embedded.records):
        if size > permsteg.codec._MEMBER_TABLE_MAX_CLASS:
            large += 1
        else:
            words.add((tuple(sorted(block)), tau))
    return len(unrank_calls), len(rank_calls), len(set(blocks)), len(words) + large


def test_one_rank_and_unrank_call_per_block_without_member_tables(monkeypatch):
    # uniform k=256, n=16: classes almost never recur, so no tables are filled
    assert _round_trip_calls(monkeypatch, 256, 16, 200 * 16)[:2] == (200, 200)


def test_member_table_hits_skip_rank_and_unrank(monkeypatch):
    # k=3, n=4: at most 15 classes of at most 12 members, recurring often
    unranks, ranks, distinct, words = _round_trip_calls(monkeypatch, 3, 4, 600 * 4)
    assert 0 < unranks < 600
    assert 0 < ranks < 600
    assert ranks == distinct
    assert unranks == words


def test_embed_unranks_each_emitted_word_once(monkeypatch):
    # a fresh 10^4-symbol Zipf k=6, n=7 session, the shape of the zero-error
    # battery: tables fill on first use, so embed never unranks a word it
    # does not emit, nor one it already holds
    unranks, _, _, words = _round_trip_calls(monkeypatch, 6, 7, 10_000, zipf=True)
    assert unranks == words <= 10_000 // 7


@pytest.mark.parametrize("k, n, blocks, tabled", [(3, 4, 600, True), (256, 16, 200, False)])
def test_member_tables_serve_one_record_per_word(k, n, blocks, tabled):
    # a member table stores each word's record with it, so the blocks of a
    # small class that emit one word share one record object (k=3, n=4); a
    # block of a larger class gets a record of its own (k=256, n=16)
    alphabet, cover, hidden = _stream(k, n, blocks * n)
    embedded = stn_embed(cover, hidden, n, alphabet, random.Random(1), random.Random(2))
    pairs = set()
    for block, record in zip(zip(*[iter(embedded.stego)] * n), embedded.records):
        assert (record[0] <= permsteg.codec._MEMBER_TABLE_MAX_CLASS) is tabled
        # a tabled block's word is (sorted block, tau); any other block is its own
        word = (tuple(sorted(block)), record[3]) if tabled else len(pairs)
        pairs.add((word, id(record)))
    # one record object per word and one word per record object
    assert len(pairs) == len({word for word, _ in pairs}) == len({obj for _, obj in pairs})
    assert (len(pairs) < blocks) if tabled else (len(pairs) == blocks)
