import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permsteg import (
    Alphabet,
    InvalidAlphabet,
    UnknownSymbol,
    rank_indices,
    sorted_class_size,
    symbol_alphabet,
)

ABC = Alphabet(["a", "b", "c"])


class TestAlphabet:
    def test_canonical_order_recomputed(self):
        assert Alphabet(["c", "a", "b"]).symbols == ("a", "b", "c")

    def test_byte_order_on_mixed_tokens(self):
        # 'A' (0x41) < 'aa' < 'b' under byte-wise comparison
        assert Alphabet(["b", "aa", "A"]).symbols == ("A", "aa", "b")

    def test_duplicates_rejected(self):
        with pytest.raises(InvalidAlphabet, match="duplicate"):
            Alphabet(["x", "y", "x"])

    def test_empty_and_bad_tokens_rejected(self):
        with pytest.raises(InvalidAlphabet):
            Alphabet([])
        with pytest.raises(InvalidAlphabet):
            Alphabet(["ok", ""])
        with pytest.raises(InvalidAlphabet):
            Alphabet(["with space"])
        with pytest.raises(InvalidAlphabet):
            Alphabet(["tab\tted"])

    def test_index_and_membership(self):
        assert ABC.index("b") == 1
        assert "c" in ABC and "z" not in ABC
        with pytest.raises(UnknownSymbol):
            ABC.index("z")

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "alphabet.txt"
        path.write_text("c\na\nb\n\n", encoding="utf-8")
        loaded = Alphabet.from_file(path)
        assert loaded == ABC

    def test_file_duplicates_error(self, tmp_path):
        path = tmp_path / "alphabet.txt"
        path.write_text("a\nb\na\n", encoding="utf-8")
        with pytest.raises(InvalidAlphabet, match=f"duplicate token 'a' in .*{path.name}"):
            Alphabet.from_file(path)

    def test_symbol_alphabet_padding_keeps_order(self):
        alpha = symbol_alphabet(12)
        assert alpha.symbols[0] == "s00"
        assert alpha.symbols[-1] == "s11"
        assert list(alpha.symbols) == sorted(alpha.symbols)


class TestComposition:
    """A block's letter counts name its class; the word API keys it by the sorted block."""

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbol):
            ABC.index("z")

    @given(st.lists(st.sampled_from("abc"), min_size=1, max_size=12), st.integers())
    def test_permutation_invariance(self, block, seed):
        shuffled = block[:]
        random.Random(seed).shuffle(shuffled)
        assert sorted(block) == sorted(shuffled)
        assert sorted_class_size(sorted(block)) == rank_indices(shuffled)[1]
