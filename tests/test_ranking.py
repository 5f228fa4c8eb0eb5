import math
import random
from bisect import insort
from collections import Counter
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permsteg import (
    Alphabet,
    IndexOutOfRange,
    rank_indices,
    ranking,
    sorted_class_size,
    symbol_alphabet,
    unrank_indices,
)

from oracles import (
    brute_class_size,
    brute_rank,
    enumerate_class,
    multinomial,
    positional_rank,
    positional_unrank,
)


class TestClassSize:
    def test_worked_block(self):
        assert sorted_class_size(sorted(("b", "a", "c"))) == 6

    def test_single_letter(self):
        assert sorted_class_size(sorted(("a", "a", "a"))) == 1

    def test_two_pairs_matches_enumeration(self):
        block = ("a", "a", "b", "b")
        assert sorted_class_size(sorted(block)) == len(enumerate_class(block)) == 6

    def test_matches_enumeration_up_to_n8(self):
        # every composition of n <= 8 over up to 3 letters, against brute force
        for n in range(1, 9):
            for ca in range(n + 1):
                for cb in range(n + 1 - ca):
                    cc = n - ca - cb
                    block = ("a",) * ca + ("b",) * cb + ("c",) * cc
                    size = len(enumerate_class(block))
                    assert sorted_class_size(sorted(block)) == rank_indices(block)[1] == size

    def test_arbitrary_precision_64_distinct(self):
        alpha = symbol_alphabet(64)
        size = sorted_class_size(alpha.symbols)
        assert size == math.factorial(64)
        assert size.bit_length() == 296

    def test_multinomial_direct(self):
        # the class size of a sorted word is its letter counts' multinomial
        assert sorted_class_size(sorted("aabb")) == 6
        assert sorted_class_size(sorted("abc")) == 6
        assert sorted_class_size(sorted("aaaaa")) == 1
        assert sorted_class_size(()) == 1


class TestRankUnrank:
    def test_worked_example_rank(self):
        assert rank_indices(("b", "a", "c"))[0] == 2

    def test_sorted_block_is_rank_zero(self):
        assert rank_indices(("a", "b", "c"))[0] == 0

    def test_worked_example_rank_cab(self):
        assert rank_indices(("c", "a", "b"))[0] == 4

    def test_worked_example_unrank(self):
        assert tuple(unrank_indices(sorted(("b", "a", "c")), 4)) == ("c", "a", "b")
        assert tuple(unrank_indices(sorted(("b", "a", "c")), 0)) == ("a", "b", "c")

    def test_two_pair_class_last_member(self):
        block = ("a", "a", "b", "b")
        # frozen from enumerate_class(block)[-1]
        assert enumerate_class(block)[5] == ("b", "b", "a", "a")
        assert tuple(unrank_indices(sorted(block), 5)) == ("b", "b", "a", "a")

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            unrank_indices(["a", "b"], 2)
        with pytest.raises(IndexOutOfRange):
            unrank_indices(["a", "b"], -1)

    def test_exhaustive_agreement_with_enumeration(self):
        # rank/unrank against the brute-force class listing, all blocks,
        # alphabets of 2..4 symbols, block lengths 1..5
        for k in (2, 3, 4):
            for n in range(1, 6):
                for block in product("abcd"[:k], repeat=n):
                    members = enumerate_class(block)
                    r = rank_indices(block)[0]
                    assert r == members.index(block)
                    assert rank_indices(block) == (r, len(members))
                    assert tuple(unrank_indices(sorted(block), r)) == block

    def test_round_trip_exhaustive_n8_k4(self):
        for block in product("abcd", repeat=8):
            assert tuple(unrank_indices(sorted(block), rank_indices(block)[0])) == block

    def test_rank_monotone_within_class(self):
        members = enumerate_class(("a", "a", "b", "c", "c"))
        ranks = [rank_indices(m)[0] for m in members]
        assert ranks == list(range(len(members)))

    @given(st.lists(st.sampled_from("abcd"), min_size=1, max_size=10))
    def test_round_trip_property(self, block):
        block = tuple(block)
        r = rank_indices(block)[0]
        assert 0 <= r < sorted_class_size(sorted(block))
        assert tuple(unrank_indices(sorted(block), r)) == block

    @given(st.lists(st.sampled_from("ab"), min_size=1, max_size=7))
    @settings(deadline=None)
    def test_rank_agrees_with_brute_force(self, block):
        # the oracle enumerates all permutations, so keep blocks short
        assert rank_indices(tuple(block))[0] == brute_rank(tuple(block))


def _differential_shapes():
    rng = random.Random(20261018)
    shapes = [(k, n) for k in (2, 3, 4, 8, 26, 256, 1024) for n in range(1, 81)]
    shapes += [(256, 256)] * 3 + [(2, 1024)] * 3
    return rng, shapes


class TestAgainstPositionalReference:
    """The bisect walks compute the positional scan's bijection exactly."""

    def test_random_classes_match_reference(self):
        rng, shapes = _differential_shapes()
        for k, n in shapes:
            # Tokens without zero padding: canonical (string) order differs
            # from numeric order, so the token checks exercise it.
            alpha = Alphabet(str(i) for i in range(k))
            indices = [rng.randrange(k) for _ in range(n)]
            tokens = [alpha[i] for i in indices]
            size = multinomial(Counter(indices).values())
            r = positional_rank(indices)
            assert rank_indices(indices) == (r, size), (k, n)
            assert rank_indices(tokens) == (r, size), (k, n)
            for tau in {0, r, size - 1, rng.randrange(size)}:
                expected = positional_unrank(sorted(indices), tau, size)
                assert unrank_indices(sorted(indices), tau, size) == expected, (k, n)
                assert unrank_indices(sorted(tokens), tau) == [
                    alpha[i] for i in expected
                ], (k, n)
            assert unrank_indices(sorted(indices), r, size) == indices
            assert unrank_indices(tuple(sorted(tokens)), r, size) == tokens
            for bad in (size, -1):
                with pytest.raises(IndexOutOfRange):
                    unrank_indices(sorted(indices), bad, size)

    def test_size_one_class(self):
        word = ["s7"] * 5
        assert rank_indices(word) == (0, 1)
        assert unrank_indices(word, 0) == word
        with pytest.raises(IndexOutOfRange):
            unrank_indices(word, 1)
        with pytest.raises(IndexOutOfRange):
            unrank_indices(word, -1)


class TestChunkedRank:
    """Ranks whose backward walk applies several chunks of positions."""

    @staticmethod
    def _check(word):
        size = multinomial(Counter(word).values())
        first, last = sorted(word), sorted(word, reverse=True)
        assert rank_indices(first) == (0, size)
        assert rank_indices(last) == (size - 1, size)
        assert positional_rank(first) == 0
        assert positional_rank(last) == size - 1
        assert rank_indices(word) == (positional_rank(word), size)

    @pytest.mark.parametrize("k, n", [(256, 256), (26, 256), (2, 1024)])
    def test_first_last_and_random_member(self, k, n):
        rng = random.Random(k * n)
        self._check([rng.randrange(k) for _ in range(n)])

    def test_one_letter_flushes_with_counts(self):
        # one class member: every chunk has b = a > 1
        self._check([0, 0] * 512)

    @pytest.mark.parametrize("limit", [1, 1 << 20, 1 << 4000])
    def test_chunk_limit_does_not_change_the_rank(self, monkeypatch, limit):
        # a flush after every position, after a few, and never
        rng = random.Random(limit.bit_length())
        words = [[rng.randrange(k) for _ in range(n)] for k, n in
                 [(256, 256), (26, 256), (2, 1024), (3, 40), (8, 4)]]
        expected = [(positional_rank(word), multinomial(Counter(word).values()))
                    for word in words]
        monkeypatch.setattr(ranking, "_CHUNK_LIMIT", limit)
        assert [rank_indices(word) for word in words] == expected


class TestChunkedUnrank:
    """Unranks that pick letters in chunks by a float estimate of index / size."""

    @pytest.fixture
    def put_back(self, monkeypatch):
        # letters a chunk with a wrong pick returns to the remaining list
        letters = []

        def counting_insort(seq, item):
            letters.append(item)
            insort(seq, item)

        monkeypatch.setattr(ranking, "insort", counting_insort)
        return letters

    def test_every_index_of_small_classes(self, monkeypatch, put_back):
        # Threshold 1: every class of two or more words chunks, and a class
        # of one word must still leave the loop. Exact ratios such as 1/3
        # are common here, so float picks go wrong and the fallback runs.
        monkeypatch.setattr(ranking, "_UNRANK_CHUNK_THRESHOLD", 1)
        for n in range(1, 9):
            for ordered in combinations_with_replacement(range(4), n):
                size = sorted_class_size(ordered)
                for tau in range(size):
                    expected = positional_unrank(ordered, tau, size)
                    assert unrank_indices(ordered, tau, size) == expected, (ordered, tau)
        assert put_back

    @pytest.mark.parametrize("k, n", [(256, 256), (256, 1024), (2, 1024), (3, 40)])
    def test_ends_and_band_offsets(self, put_back, k, n):
        rng = random.Random(k * n + 1)
        ordered = sorted(rng.randrange(k) for _ in range(n))
        size = sorted_class_size(ordered)
        bits = size.bit_length()
        taus = {0, 1, size - 2, size - 1}
        for d in (0, 1, bits // 2, bits - 2, bits - 1):
            offset = size >> d >> 1 << d << 1
            taus |= {offset - 1, offset + 1}
        for tau in sorted(tau for tau in taus if 0 <= tau < size):
            expected = positional_unrank(ordered, tau, size)
            assert unrank_indices(ordered, tau, size) == expected, (k, n, tau)
        # a chunk is ~5 positions here; a wrong pick is rare, not the rule
        assert len(put_back) < n

    @pytest.mark.parametrize("limit", [1, 1 << 4000], ids=["one-position", "never"])
    def test_chunk_limit_does_not_change_the_word(self, monkeypatch, limit):
        # one position per chunk, and chunks that run to the last letter
        rng = random.Random(limit.bit_length())
        cases = []
        for k, n in [(256, 256), (26, 100), (2, 256), (3, 40), (8, 4)]:
            ordered = sorted(rng.randrange(k) for _ in range(n))
            size = sorted_class_size(ordered)
            for tau in (rng.randrange(size), size - 1):
                cases.append((ordered, tau, size, positional_unrank(ordered, tau, size)))
        monkeypatch.setattr(ranking, "_UNRANK_CHUNK_THRESHOLD", 1)
        monkeypatch.setattr(ranking, "_UNRANK_CHUNK_LIMIT", limit)
        for ordered, tau, size, expected in cases:
            assert unrank_indices(ordered, tau, size) == expected, (len(ordered), tau)


class TestRunLengthSizeAndEarlyStop:
    """The run-length class size and the unrank that stops at rank 0."""

    def test_sorted_class_size_matches_multinomial_and_brute_force(self):
        rng, shapes = _differential_shapes()
        for k, n in shapes[::7] + [(1, 1), (3, 0)]:
            alpha = Alphabet(str(i) for i in range(k))
            indices = sorted(rng.randrange(k) for _ in range(n))
            tokens = sorted(alpha[i] for i in indices)
            size = multinomial(Counter(indices).values())
            assert sorted_class_size(indices) == sorted_class_size(tokens) == size, (k, n)
            assert sorted_class_size(tuple(tokens)) == size, (k, n)
        for k in (2, 3, 4):
            for n in range(1, 7):
                for block in product("abcd"[:k], repeat=n):
                    assert sorted_class_size(sorted(block)) == brute_class_size(block)

    @pytest.mark.parametrize("ordered", [["a", "a", "b", "c"], (0, 0, 1, 2, 2), ["x"], []])
    def test_rank_zero_is_a_fresh_sorted_list(self, ordered):
        before = list(ordered)
        word = unrank_indices(ordered, 0)
        assert word == before and word is not ordered
        word.append("z")
        assert list(ordered) == before
        assert unrank_indices(ordered, 0, sorted_class_size(ordered)) == before

    def test_never_mutates_ordered(self):
        ordered = sorted("mississippi")
        copy = list(ordered)
        for tau in range(0, sorted_class_size(ordered), 97):
            unrank_indices(ordered, tau)
            assert ordered == copy

    @pytest.mark.parametrize(
        "word", [["q"], ["s7"] * 5, list("aabbbc"), list(range(9)), [0, 1] * 40]
    )
    def test_size_one_class_and_last_index_round_trip(self, word):
        ordered = sorted(word)
        size = sorted_class_size(ordered)
        last = unrank_indices(ordered, size - 1, size)
        assert last == sorted(word, reverse=True)
        assert rank_indices(last) == (size - 1, size)
        assert unrank_indices(ordered, rank_indices(word)[0]) == word
        for bad in (size, size + 1, -1):
            with pytest.raises(IndexOutOfRange):
                unrank_indices(ordered, bad)
            with pytest.raises(IndexOutOfRange):
                unrank_indices(ordered, bad, size)
