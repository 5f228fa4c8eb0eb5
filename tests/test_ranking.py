import math
import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permsteg import (
    Alphabet,
    Composition,
    IndexOutOfRange,
    class_size,
    composition_of,
    multinomial,
    rank,
    rank_indices,
    symbol_alphabet,
    unrank,
    unrank_indices,
)

from oracles import brute_rank, enumerate_class, positional_rank, positional_unrank

ABC = Alphabet(["a", "b", "c"])
AB = Alphabet(["a", "b"])


class TestClassSize:
    def test_worked_block(self):
        assert class_size(composition_of(("b", "a", "c"), ABC)) == 6

    def test_single_letter(self):
        assert class_size(composition_of(("a", "a", "a"), ABC)) == 1

    def test_two_pairs_matches_enumeration(self):
        block = ("a", "a", "b", "b")
        assert class_size(composition_of(block, AB)) == len(enumerate_class(block)) == 6

    def test_matches_enumeration_up_to_n8(self):
        # every composition of n <= 8 over up to 3 letters, against brute force
        for n in range(1, 9):
            for ca in range(n + 1):
                for cb in range(n + 1 - ca):
                    cc = n - ca - cb
                    block = ("a",) * ca + ("b",) * cb + ("c",) * cc
                    assert class_size(composition_of(block, ABC)) == len(
                        enumerate_class(block)
                    )

    def test_arbitrary_precision_64_distinct(self):
        alpha = symbol_alphabet(64)
        comp = composition_of(alpha.symbols, alpha)
        size = class_size(comp)
        assert size == math.factorial(64)
        assert size.bit_length() == 296

    def test_multinomial_direct(self):
        assert multinomial([2, 2]) == 6
        assert multinomial([1, 1, 1]) == 6
        assert multinomial([5]) == 1
        assert multinomial([]) == 1


class TestRankUnrank:
    def test_worked_example_rank(self):
        assert rank(("b", "a", "c"), ABC) == 2

    def test_sorted_block_is_rank_zero(self):
        assert rank(("a", "b", "c"), ABC) == 0

    def test_worked_example_rank_cab(self):
        assert rank(("c", "a", "b"), ABC) == 4

    def test_worked_example_unrank(self):
        comp = composition_of(("b", "a", "c"), ABC)
        assert unrank(comp, 4, ABC) == ("c", "a", "b")
        assert unrank(comp, 0, ABC) == ("a", "b", "c")

    def test_two_pair_class_last_member(self):
        block = ("a", "a", "b", "b")
        comp = composition_of(block, AB)
        # frozen from enumerate_class(block)[-1]
        assert enumerate_class(block)[5] == ("b", "b", "a", "a")
        assert unrank(comp, 5, AB) == ("b", "b", "a", "a")

    def test_index_out_of_range(self):
        comp = composition_of(("a", "b"), AB)
        with pytest.raises(IndexOutOfRange):
            unrank(comp, 2, AB)
        with pytest.raises(IndexOutOfRange):
            unrank(comp, -1, AB)

    def test_empty_block_rejected(self):
        with pytest.raises(ValueError):
            rank((), ABC)

    def test_exhaustive_agreement_with_enumeration(self):
        # rank/unrank against the brute-force class listing, all blocks,
        # alphabets of 2..4 symbols, block lengths 1..5
        for k in (2, 3, 4):
            alpha = Alphabet(["a", "b", "c", "d"][:k])
            for n in range(1, 6):
                for block in product(alpha.symbols, repeat=n):
                    members = enumerate_class(block)
                    r = rank(block, alpha)
                    assert r == members.index(block)
                    assert rank_indices(block) == (r, len(members))
                    assert unrank(composition_of(block, alpha), r, alpha) == block

    def test_round_trip_exhaustive_n8_k4(self):
        alpha = Alphabet(["a", "b", "c", "d"])
        for block in product(alpha.symbols, repeat=8):
            comp = composition_of(block, alpha)
            assert unrank(comp, rank(block, alpha), alpha) == block

    def test_rank_monotone_within_class(self):
        members = enumerate_class(("a", "a", "b", "c", "c"))
        ranks = [rank(m, ABC) for m in members]
        assert ranks == list(range(len(members)))

    @given(st.lists(st.sampled_from("abcd"), min_size=1, max_size=10))
    def test_round_trip_property(self, block):
        alpha = Alphabet(["a", "b", "c", "d"])
        block = tuple(block)
        comp = composition_of(block, alpha)
        r = rank(block, alpha)
        assert 0 <= r < class_size(comp)
        assert unrank(comp, r, alpha) == block

    @given(st.lists(st.sampled_from("ab"), min_size=1, max_size=7))
    @settings(deadline=None)
    def test_rank_agrees_with_brute_force(self, block):
        # the oracle enumerates all permutations, so keep blocks short
        assert rank(tuple(block), AB) == brute_rank(tuple(block))


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
            comp = Composition(tuple(sorted(Counter(indices).items())), n)
            size = multinomial(Counter(indices).values())
            r = positional_rank(indices)
            assert rank_indices(indices) == (r, size), (k, n)
            assert rank_indices(tokens) == (r, size), (k, n)
            for tau in {0, r, size - 1, rng.randrange(size)}:
                expected = positional_unrank(comp, tau, size)
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
