"""Lexicographic ranking and unranking of multiset permutations.

Every block of n symbols belongs to a class: the set of all words with the
same letter counts. Under an i.i.d. source all members of one class are
equally probable, which is what makes swapping a block for a classmate
undetectable. The class is ordered lexicographically (canonical symbol
order) and its members are addressed by rank, from 0 to the class size
minus one.

The class size is the multinomial coefficient n! / prod(count_a!), which
one pass over a sorted word builds run by run: its j-th letter multiplies
the size so far by j over the letter's count among those j. At a position
with ``left`` letters remaining and ``size`` arrangements of them, the words
starting with any of the ``below`` smaller letters number exactly
``size * below // left``; ``below`` is a bisection in a sorted list of those
letters. Unranking walks forward from the class size and deletes each
placed letter from the list, until the rank left is 0, whose word is the
remaining letters in sorted order. Ranking walks backward from the last
letter: it inserts each letter into the list and multiplies the suffix's
class size by ``left`` over the letter's count in the suffix, so it needs
no sorted key and yields the class size with the rank. Either way each
position costs O(1) big-integer operations, O(log n) bisections and one list
edit. The items only need to be in canonical order: alphabet indices and
tokens both work, since canonical token order is plain string order.
Everything here is exact arbitrary-precision arithmetic; class sizes
overflow 64 bits for quite small blocks already.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Sequence

from .alphabet import (
    Alphabet,
    Block,
    Composition,
    block_to_indices,
    indices_to_block,
)
from .errors import IndexOutOfRange


def class_size(comp: Composition) -> int:
    """Number of distinct arrangements of a block with the given composition."""
    return multinomial(cnt for _, cnt in comp.counts)


def multinomial(counts) -> int:
    """Exact multinomial coefficient (sum counts)! / prod(counts!)."""
    total = 0
    result = 1
    for cnt in counts:
        total += cnt
        result *= math.comb(total, cnt)
    return result


def sorted_class_size(ordered: Sequence) -> int:
    """Class size of the sorted word ``ordered``, in one run-length pass."""
    size, left, run = 1, 0, 0
    prev = ordered[0] if ordered else None  # the first letter extends a run of 0
    for sym in ordered:
        left += 1
        if sym == prev:
            run += 1
            size = size * left // run
        else:
            prev, run = sym, 1
            size *= left
    return size


def rank_indices(word: Sequence) -> tuple[int, int]:
    """Rank of a word within its class, and the class size."""
    suffix: list = []
    size = 1
    rank_value = 0
    left = 0
    for sym in reversed(word):
        left += 1
        below = bisect_left(suffix, sym)
        suffix.insert(below, sym)
        size = size * left // (bisect_right(suffix, sym, below) - below)
        if below:
            rank_value += size * below // left
    return rank_value, size


def unrank_indices(ordered: Sequence, index: int, size: int | None = None) -> list:
    """Word with the given rank within the class of the sorted word ``ordered``."""
    remaining = list(ordered)
    if size is None:
        size = sorted_class_size(remaining)
    if not (0 <= index < size):
        raise IndexOutOfRange(f"rank {index} outside [0, {size})")
    out = []
    left = len(remaining)
    while index:
        # The words starting with remaining[q] hold the ranks from
        # size * below / left on, a range that covers size * q / left up
        # to size * (q + 1) / left and so covers index.
        q = index * left // size
        sym = remaining[q]
        out.append(sym)
        below = bisect_left(remaining, sym, 0, q)
        if below:
            index -= size * below // left
        size = size * (bisect_right(remaining, sym, q) - below) // left
        del remaining[below]
        left -= 1
    out += remaining  # rank 0 among the letters left: their sorted order
    return out


def sorted_indices(comp: Composition) -> list[int]:
    """The class's first member: each symbol index repeated by its count."""
    return [sym for sym, cnt in comp.counts for _ in range(cnt)]


def rank(block: Sequence[str], alphabet: Alphabet) -> int:
    """Number of classmates of ``block`` that are lexicographically smaller."""
    if len(block) == 0:
        raise ValueError("block must contain at least one symbol")
    return rank_indices(block_to_indices(block, alphabet))[0]


def unrank(comp: Composition, index: int, alphabet: Alphabet) -> Block:
    """The unique member of the class of ``comp`` with the given rank."""
    return indices_to_block(unrank_indices(sorted_indices(comp), index), alphabet)
