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
no sorted key and yields the class size with the rank. Each position costs
O(log n) bisections and one list edit; unranking also does O(1) big-integer
operations per position. Ranking instead gathers a chunk of positions in
word-sized ints: the product a of their ``left`` values, the product b of
their letter counts, and a numerator t, updated as t * count + a * below
before a takes the position's ``left``. Once a passes 2**60, the chunk
adds size * t // b to the rank and makes size * a // b the new size. Both
divisions are exact, since size * t / b is the sum of the chunk's own exact
terms. At n = 256 the class size has some 1,600 bits, and dividing it by a
small int costs about four times as much as multiplying it by one, so the
chunks replace two to four big-integer operations per position, half of
them divisions, with four per chunk of about seven positions. The items
only need to be in canonical order: alphabet indices and tokens both work,
since canonical token order is plain string order. Everything here is
exact arbitrary-precision arithmetic; class sizes overflow 64 bits for
quite small blocks already.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Sequence

from .errors import IndexOutOfRange

# rank_indices applies a chunk of positions to its big integers once the
# chunk's product of ``left`` passes this.
_CHUNK_LIMIT = 1 << 60


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
    # The chunk of positions since the last flush scales ``size`` by a / b
    # (the products of its ``left`` and letter counts) and adds size * t / b
    # to the rank; a, b and t stay word-sized.
    a = b = 1
    t = 0
    for sym in reversed(word):
        left += 1
        below = bisect_left(suffix, sym)
        suffix.insert(below, sym)
        mult = bisect_right(suffix, sym, below) - below
        t = t * mult + a * below
        a *= left
        b *= mult
        if a > _CHUNK_LIMIT:
            if b == 1:
                rank_value += size * t
                size *= a
            else:
                rank_value += size * t // b
                size = size * a // b
            a = b = 1
            t = 0
    if size == 1:  # no chunk applied (up to ~20 letters) or one word so far: rank 0
        return t // b, a // b
    return rank_value + size * t // b, size * a // b


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
