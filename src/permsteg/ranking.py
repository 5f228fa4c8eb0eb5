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
letters. Each position costs O(log n) bisections and one list edit. A
letter unlike its neighbours in the list is a run of its own: its count is
1 and its ``below`` is its own index, so it skips the bisects that find
them. The items only need to be in canonical order: alphabet indices and
tokens both work, since canonical token order is plain string order.
Everything here is exact arbitrary-precision arithmetic; class sizes
overflow 64 bits for quite small blocks already.

Ranking walks backward from the last letter: it inserts each letter into
the list and multiplies the suffix's class size by ``left`` over the
letter's count in the suffix, so it needs no sorted key and yields the
class size with the rank. It gathers a chunk of positions in word-sized
ints: the product a of their ``left`` values, the product b of their letter
counts, and a numerator t, updated as t * count + a * below before a takes
the position's ``left``. Once a passes 2**60, the chunk adds size * t // b
to the rank and makes size * a // b the new size. Both divisions are exact,
since size * t / b is the sum of the chunk's own exact terms. At n = 256
the class size has some 1,600 bits, and dividing it by a small int costs
about four times as much as multiplying it by one, so the chunks replace
two to four big-integer operations per position, half of them divisions,
with four per chunk of about seven positions.

Unranking walks forward from the class size and deletes each placed letter
from the list, until the rank left is 0, whose word is the remaining
letters in sorted order. An exact step picks the letter at
index * left // size and scales the index and size by big-integer
divisions. While the class size is above 2**512, unranking picks a chunk
of letters instead, from a float x ~ index / size: each position takes the
letter at x * left (a letter unlike both its neighbours needs no
bisection), maps x to (x * left - below) / mult, where mult is the
letter's count, and updates word-sized t, a and b as t * left + b * below,
a * left and b * mult. Once a passes 2**40, the chunk subtracts
size * t // a from the index and makes size * b // a the new size, both
exact divisions since every term counts words. The exact ratio
index / size moves by the same map, and a letter whose range does not hold
its x * left sends it outside [0, 1), where it stays: below >= 0 keeps it
negative, and below + mult <= left keeps it at 1 or more. So an index
inside the new class proves every pick of the chunk; otherwise the chunk's
letters go back to the list and one exact step follows. The float's error
grows with a / b, which the limit keeps far below one letter, so fallbacks
are rare. Below the threshold, the exact walk's divisions act on ints
small enough that chunks lose to it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Sequence

from .errors import IndexOutOfRange

# rank_indices applies a chunk of positions to its big integers once the
# chunk's product of ``left`` passes this.
_CHUNK_LIMIT = 1 << 60
# unrank_indices picks letters in chunks while the class size is above the
# threshold (below it, chunks lose to the exact walk's cheaper divisions) and
# ends a chunk once its product of ``left`` passes the limit, which keeps the
# float estimate's error far below one letter.
_UNRANK_CHUNK_THRESHOLD = 1 << 512
_UNRANK_CHUNK_LIMIT = 1 << 40


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
        # the letter before sym is smaller, so only the one after can match
        mult = 1
        if below + 1 < left and suffix[below + 1] == sym:
            mult = bisect_right(suffix, sym, below + 2) - below
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


def _unrank_chunk(
    remaining: list, out: list, index: int, size: int, left: int
) -> tuple[int, int, int] | None:
    """Pick a chunk of letters by float estimate; return the exact state after it.

    Moves the picks from ``remaining`` to ``out`` and returns the new
    (index, size, left), or puts them back and returns None when the index
    after the chunk falls outside the new class, that is when a pick was
    wrong (see the module docstring).
    """
    x = index / size
    mark = len(out)
    a = b = 1
    t = 0
    while a <= _UNRANK_CHUNK_LIMIT:
        y = x * left
        q = int(y)
        if q >= left:
            break
        sym = remaining[q]
        out.append(sym)
        below, mult = q, 1
        # a letter unlike both neighbours is a run of its own: skip the bisects
        if q and remaining[q - 1] == sym or q + 1 < left and remaining[q + 1] == sym:
            below = bisect_left(remaining, sym, 0, q)
            mult = bisect_right(remaining, sym, q) - below
        del remaining[below]
        t = t * left + b * below
        a *= left
        b *= mult
        left -= 1
        x = (y - below) / mult
    if a == 1:  # x rounded up to 1
        return None
    # size = whole * a + part, so size * t // a = whole * t + part * t // a
    whole, part = divmod(size, a)
    index -= whole * t + part * t // a
    size = whole * b + part * b // a
    if 0 <= index < size:
        return index, size, left
    for sym in out[mark:]:
        insort(remaining, sym)
    del out[mark:]
    return None


def unrank_indices(ordered: Sequence, index: int, size: int | None = None) -> list:
    """Word with the given rank within the class of the sorted word ``ordered``."""
    remaining = list(ordered)
    if size is None:
        size = sorted_class_size(remaining)
    if not (0 <= index < size):
        raise IndexOutOfRange(f"rank {index} outside [0, {size})")
    out = []
    left = len(remaining)
    big = size > _UNRANK_CHUNK_THRESHOLD
    while index:
        if big:
            step = _unrank_chunk(remaining, out, index, size, left)
            if step:
                index, size, left = step
                big = size > _UNRANK_CHUNK_THRESHOLD
                continue
            # a wrong pick or x rounded up to 1: one exact step, then a chunk
        # The words starting with remaining[q] hold the ranks from
        # size * below / left on, a range that covers size * q / left up
        # to size * (q + 1) / left and so covers index.
        q = index * left // size
        sym = remaining[q]
        out.append(sym)
        if q and remaining[q - 1] == sym or q + 1 < left and remaining[q + 1] == sym:
            below = bisect_left(remaining, sym, 0, q)
            if below:
                index -= size * below // left
            size = size * (bisect_right(remaining, sym, q) - below) // left
        else:  # a run of its own, as in _unrank_chunk
            below = q
            if q:
                index -= size * q // left
            size //= left
        del remaining[below]
        left -= 1
    out += remaining  # rank 0 among the letters left: their sorted order
    return out
