"""Independent brute-force oracles used to freeze expected test values.

Everything here deliberately avoids the package's own ranking/band-coding
paths: classes are enumerated with itertools, band indices are computed
straight from the offset formula, and inversions scan all candidates.
``positional_rank``/``positional_unrank`` are the earlier rank/unrank,
which scan every smaller available symbol at each position; they are the
reference for the bisect-based ones on classes too large to enumerate.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import permutations, product
from typing import Sequence

from permsteg import IndexOutOfRange


def enumerate_class(block) -> list[tuple]:
    """All distinct rearrangements of ``block`` in lexicographic order."""
    return sorted(set(permutations(block)))


def brute_rank(block) -> int:
    """Rank by scanning the enumerated class."""
    return enumerate_class(block).index(tuple(block))


def brute_class_size(block) -> int:
    return len(enumerate_class(block))


def set_bits(value: int) -> list[int]:
    """Positions of the set bits of ``value``, ascending."""
    return [i for i in range(value.bit_length()) if (value >> i) & 1]


def band_index(value: int, d: int, r: int) -> int:
    """The offset formula: sum of 2**l over set bits l > d, plus r."""
    return sum(1 << l for l in set_bits(value) if l > d) + r


def brute_decode(value: int, tau: int) -> tuple[int, int]:
    """Invert the band code by scanning every admissible (d, r) pair."""
    matches = [
        (d, r)
        for d in set_bits(value)
        for r in range(1 << d)
        if band_index(value, d, r) == tau
    ]
    assert len(matches) == 1, f"band code not bijective at {value}, {tau}: {matches}"
    return matches[0]


def brute_decode_table(value: int) -> list[tuple[int, int]]:
    """brute_decode(value, tau) for every tau in [0, value), in one scan."""
    table: list = [None] * value
    for d in set_bits(value):
        for r in range(1 << d):
            tau = band_index(value, d, r)
            assert table[tau] is None, f"band code not bijective at {value}, {tau}"
            table[tau] = (d, r)
    assert None not in table, f"band code not onto [0, {value})"
    return table


def product_law(tokens, probs, n) -> dict[tuple, Fraction]:
    """The i.i.d. block law, enumerated directly."""
    out = {}
    for combo in product(range(len(tokens)), repeat=n):
        p = Fraction(1)
        for i in combo:
            p *= Fraction(probs[i])
        out[tuple(tokens[i] for i in combo)] = p
    return out


def multinomial(counts) -> int:
    total = 0
    result = 1
    for cnt in counts:
        total += cnt
        result *= math.comb(total, cnt)
    return result


def positional_rank(indices: Sequence[int], size: int | None = None) -> int:
    """Rank of an index block within its class, lexicographic order.

    ``size`` may pass a precomputed class size to skip recomputing it.
    """
    counter = Counter(indices)
    symbols = sorted(counter)
    counts = [counter[s] for s in symbols]
    if size is None:
        size = multinomial(counts)
    rank_value = 0
    left = len(indices)
    for sym in indices:
        # Arrangements of the remaining suffix starting with symbol t number
        # size * count(t) / left; the divisions are exact.
        j = 0
        while True:
            t = symbols[j]
            if t == sym:
                break
            rank_value += size * counts[j] // left
            j += 1
        cnt = counts[j]
        size = size * cnt // left
        left -= 1
        if cnt == 1:
            del symbols[j]
            del counts[j]
        else:
            counts[j] = cnt - 1
    return rank_value


def positional_unrank(ordered: Sequence[int], index: int, size: int | None = None) -> list[int]:
    """Index block with the given rank within the class of the sorted word ``ordered``."""
    counter = Counter(ordered)
    symbols = sorted(counter)
    counts = [counter[s] for s in symbols]
    if size is None:
        size = multinomial(counts)
    if not (0 <= index < size):
        raise IndexOutOfRange(f"rank {index} outside [0, {size})")
    out: list[int] = []
    left = len(ordered)
    for _ in range(len(ordered)):
        j = 0
        while True:
            starting_here = size * counts[j] // left
            if index < starting_here:
                break
            index -= starting_here
            j += 1
        out.append(symbols[j])
        size = starting_here
        cnt = counts[j]
        left -= 1
        if cnt == 1:
            del symbols[j]
            del counts[j]
        else:
            counts[j] = cnt - 1
    return out
