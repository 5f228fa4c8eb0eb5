"""Independent brute-force oracles used to freeze expected test values.

Everything here deliberately avoids the package's own ranking/band-coding
paths: classes are enumerated with itertools, band indices are computed
straight from the offset formula, and inversions scan all candidates.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product


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
