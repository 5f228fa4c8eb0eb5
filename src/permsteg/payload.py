"""Randomized payload-length coding over a class of N equiprobable words.

A block whose class has N members can carry a whole number of payload bits
only when N is a power of two. The general case splits the class along the
binary expansion of N: one band of 2**d words per set bit d, laid out from
the highest set bit downward. The encoder draws the payload length d among
the set bits with probability 2**d / N, reads d payload bits MSB-first as a
value r in [0, 2**d), and emits the class index

    tau = offset(d) + r,    offset(d) = N with bits 0..d cleared.

Conversely, the band holding an index tau < N is the highest bit where tau
and N differ: above it the two agree (tau starts at offset(d)), and at it N
has a 1 while tau has a 0 (tau stays below offset(d) + 2**d). Both
directions are therefore bit arithmetic on N alone; no per-class table is
needed, whatever the size of N.

The map (d, r) -> tau is a bijection onto [0, N), and with d drawn as above
and r uniform, tau is exactly uniform on [0, N): the emitted word is
distributed exactly like the covertext block it replaces. Drawing d is the
same as drawing u uniform on [0, N) and taking the band that holds u. The
decoder recovers (d, r) from tau alone; no shared randomness is needed.

A power of two has a single band, so its draw is forced and consumes no
randomness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import IndexOutOfRange, InvalidDelta, NonPositive, PayloadOutOfRange


@dataclass(frozen=True, slots=True)
class BinaryExpansion:
    """A positive class size N, read through its base-2 digits."""

    value: int

    @property
    def m(self) -> int:
        """Position of the leading bit: floor(log2(value))."""
        return self.value.bit_length() - 1

    @property
    def levels(self) -> tuple[int, ...]:
        """Set bit positions of ``value``, in descending order (band order)."""
        m = self.m
        return tuple(m - j for j, digit in enumerate(bin(self.value)[2:]) if digit == "1")


def expand(value: int) -> BinaryExpansion:
    """Binary expansion of ``value`` >= 1."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise NonPositive(f"expected a positive integer, got {value!r}")
    if value < 1:
        raise NonPositive(f"expected a positive integer, got {value}")
    return BinaryExpansion(value)


def _is_band(value: int, d: int) -> bool:
    return 0 <= d < value.bit_length() and (value >> d) & 1 == 1


def sample_delta(exp: BinaryExpansion, rng: random.Random, forced: int | None = None) -> int:
    """Draw a payload length with band probabilities 2**i / N.

    A power-of-two class has a single band, so the draw is forced and the
    generator is not consumed. ``forced`` overrides the draw with a fixed,
    admissible length (test hook; InvalidDelta if the band does not exist).
    """
    value = exp.value
    if forced is not None:
        if not _is_band(value, forced):
            raise InvalidDelta(f"forced payload length {forced} is not a set bit of {value}")
        return forced
    if value & (value - 1) == 0:
        return value.bit_length() - 1
    # randrange is exactly uniform on [0, N); the band holding it is d.
    return (value ^ rng.randrange(value)).bit_length() - 1


def encode_index(exp: BinaryExpansion, d: int, r: int) -> int:
    """Class index for payload value ``r`` carried in a band of width 2**d."""
    value = exp.value
    if not _is_band(value, d):
        raise InvalidDelta(f"payload length {d} is not a set bit of {value}")
    if not (0 <= r < (1 << d)):
        raise PayloadOutOfRange(f"payload value {r} does not fit in {d} bits")
    return ((value >> (d + 1)) << (d + 1)) | r


def decode_index(exp: BinaryExpansion, tau: int) -> tuple[int, int]:
    """Invert encode_index: the unique (d, r) whose band contains ``tau``."""
    value = exp.value
    if not (0 <= tau < value):
        raise IndexOutOfRange(f"class index {tau} outside [0, {value})")
    d = (value ^ tau).bit_length() - 1
    return d, tau & ((1 << d) - 1)


def expected_payload_bits(exp: BinaryExpansion) -> Fraction:
    """Mean payload length under the band distribution: sum(l * 2**l) / N."""
    return Fraction(sum(level << level for level in exp.levels), exp.value)
