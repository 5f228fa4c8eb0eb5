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
randomness. Every function here takes N itself and raises NonPositive
unless N is an int >= 1.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from .errors import IndexOutOfRange, InvalidDelta, NonPositive, PayloadOutOfRange

if TYPE_CHECKING:
    from fractions import Fraction


def _positive(value: int) -> int:
    """``value`` itself, once checked to be an int >= 1 (bools are not)."""
    if type(value) is int and value >= 1:  # bools and other subclasses take the full check
        return value
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise NonPositive(f"expected a positive integer, got {value!r}")
    return value


def expand(value: int) -> tuple[int, ...]:
    """Set bit positions of ``value`` >= 1, in descending order (band order)."""
    m = _positive(value).bit_length() - 1
    return tuple(m - j for j, digit in enumerate(bin(value)[2:]) if digit == "1")


def sample_delta(value: int, rng: random.Random) -> int:
    """Draw a payload length with band probabilities 2**i / N for N = ``value``.

    A power-of-two class has a single band, so the draw is forced and the
    generator is not consumed.
    """
    width = _positive(value).bit_length()
    if value & (value - 1) == 0:
        return width - 1
    # A uniform u on [0, N) by rejection from width-bit draws: the loop of
    # rng.randrange(N), so it consumes the generator exactly as that call
    # would, without its argument handling. The band holding u is d.
    u = rng.getrandbits(width)
    while u >= value:
        u = rng.getrandbits(width)
    return (value ^ u).bit_length() - 1


def encode_index(value: int, d: int, r: int) -> int:
    """Class index for payload value ``r`` carried in a band of width 2**d."""
    if not (_positive(value).bit_length() > d >= 0 and value >> d & 1):
        raise InvalidDelta(f"payload length {d} is not a set bit of {value}")
    if not (0 <= r < (1 << d)):
        raise PayloadOutOfRange(f"payload value {r} does not fit in {d} bits")
    return ((value >> (d + 1)) << (d + 1)) | r


def decode_index(value: int, tau: int) -> tuple[int, int]:
    """Invert encode_index: the unique (d, r) whose band contains ``tau``."""
    if not (_positive(value) > tau >= 0):
        raise IndexOutOfRange(f"class index {tau} outside [0, {value})")
    d = (value ^ tau).bit_length() - 1
    return d, tau & ((1 << d) - 1)


def expected_payload_bits(value: int) -> Fraction:
    """Mean payload length under the band distribution: sum(l * 2**l) / N."""
    from fractions import Fraction  # its only user; the codec path does not load it

    return Fraction(sum(level << level for level in expand(value)), value)
