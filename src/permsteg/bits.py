"""Bit/byte plumbing. All packing is MSB-first within each byte.

Packing rejects any item other than 0 or 1 (bools count as 0 and 1) with
ValueError rather than masking it, as the codec's payload feed does. Whole
runs of bits convert through base-2 digit strings, so the work runs in C:
``translate`` turns bit values into the digits of an ``int(..., 2)``
literal, and turns ``format``'s digits back into bit values.
"""

from __future__ import annotations

from itertools import chain
from operator import index
from typing import Iterable, Iterator, Sequence

_BYTE_BITS = tuple(tuple((byte >> shift) & 1 for shift in range(7, -1, -1)) for byte in range(256))
# bytes.translate tables: bit values 0 and 1 to the digits b"0" and b"1"
# (every other byte to a character int() rejects), and back.
BIT_DIGITS = b"01" + b"." * 254
DIGIT_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _bad_bit(bits: Iterable) -> ValueError:
    """The error naming the first item of ``bits`` other than 0 or 1."""
    for bit in bits:
        try:
            if index(bit) in (0, 1):
                continue
        except TypeError:
            pass
        return ValueError(f"bit must be 0 or 1, got {bit!r}")
    return ValueError("bit must be 0 or 1")  # a one-shot iterator, already consumed


def iter_bits(data: bytes) -> Iterator[int]:
    """The bits of ``data`` as 0/1 ints, MSB first, produced lazily."""
    return chain.from_iterable(map(_BYTE_BITS.__getitem__, data))


def bytes_to_bits(data: bytes) -> list[int]:
    """Unpack bytes into a list of 0/1 ints, MSB first."""
    return list(iter_bits(data))


def bits_to_bytes(bits: Sequence[int]) -> bytes:
    """Pack bits MSB-first; the final partial byte is zero-padded."""
    pad = -len(bits) % 8
    return (int_from_bits(bits) << pad).to_bytes((len(bits) + pad) // 8, "big")


def int_from_bits(bits: Iterable[int]) -> int:
    """MSB-first bits as an unsigned integer."""
    try:
        return int(bytearray(bits).translate(BIT_DIGITS) or b"0", 2)
    except (TypeError, ValueError):
        raise _bad_bit(bits) from None


def bits_from_int(value: int, width: int) -> list[int]:
    """Lowest ``width`` bits of ``value``, MSB first."""
    if width <= 0:
        return []
    return list(format(value & ((1 << width) - 1), f"0{width}b").encode().translate(DIGIT_BITS))
