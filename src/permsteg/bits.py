"""Bit/byte plumbing. All packing is MSB-first within each byte.

Packing rejects any bit value other than 0 or 1 with ValueError rather than
masking it, as the codec's payload feed does.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def _bad_bit(bit) -> ValueError:
    return ValueError(f"bit must be 0 or 1, got {bit!r}")


def bytes_to_bits(data: bytes) -> list[int]:
    """Unpack bytes into a list of 0/1 ints, MSB first."""
    out: list[int] = []
    for byte in data:
        for shift in range(7, -1, -1):
            out.append((byte >> shift) & 1)
    return out


def bits_to_bytes(bits: Sequence[int]) -> bytes:
    """Pack bits MSB-first; the final partial byte is zero-padded."""
    out = bytearray()
    acc = 0
    filled = 0
    for bit in bits:
        if bit not in (0, 1):
            raise _bad_bit(bit)
        acc = (acc << 1) | bit
        filled += 1
        if filled == 8:
            out.append(acc)
            acc = 0
            filled = 0
    if filled:
        out.append(acc << (8 - filled))
    return bytes(out)


def int_from_bits(bits: Iterable[int]) -> int:
    """MSB-first bits as an unsigned integer."""
    value = 0
    for bit in bits:
        if bit not in (0, 1):
            raise _bad_bit(bit)
        value = (value << 1) | bit
    return value


def bits_from_int(value: int, width: int) -> list[int]:
    """Lowest ``width`` bits of ``value``, MSB first."""
    return [(value >> shift) & 1 for shift in range(width - 1, -1, -1)]
