import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permsteg import bits_from_int, bits_to_bytes, bytes_to_bits, int_from_bits


def test_bytes_to_bits_msb_first():
    assert bytes_to_bits(b"\x80") == [1, 0, 0, 0, 0, 0, 0, 0]
    assert bytes_to_bits(b"\x01") == [0, 0, 0, 0, 0, 0, 0, 1]
    assert bytes_to_bits(b"") == []


def test_bits_to_bytes_pads_tail_with_zeros():
    assert bits_to_bytes([1]) == b"\x80"
    assert bits_to_bytes([1, 0, 1]) == b"\xa0"
    assert bits_to_bytes([]) == b""


@pytest.mark.parametrize("bad", [2, -1, 3, 255, 256, 1.0, 0.5, "1", b"\x01", None, [1]])
def test_packing_rejects_non_bits(bad):
    # non-ints too: packing raises ValueError, never TypeError
    with pytest.raises(ValueError, match="bit must be 0 or 1"):
        bits_to_bytes([1, 0, bad, 1])
    with pytest.raises(ValueError, match="bit must be 0 or 1"):
        int_from_bits([1, 0, bad, 1])


def test_packing_accepts_bools():
    assert bits_to_bytes([True, False]) == b"\x80"
    assert int_from_bits([True, False, True]) == 5


def test_packing_long_runs():
    assert bits_to_bytes([1, 0, 1, 1, 0, 0, 1, 0] * 1000 + [1]) == b"\xb2" * 1000 + b"\x80"
    assert int_from_bits([0] * 500 + [1] * 3) == 7
    assert int_from_bits(iter([1, 1, 0])) == 6
    with pytest.raises(ValueError, match="bit must be 0 or 1"):
        int_from_bits(iter([1, 2, 0]))  # consumed before the bad item is looked for
    with pytest.raises(ValueError, match="got 2"):
        bits_to_bytes([0] * 1000 + [2])


def _shifted(value, width):
    """The definition: bit i of the result is bit width-1-i of value."""
    return [(value >> shift) & 1 for shift in range(width - 1, -1, -1)]


@pytest.mark.parametrize("width", [0, 1, 63, 64, 65, 1500])
def test_bits_from_int_matches_shift_definition(width):
    rng = random.Random(width)
    values = [0, 1, (1 << width) - 1, 1 << max(0, width - 1), rng.getrandbits(width)]
    values += [rng.getrandbits(max(0, width - 9)), rng.getrandbits(width + 20), 1 << width, -5]
    for value in values:
        bits = bits_from_int(value, width)
        assert bits == _shifted(value, width), (value, width)
        assert len(bits) == width


def test_int_round_trip_examples():
    assert int_from_bits([1, 0, 0]) == 4
    assert bits_from_int(4, 3) == [1, 0, 0]
    assert bits_from_int(0, 0) == []


@given(st.binary(max_size=64))
def test_bytes_round_trip(data):
    assert bits_to_bytes(bytes_to_bits(data)) == data


@given(st.integers(min_value=0, max_value=2**80 - 1), st.integers(min_value=80, max_value=96))
def test_int_round_trip(value, width):
    assert int_from_bits(bits_from_int(value, width)) == value
