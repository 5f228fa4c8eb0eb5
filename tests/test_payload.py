import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permsteg import (
    IndexOutOfRange,
    InvalidDelta,
    NonPositive,
    PayloadOutOfRange,
    decode_index,
    encode_index,
    expand,
    expected_payload_bits,
    sample_delta,
)

from oracles import band_index, brute_decode, brute_decode_table, set_bits


class TestExpand:
    def test_worked_value_six(self):
        assert expand(6) == (2, 1)  # alpha_0=0, alpha_1=1, alpha_2=1

    def test_singleton(self):
        assert expand(1) == (0,)

    def test_power_of_two(self):
        assert expand(4) == (2,)

    def test_non_positive_rejected(self):
        # every band function takes N itself and checks it as expand does
        calls = (
            expand,
            lambda bad: sample_delta(bad, random.Random(0)),
            lambda bad: encode_index(bad, -1, 0),  # N is checked before d and tau
            lambda bad: decode_index(bad, -1),
            expected_payload_bits,
        )
        for call in calls:
            for bad in (0, -1, -3, 2.5, True, False, "6", None):
                with pytest.raises(NonPositive):
                    call(bad)

    @given(st.integers(min_value=1, max_value=10**30))
    def test_digits_reconstruct_value(self, value):
        levels = expand(value)
        assert levels[0] == value.bit_length() - 1
        assert sum(1 << i for i in levels) == value
        assert list(levels) == sorted(set_bits(value), reverse=True)


class _Counter:
    """Stands in for a generator: getrandbits(k) returns 0, 1, 2, ... in turn.

    sample_delta draws u uniform on [0, N) from getrandbits(N.bit_length()),
    rejecting u >= N; the tests below make N draws, so none is rejected.
    """

    def __init__(self):
        self.draws = 0

    def getrandbits(self, width):
        assert self.draws < 1 << width
        self.draws += 1
        return self.draws - 1


def sampled_law(value):
    """Exact law of sample_delta: drive it once with each u in [0, N)."""
    rng = _Counter()
    counts = Counter(sample_delta(value, rng) for _ in range(value))
    return {d: Fraction(c, value) for d, c in counts.items()}


class TestDeltaProbabilities:
    def test_worked_value_six(self):
        assert sampled_law(6) == {2: Fraction(4, 6), 1: Fraction(2, 6)}

    def test_singleton_forces_zero(self):
        assert sampled_law(1) == {0: Fraction(1)}

    def test_power_of_two_forces_top(self):
        assert sampled_law(4) == {2: Fraction(1)}

    def test_every_draw_lands_in_its_band(self):
        # One draw u per class that is not a power of two, and the length
        # returned is the band holding u, so exactly 2**d of the N draws give
        # d: the law is 2**d / N over the set bits of N.
        for value in range(1, 513):
            rng = _Counter()
            for u, (d, _) in enumerate(brute_decode_table(value)):
                assert sample_delta(value, rng) == d, (value, u)
            single_band = value & (value - 1) == 0
            assert rng.draws == (0 if single_band else value)

    def test_table_oracle_matches_brute_decode(self):
        for value in range(1, 65):
            assert brute_decode_table(value) == [brute_decode(value, u) for u in range(value)]


class TestSampleDelta:
    def test_degenerate_consumes_no_randomness(self):
        for value in (1, 4, 1024):
            rng = random.Random(7)
            before = rng.getstate()
            d = sample_delta(value, rng)
            assert d == value.bit_length() - 1
            assert rng.getstate() == before

    def test_distribution_of_six(self):
        rng = random.Random(123)
        draws = 600_000
        hits = sum(1 for _ in range(draws) if sample_delta(6, rng) == 2)
        p = Fraction(2, 3)
        sigma = math.sqrt(float(p * (1 - p)) / draws)
        assert abs(hits / draws - float(p)) < 3 * sigma

    def test_deterministic_given_seed(self):
        seq1 = [sample_delta(907, random.Random(42)) for _ in range(1)]
        seq2 = [sample_delta(907, random.Random(42)) for _ in range(1)]
        rng1, rng2 = random.Random(5), random.Random(5)
        assert [sample_delta(907, rng1) for _ in range(200)] == [
            sample_delta(907, rng2) for _ in range(200)
        ]
        assert seq1 == seq2

    def test_only_set_bits_drawn(self):
        rng = random.Random(11)
        allowed = set(expand(0b101001))
        assert all(sample_delta(0b101001, rng) in allowed for _ in range(500))

    def test_same_stream_as_randrange(self):
        # The draw must consume a seeded generator exactly as randrange(N)
        # does, or every stego output for a fixed seed changes.
        sizes = list(range(1, 4097)) + [3**k for k in range(2, 379)]  # 3**378 ~ 2**599
        for seed in range(20):
            rng, reference = random.Random(seed), random.Random(seed)
            for value in sizes:
                if value & (value - 1):
                    expected = (value ^ reference.randrange(value)).bit_length() - 1
                else:
                    expected = value.bit_length() - 1  # a single band: no draw
                assert sample_delta(value, rng) == expected, (seed, value)
            assert rng.getstate() == reference.getstate(), seed


class TestBandCode:
    def test_worked_encode(self):
        assert encode_index(6, 1, 0) == 4

    def test_top_band_starts_at_zero(self):
        assert encode_index(6, 2, 0) == 0
        assert encode_index(6, 2, 3) == 3

    def test_encode_errors(self):
        with pytest.raises(InvalidDelta):
            encode_index(6, 0, 0)
        with pytest.raises(InvalidDelta):
            encode_index(6, 3, 0)
        with pytest.raises(PayloadOutOfRange):
            encode_index(6, 1, 2)
        with pytest.raises(PayloadOutOfRange):
            encode_index(6, 1, -1)

    def test_worked_decode(self):
        assert decode_index(6, 4) == (1, 0)

    def test_decode_matches_brute_force(self):
        assert brute_decode(6, 3) == (2, 3)
        assert decode_index(6, 3) == (2, 3)
        assert decode_index(1, 0) == (0, 0)

    def test_decode_errors(self):
        with pytest.raises(IndexOutOfRange):
            decode_index(6, 6)
        with pytest.raises(IndexOutOfRange):
            decode_index(6, -1)

    @given(st.integers(min_value=1, max_value=3000))
    @settings(max_examples=60)
    def test_bijection_small(self, value):
        seen = set()
        for d in expand(value):
            for r in range(1 << d):
                tau = encode_index(value, d, r)
                assert tau == band_index(value, d, r)
                assert 0 <= tau < value
                assert tau not in seen
                seen.add(tau)
                assert decode_index(value, tau) == (d, r)
        assert len(seen) == value

    @given(st.integers(min_value=1, max_value=10**40), st.randoms(use_true_random=False))
    def test_round_trip_large(self, value, rnd):
        tau = rnd.randrange(value)
        d, r = decode_index(value, tau)
        assert d in expand(value) and (value >> d) & 1 == 1 and 0 <= r < (1 << d)
        assert encode_index(value, d, r) == tau

    @given(st.integers(min_value=1, max_value=512))
    @settings(max_examples=40)
    def test_uniformity_transfer_exact(self, value):
        # band-probability draw + uniform payload => uniform class index
        mass = {}
        for d in expand(value):
            band_prob = Fraction(1 << d, value)
            payload_prob = Fraction(1, 1 << d)
            for r in range(1 << d):
                tau = encode_index(value, d, r)
                mass[tau] = mass.get(tau, Fraction(0)) + band_prob * payload_prob
        assert all(p == Fraction(1, value) for p in mass.values())
        assert sum(mass.values()) == 1


class TestExpectedPayloadBits:
    def test_worked_value(self):
        assert expected_payload_bits(6) == Fraction(10, 6)

    def test_singleton(self):
        assert expected_payload_bits(1) == 0

    def test_power_of_two(self):
        assert expected_payload_bits(4) == 2

    @given(st.integers(min_value=1, max_value=10**9))
    def test_lower_bound(self, value):
        # worst margin over N <= 1e6 is ~3.5e-5 at N = 2**19 - 1, far above
        # float log2 error, so the comparison is safe
        expected = expected_payload_bits(value)
        assert float(expected) >= math.log2(value) - 2
