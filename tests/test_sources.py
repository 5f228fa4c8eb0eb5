import math
import random
from fractions import Fraction

import pytest

from permsteg import (
    Alphabet,
    InvalidModel,
    SourceModel,
    draw_cover,
    draw_hidden_bits,
    hidden_bit_stream,
    load_model,
    save_model,
    symbol_alphabet,
    two_point_model,
    uniform_model,
    zipf_model,
)

AB = Alphabet(["a", "b"])


class TestSourceModel:
    def test_rational_model_must_sum_to_one(self):
        with pytest.raises(InvalidModel):
            SourceModel(AB, (Fraction(1, 2), Fraction(1, 3)))

    def test_float_model_tolerance(self):
        SourceModel(AB, (0.7, 0.3))  # fine
        with pytest.raises(InvalidModel):
            SourceModel(AB, (0.7, 0.300001))

    def test_positivity(self):
        with pytest.raises(InvalidModel):
            SourceModel(AB, (Fraction(1), Fraction(0)))
        with pytest.raises(InvalidModel):
            SourceModel(AB, (1.2, -0.2))

    def test_single_symbol_alphabet_rejected(self):
        with pytest.raises(InvalidModel):
            SourceModel(Alphabet(["a"]), (Fraction(1),))

    def test_length_mismatch(self):
        with pytest.raises(InvalidModel):
            SourceModel(AB, (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))

    def test_is_rational(self):
        assert SourceModel(AB, (Fraction(1, 2), Fraction(1, 2))).is_rational
        assert not SourceModel(AB, (0.5, 0.5)).is_rational


class TestPresets:
    def test_uniform(self):
        model = uniform_model(8)
        assert all(p == Fraction(1, 8) for p in model.probs)

    def test_two_point_needs_two_symbols(self):
        with pytest.raises(InvalidModel):
            two_point_model(Fraction(1, 2), Alphabet(["x", "y", "z"]))

    def test_zipf_weights_decrease(self):
        model = zipf_model(5, 1)
        assert model.is_rational
        assert list(model.probs) == sorted(model.probs, reverse=True)
        assert sum(model.probs) == 1
        fl = zipf_model(5, 1.5)
        assert not fl.is_rational
        assert abs(sum(fl.probs) - 1) < 1e-12


class TestModelFiles:
    def test_round_trip_exact(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("b 0.3\na 0.7\n", encoding="utf-8")
        model = load_model(path)
        assert model.alphabet.symbols == ("a", "b")
        assert model.probs == (Fraction(7, 10), Fraction(3, 10))
        out = tmp_path / "copy.txt"
        save_model(model, out)
        assert load_model(out) == model

    def test_bad_lines(self, tmp_path):
        for text in ("a 0.5\nb\n", "a 0.5\nb zero.five\n", "a 0.5\na 0.5\n",
                     "a 0.6\nb 0.3\n"):
            path = tmp_path / "model.txt"
            path.write_text(text, encoding="utf-8")
            with pytest.raises(InvalidModel):
                load_model(path)


class TestDrawing:
    def test_zero_count(self):
        model = uniform_model(2)
        assert draw_cover(model, 0, random.Random(0)) == []
        assert draw_hidden_bits(0, random.Random(0)) == []

    def test_negative_count_rejected(self):
        model = uniform_model(2)
        with pytest.raises(ValueError):
            draw_cover(model, -1, random.Random(0))
        with pytest.raises(ValueError):
            draw_hidden_bits(-1, random.Random(0))

    def test_determinism(self):
        model = uniform_model(4)
        a = draw_cover(model, 5000, random.Random(31))
        b = draw_cover(model, 5000, random.Random(31))
        assert a == b
        assert draw_hidden_bits(999, random.Random(5)) == draw_hidden_bits(
            999, random.Random(5)
        )

    def test_uniform_frequency_within_3_sigma(self):
        draws = 1_000_000
        model = uniform_model(Alphabet(["a", "b"]))
        cover = draw_cover(model, draws, random.Random(404))
        freq = cover.count("a") / draws
        sigma = math.sqrt(0.25 / draws)
        assert abs(freq - 0.5) < 3 * sigma

    def test_biased_frequency_within_3_sigma(self):
        draws = 1_000_000
        model = two_point_model(Fraction(7, 10))
        cover = draw_cover(model, draws, random.Random(911))
        freq = cover.count("a") / draws
        sigma = math.sqrt(0.7 * 0.3 / draws)
        assert abs(freq - 0.7) < 3 * sigma

    def test_all_symbols_reachable(self):
        model = zipf_model(6, 2)
        cover = draw_cover(model, 30_000, random.Random(8))
        assert set(cover) == set(model.alphabet.symbols)

    @pytest.mark.parametrize("count", [1, 7, 8, 9, 1000])
    def test_hidden_bits_are_getrandbits_msb_first(self, count):
        for seed in (0, 5, 77):
            value = random.Random(seed).getrandbits(count)
            expected = [int(digit) for digit in format(value, f"0{count}b")]
            assert draw_hidden_bits(count, random.Random(seed)) == expected

    def test_hidden_bits_fair(self):
        draws = 1_000_000
        bits = draw_hidden_bits(draws, random.Random(77))
        sigma = math.sqrt(0.25 / draws)
        assert abs(sum(bits) / draws - 0.5) < 3 * sigma

    def test_hidden_bit_stream_endless_and_seeded(self):
        gen1 = hidden_bit_stream(random.Random(3))
        gen2 = hidden_bit_stream(random.Random(3))
        assert [next(gen1) for _ in range(64)] == [next(gen2) for _ in range(64)]

    def test_symbol_alphabet_sizes(self):
        assert len(symbol_alphabet(1024)) == 1024
