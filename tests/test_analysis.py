import json
import math
import random
import time
from collections import Counter
from dataclasses import asdict
from fractions import Fraction
from itertools import product

import pytest
from scipy.stats import chi2

import permsteg.analysis
import permsteg.codec
from permsteg import (
    Alphabet,
    DegenerateCells,
    EmptyTrace,
    SourceModel,
    SpaceTooLarge,
    block_distribution,
    chi_square_gof,
    draw_cover,
    empirical_distribution_report,
    empirical_rate,
    exact_distribution_report,
    exact_output_distribution,
    expected_log_class_size,
    hidden_bit_stream,
    measure_stn_rate,
    min_entropy,
    model_digest,
    rate_lower_bound,
    shannon_entropy,
    st2_embed,
    st2_rate,
    stn_embed,
    two_point_model,
    uniform_model,
    zipf_model,
)
from permsteg.analysis import EXACT_SPACE_GUARD, _chi2_sf, _guard_space

from oracles import multinomial, product_law

AB = Alphabet(["a", "b"])
ABC = Alphabet(["a", "b", "c"])
M_73 = SourceModel(AB, (Fraction(7, 10), Fraction(3, 10)))
M_532 = SourceModel(ABC, (Fraction(5, 10), Fraction(3, 10), Fraction(2, 10)))


class TestBlockDistribution:
    def test_matches_enumerated_product_law(self):
        law = block_distribution(M_73, 2)
        oracle = product_law(AB.symbols, M_73.probs, 2)
        assert law == oracle
        assert law[("a", "b")] == Fraction(21, 100)
        assert sum(law.values()) == 1

    def test_each_word_gets_its_own_product(self):
        # one product per class, mapped to every word of the class: on four
        # unequal letters, a word given another class's product shows here
        abcd = Alphabet(["a", "b", "c", "d"])
        probs = (Fraction(1, 10), Fraction(2, 10), Fraction(3, 10), Fraction(4, 10))
        law = block_distribution(SourceModel(abcd, probs), 5)
        assert law == product_law(abcd.symbols, probs, 5)
        assert list(law) == list(product(abcd.symbols, repeat=5))

    def test_space_guard(self):
        with pytest.raises(SpaceTooLarge):
            block_distribution(M_73, 21)

    @pytest.mark.parametrize("k", [2, 3, 10])
    def test_space_guard_refuses_exactly_the_spaces_beyond_it(self, k):
        for n in range(1, 26):
            if k**n > EXACT_SPACE_GUARD:
                with pytest.raises(SpaceTooLarge, match=rf"^outcome space {k}\^{n} exceeds"):
                    _guard_space(k, n)
            else:
                _guard_space(k, n)

    def test_space_guard_refuses_a_long_block_before_its_power(self):
        # 3**(10**8) takes minutes to build; the guard answers from n alone
        start = time.perf_counter()
        with pytest.raises(SpaceTooLarge, match=r"^outcome space 3\^100000000 exceeds"):
            _guard_space(3, 10**8)
        assert time.perf_counter() - start < 0.5


class TestExactOutputDistribution:
    def test_exact_equality_rational_two_symbols(self):
        out = exact_output_distribution(M_73, 2)
        ref = block_distribution(M_73, 2)
        assert set(out) == set(ref)
        assert all(out[b] == ref[b] for b in ref)  # exact, not approximate

    def test_exact_equality_rational_three_symbols(self):
        out = exact_output_distribution(M_532, 3)
        ref = block_distribution(M_532, 3)
        assert all(out[b] == ref[b] for b in ref)
        assert sum(out.values()) == 1

    def test_double_mode_within_tolerance(self):
        model = SourceModel(ABC, (0.5, 0.3, 0.2))
        out = exact_output_distribution(model, 3)
        ref = block_distribution(model, 3)
        assert max(abs(out[b] - ref[b]) for b in ref) < 1e-12

    def test_space_guard(self):
        with pytest.raises(SpaceTooLarge):
            exact_output_distribution(M_73, 25)

    def test_runs_the_shipped_embed(self, monkeypatch):
        # an embed that emits every block as its sorted word parts from the
        # product law, so the oracle must see it
        monkeypatch.setattr(permsteg.codec, "unrank_indices", lambda key, tau, size: key)
        assert exact_distribution_report(M_532, 3).max_abs_deviation > 0

    def test_report_fields(self):
        report = exact_distribution_report(M_73, 2)
        assert report.mode == "exact"
        assert report.arithmetic == "rational"
        assert report.max_abs_deviation == 0.0
        assert abs(report.probability_total - 1.0) < 1e-12
        assert report.model_digest == model_digest(M_73)


class TestChiSquare:
    def test_exact_proportions_give_zero_statistic(self):
        expected = {k: Fraction(1, 4) for k in "wxyz"}
        observed = {k: 25 for k in "wxyz"}
        stat, p = chi_square_gof(observed, expected)
        assert stat == 0.0
        assert p == 1.0

    def test_pooling_small_cells(self):
        expected = {"a": 0.49, "b": 0.49, "c": 0.01, "d": 0.01}
        observed = {"a": 50, "b": 46, "c": 2, "d": 2}
        stat, p = chi_square_gof(observed, expected)  # c and d pool into one cell
        assert stat > 0.0
        assert 0.0 < p <= 1.0

    def test_p_value_is_scipy_chi2_tail(self):
        # 64 draws: a, b expect 24 each; c..f expect 4 each and pool into
        # one cell expecting 16 (observed 17), so 3 cells and 2 degrees of freedom.
        expected = {"a": Fraction(3, 8), "b": Fraction(3, 8)}
        expected.update({k: Fraction(1, 16) for k in "cdef"})
        observed = {"a": 20, "b": 27, "c": 3, "d": 6, "e": 5, "f": 3}
        stat, p = chi_square_gof(observed, expected)
        assert stat == pytest.approx(16 / 24 + 9 / 24 + 1 / 16, rel=1e-12)
        assert p == float(chi2.sf(stat, 2))

    @staticmethod
    def _worst_relative_error(xs, dfs):
        """Largest relative error of _chi2_sf against scipy where scipy's tail is > 1e-300."""
        references = chi2.sf(xs, dfs)
        compared = [
            abs(_chi2_sf(x, df) - float(ref)) / float(ref)
            for x, df, ref in zip(xs, dfs, references)
            if ref > 1e-300
        ]
        assert len(compared) > len(xs) // 2
        return max(compared)

    def test_tail_matches_scipy_on_small_df_grid(self):
        # every df from 1 to 60, both parities, x from 0.05 to 200
        points = [(0.05 * i, df) for df in range(1, 61) for i in range(1, 4001, 7)]
        xs, dfs = zip(*points)
        assert self._worst_relative_error(xs, dfs) < 1e-10

    def test_tail_matches_scipy_at_random_large_df(self):
        rng = random.Random(17)
        dfs = [rng.randint(1, 5000) for _ in range(400)]
        xs = [rng.uniform(0, 3 * df + 50) for df in dfs]
        assert self._worst_relative_error(xs, dfs) < 1e-10

    def test_tail_is_one_at_and_below_zero(self):
        for df in (1, 2, 3, 60, 5000):
            assert _chi2_sf(0.0, df) == 1.0
            assert _chi2_sf(-2.5, df) == 1.0

    def test_degenerate_cells(self):
        with pytest.raises(DegenerateCells):
            chi_square_gof({"a": 2, "b": 1}, {"a": 0.5, "b": 0.5})

    def test_unexpected_outcome_rejected(self):
        with pytest.raises(ValueError):
            chi_square_gof({"zzz": 10, "a": 90}, {"a": 1.0})

    def test_detects_wrong_distribution(self):
        rng = random.Random(0)
        observed = Counter(rng.random() < 0.6 for _ in range(10_000))
        stat, p = chi_square_gof(
            {True: observed[True], False: observed[False]},
            {True: 0.5, False: 0.5},
        )
        assert p < 1e-3

    def test_accepts_correct_distribution(self):
        rng = random.Random(1)
        observed = Counter(rng.random() < 0.5 for _ in range(10_000))
        _, p = chi_square_gof(
            {True: observed[True], False: observed[False]},
            {True: 0.5, False: 0.5},
        )
        assert p > 1e-3


class TestEntropies:
    def test_uniform_two(self):
        model = uniform_model(2)
        assert shannon_entropy(model) == 1.0
        assert min_entropy(model) == 1.0

    def test_biased(self):
        # frozen from direct evaluation of the formulas
        assert abs(shannon_entropy(M_73) - 0.8812908992306927) < 1e-15
        assert abs(min_entropy(M_73) - 0.5145731728297583) < 1e-15

    def test_uniform_power_of_two(self):
        model = uniform_model(16)
        assert shannon_entropy(model) == pytest.approx(4.0, abs=1e-12)
        assert min_entropy(model) == pytest.approx(4.0, abs=1e-12)


class TestPairRateFormula:
    def test_fair_two_symbols(self):
        assert st2_rate(uniform_model(2)) == Fraction(1, 4)

    def test_degenerate_source_hides_nothing(self):
        rate = st2_rate(two_point_model(Fraction(999, 1000)))
        assert 0 < rate < Fraction(1, 500)

    def test_uniform_k(self):
        for k in (2, 4, 16):
            assert st2_rate(uniform_model(k)) == Fraction(1, 2) * (1 - Fraction(1, k))


class TestRateLowerBound:
    def test_exact_small_case(self):
        assert rate_lower_bound(uniform_model(2), 2) == pytest.approx(-0.75, abs=1e-12)

    def test_may_be_negative_for_small_blocks(self):
        assert rate_lower_bound(M_73, 2) < 0

    @pytest.mark.parametrize("model", [M_73, zipf_model(4, 1.3)], ids=["rational", "float"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_expected_log_class_size_matches_sum_over_words(self, model, n):
        # the binomial closed form agrees with a sum over every word to
        # rounding, and the bound is built from it
        probs = [float(p) for p in model.probs]
        brute = sum(
            math.prod(probs[i] for i in word) * math.log2(multinomial(Counter(word).values()))
            for word in product(range(len(probs)), repeat=n)
        )
        assert expected_log_class_size(model, n) == pytest.approx(brute, rel=1e-12)
        assert rate_lower_bound(model, n) == pytest.approx((brute - 2) / n, rel=1e-12)

    def test_uniform_256_blocks_of_3_match_their_exact_law(self):
        # three letters are all distinct (class size 6), hold one pair (3),
        # or are all alike (1, log 0), with exact rational probabilities
        all_distinct = Fraction(255 * 254, 256**2)
        one_pair = Fraction(3 * 255, 256**2)
        exact = float(all_distinct) * math.log2(6) + float(one_pair) * math.log2(3)
        assert expected_log_class_size(uniform_model(256), 3) == pytest.approx(exact, rel=1e-14)

    def test_class_sizes_beyond_float_range(self):
        # a block of 2048 letters has classes far above 1.8e308, which once
        # overflowed when the size was turned into a float
        model = two_point_model(Fraction(7, 10))
        bound = rate_lower_bound(model, 2048)
        assert math.isfinite(bound)
        assert 0 < bound < shannon_entropy(model)

    @pytest.mark.parametrize("seed", [0, 200_000])
    @pytest.mark.parametrize("n", [0, -1, -5])
    def test_block_length_below_one_rejected(self, n, seed):
        # n = -1 used to return a bound above log2 k, n = 0 to divide by zero;
        # the check holds whatever the model, so it runs on a seeded random one
        rng = random.Random(seed)
        weights = [rng.randint(1, 100) for _ in range(3)]
        model = SourceModel(ABC, tuple(Fraction(w, sum(weights)) for w in weights))
        for bound_of in (rate_lower_bound, expected_log_class_size):
            with pytest.raises(ValueError, match=r"^block length must be >= 1$"):
                bound_of(model, n)


class TestEmpiricalRate:
    def test_all_same_letter_blocks_rate_zero(self):
        result = stn_embed(["a"] * 8, [1, 0], 2, AB, random.Random(0), random.Random(1))
        report = empirical_rate(result, uniform_model(2), 2)
        assert report.empirical_rate == 0.0
        assert report.blocks_measured == 4

    def test_empty_trace_rejected(self):
        result = stn_embed([], [], 2, AB, random.Random(0), random.Random(1))
        with pytest.raises(EmptyTrace):
            empirical_rate(result, uniform_model(2), 2)

    def test_pair_scheme_rate_matches_formula(self):
        symbols = 100_000
        model = two_point_model(Fraction(1, 2))
        cover = draw_cover(model, symbols, random.Random(21))
        result = st2_embed(cover, hidden_bit_stream(random.Random(22)), AB, random.Random(23))
        report = empirical_rate(result, model, 2)
        sigma = math.sqrt(0.25 * (symbols / 2)) / symbols
        assert abs(report.empirical_rate - 0.25) < 3 * sigma
        assert result.padding_bits == 0
        assert shannon_entropy(model) == pytest.approx(1.0, abs=1e-12)

    def test_measure_stn_rate_exceeds_bound(self, monkeypatch):
        results = []
        real_embed = permsteg.analysis.stn_embed

        def recorded_embed(*args):
            results.append(real_embed(*args))
            return results[-1]

        monkeypatch.setattr(permsteg.analysis, "stn_embed", recorded_embed)
        report = measure_stn_rate(M_532, 4, 200_000, 1, 3)
        assert report.empirical_rate >= report.bound - 3 * report.std_error
        assert report.blocks_measured == 50_000
        # the endless zero payload never runs out, so nothing is padding
        [result] = results
        assert result.padding_bits == 0
        # frozen exact expectation for this model and block length: 0.5059
        assert abs(report.empirical_rate - 0.5059) < 0.01


class TestEmpiricalDistribution:
    def test_small_run_consistent_with_product_law(self):
        report = empirical_distribution_report(M_532, 3, 20_000, 11, 12, 13)
        assert report.mode == "empirical"
        assert report.sample_size == 20_000
        assert report.p_value > 1e-3
        assert report.max_abs_deviation < 0.02

    def test_detects_perturbed_source(self):
        # stego stream from a shifted model tested against the original law:
        # the warden's check must reject
        shifted = SourceModel(ABC, (Fraction(55, 100), Fraction(25, 100), Fraction(2, 10)))
        cover = draw_cover(shifted, 3 * 20_000, random.Random(31))
        result = stn_embed(
            cover, hidden_bit_stream(random.Random(32)), 3, ABC,
            random.Random(33), random.Random(34),
        )
        observed = Counter(
            result.stego[i : i + 3] for i in range(0, len(result.stego), 3)
        )
        _, p = chi_square_gof(observed, block_distribution(M_532, 3))
        assert p < 1e-3

    def test_consecutive_blocks_independent(self):
        # joint law of adjacent output blocks should match the product of
        # marginals; checks that per-block randomization does not correlate
        blocks = 40_000
        cover = draw_cover(M_73, 2 * blocks, random.Random(41))
        result = stn_embed(
            cover, hidden_bit_stream(random.Random(42)), 2, AB,
            random.Random(43), random.Random(44),
        )
        pairs = Counter(
            result.stego[i : i + 4] for i in range(0, 4 * (blocks // 2), 4)
        )
        expected = block_distribution(M_73, 4)  # product law over two blocks
        _, p = chi_square_gof(pairs, expected)
        assert p > 1e-3


class TestReports:
    def test_reports_serialize_to_json(self):
        dist = exact_distribution_report(M_73, 2)
        rate = measure_stn_rate(M_73, 2, 2_000, 1, 3)
        blob = json.dumps({"distribution": asdict(dist), "rate": asdict(rate)}, sort_keys=True)
        parsed = json.loads(blob)
        assert parsed["distribution"]["max_abs_deviation"] == 0.0
        assert parsed["rate"]["seeds"] == {"source": 1, "delta": 3}

    def test_model_digest_distinguishes_models(self):
        assert model_digest(M_73) != model_digest(uniform_model(2))
        assert model_digest(M_73) == model_digest(
            SourceModel(AB, (Fraction(7, 10), Fraction(3, 10)))
        )
