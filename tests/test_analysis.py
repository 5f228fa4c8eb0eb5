import json
import math
import random
from collections import Counter
from dataclasses import asdict
from fractions import Fraction

import pytest
from scipy.stats import chi2

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
)

from oracles import product_law

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

    def test_space_guard(self):
        with pytest.raises(SpaceTooLarge):
            block_distribution(M_73, 21)


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
        bound = rate_lower_bound(uniform_model(2), 2)
        assert bound.mode == "exact"
        assert bound.value == pytest.approx(-0.75, abs=1e-12)
        assert bound.std_error == 0.0

    def test_monte_carlo_fallback_agrees_with_exact(self):
        model = uniform_model(8)
        exact = rate_lower_bound(model, 4)
        mc = rate_lower_bound(
            model, 4, samples=20_000, rng=random.Random(3), enumeration_limit=1
        )
        assert exact.mode == "exact" and mc.mode == "monte_carlo"
        assert mc.std_error > 0.0
        assert abs(mc.value - exact.value) < 4 * mc.std_error

    def test_may_be_negative_for_small_blocks(self):
        assert rate_lower_bound(M_73, 2).value < 0


class TestEmpiricalRate:
    def test_all_same_letter_blocks_rate_zero(self):
        result = stn_embed(["a"] * 8, [1, 0], 2, AB, random.Random(0), random.Random(1))
        report = empirical_rate(result, 8, uniform_model(2), 2)
        assert report.empirical_rate == 0.0
        assert report.blocks_measured == 4

    def test_empty_trace_rejected(self):
        result = stn_embed([], [], 2, AB, random.Random(0), random.Random(1))
        with pytest.raises(EmptyTrace):
            empirical_rate(result, 0, uniform_model(2), 2)

    def test_pair_scheme_rate_matches_formula(self):
        symbols = 100_000
        model = two_point_model(Fraction(1, 2))
        cover = draw_cover(model, symbols, random.Random(21))
        result = st2_embed(cover, hidden_bit_stream(random.Random(22)), AB, random.Random(23))
        report = empirical_rate(result, symbols, model, 2)
        sigma = math.sqrt(0.25 * (symbols / 2)) / symbols
        assert abs(report.empirical_rate - 0.25) < 3 * sigma
        assert report.padding_bits == 0
        assert report.entropy == pytest.approx(1.0, abs=1e-12)

    def test_measure_stn_rate_exceeds_bound(self):
        report = measure_stn_rate(M_532, 4, 200_000, 1, 2, 3, 4)
        assert report.empirical_rate >= report.bound - 3 * report.std_error
        assert report.blocks_measured == 50_000
        # frozen exact expectation for this model and block length: 0.5059
        assert abs(report.empirical_rate - 0.5059) < 0.01


class TestEmpiricalDistribution:
    def test_small_run_consistent_with_product_law(self):
        report = empirical_distribution_report(M_532, 3, 20_000, 11, 12, 13, 14)
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
        rate = measure_stn_rate(M_73, 2, 2_000, 1, 2, 3, 4)
        blob = json.dumps({"distribution": asdict(dist), "rate": asdict(rate)}, sort_keys=True)
        parsed = json.loads(blob)
        assert parsed["distribution"]["max_abs_deviation"] == 0.0
        assert parsed["rate"]["seeds"] == {"source": 1, "hidden": 2, "delta": 3, "padding": 4}

    def test_model_digest_distinguishes_models(self):
        assert model_digest(M_73) != model_digest(uniform_model(2))
        assert model_digest(M_73) == model_digest(
            SourceModel(AB, (Fraction(7, 10), Fraction(3, 10)))
        )
