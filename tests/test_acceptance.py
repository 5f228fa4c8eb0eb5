"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Several criteria embed millions of symbols; the whole module takes
minutes on a single core.
"""

import math
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import product

from permsteg import (
    Alphabet,
    SourceModel,
    block_distribution,
    chi_square_gof,
    decode_index,
    draw_cover,
    draw_hidden_bits,
    encode_index,
    exact_output_distribution,
    expand,
    expected_payload_bits,
    hidden_bit_stream,
    measure_stn_rate,
    rate_lower_bound,
    shannon_entropy,
    st2_embed,
    st2_extract,
    st2_rate,
    stn_embed,
    stn_extract,
    symbol_alphabet,
    uniform_model,
)

from oracles import brute_class_size, brute_decode_table

AB = Alphabet(["a", "b"])
ABC = Alphabet(["a", "b", "c"])
ABCD = Alphabet(["a", "b", "c", "d"])


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _rational_models():
    return [
        SourceModel(AB, (Fraction(1, 2), Fraction(1, 2))),
        SourceModel(AB, (Fraction(7, 10), Fraction(3, 10))),
        SourceModel(ABC, (Fraction(5, 10), Fraction(3, 10), Fraction(2, 10))),
        SourceModel(ABCD, (Fraction(4, 10), Fraction(3, 10), Fraction(2, 10), Fraction(1, 10))),
    ]


def _float_models():
    return [
        SourceModel(AB, (0.5, 0.5)),
        SourceModel(AB, (0.7, 0.3)),
        SourceModel(ABC, (0.5, 0.3, 0.2)),
        SourceModel(ABCD, (0.4, 0.3, 0.2, 0.1)),
    ]


def test_criterion_01_exact_indistinguishability():
    worst_rational = Fraction(0)
    for model in _rational_models():
        for n in (2, 3):
            out = exact_output_distribution(model, n)
            ref = block_distribution(model, n)
            assert set(out) == set(ref)
            worst_rational = max(
                worst_rational, max(abs(out[b] - ref[b]) for b in ref)
            )
    worst_double = 0.0
    for model in _float_models():
        for n in (2, 3):
            out = exact_output_distribution(model, n)
            ref = block_distribution(model, n)
            worst_double = max(worst_double, max(abs(out[b] - ref[b]) for b in ref))
    ok = worst_rational == 0 and worst_double < 1e-12
    _report(
        1,
        "exact output distribution equals the product law",
        ok,
        f"rational deviation {worst_rational}, double deviation {worst_double:.2e}",
    )


class _ScriptedDraws(random.Random):
    """A delta generator whose getrandbits serves scripted (u, width) pairs."""

    def __init__(self, draws):
        super().__init__(0)
        self.draws = iter(draws)

    def getrandbits(self, k):
        u, width = next(self.draws)
        assert k == width, (k, width)
        return u


class _NoPadding(random.Random):
    def getrandbits(self, k):
        raise AssertionError("the padding generator was called")


def test_embed_loop_output_law_is_exact():
    """Criterion 01 on the shipped embed loop rather than the formula.

    Every cover block b, every draw u in [0, N) and every payload value r of
    u's band d is embedded once (a power-of-two class draws no u, so its N
    values of u only repeat the block), which makes each emitted block
    carry weight p(b) 2**-d / N. Summed, the weights must equal the product
    law exactly, and extract must return every scripted payload bit.
    """
    model = SourceModel(ABC, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
    for n in range(2, 6):
        cover, payload, draws, weights = [], [], [], []
        for block in product(ABC.symbols, repeat=n):
            size = brute_class_size(block)
            p = math.prod(model.probs[ABC.index(token)] for token in block)
            for u, (d, _) in enumerate(brute_decode_table(size)):
                for r in range(1 << d):
                    cover.extend(block)
                    payload.extend((r >> i) & 1 for i in reversed(range(d)))
                    if size & (size - 1):
                        draws.append((u, size.bit_length()))
                    weights.append(p / (size << d))
        delta_rng = _ScriptedDraws(draws)
        result = stn_embed(cover, payload, n, ABC, delta_rng, _NoPadding(0))
        assert next(delta_rng.draws, None) is None, n  # every scripted u was drawn
        assert (result.bits_embedded, result.padding_bits) == (len(payload), 0), n
        law = {}
        for j, weight in enumerate(weights):
            block = result.stego[j * n : (j + 1) * n]
            law[block] = law.get(block, 0) + weight
        assert law == block_distribution(model, n), n
        assert stn_extract(result.stego, n, ABC).bits == tuple(payload), n


def test_criterion_02_block_scheme_worked_example():
    # this delta seed's first draw lands in band d = 1 of the class of 6
    result = stn_embed(["b", "a", "c"], [0], 3, ABC, random.Random(5), random.Random(2))
    rec = result.trace[0]
    extracted = stn_extract(result.stego, 3, ABC)
    dec = extracted.trace[0]
    ok = (
        result.stego == ("c", "a", "b")
        and result.bits_embedded == 1
        and (rec.class_size, rec.delta, rec.payload, rec.index) == (6, 1, 0, 4)
        and extracted.bits == (0,)
        and (dec.index, dec.payload, dec.delta) == (4, 0, 1)
    )
    _report(2, "worked block example (bac -> cab -> bit 0)", ok,
            f"stego={''.join(result.stego)}, index={rec.index}")


def test_criterion_03_pair_scheme_worked_example():
    cover = list("aababaaaabbaaaaabb")
    result = st2_embed(cover, [0, 1, 1, 0, 0], AB, random.Random(3))
    stego = "".join(result.stego)
    pairs = " ".join(stego[i : i + 2] for i in range(0, len(stego), 2))
    extracted = st2_extract(result.stego, AB)
    ok = (
        pairs == "aa ab ba aa ba ab aa aa bb"
        and result.bits_embedded == 4
        and extracted.bits == (0, 1, 1, 0)
    )
    _report(3, "worked pair example", ok, f"stego pairs {pairs}")


def test_criterion_04_zero_error_round_trips():
    sessions = 10_000
    symbols = 10_000
    failures = 0
    started = time.monotonic()
    for i in range(sessions):
        rng = random.Random(0xA5EED + i)
        k = rng.randint(2, 8)
        n = rng.randint(2, 10)
        alphabet = symbol_alphabet(k)
        raw = [rng.random() + 0.05 for _ in range(k)]
        total = sum(raw)
        model = SourceModel(alphabet, tuple(p / total for p in raw))
        cover = draw_cover(model, symbols, random.Random(rng.getrandbits(64)))
        hidden = draw_hidden_bits(
            rng.randrange(0, 20_001), random.Random(rng.getrandbits(64))
        )
        result = stn_embed(
            cover,
            hidden,
            n,
            alphabet,
            random.Random(rng.getrandbits(64)),
            random.Random(rng.getrandbits(64)),
        )
        extracted = stn_extract(result.stego, n, alphabet)
        good = (
            list(extracted.bits) == result.consumed_bits()
            and list(extracted.bits[: result.bits_embedded])
            == hidden[: result.bits_embedded]
            and len(result.stego) == symbols
            and result.bits_embedded + result.padding_bits
            == sum(d for _, d, _, _ in result.records)
        )
        failures += not good
    elapsed = time.monotonic() - started
    _report(
        4,
        "zero-error round trip over randomized sessions",
        failures == 0,
        f"{sessions} sessions x {symbols} symbols, {failures} failures, {elapsed:.0f}s",
    )


def test_criterion_05_band_code_bijection_and_uniformity():
    violations = 0
    for value in range(1, 4097):
        seen = bytearray(value)
        for d in expand(value):
            for r in range(1 << d):
                tau = encode_index(value, d, r)
                if seen[tau] or decode_index(value, tau) != (d, r):
                    violations += 1
                seen[tau] = 1
        if not all(seen):
            violations += 1
    uniform_bad = 0
    for value in range(1, 257):
        mass = [Fraction(0)] * value
        for d in expand(value):
            contribution = Fraction(1 << d, value) * Fraction(1, 1 << d)
            for r in range(1 << d):
                mass[encode_index(value, d, r)] += contribution
        if any(p != Fraction(1, value) for p in mass) or sum(mass) != 1:
            uniform_bad += 1
    ok = violations == 0 and uniform_bad == 0
    _report(
        5,
        "band code bijective (N<=4096) and exactly uniform (N<=256)",
        ok,
        f"{violations} bijection violations, {uniform_bad} uniformity violations",
    )


def test_criterion_06_expected_payload_bound():
    assert expected_payload_bits(6) == Fraction(10, 6)
    worst = math.inf
    bad = 0
    for value in range(1, 1_000_001):
        # margin stays > 3e-5 for N <= 1e6 (tightest at N = 2**19 - 1),
        # far above float(log2) error, so a float comparison is exact enough
        margin = float(expected_payload_bits(value)) - (math.log2(value) - 2.0)
        if margin < worst:
            worst = margin
        if margin < 0:
            bad += 1
    _report(
        6,
        "expected payload >= log2(N) - 2 for all N <= 1e6",
        bad == 0,
        f"min margin {worst:.2e} bits, value at N=6 is 10/6",
    )


def _st2_run(model, symbols, seed_base):
    cover = draw_cover(model, symbols, random.Random(seed_base))
    result = st2_embed(
        cover, hidden_bit_stream(random.Random(seed_base + 1)), model.alphabet,
        random.Random(seed_base + 2),
    )
    return result.bits_embedded / symbols


def test_criterion_07_pair_scheme_rate():
    symbols = 1_000_000
    checks = []
    for model, seed in ((uniform_model(2), 700), (uniform_model(16), 730)):
        target = float(st2_rate(model))
        mixed = 2 * target  # probability that a pair has distinct letters
        sigma = math.sqrt(mixed * (1 - mixed) * (symbols / 2)) / symbols
        rate = _st2_run(model, symbols, seed)
        checks.append((rate, target, sigma, abs(rate - target) < 3 * sigma))
    ok = all(c[-1] for c in checks)
    detail = "; ".join(
        f"rate {r:.5f} vs {t:.5f} (3s={3*s:.5f})" for r, t, s, _ in checks
    )
    _report(7, "pair-scheme rate matches (1 - sum p^2)/2", ok, detail)


def test_criterion_08_block_scheme_rate_bound():
    model = uniform_model(256)
    n = 8
    symbols = 1_000_000
    bound = rate_lower_bound(model, n, samples=100_000, rng=random.Random(800))
    report = measure_stn_rate(model, n, symbols, 801, 802, 803, 804, bound=bound)
    ceiling = math.log2(math.factorial(n)) / n
    ok = (
        bound.mode == "monte_carlo"
        and report.empirical_rate >= bound.value - 3 * bound.std_error
        and report.empirical_rate <= ceiling
    )
    _report(
        8,
        "block-scheme rate within [bound - 3se, log2(n!)/n]",
        ok,
        f"rate {report.empirical_rate:.4f}, bound {bound.value:.4f}"
        f" +- {bound.std_error:.4f}, ceiling {ceiling:.4f}",
    )


def test_criterion_09_rate_grows_toward_entropy():
    model = SourceModel(ABC, (Fraction(5, 10), Fraction(3, 10), Fraction(2, 10)))
    entropy = shannon_entropy(model)
    symbols = 1_000_000
    reports = [
        measure_stn_rate(model, n, symbols, 900 + n, 910 + n, 920 + n, 930 + n)
        for n in (2, 4, 8, 12)
    ]
    rates = [r.empirical_rate for r in reports]
    ses = [r.std_error for r in reports]
    monotone = all(
        rates[i + 1] >= rates[i] - 2 * (ses[i] + ses[i + 1]) for i in range(3)
    )
    approaching = all(
        entropy - rates[i + 1] < entropy - rates[i] for i in range(3)
    )
    below = all(r <= entropy + 2 * s for r, s in zip(rates, ses))
    ok = monotone and approaching and below
    _report(
        9,
        "rates rise toward the source entropy as n grows",
        ok,
        "rates " + ", ".join(f"{r:.4f}" for r in rates) + f" -> h={entropy:.4f}",
    )


def test_criterion_10_rate_trend_in_alphabet_size():
    n = 6
    symbols = 1_000_000
    low = (math.log2(math.factorial(n)) - 2) / n
    high = math.log2(math.factorial(n)) / n
    rates = {}
    ses = {}
    for k in (4, 16, 64, 256, 1024):
        report = measure_stn_rate(uniform_model(k), n, symbols, k, k + 1, k + 2, k + 3)
        rates[k], ses[k] = report.empirical_rate, report.std_error
    ordered = [rates[k] for k in (4, 16, 64, 256, 1024)]
    ordered_se = [ses[k] for k in (4, 16, 64, 256, 1024)]
    increasing = all(
        ordered[i + 1] >= ordered[i] - 2 * (ordered_se[i] + ordered_se[i + 1])
        for i in range(4)
    )
    in_band = all(low <= rates[k] <= high for k in (256, 1024))
    ok = increasing and in_band
    _report(
        10,
        "rates climb into [ (log2 n! - 2)/n, log2(n!)/n ] as the alphabet grows",
        ok,
        "rates " + ", ".join(f"{r:.4f}" for r in ordered)
        + f", band [{low:.4f}, {high:.4f}] required for k>=256",
    )


def test_criterion_11_black_box_statistics():
    model = SourceModel(ABC, (Fraction(5, 10), Fraction(3, 10), Fraction(2, 10)))
    n = 3
    blocks = 100_000
    reference = block_distribution(model, n)
    passes = 0
    p_values = []
    for seed in range(20):
        cover = draw_cover(model, blocks * n, random.Random(1100 + seed))
        result = stn_embed(
            cover, hidden_bit_stream(random.Random(1200 + seed)), n, model.alphabet,
            random.Random(1300 + seed), random.Random(1400 + seed),
        )
        observed = Counter(
            result.stego[i : i + n] for i in range(0, blocks * n, n)
        )
        _, p = chi_square_gof(observed, reference)
        p_values.append(p)
        passes += p > 1e-3
    # power check: stego built from a shifted source must be rejected
    shifted = SourceModel(ABC, (Fraction(55, 100), Fraction(25, 100), Fraction(2, 10)))
    cover = draw_cover(shifted, blocks * n, random.Random(1500))
    result = stn_embed(
        cover, hidden_bit_stream(random.Random(1501)), n, ABC,
        random.Random(1502), random.Random(1503),
    )
    observed = Counter(result.stego[i : i + n] for i in range(0, blocks * n, n))
    _, p_power = chi_square_gof(observed, reference)
    ok = passes >= 18 and p_power < 1e-3
    _report(
        11,
        "chi-square accepts true stego traffic and rejects a shifted source",
        ok,
        f"{passes}/20 seeds with p > 1e-3 (min p {min(p_values):.4f}), "
        f"power p {p_power:.2e}",
    )
