"""Verification suite: distribution equality, hiding rates, and bounds.

The central check is exact, and it runs the shipped embed loop: for every
permutation class it drives ``stn_embed`` through each band d and payload
value r of the class, with scripted draws, and accumulates the probability
of each emitted block. For a rational source model the result must equal
the i.i.d. product distribution exactly, not approximately.

Empirical checks back this up at scale: chi-square goodness of fit of
embedded output against the product law (its tail a finite stdlib sum,
``_chi2_sf``), and measured hiding rates compared against the lower bound

    rate(n) >= (E[log2 class_size] - 2) / n

and the per-pair rate formula (1 - sum p_a^2) / 2 of the pair scheme. The
bound is exact for every block length: a class of letter counts c_a has
size n! / prod_a c_a!, and each c_a is Binomial(n, p_a), so by linearity

    E[log2 class_size] = log2 n! - sum_a sum_{c=2..n} P(c_a = c) log2 c!

in O(k n) float operations, with no walk over classes.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections import Counter
from dataclasses import dataclass
from itertools import combinations_with_replacement, product, repeat
from types import SimpleNamespace
from typing import Iterator, Mapping

from .alphabet import Block
from .codec import EmbedResult, stn_embed
from .errors import DegenerateCells, EmptyTrace, SpaceTooLarge
from .ranking import sorted_class_size
from .sources import Probability, SourceModel, draw_cover, hidden_bit_stream

EXACT_SPACE_GUARD = 10**6


def _guard_space(k: int, n: int) -> None:
    if n < 1:
        raise ValueError("block length must be >= 1")
    # once n reaches the guard's bit length, 2**n alone passes it, so a long
    # block is refused before k**n is built
    if (k >= 2 and n >= EXACT_SPACE_GUARD.bit_length()) or k**n > EXACT_SPACE_GUARD:
        raise SpaceTooLarge(
            f"outcome space {k}^{n} exceeds the exact-enumeration guard {EXACT_SPACE_GUARD}"
        )


def block_distribution(model: SourceModel, n: int) -> dict[Block, Probability]:
    """The i.i.d. product law over blocks of length n (the reference).

    The law is constant on a permutation class, so each class's product is
    taken once, over its sorted word, and every word of the class maps to it.
    """
    _guard_space(len(model.alphabet), n)
    symbols, probs = model.alphabet.symbols, model.probs
    weights = {
        ordered: math.prod(probs[i] for i in ordered)
        for ordered in combinations_with_replacement(range(len(probs)), n)
    }
    return {
        tuple(symbols[i] for i in word): weights[tuple(sorted(word))]
        for word in product(range(len(symbols)), repeat=n)
    }


def exact_output_distribution(model: SourceModel, n: int) -> dict[Block, Probability]:
    """Exact law of ``stn_embed``'s output blocks under the given cover model.

    One ``stn_embed`` call per class embeds its sorted word N times, carrying
    every value r of every band d (MSB-first), with scripted draws that each
    return band d's first index. The block carrying (d, r) then weighs
    N p(word) * 2**d / N * 2**-d = p(word). Exact whenever the model is
    rational; a float model's sums may move in the last bits. The scripted
    draws bypass the live rejection loop (ROADMAP item 22), and only each
    class's sorted word is fed; ``test_embed_loop_output_law_is_exact``
    feeds every cover block and every draw. Raises AssertionError if the
    embed leaves a scripted draw unused or draws padding.
    """
    _guard_space(len(model.alphabet), n)
    symbols, probs = model.alphabet.symbols, model.probs
    out: dict[Block, Probability] = {}
    for ordered in combinations_with_replacement(range(len(probs)), n):
        size = sorted_class_size(ordered)
        bands = [d for d in reversed(range(size.bit_length())) if size >> d & 1]
        # one draw per (d, r), band d's first index; a power of two draws none
        draws = iter([size >> d >> 1 << d << 1 for d in bands for _ in range(1 << d)]
                     if size & (size - 1) else [])
        script = SimpleNamespace(getrandbits=lambda _: next(draws))
        hidden = [bit for d in bands for r in product((0, 1), repeat=d) for bit in r]
        cover = [symbols[i] for i in ordered] * size
        result = stn_embed(cover, hidden, n, model.alphabet, script, script)
        if result.padding_bits or next(draws, None) is not None:
            raise AssertionError(f"the embed of {cover[:n]} parted from its scripted draws")
        weight = math.prod(probs[i] for i in ordered)
        for block in zip(*[iter(result.stego)] * n):
            prev = out.get(block)
            out[block] = weight if prev is None else prev + weight
    return out


@dataclass(frozen=True)
class DistributionReport:
    """Comparison of the stego output law against the i.i.d. product law."""

    mode: str  # "exact" | "empirical"
    arithmetic: str  # "rational" | "double"
    n: int
    model_digest: str
    max_abs_deviation: float
    probability_total: float
    chi_square: float | None
    p_value: float | None
    sample_size: int | None
    seeds: dict[str, int]


@dataclass(frozen=True)
class RateReport:
    """Measured hiding rate at one block length, with its lower bound."""

    n: int
    empirical_rate: float
    std_error: float
    bound: float
    blocks_measured: int
    cover_symbols: int
    bits_embedded: int
    seeds: dict[str, int]


def model_digest(model: SourceModel) -> str:
    """Stable digest of (token, probability) lines for report provenance."""
    text = "".join(f"{t} {p!r}\n" for t, p in zip(model.alphabet, model.probs))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def exact_distribution_report(model: SourceModel, n: int) -> DistributionReport:
    """Run the exact oracle and compare against the product law."""
    output = exact_output_distribution(model, n)
    reference = block_distribution(model, n)
    missing = [b for b in output if b not in reference]
    if missing:
        raise AssertionError(f"oracle produced blocks outside the space: {missing[:3]}")
    deviation = max(abs(output.get(b, 0) - reference[b]) for b in reference)
    total = sum(output.values())
    return DistributionReport(
        mode="exact",
        arithmetic="rational" if model.is_rational else "double",
        n=n,
        model_digest=model_digest(model),
        max_abs_deviation=float(deviation),
        probability_total=float(total),
        chi_square=None,
        p_value=None,
        sample_size=None,
        seeds={},
    )


def chi_square_gof(
    observed: Mapping[object, int], expected: Mapping[object, Probability]
) -> tuple[float, float]:
    """Pearson goodness-of-fit statistic and upper-tail p-value.

    ``expected`` maps each outcome to its probability; expected counts are
    probabilities times the observed total. Cells with expected count below
    5 are pooled together first (the pool merges into the smallest kept
    cell if it still falls short). Raises DegenerateCells when fewer than
    two cells survive pooling.
    """
    total = sum(observed.values())
    for key in observed:
        if key not in expected:
            raise ValueError(f"observed outcome {key!r} has no expected probability")
    cells = [
        (float(prob) * total, observed.get(key, 0))
        for key, prob in sorted(expected.items(), key=lambda kv: (kv[1], str(kv[0])))
    ]
    kept = [(e, o) for e, o in cells if e >= 5.0]
    small = [(e, o) for e, o in cells if e < 5.0]
    if small:
        pool_e = sum(e for e, _ in small)
        pool_o = sum(o for _, o in small)
        if pool_e >= 5.0:
            kept.append((pool_e, pool_o))
        elif kept:
            e0, o0 = kept[0]  # smallest kept cell absorbs the short pool
            kept[0] = (e0 + pool_e, o0 + pool_o)
        else:
            raise DegenerateCells("no cell reaches the expected-count threshold")
    if len(kept) < 2:
        raise DegenerateCells(f"only {len(kept)} cell(s) left after pooling")
    statistic = sum((o - e) ** 2 / e for e, o in kept)
    return statistic, _chi2_sf(statistic, len(kept) - 1)


def _chi2_sf(x: float, df: int) -> float:
    """P(X > x) for X chi-square with an integer ``df`` >= 1, as a finite sum.

    With z = x/2 it sums e^-z z^a / Gamma(a + 1) over a = 0, 1, ..., df/2 - 1
    (even df; at df = 2 it is e^-z) or over a = 1/2, 3/2, ..., df/2 - 1 plus
    erfc(sqrt z) (odd df).
    """
    if x <= 0:
        return 1.0
    z, half = x / 2, df % 2 / 2
    log_z = math.log(z)
    total = math.erfc(math.sqrt(z)) if half else 0.0
    for a in range(df // 2):
        total += math.exp((a + half) * log_z - z - math.lgamma(a + half + 1))
    return total


def _seeded_embed(
    model: SourceModel,
    n: int,
    cover_symbols: int,
    seed_source: int,
    seed_delta: int,
    hidden: Iterator[int],
) -> EmbedResult:
    """Embed the endless ``hidden`` stream in fresh seeded cover.

    The stream never runs out, so the embedder never draws a padding bit,
    and its padding generator is a ``Random(0)`` it never draws.
    """
    cover = draw_cover(model, cover_symbols, random.Random(seed_source))
    return stn_embed(cover, hidden, n, model.alphabet, random.Random(seed_delta), random.Random(0))


def empirical_distribution_report(
    model: SourceModel,
    n: int,
    blocks: int,
    seed_source: int,
    seed_hidden: int,
    seed_delta: int,
) -> DistributionReport:
    """Embed ``blocks`` blocks of fresh cover and test the output empirically."""
    _guard_space(len(model.alphabet), n)
    hidden = hidden_bit_stream(random.Random(seed_hidden))
    result = _seeded_embed(model, n, blocks * n, seed_source, seed_delta, hidden)
    seeds = {"source": seed_source, "hidden": seed_hidden, "delta": seed_delta}
    return _distribution_of(result, seeds, model, n)


def _distribution_of(
    result: EmbedResult, seeds: dict[str, int], model: SourceModel, n: int
) -> DistributionReport:
    """The empirical distribution report of an embed's full blocks."""
    blocks = result.blocks
    observed = Counter(
        tuple(result.stego[i : i + n]) for i in range(0, blocks * n, n)
    )
    reference = block_distribution(model, n)
    statistic, p_value = chi_square_gof(observed, reference)
    deviation = max(
        abs(observed.get(b, 0) / blocks - float(p)) for b, p in reference.items()
    )
    return DistributionReport(
        mode="empirical",
        arithmetic="double",
        n=n,
        model_digest=model_digest(model),
        max_abs_deviation=deviation,
        probability_total=1.0,
        chi_square=statistic,
        p_value=p_value,
        sample_size=blocks,
        seeds=seeds,
    )


def shannon_entropy(model: SourceModel) -> float:
    """h = -sum p log2 p, bits per symbol; the large-n hiding-rate ceiling."""
    return -sum(float(p) * math.log2(float(p)) for p in model.probs)


def min_entropy(model: SourceModel) -> float:
    """Smallest per-symbol surprisal: -log2 max_a p(a)."""
    return -math.log2(max(float(p) for p in model.probs))


def st2_rate(model: SourceModel) -> Probability:
    """Expected hidden bits per cover symbol for the pair scheme."""
    return (1 - sum(p * p for p in model.probs)) / 2


def expected_log_class_size(model: SourceModel, n: int) -> float:
    """E[log2 class size], exact, from each letter count's binomial law.

    log2 N = log2 n! - sum_a log2 c_a!, and each count c_a is Binomial(n,
    p_a), so E[log2 N] = log2 n! - sum_a sum_{c=2..n} P(c_a = c) log2 c!.
    Each pmf term is taken in log space, so no n! or p^c leaves float
    range at large n. Raises ValueError unless n >= 1.
    """
    if n < 1:
        raise ValueError("block length must be >= 1")
    log_fact = [math.lgamma(c + 1) for c in range(n + 1)]  # ln c!
    total = log_fact[n]
    for p in map(float, model.probs):
        log_p, log_q = math.log(p), math.log1p(-p)
        for c in range(2, n + 1):
            log_pmf = log_fact[n] - log_fact[c] - log_fact[n - c] + c * log_p + (n - c) * log_q
            total -= math.exp(log_pmf) * log_fact[c]
    return total / math.log(2)


def rate_lower_bound(model: SourceModel, n: int) -> float:
    """The hiding-rate lower bound (E[log2 class size] - 2) / n, exact.

    E[log2 class size] = log2 n! - sum_a sum_{c=2..n} P(c_a = c) log2 c!,
    where the count c_a of letter a is Binomial(n, p_a)
    (``expected_log_class_size``). Raises ValueError unless n >= 1.
    """
    return (expected_log_class_size(model, n) - 2.0) / n


def empirical_rate(
    result: EmbedResult,
    model: SourceModel,
    n: int,
    seeds: dict[str, int] | None = None,
) -> RateReport:
    """Genuine hidden bits per cover symbol, with bound and entropy context.

    The cover length is ``len(result.stego)``: the stego stream carries
    every cover symbol, a trailing partial block included. The standard
    error is that of the mean per-block payload length; it describes
    sampling noise of the achievable rate (meaningful when the hidden
    stream was not exhausted, i.e. padding_bits is 0).
    """
    deltas = [delta for _, delta, _, _ in result.records]
    if not deltas:
        raise EmptyTrace("embed run processed no full blocks")
    blocks = len(deltas)
    cover_symbols = len(result.stego)
    rate = result.bits_embedded / cover_symbols
    mean_bits = sum(deltas) / blocks
    variance = sum((delta - mean_bits) ** 2 for delta in deltas) / max(blocks - 1, 1)
    std_error = math.sqrt(variance / blocks) / n
    return RateReport(
        n=n,
        empirical_rate=rate,
        std_error=std_error,
        bound=rate_lower_bound(model, n),
        blocks_measured=blocks,
        cover_symbols=cover_symbols,
        bits_embedded=result.bits_embedded,
        seeds=dict(seeds or {}),
    )


def measure_stn_rate(
    model: SourceModel,
    n: int,
    cover_symbols: int,
    seed_source: int,
    seed_delta: int,
) -> RateReport:
    """Draw fresh cover, embed an endless all-zero payload, and measure the rate.

    Each block's payload length is drawn from its class size alone, and an
    endless payload never pads, so the report reads no payload bit: a fair
    payload gives the same report, and no hidden seed could change it.
    """
    result = _seeded_embed(model, n, cover_symbols, seed_source, seed_delta, repeat(0))
    return empirical_rate(result, model, n, seeds={"source": seed_source, "delta": seed_delta})
