"""Verification suite: distribution equality, hiding rates, and bounds.

The central check is exact: enumerate every cover block, every admissible
payload length with its band probability, and every equiprobable payload
value; map each triple to a classmate with the band code and class
unranking; and accumulate the probability of each emitted block. For a
rational source model the result must equal the i.i.d. product
distribution exactly, not approximately. This checks the scheme's formula,
not the embed loop, which inlines the band code; the acceptance test
``test_embed_loop_output_law_is_exact`` drives ``stn_embed`` itself through
every draw and payload value on a small model.

Empirical checks back this up at scale: chi-square goodness of fit of
embedded output against the product law, and measured hiding rates
compared against the lower bound

    rate(n) >= (E[log2 class_size] - 2) / n

and the per-pair rate formula (1 - sum p_a^2) / 2 of the pair scheme.

scipy is loaded only for the chi-square checks (``chi_square_gof``, and so
``empirical_distribution_report`` and ``permsteg analyze --mode
empirical``), on their first call; importing this module, and so the
package and its command line, loads neither scipy nor numpy.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator, Mapping

from .alphabet import Block
from .codec import EmbedResult, stn_embed
from .errors import DegenerateCells, EmptyTrace, SpaceTooLarge
from .payload import encode_index, expand
from .ranking import multinomial, sorted_class_size, unrank_indices
from .sources import Probability, SourceModel, draw_cover, hidden_bit_stream

EXACT_SPACE_GUARD = 10**6


def iter_compositions(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """All k-tuples of nonnegative counts summing to n."""
    if k == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in iter_compositions(n - first, k - 1):
            yield (first,) + rest


def _guard_space(k: int, n: int) -> None:
    if k**n > EXACT_SPACE_GUARD:
        raise SpaceTooLarge(
            f"outcome space {k}^{n} exceeds the exact-enumeration guard {EXACT_SPACE_GUARD}"
        )


def block_distribution(model: SourceModel, n: int) -> dict[Block, Probability]:
    """The i.i.d. product law over blocks of length n (the reference)."""
    if n < 1:
        raise ValueError("block length must be >= 1")
    _guard_space(len(model.alphabet), n)
    symbols = model.alphabet.symbols
    probs = model.probs
    out: dict[Block, Probability] = {}
    for combo in product(range(len(symbols)), repeat=n):
        p = probs[combo[0]]
        for i in combo[1:]:
            p = p * probs[i]
        out[tuple(symbols[i] for i in combo)] = p
    return out


def exact_output_distribution(model: SourceModel, n: int) -> dict[Block, Probability]:
    """Exact law of the block scheme's output under the given cover model.

    Sums over every cover block, every admissible payload length with its
    band probability, and every payload value, mapping each combination to
    the classmate at its band index (``encode_index``, then unranking). It
    checks the formula, not ``stn_embed``'s inlined loop, which
    ``test_embed_loop_output_law_is_exact`` drives exhaustively. Exact
    rational arithmetic whenever the model is rational.
    """
    if n < 1:
        raise ValueError("block length must be >= 1")
    _guard_space(len(model.alphabet), n)
    probs = model.probs
    rational = model.is_rational
    out: dict[tuple[int, ...], Probability] = {}
    for counts in iter_compositions(n, len(model.alphabet)):
        size = multinomial(counts)
        ordered = [i for i, c in enumerate(counts) for _ in range(c)]
        members = [tuple(unrank_indices(ordered, t, size)) for t in range(size)]
        class_prob: Probability = Fraction(0) if rational else 0.0
        for member in members:
            p = probs[member[0]]
            for i in member[1:]:
                p = p * probs[i]
            class_prob = class_prob + p
        for d in expand(size):
            if rational:
                band_prob = Fraction(1 << d, size)
                payload_prob = Fraction(1, 1 << d)
            else:
                band_prob = (1 << d) / size
                payload_prob = 1.0 / (1 << d)
            contribution = class_prob * band_prob * payload_prob
            for r in range(1 << d):
                tau = encode_index(size, d, r)
                emitted = members[tau]
                prev = out.get(emitted)
                out[emitted] = contribution if prev is None else prev + contribution
    symbols = model.alphabet.symbols
    return {tuple(symbols[i] for i in v): p for v, p in out.items()}


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
class RateBound:
    """Lower bound on the hiding rate, exact or Monte-Carlo estimated."""

    value: float
    std_error: float
    mode: str  # "exact" | "monte_carlo"
    samples: int


@dataclass(frozen=True)
class RateReport:
    """Measured hiding rate with its theoretical context."""

    n: int
    empirical_rate: float
    std_error: float
    bound: float
    bound_std_error: float
    entropy: float
    min_entropy: float
    blocks_measured: int
    cover_symbols: int
    bits_embedded: int
    padding_bits: int
    model_digest: str
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
    # Deferred: scipy.stats is most of the package's import time, and only chi-square needs it.
    from scipy.stats import chi2

    p_value = float(chi2.sf(statistic, len(kept) - 1))
    return statistic, p_value


def empirical_distribution_report(
    model: SourceModel,
    n: int,
    blocks: int,
    seed_source: int,
    seed_hidden: int,
    seed_delta: int,
    seed_padding: int,
) -> DistributionReport:
    """Embed ``blocks`` blocks of fresh cover and test the output empirically."""
    cover = draw_cover(model, blocks * n, random.Random(seed_source))
    result = stn_embed(
        cover,
        hidden_bit_stream(random.Random(seed_hidden)),
        n,
        model.alphabet,
        random.Random(seed_delta),
        random.Random(seed_padding),
    )
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
        seeds={
            "source": seed_source,
            "hidden": seed_hidden,
            "delta": seed_delta,
            "padding": seed_padding,
        },
    )


def shannon_entropy(model: SourceModel) -> float:
    """h = -sum p log2 p, bits per symbol; the large-n hiding-rate ceiling."""
    return -sum(float(p) * math.log2(float(p)) for p in model.probs)


def min_entropy(model: SourceModel) -> float:
    """Smallest per-symbol surprisal: -log2 max_a p(a)."""
    return -math.log2(max(float(p) for p in model.probs))


def st2_rate(model: SourceModel) -> Probability:
    """Expected hidden bits per cover symbol for the pair scheme."""
    square_sum = sum(p * p for p in model.probs)
    if model.is_rational:
        return Fraction(1, 2) * (1 - square_sum)
    return 0.5 * (1.0 - square_sum)


def expected_log_class_size(model: SourceModel, n: int) -> float:
    """E[log2 class size] by exact enumeration over compositions."""
    probs = [float(p) for p in model.probs]
    total = 0.0
    for counts in iter_compositions(n, len(probs)):
        coefficient = multinomial(counts)
        word_prob = 1.0
        for p, c in zip(probs, counts):
            if c:
                word_prob *= p**c
        total += coefficient * word_prob * math.log2(coefficient)
    return total


def rate_lower_bound(
    model: SourceModel,
    n: int,
    samples: int = 100_000,
    rng: random.Random | None = None,
    enumeration_limit: int = 200_000,
) -> RateBound:
    """The hiding-rate lower bound (E[log2 class size] - 2) / n.

    Enumerates compositions exactly when their number is manageable,
    otherwise Monte-Carlo estimates the expectation from sampled blocks and
    reports the standard error (scaled by 1/n like the bound itself).
    """
    k = len(model.alphabet)
    composition_count = math.comb(n + k - 1, k - 1)
    if composition_count <= enumeration_limit:
        value = (expected_log_class_size(model, n) - 2.0) / n
        return RateBound(value=value, std_error=0.0, mode="exact", samples=0)
    if rng is None:
        rng = random.Random(0)
    draw = model.draw_index
    logs = []
    for _ in range(samples):
        logs.append(math.log2(sorted_class_size(sorted(draw(rng) for _ in range(n)))))
    mean = sum(logs) / samples
    variance = sum((x - mean) ** 2 for x in logs) / (samples - 1)
    std_error = math.sqrt(variance / samples)
    return RateBound(
        value=(mean - 2.0) / n,
        std_error=std_error / n,
        mode="monte_carlo",
        samples=samples,
    )


def empirical_rate(
    result: EmbedResult,
    cover_symbols: int,
    model: SourceModel,
    n: int,
    bound: RateBound | None = None,
    seeds: dict[str, int] | None = None,
) -> RateReport:
    """Genuine hidden bits per cover symbol, with bound and entropy context.

    The standard error is that of the mean per-block payload length; it
    describes sampling noise of the achievable rate (meaningful when the
    hidden stream was not exhausted, i.e. padding_bits is 0).
    """
    deltas = [delta for _, delta, _, _ in result.records]
    if not deltas:
        raise EmptyTrace("embed run processed no full blocks")
    if bound is None:
        bound = rate_lower_bound(model, n)
    blocks = len(deltas)
    rate = result.bits_embedded / cover_symbols
    mean_bits = sum(deltas) / blocks
    variance = sum((delta - mean_bits) ** 2 for delta in deltas) / max(blocks - 1, 1)
    std_error = math.sqrt(variance / blocks) / n
    return RateReport(
        n=n,
        empirical_rate=rate,
        std_error=std_error,
        bound=bound.value,
        bound_std_error=bound.std_error,
        entropy=shannon_entropy(model),
        min_entropy=min_entropy(model),
        blocks_measured=blocks,
        cover_symbols=cover_symbols,
        bits_embedded=result.bits_embedded,
        padding_bits=result.padding_bits,
        model_digest=model_digest(model),
        seeds=dict(seeds or {}),
    )


def measure_stn_rate(
    model: SourceModel,
    n: int,
    cover_symbols: int,
    seed_source: int,
    seed_hidden: int,
    seed_delta: int,
    seed_padding: int,
    bound: RateBound | None = None,
) -> RateReport:
    """Draw fresh cover, embed an endless hidden stream, and measure the rate."""
    cover = draw_cover(model, cover_symbols, random.Random(seed_source))
    result = stn_embed(
        cover,
        hidden_bit_stream(random.Random(seed_hidden)),
        n,
        model.alphabet,
        random.Random(seed_delta),
        random.Random(seed_padding),
    )
    seeds = {
        "source": seed_source,
        "hidden": seed_hidden,
        "delta": seed_delta,
        "padding": seed_padding,
    }
    return empirical_rate(result, cover_symbols, model, n, bound=bound, seeds=seeds)
