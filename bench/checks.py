"""Output checks, computed apart from the program.

Nothing here imports ``permsteg``: class sizes come from the benchmark's own
multinomial, the product law from the benchmark's own model, and the
chi-square tail from ``scipy.stats.chi2`` directly. Each check returns a
list of problems; an empty list means the output passed.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from math import prod

from scipy.stats import chi2

# A correct embedder fails this test with probability 1e-6 per run.
CHI_SQUARE_P_FLOOR = 1e-6
MIN_EXPECTED_PER_CELL = 5.0


def check_bits(extracted, payload, genuine: int, padding: int) -> list[str]:
    """Extracted bits: the payload's first ``genuine`` bits, then the padding."""
    problems = []
    if len(extracted) != genuine + padding:
        problems.append(
            f"extracted {len(extracted)} bits, embedder consumed {genuine} + {padding}"
        )
    if list(extracted[:genuine]) != list(payload[:genuine]):
        first = next(
            (i for i, (a, b) in enumerate(zip(extracted, payload[:genuine])) if a != b),
            min(len(extracted), genuine),
        )
        problems.append(f"extracted bits differ from the payload at bit {first}")
    return problems


def check_rearranged(cover, stego, n: int) -> list[str]:
    """Each full stego block rearranges its cover block; the tail is unchanged."""
    if len(stego) != len(cover):
        return [f"stego has {len(stego)} symbols, cover {len(cover)}"]
    full = len(cover) - len(cover) % n
    for i in range(0, full, n):
        if sorted(stego[i : i + n]) != sorted(cover[i : i + n]):
            return [f"stego block {i // n} is not a rearrangement of its cover block"]
    if list(stego[full:]) != list(cover[full:]):
        return ["trailing partial block changed"]
    return []


def check_rate(genuine: int, symbols: int, sum_log2_n: float, blocks: int) -> list[str]:
    """(sum log2 N - 2 blocks)/symbols <= rate <= sum log2 N / symbols."""
    rate = genuine / symbols
    low = (sum_log2_n - 2 * blocks) / symbols
    high = sum_log2_n / symbols
    if not low <= rate <= high:
        return [f"rate {rate:.6f} bits/sym outside [{low:.6f}, {high:.6f}]"]
    return []


def check_pairs(cover, stego, payload, genuine: int, padding: int) -> list[str]:
    """Pair scheme: equal pairs pass; a distinct pair ascends iff its bit is 0."""
    if len(stego) != len(cover):
        return [f"stego has {len(stego)} symbols, cover {len(cover)}"]
    used = 0
    for i in range(0, len(cover) - 1, 2):
        a, b = cover[i], cover[i + 1]
        x, y = stego[i], stego[i + 1]
        if a == b:
            if (x, y) != (a, b):
                return [f"equal pair {i // 2} did not pass through"]
            continue
        if sorted((x, y)) != sorted((a, b)):
            return [f"pair {i // 2} is not a rearrangement of its cover pair"]
        if used < genuine and (x < y) != (payload[used] == 0):
            return [f"pair {i // 2} order does not match payload bit {used}"]
        used += 1
    if len(cover) % 2 and stego[-1] != cover[-1]:
        return ["trailing unpaired symbol changed"]
    if used != genuine + padding:
        return [f"{used} distinct pairs, embedder consumed {genuine} + {padding} bits"]
    return []


def check_chi_square(stego, n: int, tokens, probs) -> list[str]:
    """Goodness of fit of the stego n-blocks to the model's product law.

    Cells expected to hold fewer than five blocks are pooled into one.
    """
    blocks = len(stego) // n
    observed = Counter(tuple(stego[i : i + n]) for i in range(0, blocks * n, n))
    prob = dict(zip(tokens, probs))
    stat = 0.0
    cells = 0
    pooled_observed = 0
    pooled_expected = 0.0
    for cell in product(tokens, repeat=n):
        expected = blocks * prod(prob[t] for t in cell)
        if expected < MIN_EXPECTED_PER_CELL:
            pooled_observed += observed[cell]
            pooled_expected += expected
        else:
            stat += (observed[cell] - expected) ** 2 / expected
            cells += 1
    if pooled_expected > 0:
        stat += (pooled_observed - pooled_expected) ** 2 / pooled_expected
        cells += 1
    p_value = float(chi2.sf(stat, cells - 1))
    if p_value < CHI_SQUARE_P_FLOOR:
        return [f"chi-square {stat:.1f} on {cells - 1} df, p = {p_value:.3g}"]
    return []
