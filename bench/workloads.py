"""Workload definitions and seeded input generation.

Inputs are drawn here, with the benchmark's own code, from the seed the run
is given; the program only ever receives the generated covers and payloads,
so a change to ``permsteg.sources`` cannot change what is measured.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate
from math import comb, lgamma, log, log2


def zipf_probs(k: int) -> tuple[float, ...]:
    weights = [1.0 / i for i in range(1, k + 1)]
    total = sum(weights)
    return tuple(w / total for w in weights)


@dataclass(frozen=True)
class Workload:
    """One configuration run through every operation of a round.

    Why each workload was chosen is in BENCHMARK.json and bench/README.md.

    The stn library calls, the st2 library calls and the CLI commands each
    take a prefix of one seeded cover, of ``stn_symbols``, ``st2_symbols``
    and ``cli_symbols`` symbols; the sizes balance the measured time among
    the operations of a round. Token order in ``tokens`` is the canonical
    order (plain string order).
    """

    name: str
    tokens: tuple[str, ...]
    probs: tuple[float, ...]
    n: int
    stn_symbols: int
    st2_symbols: int
    cli_symbols: int
    chi_square: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="small-classes",
            tokens=tuple("abcdefgh"),
            probs=zipf_probs(8),
            n=4,
            stn_symbols=400_000,
            st2_symbols=400_000,
            cli_symbols=200_000,
            chi_square=True,
        ),
        Workload(
            name="large-classes",
            tokens=tuple(f"{i:02x}" for i in range(256)),
            probs=tuple(1.0 / 256 for _ in range(256)),
            n=256,
            stn_symbols=25_000,
            st2_symbols=400_000,
            cli_symbols=25_000,
        ),
        Workload(
            name="cli-files",
            tokens=tuple("abcdefghijklmnopqrstuvwxyz"),
            probs=zipf_probs(26),
            n=10,
            stn_symbols=200_000,
            st2_symbols=400_000,
            cli_symbols=500_000,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    cover: list[str]  # every operation takes a prefix of it
    payload: list[int]  # library payload, outlasts its cover under both schemes
    secret: bytes  # CLI payload, framed it fills about half the capacity
    seed_delta: int
    seed_padding: int


def class_size(block) -> int:
    """Multinomial n! / prod(count!) from the block's own letter counts."""
    counts: dict[str, int] = {}
    for token in block:
        counts[token] = counts.get(token, 0) + 1
    total = 0
    size = 1
    for c in counts.values():
        total += c
        size *= comb(total, c)
    return size


def sum_log2_class_sizes(cover, n: int) -> float:
    """Sum of log2 N over the full blocks of ``cover``."""
    cache: dict[tuple, float] = {}
    total = 0.0
    for i in range(0, len(cover) - n + 1, n):
        key = tuple(sorted(cover[i : i + n]))
        value = cache.get(key)
        if value is None:
            value = cache[key] = log2(class_size(key))
        total += value
    return total


def random_bits(rng: random.Random, count: int) -> list[int]:
    return [int(c) for c in format(rng.getrandbits(count), f"0{count}b")]


def make_inputs(w: Workload, seed: int) -> Inputs:
    rng = random.Random(f"{w.name}/{seed}")
    length = max(w.stn_symbols, w.st2_symbols, w.cli_symbols)
    cover = rng.choices(w.tokens, cum_weights=list(accumulate(w.probs)), k=length)
    # ceil(log2 k) bits per symbol exceed log2 N / n, and st2 carries at most
    # one bit per pair, so the payload outlasts both library covers.
    bits_per_symbol = (len(w.tokens) - 1).bit_length()
    payload = random_bits(rng, max(w.stn_symbols * bits_per_symbol, w.st2_symbols))
    # Sum of log2 N - 2 per block is below the expected carried bits; half of
    # it, less the 32-bit frame header, leaves room for the padding path.
    capacity = sum_log2_class_sizes(cover[: w.cli_symbols], w.n) - 2 * (w.cli_symbols // w.n)
    secret = rng.randbytes(int(capacity / 2) // 8 - 4)
    return Inputs(cover, payload, secret, rng.getrandbits(32), rng.getrandbits(32))


def ceilings(w: Workload) -> tuple[float, float]:
    """Entropy H and the capacity ceiling E[log2 N]/n, in bits per symbol.

    log2 N = log2 n! - sum over letters of log2 c!, and each letter count c
    is Binomial(n, p) on its own, so the expectation splits by letter.
    """
    n = w.n
    entropy = -sum(p * log2(p) for p in w.probs)
    ln_fact = [lgamma(c + 1) for c in range(n + 1)]
    expected = ln_fact[n]
    for p in w.probs:
        expected -= sum(
            comb(n, c) * p**c * (1 - p) ** (n - c) * ln_fact[c] for c in range(2, n + 1)
        )
    return entropy, expected / log(2) / n
