"""Simulated i.i.d. covertext sources and the fair hidden-bit source.

A source model pairs an alphabet with a strictly positive probability for
each symbol. Probabilities may be exact ``Fraction`` values (model files
always load this way, so downstream analysis can run in exact arithmetic)
or floats. Sampling uses inverse-CDF search: the cumulative sums are
accumulated exactly as rationals and rounded to float once, so no error
builds up along the alphabet, and a single uniform variate selects the
symbol. Identical seeds reproduce identical streams byte for byte.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from .alphabet import Alphabet, symbol_alphabet
from .bits import bytes_to_bits
from .errors import InvalidModel

Probability = Fraction | float

_FLOAT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class SourceModel:
    """An i.i.d. categorical source over an alphabet.

    ``probs`` is aligned with the alphabet's canonical symbol order. All
    probabilities must be strictly positive; rational probabilities must
    sum to exactly 1, floats to 1 within 1e-12.
    """

    alphabet: Alphabet
    probs: tuple[Probability, ...]
    _cum: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.alphabet) < 2:
            raise InvalidModel("source model needs an alphabet of at least 2 symbols")
        if len(self.probs) != len(self.alphabet):
            raise InvalidModel(
                f"{len(self.probs)} probabilities for {len(self.alphabet)} symbols"
            )
        if any(p <= 0 for p in self.probs):
            raise InvalidModel("all probabilities must be strictly positive")
        exact = all(isinstance(p, (Fraction, int)) for p in self.probs)
        total = sum(map(Fraction, self.probs))
        if exact:
            if total != 1:
                raise InvalidModel(f"probabilities sum to {total}, expected exactly 1")
        elif abs(total - 1) > _FLOAT_SUM_TOL:
            raise InvalidModel(f"probabilities sum to {float(total)}, expected 1")
        running = Fraction(0)
        cum = []
        for p in self.probs:
            running += Fraction(p)
            cum.append(float(running))
        # Sentinel keeps inverse-CDF search inside range without clamping;
        # the last boundary is 1 (exactly, for rational models) anyway.
        cum[-1] = float("inf")
        object.__setattr__(self, "_cum", tuple(cum))

    @property
    def is_rational(self) -> bool:
        return all(isinstance(p, (Fraction, int)) for p in self.probs)

    def draw_index(self, rng: random.Random) -> int:
        """One symbol index by inverse-CDF on a uniform variate."""
        return bisect_right(self._cum, rng.random())


def load_model(path) -> SourceModel:
    """Parse a model file: ``token probability`` per line, decimal strings.

    Probabilities are parsed exactly as rationals, so a loaded model always
    supports exact-arithmetic analysis.
    """
    tokens: list[str] = []
    probs: dict[str, Fraction] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise InvalidModel(f"{path}:{lineno}: expected 'token probability'")
            token, text = parts
            try:
                prob = Fraction(text)
            except (ValueError, ZeroDivisionError):
                raise InvalidModel(f"{path}:{lineno}: bad probability {text!r}") from None
            if token in probs:
                raise InvalidModel(f"{path}:{lineno}: duplicate token {token!r}")
            tokens.append(token)
            probs[token] = prob
    alphabet = Alphabet(tokens)
    return SourceModel(alphabet, tuple(probs[t] for t in alphabet))


def save_model(model: SourceModel, path) -> None:
    """Write a model file in the format load_model reads."""
    with open(path, "w", encoding="utf-8") as fh:
        for token, prob in zip(model.alphabet, model.probs):
            fh.write(f"{token} {prob}\n")


def uniform_model(alphabet: Alphabet | int) -> SourceModel:
    """Uniform source; an int argument builds a synthetic alphabet of that size."""
    if isinstance(alphabet, int):
        alphabet = symbol_alphabet(alphabet)
    k = len(alphabet)
    return SourceModel(alphabet, tuple(Fraction(1, k) for _ in range(k)))


def two_point_model(p: Probability, alphabet: Alphabet | None = None) -> SourceModel:
    """Two-symbol source with probabilities (p, 1 - p)."""
    if alphabet is None:
        alphabet = Alphabet(["a", "b"])
    if len(alphabet) != 2:
        raise InvalidModel("two-point model needs an alphabet of exactly 2 symbols")
    one = Fraction(1) if isinstance(p, (Fraction, int)) else 1.0
    return SourceModel(alphabet, (p, one - p))


def zipf_model(alphabet: Alphabet | int, s: float = 1.0) -> SourceModel:
    """Zipf source: probability of the i-th symbol proportional to 1 / i**s."""
    if isinstance(alphabet, int):
        alphabet = symbol_alphabet(alphabet)
    k = len(alphabet)
    if isinstance(s, int):
        weights = [Fraction(1, i**s) for i in range(1, k + 1)]
        total = sum(weights)
        return SourceModel(alphabet, tuple(w / total for w in weights))
    weights_f = [1.0 / i**s for i in range(1, k + 1)]
    total_f = sum(weights_f)
    return SourceModel(alphabet, tuple(w / total_f for w in weights_f))


def draw_cover(model: SourceModel, count: int, rng: random.Random) -> list[str]:
    """``count`` i.i.d. symbols from the model; deterministic given the seed."""
    if count < 0:
        raise ValueError("count must be >= 0")
    symbols = model.alphabet.symbols
    cum = model._cum
    rand = rng.random
    return [symbols[bisect_right(cum, rand())] for _ in range(count)]


def draw_hidden_bits(count: int, rng: random.Random) -> list[int]:
    """``count`` i.i.d. fair bits; deterministic given the seed."""
    if count < 0:
        raise ValueError("count must be >= 0")
    # getrandbits(count) read MSB first; unpacking bytes keeps this linear.
    pad = -count % 8
    data = rng.getrandbits(count).to_bytes((count + pad) // 8, "big")
    return bytes_to_bits(data)[pad:]


def hidden_bit_stream(rng: random.Random) -> Iterator[int]:
    """Endless i.i.d. fair bit stream, for rate experiments."""
    getrandbits = rng.getrandbits
    while True:
        yield getrandbits(1)
