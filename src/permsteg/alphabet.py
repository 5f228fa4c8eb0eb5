"""Symbol alphabets, blocks, and letter-count compositions.

Symbols are opaque string tokens. Every comparison in the package uses one
canonical total order: lexicographic order of the UTF-8 encoding of the
token. Python's native ``str`` ordering coincides with UTF-8 byte order
(UTF-8 preserves code-point order), so plain string comparison realizes it.

A block is a plain tuple of tokens. Its composition records how often each
alphabet symbol occurs; two blocks are permutations of one another exactly
when their compositions are equal.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import InvalidAlphabet, UnknownSymbol

Token = str
Block = tuple[Token, ...]


def _validate_token(token: object) -> str:
    if not isinstance(token, str):
        raise InvalidAlphabet(f"token must be a string, got {type(token).__name__}")
    if not token:
        raise InvalidAlphabet("empty token is not allowed")
    if any(ch.isspace() for ch in token):
        raise InvalidAlphabet(f"token {token!r} contains whitespace")
    return token


class Alphabet:
    """A finite, canonically ordered set of distinct symbol tokens.

    The constructor accepts tokens in any order and stores them sorted under
    the canonical order; duplicates are an error, not deduplicated silently.
    Instances are immutable and safe to share across threads.
    """

    __slots__ = ("_symbols", "_index")

    def __init__(self, tokens: Iterable[Token]):
        ordered = sorted(_validate_token(t) for t in tokens)
        if not ordered:
            raise InvalidAlphabet("alphabet must contain at least one symbol")
        index: dict[str, int] = {t: i for i, t in enumerate(ordered)}
        if len(index) != len(ordered):
            seen: set[str] = set()
            dup = next(t for t in ordered if t in seen or seen.add(t))
            raise InvalidAlphabet(f"duplicate token {dup!r}")
        self._symbols: tuple[str, ...] = tuple(ordered)
        self._index = index

    @classmethod
    def from_file(cls, path) -> "Alphabet":
        """Load an alphabet file: one token per line, file order ignored."""
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line.strip() for line in fh]
        tokens = [line for line in lines if line]
        if len(tokens) != len(set(tokens)):
            counts = Counter(tokens)
            dup = next(t for t, c in counts.items() if c > 1)
            raise InvalidAlphabet(f"duplicate token {dup!r} in {path}")
        return cls(tokens)

    @property
    def symbols(self) -> tuple[str, ...]:
        return self._symbols

    def index(self, token: Token) -> int:
        """Position of ``token`` in canonical order; UnknownSymbol if absent."""
        try:
            return self._index[token]
        except KeyError:
            raise UnknownSymbol(f"symbol {token!r} is not in the alphabet") from None

    def __len__(self) -> int:
        return len(self._symbols)

    def __iter__(self) -> Iterator[str]:
        return iter(self._symbols)

    def __contains__(self, token: object) -> bool:
        return token in self._index

    def __getitem__(self, i: int) -> str:
        return self._symbols[i]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Alphabet) and self._symbols == other._symbols

    def __hash__(self) -> int:
        return hash(self._symbols)

    def __repr__(self) -> str:
        return f"Alphabet({list(self._symbols)!r})"


def symbol_alphabet(size: int, prefix: str = "s") -> Alphabet:
    """Generate a synthetic alphabet of ``size`` zero-padded tokens.

    Zero padding keeps the numeric order and the canonical byte order in
    agreement, which makes experiment output easier to read.
    """
    if size < 1:
        raise InvalidAlphabet("size must be >= 1")
    width = len(str(size - 1))
    return Alphabet(f"{prefix}{i:0{width}d}" for i in range(size))


@dataclass(frozen=True, slots=True)
class Composition:
    """Letter counts of a block, sparse over the alphabet.

    ``counts`` holds (symbol index, count) pairs sorted by symbol index with
    every count positive; ``n`` is the block length (the sum of the counts).
    Symbols absent from ``counts`` occur zero times.
    """

    counts: tuple[tuple[int, int], ...]
    n: int


def composition_from_indices(indices: Sequence[int]) -> Composition:
    """Composition of a block already resolved to alphabet indices."""
    counter = Counter(indices)
    return Composition(tuple(sorted(counter.items())), len(indices))


def composition_of(block: Sequence[Token], alphabet: Alphabet) -> Composition:
    """Letter-count composition of a block; permutation-invariant."""
    if len(block) == 0:
        raise ValueError("block must contain at least one symbol")
    return composition_from_indices([alphabet.index(t) for t in block])


def block_to_indices(block: Sequence[Token], alphabet: Alphabet) -> list[int]:
    return [alphabet.index(t) for t in block]


def indices_to_block(indices: Sequence[int], alphabet: Alphabet) -> Block:
    symbols = alphabet.symbols
    return tuple(symbols[i] for i in indices)
