"""Symbol alphabets and blocks.

Symbols are opaque string tokens. Every comparison in the package uses one
canonical total order: lexicographic order of the UTF-8 encoding of the
token. Python's native ``str`` ordering coincides with UTF-8 byte order
(UTF-8 preserves code-point order), so plain string comparison realizes it.

A block is a plain tuple of tokens. Two blocks are permutations of one
another exactly when their sorted tuples are equal.
"""

from __future__ import annotations

from typing import Iterable, Iterator

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
        try:
            return cls(line for line in lines if line)
        except InvalidAlphabet as exc:
            raise InvalidAlphabet(f"{exc} in {path}") from None

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


def symbol_alphabet(size: int) -> Alphabet:
    """Generate a synthetic alphabet of ``size`` zero-padded tokens.

    Zero padding keeps the numeric order and the canonical byte order in
    agreement, which makes experiment output easier to read.
    """
    if size < 1:
        raise InvalidAlphabet("size must be >= 1")
    width = len(str(size - 1))
    return Alphabet(f"s{i:0{width}d}" for i in range(size))
