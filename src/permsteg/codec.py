"""Embed/extract state machines over symbol streams.

Two schemes share one output contract: the stego stream has exactly the
same length as the cover stream and, block by block, the same letter
counts, so under an i.i.d. cover source its distribution is unchanged.

* Pair scheme (``st2_*``): the stream is split into pairs. A pair of equal
  letters passes through; a pair of distinct letters is re-emitted in
  ascending canonical order for payload bit 0 and descending for bit 1.
  One trailing unpaired symbol passes through unchanged.

* Block scheme (``stn_*``): the stream is split into blocks of n symbols.
  For each block the codec forms its permutation class, draws a payload
  length d with the band distribution of the class size (see
  :mod:`permsteg.payload`), reads d payload bits MSB-first as a value r,
  and emits the classmate whose rank is the band index for (d, r). The
  receiver recomputes the class from the received block (letter counts are
  preserved), ranks it, and inverts the band code; no shared randomness is
  involved in decoding. A trailing partial block passes through unchanged.

When the caller's payload runs out mid-stream, further payload bits are
drawn from a dedicated padding generator and counted separately, which
keeps the emitted distribution intact. Extraction cannot tell padding from
payload; it returns every bit the embedder consumed, in order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice
from math import comb
from typing import Iterable, NamedTuple, Sequence

from .alphabet import Alphabet, Composition
from .bits import bits_from_int, bits_to_bytes, int_from_bits
from .errors import InvalidAlphabet, InvalidBlockLength, UnknownSymbol
from .payload import BinaryExpansion, decode_index, encode_index, expand, sample_delta
from .ranking import rank_indices, unrank_indices

# Full member tables are built for a class only once it has repeated enough
# to amortize the enumeration (hits scale with the class size), so streams
# with recurring small compositions trade memory for speed while one-off
# classes (large alphabets) stay on the rank/unrank path.
_MEMBER_TABLE_MAX_CLASS = 2048
_MEMBER_TABLE_HIT_FACTOR = 24
_MEMBER_TABLE_BUDGET = 1 << 21


class BlockTrace(NamedTuple):
    """What one embedded block did.

    ``delta`` is the number of payload bits the block carried, ``payload``
    their MSB-first integer value, and ``index`` the emitted word's rank
    within its permutation class. ``forced`` marks a test-hook override of
    the payload-length draw.
    """

    composition: Composition
    class_size: int
    delta: int
    payload: int
    index: int
    forced: bool = False


class ExtractTrace(NamedTuple):
    """Per-block decode record: payload length, value, and class index."""

    delta: int
    payload: int
    index: int


@dataclass(frozen=True)
class EmbedResult:
    stego: tuple[str, ...]
    bits_embedded: int
    padding_bits: int
    trace: tuple[BlockTrace, ...]

    def consumed_bits(self) -> list[int]:
        """Every payload bit the embedder consumed (genuine first, then padding)."""
        out: list[int] = []
        for rec in self.trace:
            out.extend(bits_from_int(rec.payload, rec.delta))
        return out

    @property
    def blocks(self) -> int:
        return len(self.trace)


@dataclass(frozen=True)
class ExtractResult:
    bits: tuple[int, ...]
    trace: tuple[ExtractTrace, ...]


class _BitFeed:
    """Payload bits: the caller's stream first, then seeded padding bits."""

    __slots__ = ("_iter", "_rng", "genuine", "padding")

    def __init__(self, bits: Iterable[int], padding_rng: random.Random):
        self._iter = iter(bits)
        self._rng = padding_rng
        self.genuine = 0
        self.padding = 0

    def read_int(self, count: int) -> int:
        """Next ``count`` bits as an MSB-first integer."""
        if count <= 0:
            return 0
        value = 0
        taken = 0
        for bit in self._iter:
            if bit not in (0, 1):
                raise ValueError(f"payload bit must be 0 or 1, got {bit!r}")
            value = (value << 1) | bit
            taken += 1
            if taken == count:
                self.genuine += taken
                return value
        self.genuine += taken
        pad = count - taken
        value = (value << pad) | self._rng.getrandbits(pad)
        self.padding += pad
        return value


class _ClassInfo:
    """Cached per-composition data: size, expansion, optional member table.

    ``key`` is the class's sorted token tuple, shared with the cache's key.
    """

    __slots__ = ("key", "comp", "size", "exp", "hits", "pending", "members", "ranks")

    def __init__(self, key: tuple[str, ...], comp: Composition, size: int):
        self.key = key
        self.comp = comp
        self.size = size
        self.exp: BinaryExpansion = expand(size)
        self.hits = 0
        self.pending = size <= _MEMBER_TABLE_MAX_CLASS
        self.members: list[tuple[str, ...]] | None = None
        self.ranks: dict[tuple[str, ...], int] | None = None


def _class_members(sorted_word: list) -> list[tuple]:
    """All distinct rearrangements in lexicographic order (next-permutation walk).

    Works for any comparable elements; canonical token order is plain string
    order, so walking tokens and walking alphabet indices agree.
    """
    word = list(sorted_word)
    members = [tuple(word)]
    last = len(word) - 1
    while True:
        i = last - 1
        while i >= 0 and word[i] >= word[i + 1]:
            i -= 1
        if i < 0:
            return members
        j = last
        while word[j] <= word[i]:
            j -= 1
        word[i], word[j] = word[j], word[i]
        word[i + 1 :] = word[last:i:-1]
        members.append(tuple(word))


def _composition_and_size(indices: Sequence[int], n: int) -> tuple[Composition, int]:
    """Composition and class size from a canonically sorted index sequence."""
    counts: list[tuple[int, int]] = []
    run_sym = indices[0]
    run = 1
    total = 0
    size = 1
    for sym in indices[1:]:
        if sym == run_sym:
            run += 1
        else:
            counts.append((run_sym, run))
            total += run
            size *= comb(total, run)
            run_sym, run = sym, 1
    counts.append((run_sym, run))
    size *= comb(total + run, run)
    return Composition(tuple(counts), n), size


class _ClassCache:
    """Class cache keyed by the sorted token multiset of a block.

    Shared by one embed or extract invocation. Tokens are only resolved to
    alphabet indices the first time a class appears (which is also where
    unknown symbols surface); afterwards blocks hit the cache as plain
    token tuples.
    """

    __slots__ = ("_table", "_index", "_budget")

    def __init__(self, index: dict[str, int]) -> None:
        self._table: dict[tuple[str, ...], _ClassInfo] = {}
        self._index = index
        self._budget = _MEMBER_TABLE_BUDGET

    def lookup(self, chunk: Sequence[str], n: int) -> _ClassInfo:
        key = tuple(sorted(chunk))
        info = self._table.get(key)
        if info is None:
            index = self._index
            try:
                resolved = [index[t] for t in key]
            except KeyError as exc:
                raise UnknownSymbol(
                    f"symbol {exc.args[0]!r} is not in the alphabet"
                ) from None
            info = _ClassInfo(key, *_composition_and_size(resolved, n))
            self._table[key] = info
        info.hits += 1
        if (
            info.pending
            and info.hits >= 2
            and info.hits * _MEMBER_TABLE_HIT_FACTOR >= info.size
        ):
            info.pending = False
            if info.size <= self._budget:
                info.members = _class_members(list(key))
                info.ranks = {member: i for i, member in enumerate(info.members)}
                self._budget -= info.size
        return info


def _symbol_indexer(alphabet: Alphabet) -> dict[str, int]:
    return {token: i for i, token in enumerate(alphabet.symbols)}


def _validate_tokens(tokens: Sequence[str], index: dict[str, int]) -> None:
    for token in tokens:
        if token not in index:
            raise UnknownSymbol(f"symbol {token!r} is not in the alphabet")


def _require_codec_alphabet(alphabet: Alphabet) -> None:
    if len(alphabet) < 2:
        raise InvalidAlphabet("codec use requires an alphabet of at least 2 symbols")


def st2_embed(
    cover: Iterable[str],
    hidden: Iterable[int],
    alphabet: Alphabet,
    padding_rng: random.Random,
) -> EmbedResult:
    """Pair-based embedding: equal pairs pass, distinct pairs carry one bit."""
    _require_codec_alphabet(alphabet)
    index = _symbol_indexer(alphabet)
    symbols = alphabet.symbols
    feed = _BitFeed(hidden, padding_rng)
    out: list[str] = []
    trace: list[BlockTrace] = []
    pending: int | None = None
    for token in cover:
        try:
            i = index[token]
        except KeyError:
            raise UnknownSymbol(f"symbol {token!r} is not in the alphabet") from None
        if pending is None:
            pending = i
            continue
        a, pending = pending, None
        if a == i:
            out.append(symbols[a])
            out.append(symbols[a])
            trace.append(BlockTrace(Composition(((a, 2),), 2), 1, 0, 0, 0))
        else:
            bit = feed.read_int(1)
            lo, hi = (a, i) if a < i else (i, a)
            first, second = (lo, hi) if bit == 0 else (hi, lo)
            out.append(symbols[first])
            out.append(symbols[second])
            trace.append(BlockTrace(Composition(((lo, 1), (hi, 1)), 2), 2, 1, bit, bit))
    if pending is not None:
        out.append(symbols[pending])
    return EmbedResult(tuple(out), feed.genuine, feed.padding, tuple(trace))


def st2_extract(stego: Iterable[str], alphabet: Alphabet) -> ExtractResult:
    """Invert st2_embed: ascending distinct pair -> 0, descending -> 1."""
    _require_codec_alphabet(alphabet)
    index = _symbol_indexer(alphabet)
    bits: list[int] = []
    trace: list[ExtractTrace] = []
    pending: int | None = None
    for token in stego:
        try:
            i = index[token]
        except KeyError:
            raise UnknownSymbol(f"symbol {token!r} is not in the alphabet") from None
        if pending is None:
            pending = i
            continue
        a, pending = pending, None
        if a == i:
            trace.append(ExtractTrace(0, 0, 0))
        else:
            bit = 0 if a < i else 1
            bits.append(bit)
            trace.append(ExtractTrace(1, bit, bit))
    return ExtractResult(tuple(bits), tuple(trace))


def stn_embed(
    cover: Iterable[str],
    hidden: Iterable[int],
    n: int,
    alphabet: Alphabet,
    delta_rng: random.Random,
    padding_rng: random.Random,
    force_delta: int | None = None,
) -> EmbedResult:
    """Block-based embedding with randomized per-block payload length.

    ``force_delta`` pins the payload-length draw to a fixed value (test
    hook); it must be admissible for every block encountered, and the
    override is recorded on each trace record.
    """
    if n < 2:
        raise InvalidBlockLength(f"block length must be >= 2, got {n}")
    _require_codec_alphabet(alphabet)
    index = _symbol_indexer(alphabet)
    feed = _BitFeed(hidden, padding_rng)
    cache = _ClassCache(index)
    forced = force_delta is not None
    out: list[str] = []
    trace: list[BlockTrace] = []
    stream = iter(cover)
    while True:
        chunk = list(islice(stream, n))
        if len(chunk) < n:
            _validate_tokens(chunk, index)
            out.extend(chunk)  # trailing partial block, untouched
            break
        info = cache.lookup(chunk, n)
        d = sample_delta(info.exp, delta_rng, forced=force_delta)
        r = feed.read_int(d)
        tau = encode_index(info.exp, d, r)
        if info.members is not None:
            out.extend(info.members[tau])
        else:
            out.extend(unrank_indices(info.key, tau, info.size))
        trace.append(BlockTrace(info.comp, info.size, d, r, tau, forced))
    return EmbedResult(tuple(out), feed.genuine, feed.padding, tuple(trace))


def stn_extract(stego: Iterable[str], n: int, alphabet: Alphabet) -> ExtractResult:
    """Invert stn_embed from the stego stream alone."""
    if n < 2:
        raise InvalidBlockLength(f"block length must be >= 2, got {n}")
    _require_codec_alphabet(alphabet)
    index = _symbol_indexer(alphabet)
    cache = _ClassCache(index)
    bits: list[int] = []
    trace: list[ExtractTrace] = []
    stream = iter(stego)
    while True:
        chunk = list(islice(stream, n))
        if len(chunk) < n:
            _validate_tokens(chunk, index)  # trailing partial block yields nothing
            break
        info = cache.lookup(chunk, n)
        if info.ranks is not None:
            tau = info.ranks[tuple(chunk)]
        else:
            tau = rank_indices(chunk, info.size)
        d, r = decode_index(info.exp, tau)
        if d:
            bits.extend(bits_from_int(r, d))
        trace.append(ExtractTrace(d, r, tau))
    return ExtractResult(tuple(bits), tuple(trace))


def frame_payload(payload: bytes) -> bytes:
    """Prefix a payload with its 32-bit big-endian byte length.

    The length prefix is structured data; embedding it as-is breaks the
    uniform-payload assumption the hiding guarantee rests on. Encrypt the
    whole framed payload when the warden may know the framing convention.
    """
    if len(payload) >= 1 << 32:
        raise ValueError("payload too long for 32-bit framing")
    return len(payload).to_bytes(4, "big") + payload


def unframe_bits(bits: Sequence[int]) -> bytes:
    """Recover a framed payload from extracted bits; surplus bits are padding."""
    if len(bits) < 32:
        raise ValueError(f"framed stream needs >= 32 bits, got {len(bits)}")
    length = int_from_bits(bits[:32])
    need = 32 + 8 * length
    if len(bits) < need:
        raise ValueError(
            f"framed stream truncated: header says {length} bytes, "
            f"only {(len(bits) - 32) // 8} available"
        )
    return bits_to_bytes(bits[32:need])
