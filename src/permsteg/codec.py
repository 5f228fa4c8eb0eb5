"""Embed/extract state machines over symbol streams.

The stego stream has exactly the same length as the cover stream and, block
by block, the same letter counts, so under an i.i.d. cover source its
distribution is unchanged.

The stream is split into blocks of n symbols (``stn_*``). A block's
permutation class is named by the block's letters in sorted order, and its
size is the multinomial of their counts. For each block the codec draws a
payload length d with the band distribution of the class size (see
:mod:`permsteg.payload`), reads d payload bits MSB-first as a value r, and
emits the classmate whose rank is the band index for (d, r). The receiver
recomputes the class from the received block (letter counts are preserved),
ranks it, and inverts the band code; no shared randomness is involved in
decoding. A trailing partial block passes through unchanged.

The pair scheme (``st2_*``) is the block scheme at n = 2. A pair's class
has 1 word (equal letters) or 2, both powers of two, so no payload length is
ever drawn: an equal pair passes through, and a distinct pair carries one
bit, re-emitted in ascending canonical order for 0 and descending for 1.
The generators run pairs through a loop of their own that compares tokens as
strings (canonical order) instead of ranking them.

When the caller's payload runs out mid-stream, further payload bits are
drawn from a dedicated padding generator and counted separately, which
keeps the emitted distribution intact. Extraction cannot tell padding from
payload; it returns every bit the embedder consumed, in order.

Payload bits are pulled from the caller's iterable in windows of 64 (or as
many as one block needs, when that is more). A bit other than 0 or 1 (bools
count as 0 and 1) raises ValueError when its window is pulled, which can be
up to 63 bits before the block that would read it, and up to 63 bits past
the last one read may have been taken from the caller's iterator.

The codec takes each piece (see below) as one list, checks all its tokens
at once (an unknown one raises UnknownSymbol naming the first in stream
order, and its piece is not yielded) and splits it into blocks with
``zip``. Embed maps each raw block of a small class to its class entry in a
memo; any other block is sorted and its class size N taken in one
run-length pass. It then draws u uniform on [0, N) from the delta generator
as ``randrange(N)`` would (nothing for a power of two), takes d as the band
holding u and the index as offset(d) + r, all as int arithmetic on N, and
unranks the word at that index unless the class's member table holds it.
Extract, like ``EmbedResult.consumed_bits``, appends each block's payload
value to a window int and turns each window of 64 or more bits into bit
values in C.

Results keep one plain tuple of ints per block (``records``) rather than one
record object per block; the pair loop and extract's decode map reuse one
tuple for every block with the same record. ``trace`` builds the
``BlockTrace``/``ExtractTrace`` records from them when it is read.

Each direction is one generator that keeps one state for the whole stream
(bit feed, random generators, class table, decode map) and yields an
``EmbedResult`` or ``ExtractResult`` per piece of whole blocks; only the
last piece holds a trailing partial block. The ``*_pieces`` functions yield
pieces of at most ``_PIECE_SYMBOLS`` symbols, and the caches are capped in
entry count, so a caller that consumes the pieces one by one, as the CLI
does, holds memory independent of stream length. ``stn_embed``,
``stn_extract`` and their ``st2_*`` forms run the same generators with the
whole stream as one piece, so a stream's pieces joined equal its
whole-stream result.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, NamedTuple, Sequence

from .alphabet import Alphabet
# bits_from_int, encode_index, expand and sample_delta go unused here (the
# band code and bit packing are inlined below); bench/tracing.py wraps them
# by name in this module.
from .bits import BIT_DIGITS, DIGIT_BITS, bits_from_int, bits_to_bytes, int_from_bits
from .errors import InvalidAlphabet, InvalidBlockLength, UnknownSymbol
from .payload import decode_index, encode_index, expand, sample_delta
from .ranking import rank_indices, sorted_class_size, unrank_indices

# Embed keeps a member table for each class of at most _MEMBER_TABLE_MAX_CLASS
# words, filled on first use: a block unranks its word only if no earlier block
# emitted it, and stores it for later ones. Extract keeps the decoding of each
# distinct block of such a class. Larger classes stay on the rank/unrank path.
# Embed's class map (from a sorted key) and memo (from a raw block), extract's
# decode map and the words in embed's member tables are each capped at
# _MEMBER_TABLE_BUDGET.
_MEMBER_TABLE_MAX_CLASS = 2048
_MEMBER_TABLE_BUDGET = 1 << 21
# Symbols per piece of the *_pieces functions (whole blocks, or one block
# when a block is longer). Larger pieces raise the CLI's peak memory (by
# ~14 MB at 2**18 on 5*10**5-token files); smaller ones save under 1 MB more.
_PIECE_SYMBOLS = 1 << 12
# The whole-stream functions run the generators with a single piece, since
# joining pieces would copy every output symbol, bit and record once more.
_WHOLE_STREAM = sys.maxsize


class BlockTrace(NamedTuple):
    """What one embedded block did.

    ``class_size`` is the number of words with the block's letter counts,
    ``delta`` the number of payload bits the block carried, ``payload``
    their MSB-first integer value, and ``index`` the emitted word's rank
    within its permutation class. The codec keeps these fields as a plain
    tuple and builds the records only when ``EmbedResult.trace`` is read.
    """

    class_size: int
    delta: int
    payload: int
    index: int


class ExtractTrace(NamedTuple):
    """Per-block decode record: payload length, value, and class index."""

    delta: int
    payload: int
    index: int


# A pair carries no bit (equal letters, class size 1) or one bit b, which is
# also its index in a class of 2; so each side of the pair loop has three
# possible records, indexed here by 0 (no bit) and 1 + b.
_PAIR_EMBED_RECORD = ((1, 0, 0, 0), (2, 1, 0, 0), (2, 1, 1, 1))
_PAIR_EXTRACT_RECORD = ((0, 0, 0), (1, 0, 0), (1, 1, 1))


@dataclass(frozen=True)
class EmbedResult:
    """One embed call or piece: stego symbols, bit counts and per-block records.

    ``records`` holds one ``(class_size, delta, payload, index)`` tuple per
    full block; ``trace``, ``blocks`` and ``consumed_bits()`` are derived
    from them on request.
    """

    stego: tuple[str, ...]
    bits_embedded: int
    padding_bits: int
    records: tuple[tuple[int, int, int, int], ...]

    @property
    def trace(self) -> tuple[BlockTrace, ...]:
        return tuple(map(BlockTrace._make, self.records))

    @property
    def blocks(self) -> int:
        return len(self.records)

    def consumed_bits(self) -> list[int]:
        """Every payload bit the embedder consumed (genuine first, then padding)."""
        bits = bytearray()
        window = 1  # a leading 1, then the payload values not yet in ``bits``
        for _, d, r, _ in self.records:
            window = (window << d) | r
            if window >> _WINDOW_BITS:
                bits += bin(window)[3:].encode().translate(DIGIT_BITS)
                window = 1
        bits += bin(window)[3:].encode().translate(DIGIT_BITS)
        return list(bits)


@dataclass(frozen=True)
class ExtractResult:
    """One extract call or piece: the bits read and per-block records.

    ``records`` holds one ``(delta, payload, index)`` tuple per full block;
    ``trace`` builds ``ExtractTrace`` records from them on request.
    """

    bits: tuple[int, ...]
    records: tuple[tuple[int, int, int], ...]

    @property
    def trace(self) -> tuple[ExtractTrace, ...]:
        return tuple(map(ExtractTrace._make, self.records))


# The bit feed pulls payload bits in windows of this many (more when one read
# needs more), turns a window into one int in C, and serves each read from it
# with a shift and a mask. Extract packs its bits in windows of the same size.
_WINDOW_BITS = 64


class _BitFeed:
    """Payload bits: the caller's stream first, then seeded padding bits.

    A window of bits is pulled from the caller's iterator before any of them
    is read, so a bad bit raises when its window is pulled, and up to
    ``_WINDOW_BITS - 1`` pulled bits may be left unread when a stream ends.
    """

    __slots__ = ("_iter", "_rng", "_window", "_avail", "_pulled", "padding")

    def __init__(self, bits: Iterable[int], padding_rng: random.Random):
        self._iter: Iterator[int] | None = iter(bits)  # None once it ran out
        self._rng = padding_rng
        self._window = 0  # its low ``_avail`` bits are the unread ones
        self._avail = 0
        self._pulled = 0
        self.padding = 0

    @property
    def genuine(self) -> int:
        """Bits read from the caller's stream so far."""
        return self._pulled - self._avail

    def read_int(self, count: int) -> int:
        """Next ``count`` bits as an MSB-first integer."""
        avail = self._avail - count
        if avail >= 0:
            self._avail = avail
            return (self._window >> avail) & ((1 << count) - 1)
        return self._read_past_window(count)

    def _read_past_window(self, count: int) -> int:
        """The window's unread bits, then a fresh window's, then padding."""
        need = count - self._avail
        value = self._window & ((1 << self._avail) - 1)
        self._avail = 0
        if self._iter is not None:
            want = max(need, _WINDOW_BITS)
            try:
                window = bytes(islice(self._iter, want))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"payload bits must be 0 or 1: {exc}") from None
            if window:
                try:
                    fresh = int(window.translate(BIT_DIGITS), 2)
                except ValueError:
                    bad = next(bit for bit in window if bit > 1)
                    raise ValueError(f"payload bit must be 0 or 1, got {bad!r}") from None
                self._pulled += len(window)
                if len(window) >= need:
                    self._window = fresh
                    self._avail = len(window) - need
                    return (value << need) | (fresh >> self._avail)
                value = (value << len(window)) | fresh
                need -= len(window)
            self._iter = None
        self.padding += need
        return (value << need) | self._rng.getrandbits(need)


def _symbol_indexer(alphabet: Alphabet) -> dict[str, int]:
    return {token: i for i, token in enumerate(alphabet.symbols)}


def _validate_tokens(tokens: Sequence[str], index: dict[str, int]) -> None:
    """Raise UnknownSymbol naming the first of ``tokens`` not in the alphabet."""
    if not index.keys() >= set(tokens):
        token = next(token for token in tokens if token not in index)
        raise UnknownSymbol(f"symbol {token!r} is not in the alphabet")


def _require_codec_alphabet(alphabet: Alphabet) -> None:
    if len(alphabet) < 2:
        raise InvalidAlphabet("codec use requires an alphabet of at least 2 symbols")


def _stn_embed(
    piece_symbols: int,
    cover: Iterable[str],
    hidden: Iterable[int],
    n: int,
    alphabet: Alphabet,
    delta_rng: random.Random,
    padding_rng: random.Random,
) -> Iterator[EmbedResult]:
    if n < 2:
        raise InvalidBlockLength(f"block length must be >= 2, got {n}")
    _require_codec_alphabet(alphabet)
    index = _symbol_indexer(alphabet)
    feed = _BitFeed(hidden, padding_rng)
    read_int = feed.read_int
    getrandbits = delta_rng.getrandbits
    # [size, draw width or 0 for a power of two, member table or None above
    # _MEMBER_TABLE_MAX_CLASS, sorted key] per class; see above
    classes: dict[tuple[str, ...], list] = {}
    memo: dict[tuple[str, ...], list] = {}
    budget = _MEMBER_TABLE_BUDGET
    piece_size = n * max(1, piece_symbols // n)
    stream = iter(cover)
    done = False
    while not done:
        piece = list(islice(stream, piece_size))
        done = len(piece) < piece_size
        _validate_tokens(piece, index)
        genuine, padding = feed.genuine, feed.padding
        out: list[str] = []
        records: list[tuple[int, int, int, int]] = []
        if n == 2:
            # a pair class has 1 or 2 words, so no payload length is drawn
            pairs = iter(piece)
            for x, y in zip(pairs, pairs):
                if x == y:
                    out.append(x)
                    out.append(y)
                    records.append(_PAIR_EMBED_RECORD[0])
                else:
                    bit = read_int(1)
                    if bit == (x > y):  # ascending for 0, descending for 1
                        out.append(x)
                        out.append(y)
                    else:
                        out.append(y)
                        out.append(x)
                    records.append(_PAIR_EMBED_RECORD[1 + bit])
        else:
            for block in zip(*[iter(piece)] * n):
                entry = memo.get(block)
                if entry is None:
                    key = sorted(block)
                    size = sorted_class_size(key)
                    width = size.bit_length() if size & (size - 1) else 0
                    if size > _MEMBER_TABLE_MAX_CLASS:
                        entry = [size, width, None, key]
                    else:
                        key = tuple(key)
                        entry = classes.get(key) or [size, width, {}, key]
                        # memo >= classes, so this caps both
                        if len(memo) < _MEMBER_TABLE_BUDGET:
                            classes[key] = memo[block] = entry
                size, width, members, key = entry
                # u uniform on [0, N) by randrange(N)'s own rejection loop, and
                # d the band holding u; a power of two draws nothing
                u = getrandbits(width) if width else 0
                while u >= size:
                    u = getrandbits(width)
                d = (size ^ u).bit_length() - 1
                r = read_int(d)
                tau = size >> d >> 1 << d << 1 | r
                if members is None:
                    out.extend(unrank_indices(key, tau, size))
                else:
                    try:
                        word = members[tau]
                    except KeyError:
                        word = tuple(unrank_indices(key, tau, size))
                        if budget:
                            members[tau] = word
                            budget -= 1
                    out.extend(word)
                records.append((size, d, r, tau))
        out.extend(piece[len(piece) - len(piece) % n :])  # trailing partial block, untouched
        yield EmbedResult(tuple(out), feed.genuine - genuine, feed.padding - padding, tuple(records))


def _stn_extract(
    piece_symbols: int, stego: Iterable[str], n: int, alphabet: Alphabet
) -> Iterator[ExtractResult]:
    if n < 2:
        raise InvalidBlockLength(f"block length must be >= 2, got {n}")
    _require_codec_alphabet(alphabet)
    index = _symbol_indexer(alphabet)
    decoded: dict[tuple[str, ...], tuple[int, int, int]] = {}
    piece_size = n * max(1, piece_symbols // n)
    stream = iter(stego)
    done = False
    while not done:
        piece = list(islice(stream, piece_size))
        done = len(piece) < piece_size
        _validate_tokens(piece, index)  # a trailing partial block yields nothing
        bits = bytearray()
        records: list[tuple[int, int, int]] = []
        if n == 2:
            pairs = iter(piece)
            for x, y in zip(pairs, pairs):
                if x == y:
                    records.append(_PAIR_EXTRACT_RECORD[0])
                else:
                    bit = x > y
                    bits.append(bit)
                    records.append(_PAIR_EXTRACT_RECORD[1 + bit])
        else:
            window = 1  # a leading 1, then the block values not yet in ``bits``
            for block in zip(*[iter(piece)] * n):
                rec = decoded.get(block)
                if rec is None:
                    tau, size = rank_indices(block)
                    d, r = decode_index(size, tau)
                    rec = (d, r, tau)
                    if size <= _MEMBER_TABLE_MAX_CLASS and len(decoded) < _MEMBER_TABLE_BUDGET:
                        decoded[block] = rec
                else:
                    d, r, _ = rec
                records.append(rec)
                window = (window << d) | r
                if window >> _WINDOW_BITS:
                    bits += bin(window)[3:].encode().translate(DIGIT_BITS)
                    window = 1
            bits += bin(window)[3:].encode().translate(DIGIT_BITS)
        yield ExtractResult(tuple(bits), tuple(records))


def st2_embed(
    cover: Iterable[str],
    hidden: Iterable[int],
    alphabet: Alphabet,
    padding_rng: random.Random,
) -> EmbedResult:
    """Pair scheme: stn_embed at n = 2, which draws no payload length."""
    return stn_embed(cover, hidden, 2, alphabet, random.Random(0), padding_rng)


def st2_extract(stego: Iterable[str], alphabet: Alphabet) -> ExtractResult:
    """Invert st2_embed: ascending distinct pair -> 0, descending -> 1."""
    return stn_extract(stego, 2, alphabet)


def stn_embed(
    cover: Iterable[str],
    hidden: Iterable[int],
    n: int,
    alphabet: Alphabet,
    delta_rng: random.Random,
    padding_rng: random.Random,
) -> EmbedResult:
    """Block-based embedding with randomized per-block payload length."""
    (whole,) = _stn_embed(_WHOLE_STREAM, cover, hidden, n, alphabet, delta_rng, padding_rng)
    return whole


def stn_embed_pieces(
    cover: Iterable[str],
    hidden: Iterable[int],
    n: int,
    alphabet: Alphabet,
    delta_rng: random.Random,
    padding_rng: random.Random,
) -> Iterator[EmbedResult]:
    """stn_embed over a stream, in pieces of at most _PIECE_SYMBOLS symbols.

    A piece holds whole blocks, or one block when a block is longer.
    """
    return _stn_embed(_PIECE_SYMBOLS, cover, hidden, n, alphabet, delta_rng, padding_rng)


def stn_extract(stego: Iterable[str], n: int, alphabet: Alphabet) -> ExtractResult:
    """Invert stn_embed from the stego stream alone."""
    (whole,) = _stn_extract(_WHOLE_STREAM, stego, n, alphabet)
    return whole


def stn_extract_pieces(stego: Iterable[str], n: int, alphabet: Alphabet) -> Iterator[ExtractResult]:
    """stn_extract over a stream, in pieces of at most _PIECE_SYMBOLS symbols.

    A piece holds whole blocks, or one block when a block is longer.
    """
    return _stn_extract(_PIECE_SYMBOLS, stego, n, alphabet)


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
