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
Pairs run through a loop of their own that branches on the tokens' string
order (canonical order) instead of ranking them.

When the caller's payload runs out mid-stream, further payload bits are
drawn from a dedicated padding generator and counted separately, which
keeps the emitted distribution intact. Extraction cannot tell padding from
payload; it returns every bit the embedder consumed, in order.

Payload bits are pulled from the caller's iterable in windows of 64 (or as
many as one block needs, when that is more), and each window parses through
``bits.int_from_bits``. Both loops read that window, held in the embed
generator's locals, with a shift and a mask; a read past it calls
``_BitFeed.pull``, which draws each padded read as one ``getrandbits(count)``
(one bit per distinct pair). A bit other than 0 or 1 (bools count as 0
and 1) raises ValueError naming the item when its window is pulled, which
can be up to 63 bits before the block that would read it, and up to 63 bits
past the last one read may have been taken from the caller's iterator.

``_pieces`` is the one owner of the codec's input rules: n >= 2, an
alphabet of at least 2 symbols, and known tokens. It takes each piece (see
below) as one list, checks all its tokens with one set test (an unknown one
raises UnknownSymbol naming the first in stream order, and its piece is not
yielded) and splits it into blocks with ``zip`` and a trailing partial
block. Embed maps each raw block of a small class to its class entry in a
memo; any other block is sorted and its class size N taken in one
run-length pass. It then draws u uniform on [0, N) from the delta generator
as ``randrange(N)`` would (nothing for a power of two), takes d as the band
holding u and the index as offset(d) + r, where offset(d) is u with its low
d bits cleared (u agrees with N above bit d and has a 0 at it), and unranks
the word at that index unless the class's member table holds it.
Extract ranks each block its decode map does not hold, takes d as the band
holding the rank tau and r as tau's low d bits, again as int arithmetic on
N. Like ``EmbedResult.consumed_bits``, it appends each block's payload
value to a window int and turns each window of 64 or more bits into bit
values in C.

Results keep one plain tuple of ints per block (``records``) rather than one
record object per block; the pair loop, embed's member tables and extract's
decode map reuse one tuple for every block with the same record. ``trace``
builds the ``BlockTrace``/``ExtractTrace`` records from them when it is read.

Each direction is one generator that keeps one state for the whole stream
(bit window and feed, random generators, class table, decode map) and yields an
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
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .alphabet import Alphabet
# bits_from_int, decode_index, encode_index, expand and sample_delta go
# unused here (the band code and bit packing are inlined below);
# bench/tracing.py wraps them by name in this module.
from .bits import DIGIT_BITS, bits_from_int, bits_to_bytes, int_from_bits
from .errors import InvalidAlphabet, InvalidBlockLength, UnknownSymbol
from .payload import decode_index, encode_index, expand, sample_delta
from .ranking import rank_indices, sorted_class_size, unrank_indices

# Embed keeps a member table for each class of at most _MEMBER_TABLE_MAX_CLASS
# words, filled on first use: a block unranks its word only if no earlier block
# emitted it, and stores the word and its record for later ones, which emit
# the word and append that same record. Extract keeps the decoding of each
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
# also its index in a class of 2: records for no bit, b = 0 and b = 1.
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

    The embed generator keeps the window of pulled bits in its locals and
    reads it with a shift and a mask; ``pull`` serves any read past it. The
    caller's bits are pulled a window at a time, before any of them is read,
    so a bad bit raises when its window is pulled, and up to
    ``_WINDOW_BITS - 1`` pulled bits may be left unread when a stream ends.
    Each padded read is one ``getrandbits(count)``.
    """

    __slots__ = ("_iter", "_rng", "pulled", "padding")

    def __init__(self, bits: Iterable[int], padding_rng: random.Random):
        self._iter: Iterator[int] | None = iter(bits)  # None once it ran out
        self._rng = padding_rng
        self.pulled = 0  # caller's bits taken; those read are pulled - avail
        self.padding = 0

    def pull(self, window: int, avail: int, count: int) -> tuple[int, int, int]:
        """(value, window, avail) for the next ``count`` bits, MSB-first.

        The value is the window's ``avail`` unread low bits, then a fresh
        window's, then padding; the returned window and avail hold what is
        left unread of the fresh one.
        """
        need = count - avail
        value = window & ((1 << avail) - 1)
        if self._iter is not None:
            bits = list(islice(self._iter, max(need, _WINDOW_BITS)))
            if bits:
                fresh = int_from_bits(bits)
                self.pulled += len(bits)
                if len(bits) >= need:
                    avail = len(bits) - need
                    return (value << need) | (fresh >> avail), fresh, avail
                value = (value << len(bits)) | fresh
                need -= len(bits)
            self._iter = None
        self.padding += need
        return (value << need) | self._rng.getrandbits(need), 0, 0


def _pieces(
    stream: Iterable[str], n: int, alphabet: Alphabet, piece_symbols: int
) -> Iterator[tuple[Iterator[tuple[str, ...]], list[str]]]:
    """A stream's pieces, each as (its whole blocks, its trailing partial block).

    A piece holds ``n * max(1, piece_symbols // n)`` symbols; only the last
    may be short. Its tokens are checked with one set test before it is
    yielded, and an unknown one raises UnknownSymbol naming the first in
    stream order.
    """
    if n < 2:
        raise InvalidBlockLength(f"block length must be >= 2, got {n}")
    if len(alphabet) < 2:
        raise InvalidAlphabet("codec use requires an alphabet of at least 2 symbols")
    symbols = frozenset(alphabet.symbols)
    size = n * max(1, piece_symbols // n)
    stream = iter(stream)
    while True:
        piece = list(islice(stream, size))
        if not symbols.issuperset(piece):
            token = next(token for token in piece if token not in symbols)
            raise UnknownSymbol(f"symbol {token!r} is not in the alphabet")
        yield zip(*[iter(piece)] * n), piece[len(piece) - len(piece) % n :]
        if len(piece) < size:
            return


def _stn_embed(
    piece_symbols: int,
    cover: Iterable[str],
    hidden: Iterable[int],
    n: int,
    alphabet: Alphabet,
    delta_rng: random.Random,
    padding_rng: random.Random,
) -> Iterator[EmbedResult]:
    feed = _BitFeed(hidden, padding_rng)
    pull = feed.pull
    window = avail = 0  # the bit window: its low ``avail`` bits are unread
    same, zero, one = _PAIR_EMBED_RECORD
    getrandbits = delta_rng.getrandbits
    # (size, draw width or 0 for a power of two, member table or None above
    # _MEMBER_TABLE_MAX_CLASS, sorted key) per class; a member table maps an
    # index to its word and its block's record; see above
    classes: dict[tuple[str, ...], tuple] = {}
    memo: dict[tuple[str, ...], tuple] = {}
    budget = _MEMBER_TABLE_BUDGET
    for blocks, tail in _pieces(cover, n, alphabet, piece_symbols):
        genuine, padding = feed.pulled - avail, feed.padding
        out: list[str] = []
        records: list[tuple[int, int, int, int]] = []
        if n == 2:
            # a pair class has 1 or 2 words, so no payload length is drawn
            for x, y in blocks:
                if x == y:
                    records.append(same)
                else:
                    if x > y:
                        x, y = y, x
                    avail -= 1
                    if avail >= 0:
                        bit = window >> avail & 1
                    else:
                        bit, window, avail = pull(window, 0, 1)
                    if bit:  # ascending for 0, descending for 1
                        x, y = y, x
                        records.append(one)
                    else:
                        records.append(zero)
                out.append(x)
                out.append(y)
        else:
            for block in blocks:
                entry = memo.get(block)
                if entry is None:
                    key = sorted(block)
                    size = sorted_class_size(key)
                    width = size.bit_length() if size & (size - 1) else 0
                    if size > _MEMBER_TABLE_MAX_CLASS:
                        entry = (size, width, None, key)
                    else:
                        key = tuple(key)
                        entry = classes.get(key) or (size, width, {}, key)
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
                avail -= d
                if avail >= 0:
                    r = window >> avail & ((1 << d) - 1)
                else:
                    r, window, avail = pull(window, avail + d, d)
                tau = u >> d << d | r  # u's bits above d are band d's offset
                if members is None:
                    out.extend(unrank_indices(key, tau, size))
                    records.append((size, d, r, tau))
                else:
                    try:
                        word, record = members[tau]
                    except KeyError:
                        word = tuple(unrank_indices(key, tau, size))
                        record = (size, d, r, tau)
                        if budget:
                            members[tau] = word, record
                            budget -= 1
                    out.extend(word)
                    records.append(record)
        out.extend(tail)  # trailing partial block, untouched
        yield EmbedResult(tuple(out), feed.pulled - avail - genuine, feed.padding - padding, tuple(records))


def _stn_extract(
    piece_symbols: int, stego: Iterable[str], n: int, alphabet: Alphabet
) -> Iterator[ExtractResult]:
    decoded: dict[tuple[str, ...], tuple[int, int, int]] = {}
    same, zero, one = _PAIR_EXTRACT_RECORD
    for blocks, _ in _pieces(stego, n, alphabet, piece_symbols):  # a partial block has no bits
        bits = bytearray()
        records: list[tuple[int, int, int]] = []
        if n == 2:
            for x, y in blocks:
                if x == y:
                    records.append(same)
                elif x > y:
                    bits.append(1)
                    records.append(one)
                else:
                    bits.append(0)
                    records.append(zero)
        else:
            window = 1  # a leading 1, then the block values not yet in ``bits``
            for block in blocks:
                rec = decoded.get(block)
                if rec is None:
                    tau, size = rank_indices(block)
                    # the band holding tau, as in decode_index
                    d = (size ^ tau).bit_length() - 1
                    r = tau & ((1 << d) - 1)
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
    out = bytearray()
    write_payload([bits], True, out.extend)
    return bytes(out)


def write_payload(
    pieces: Iterable[Sequence[int]], framed: bool, write: Callable[[bytes], object]
) -> tuple[int, int]:
    """Pass the payload in a stream of extracted bit pieces to ``write``, as bytes.

    Unframed, the payload is every bit, and every piece is read. Framed, it
    is the frame after its 32-bit length header (ValueError if the stream is
    shorter), and no piece is pulled past the one that completes the frame.
    Whole bytes go out per piece, a final partial byte zero-padded. Returns
    (bits recovered, payload bits): framed, the bits recovered are the
    frame's, 32 + 8 * its byte length; unframed, every bit read.
    """
    # payload bits lie at stream offsets [start, stop); framed, stop comes with the header
    start, stop = (32, None) if framed else (0, sys.maxsize)
    # lists, not bytearrays, so a bad item meets int_from_bits' check and message
    header: list[int] = []
    pending: list[int] = []  # payload bits that do not fill a byte yet
    read = 0  # the stream offset of the next piece's bits
    for bits in pieces:
        if stop is None:
            header += bits[: 32 - len(header)]
            if len(header) == 32:
                stop = 32 + 8 * int_from_bits(header)
        if stop is not None:
            pending += bits[max(start - read, 0) : max(stop - read, 0)]
            whole = len(pending) - len(pending) % 8
            if whole:
                write(bits_to_bytes(pending[:whole]))
                del pending[:whole]
        read += len(bits)
        if stop is not None and read >= stop:
            break
    if framed and stop is None:
        raise ValueError(f"framed stream needs >= 32 bits, got {read}")
    if framed and read < stop:
        raise ValueError(
            f"framed stream truncated: header says {(stop - 32) // 8} bytes, "
            f"only {(read - 32) // 8} available"
        )
    write(bits_to_bytes(pending))
    read = min(read, stop)
    return read, read - start
