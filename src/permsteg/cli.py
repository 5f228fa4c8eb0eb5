"""Command-line interface: embed, extract, generate, analyze, rates.

File conventions: alphabet and symbol-stream files are newline-delimited
tokens; source-model files are ``token probability`` lines; hidden payloads
are raw bytes consumed MSB-first. All randomness is seeded explicitly, so
identical invocations produce byte-identical outputs and reports.

Exit codes: 0 success, 2 I/O failure, 3 unknown symbol in a stream,
4 invalid configuration (including, in either ``analyze`` mode, an outcome
space beyond the enumeration guard, before anything is embedded).
Exit 2 is also click's own code for usage errors, such as a missing or
unknown option; those print click's ``Error: ...`` usage message instead
of an ``error: ...`` line.

``embed`` and ``extract`` stream from file to file: tokens are read in
batches, the codec works a piece of whole blocks at a time, and stego
tokens are written per piece, so memory does not grow with the file's
length. ``embed`` reads the hidden file in chunks; framed, it reads it
whole, since a framed payload must fit the cover. ``embed`` embeds only
through the first piece that pads, where the payload ran out, and writes
every later piece of the cover unchanged but token-checked: a cover block
is already uniform in its class, so the stream keeps the product law, and
the stego holds at most one piece of padding bits. Its ``padding_bits`` is
that piece's, and ``passed_blocks`` counts the full blocks written
unchanged, which ``blocks`` includes. ``extract`` writes the
whole bytes of each piece's bits and carries fewer than 8 bits to the next
piece; framed, it reads the 32-bit header and then writes exactly the
frame's bits. Framed, it decodes only through the piece that completes the
frame and reads the rest of the stream through the codec's token check
without decoding it, so an unknown token after the frame still exits 3 and
``stego_symbols`` counts the whole stream; ``bits_recovered`` is then the
frame's bits, 32 + 8 * ``payload_bytes``, and unframed every bit recovered.
``generate`` draws and writes its cover a piece at a time.
Only ``generate``, ``analyze`` and ``rates`` import the analysis suite and
the simulated sources.

Every output file (``--out`` and ``--report``) is written atomically: to a
temporary file beside it, renamed into place only on success. A failure
leaves no temporary file and leaves an existing output file as it was.

A payload longer than the cover can carry is embedded only in part. Without
``--frame-length`` the embed still exits 0 and ``bits_embedded`` in the
summary says how many leading bits went in. With ``--frame-length`` a
framed payload that does not fit whole exits 4 and writes no stego file,
since the receiver could not unframe it.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import random
import sys
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import click

from . import codec
from .alphabet import Alphabet
from .bits import iter_bits
from .codec import frame_payload, stn_embed_pieces, stn_extract_pieces, write_payload
from .errors import InvalidBlockLength, PermstegError, UnknownSymbol

# The benchmark's tracer (bench/tracing.py) wraps these names in this module.
# The commands no longer call them: they stream through the *_pieces generators,
# and extract unframes and packs its bits in codec.write_payload.
from .bits import bits_to_bytes, bytes_to_bits  # noqa: F401
from .codec import st2_embed, st2_extract, stn_embed, stn_extract, unframe_bits  # noqa: F401

EXIT_IO = 2
EXIT_UNKNOWN_SYMBOL = 3
EXIT_CONFIG = 4

# Lines of a token file are read in batches of about this many bytes, and a
# hidden file in chunks of this many bytes. On 5*10**5-token files, 1 << 14
# and 1 << 16 raise the peak RSS by ~0.5 and ~2.5 MB at the same speed.
_READ_BATCH_BYTES = 1 << 12


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _guarded(fn):
    """Map exceptions to the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except UnknownSymbol as exc:
            _fail(EXIT_UNKNOWN_SYMBOL, str(exc))
        except (PermstegError, ValueError) as exc:
            _fail(EXIT_CONFIG, str(exc))
        except OSError as exc:
            _fail(EXIT_IO, str(exc))

    return wrapper


def _read_tokens(fh) -> list[str] | None:
    """Tokens on the next batch of lines of an open text file; None at its end."""
    lines = fh.readlines(_READ_BATCH_BYTES)
    return [token for token in map(str.strip, lines) if token] if lines else None


class _TokenStream:
    """The tokens of an open text file, read batch by batch as they are used.

    Every ``iter()`` hands out the same iterator, so a second pass resumes at
    the token after the last one the first pass took; ``count`` is the number
    of tokens read so far.
    """

    def __init__(self, fh) -> None:
        self._fh = fh
        self.count = 0
        self._tokens = chain.from_iterable(self._batches())

    def __iter__(self) -> Iterator[str]:
        return self._tokens

    def _batches(self) -> Iterator[list[str]]:
        while (batch := _read_tokens(self._fh)) is not None:
            self.count += len(batch)
            yield batch


def _hidden_bits(fh, frame_length: bool) -> tuple[Iterator[int], int]:
    """The bits to embed from an open hidden file, and the framed bit count.

    Unframed, the file is read chunk by chunk and the count is 0. Framed, it
    is read whole, as the payload must fit the cover anyway.
    """
    if frame_length:
        payload = frame_payload(fh.read())
        return iter_bits(payload), 8 * len(payload)
    chunks = iter(functools.partial(fh.read, _READ_BATCH_BYTES), b"")
    return chain.from_iterable(map(iter_bits, chunks)), 0


def _write_tokens(fh, tokens: Sequence[str]) -> None:
    """Write tokens to an open text file, one per line."""
    if tokens:
        fh.write("\n".join(tokens))
        fh.write("\n")


def _embed_stream(cover: Iterable[str], hidden: Iterable[int], n: int, alphabet: Alphabet,
                  delta_rng: random.Random, padding_rng: random.Random,
                  write: Callable[[Sequence[str]], object]) -> tuple[int, int, int]:
    """Embed ``hidden`` in ``cover`` and pass each piece's stego tokens to ``write``.

    Pieces are embedded through the first one that pads, where the caller's
    bits ran out; every later piece is token-checked and written as read.
    Whether to stop after a piece rests only on that piece and the ones
    before it, and a cover block is uniform in its class given all of them,
    so the stream keeps the product law. ``cover`` must resume where the
    embed stopped when iterated again, as an iterator or ``_TokenStream``
    does. Returns (blocks embedded, bits embedded, padding bits of the last
    embedded piece).
    """
    embedded = bits = padding = 0
    for piece in stn_embed_pieces(cover, hidden, n, alphabet, delta_rng, padding_rng):
        write(piece.stego)
        embedded += piece.blocks
        bits += piece.bits_embedded
        padding = piece.padding_bits
        if padding:
            break
    for blocks, tail in codec._pieces(cover, n, alphabet, codec._PIECE_SYMBOLS):
        write([*chain.from_iterable(blocks), *tail])
    return embedded, bits, padding


@contextlib.contextmanager
def _atomic_out(path: str, binary: bool = False):
    """Write to a new file beside ``path``, renamed over it only on success.

    On any failure the temporary file is removed and ``path`` is untouched.
    """
    target = Path(path)
    tmp = target.with_name(f".{target.name}.{os.urandom(6).hex()}.tmp")
    fh = open(tmp, "xb") if binary else open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class _HeldOut:
    """Binary writes to ``_atomic_out(path)`` whose ``OSError`` waits for ``check``.

    Extract writes while it still reads its stream. Holding the output's fault
    back lets a fault later in the stream set the exit code, as when the
    output was opened only after the whole stream was read.
    """

    def __init__(self, stack: contextlib.ExitStack, path: str) -> None:
        self.error: OSError | None = None
        try:
            self._fh = stack.enter_context(_atomic_out(path, binary=True))
        except OSError as exc:
            self.error = exc

    def write(self, data: bytes) -> None:
        if self.error is None:
            try:
                self._fh.write(data)
            except OSError as exc:
                self.error = exc

    def check(self) -> None:
        if self.error is not None:
            raise self.error


def _emit(summary: dict) -> None:
    click.echo(json.dumps(summary, sort_keys=True))


def _write_report(path: str | None, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2)
    if path:
        with _atomic_out(path) as out:
            out.write(text + "\n")
    else:
        click.echo(text)


@click.group()
def main() -> None:
    """Distribution-preserving steganography over symbol streams."""


@main.command()
@click.option("--alphabet", "alphabet_path", required=True, help="Alphabet file (one token per line).")
@click.option("--scheme", type=click.Choice(["st2", "stn"]), default="stn", show_default=True)
@click.option("--block-size", "-n", "block_size", type=int, default=2, show_default=True,
              help="Block length for the stn scheme (st2 fixes it at 2).")
@click.option("--cover", "cover_path", required=True, help="Cover stream file.")
@click.option("--hidden", "hidden_path", required=True, help="Hidden payload file (raw bytes).")
@click.option("--out", "out_path", required=True, help="Stego stream output file.")
@click.option("--seed-delta", type=int, default=1, show_default=True,
              help="Seed for the payload-length draws.")
@click.option("--seed-padding", type=int, default=2, show_default=True,
              help="Seed for padding bits after payload exhaustion.")
@click.option("--frame-length", is_flag=True,
              help="Prefix the payload with its 32-bit length (encrypt framed payloads!).")
@_guarded
def embed(alphabet_path, scheme, block_size, cover_path, hidden_path, out_path,
          seed_delta, seed_padding, frame_length) -> None:
    """Embed a hidden payload into a cover stream."""
    alphabet = Alphabet.from_file(alphabet_path)
    with open(cover_path, "r", encoding="utf-8") as cover_fh, open(hidden_path, "rb") as fh:
        hidden, framed_bits = _hidden_bits(fh, frame_length)
        cover = _TokenStream(cover_fh)
        if scheme == "st2":
            block_size = 2
        with _atomic_out(out_path) as out:
            embedded, bits_embedded, padding_bits = _embed_stream(
                cover, hidden, block_size, alphabet, random.Random(seed_delta),
                random.Random(seed_padding), functools.partial(_write_tokens, out))
            if bits_embedded < framed_bits:
                raise ValueError(
                    f"framed payload of {framed_bits} bits does not fit the cover: "
                    f"bits_embedded {bits_embedded}"
                )
    blocks = cover.count // block_size
    summary = {
        "scheme": scheme,
        "block_size": block_size,
        "cover_symbols": cover.count,
        "blocks": blocks,
        "passed_blocks": blocks - embedded,
        "bits_embedded": bits_embedded,
        "padding_bits": padding_bits,
        "bits_per_symbol": bits_embedded / cover.count if cover.count else 0.0,
        "bits_per_block": bits_embedded / blocks if blocks else 0.0,
        "seeds": {"delta": seed_delta, "padding": seed_padding},
    }
    _emit(summary)


@main.command()
@click.option("--alphabet", "alphabet_path", required=True, help="Alphabet file.")
@click.option("--scheme", type=click.Choice(["st2", "stn"]), default="stn", show_default=True)
@click.option("--block-size", "-n", "block_size", type=int, default=2, show_default=True,
              help="Block length for the stn scheme (st2 fixes it at 2).")
@click.option("--stego", "stego_path", required=True, help="Stego stream file to decode.")
@click.option("--out", "out_path", required=True, help="Recovered payload output file (raw bytes).")
@click.option("--frame-length", is_flag=True,
              help="Interpret the leading 32 bits as the payload byte length.")
@_guarded
def extract(alphabet_path, scheme, block_size, stego_path, out_path, frame_length) -> None:
    """Recover the embedded bit stream from a stego stream."""
    alphabet = Alphabet.from_file(alphabet_path)
    if scheme == "st2":
        block_size = 2
    with open(stego_path, "r", encoding="utf-8") as fh, contextlib.ExitStack() as stack:
        out = _HeldOut(stack, out_path)
        stego = _TokenStream(fh)
        pieces = (piece.bits for piece in stn_extract_pieces(stego, block_size, alphabet))
        recovered, payload_bits = write_payload(pieces, frame_length, out.write)
        # framed, the stream past the frame's last piece is token-checked, not decoded
        for _ in codec._pieces(stego, block_size, alphabet, codec._PIECE_SYMBOLS):
            pass
        out.check()
    _emit({
        "scheme": scheme,
        "stego_symbols": stego.count,
        "bits_recovered": recovered,
        "payload_bits": payload_bits,
        "payload_bytes": (payload_bits + 7) // 8,
        "framed": frame_length,
    })


# click cuts a listed command's help at the first word ending in a period.
@main.command(short_help="Draw an i.i.d. cover stream from a source model.")
@click.option("--model", "model_path", required=True, help="Source model file.")
@click.option("--count", type=int, required=True, help="Number of cover symbols to draw.")
@click.option("--seed-source", type=int, default=0, show_default=True)
@click.option("--out", "out_path", required=True, help="Cover stream output file.")
@_guarded
def generate(model_path, count, seed_source, out_path) -> None:
    """Draw an i.i.d. cover stream from a source model."""
    from .analysis import model_digest
    from .sources import draw_cover, load_model

    model = load_model(model_path)
    if count < 0:
        raise ValueError("--count must be >= 0")
    # draw_cover takes one rng.random() per symbol, so batches drawn from one
    # generator give the bytes of a single draw without holding the cover
    rng = random.Random(seed_source)
    with _atomic_out(out_path) as out:
        for start in range(0, count, codec._PIECE_SYMBOLS):
            _write_tokens(out, draw_cover(model, min(codec._PIECE_SYMBOLS, count - start), rng))
    _emit({
        "count": count,
        "model_digest": model_digest(model),
        "seeds": {"source": seed_source},
    })


@main.command()
@click.option("--model", "model_path", required=True, help="Source model file.")
@click.option("--block-size", "-n", "block_size", type=int, required=True)
@click.option("--mode", type=click.Choice(["exact", "empirical"]), default="exact",
              show_default=True)
@click.option("--samples", type=int, default=100_000, show_default=True,
              help="Stego blocks to embed for the statistics and rate measurement.")
@click.option("--seed-source", type=int, default=0, show_default=True)
@click.option("--seed-hidden", type=int, default=1, show_default=True,
              help="Seed for the fair payload; it changes only the empirical report.")
@click.option("--seed-delta", type=int, default=2, show_default=True)
@click.option("--report", "report_path", default=None,
              help="Write the JSON report here instead of standard output.")
@_guarded
def analyze(model_path, block_size, mode, samples, seed_source, seed_hidden,
            seed_delta, report_path) -> None:
    """Check output-distribution equality and report rates for one model."""
    if samples < 1:
        raise ValueError("--samples must be >= 1")
    from dataclasses import asdict

    from .analysis import (
        _distribution_of,
        _guard_space,
        _seeded_embed,
        empirical_rate,
        exact_distribution_report,
        min_entropy,
        shannon_entropy,
        st2_rate,
    )
    from .sources import hidden_bit_stream, load_model

    model = load_model(model_path)
    if block_size < 2:
        raise InvalidBlockLength(f"block length must be >= 2, got {block_size}")
    # both modes enumerate the outcome space, so check it before any work
    _guard_space(len(model.alphabet), block_size)
    # one fair-payload embed serves the chi-square and the rate, which reads
    # no payload bit and so reports no hidden seed
    hidden = hidden_bit_stream(random.Random(seed_hidden))
    result = _seeded_embed(model, block_size, samples * block_size, seed_source, seed_delta, hidden)
    seeds = {"source": seed_source, "delta": seed_delta}
    if mode == "exact":
        dist = exact_distribution_report(model, block_size)
    else:
        dist = _distribution_of(result, {**seeds, "hidden": seed_hidden}, model, block_size)
    payload = {
        "distribution": asdict(dist),
        "rate": asdict(empirical_rate(result, model, block_size, seeds=seeds)),
        "theory": {
            "entropy": shannon_entropy(model),
            "min_entropy": min_entropy(model),
            "st2_rate": float(st2_rate(model)),
        },
    }
    _write_report(report_path, payload)


@main.command()
@click.option("--model", "model_path", required=True, help="Source model file.")
@click.option("--block-sizes", default="2,4,8", show_default=True,
              help="Comma-separated block lengths to sweep.")
@click.option("--symbols", type=int, default=100_000, show_default=True,
              help="Cover symbols per block length.")
@click.option("--seed-source", type=int, default=0, show_default=True)
@click.option("--seed-delta", type=int, default=2, show_default=True)
@click.option("--report", "report_path", default=None)
@_guarded
def rates(model_path, block_sizes, symbols, seed_source, seed_delta, report_path) -> None:
    """Measure hiding rates across block lengths (trend toward the entropy)."""
    if symbols < 1:
        raise ValueError("--symbols must be >= 1")
    from dataclasses import asdict

    from .analysis import measure_stn_rate, min_entropy, model_digest, shannon_entropy
    from .sources import load_model

    model = load_model(model_path)
    try:
        sizes = sorted({int(part) for part in block_sizes.split(",") if part.strip()})
    except ValueError:
        raise ValueError(f"bad --block-sizes value {block_sizes!r}") from None
    if not sizes or sizes[0] < 2:
        raise InvalidBlockLength("every block length in the sweep must be >= 2")
    if symbols < sizes[-1]:
        raise ValueError(
            f"--symbols {symbols} is shorter than the longest block length {sizes[-1]}"
        )
    payload = {
        "entropy": shannon_entropy(model),
        "min_entropy": min_entropy(model),
        "model_digest": model_digest(model),
        "sweep": [asdict(measure_stn_rate(model, n, symbols, seed_source, seed_delta))
                  for n in sizes],
    }
    _write_report(report_path, payload)


if __name__ == "__main__":
    main()
