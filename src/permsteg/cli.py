"""Command-line interface: embed, extract, generate, analyze, rates.

File conventions: alphabet and symbol-stream files are newline-delimited
tokens; source-model files are ``token probability`` lines; hidden payloads
are raw bytes consumed MSB-first. All randomness is seeded explicitly, so
identical invocations produce byte-identical outputs and reports.

Exit codes: 0 success, 2 I/O failure, 3 unknown symbol in a stream,
4 invalid configuration (including exact-mode spaces beyond the guard).
Exit 2 is also click's own code for usage errors, such as a missing or
unknown option; those print click's ``Error: ...`` usage message instead
of an ``error: ...`` line.

``embed`` and ``extract`` stream from file to file: tokens are read in
batches, the codec works a piece of whole blocks at a time, and stego
tokens are written per piece, so memory does not grow with the file's
length. ``extract`` keeps its recovered bits one byte per bit, and with
``--frame-length`` only the frame's bits.

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
import dataclasses
import functools
import json
import os
import random
import sys
from itertools import chain
from pathlib import Path
from typing import Iterator, Sequence

import click

from .alphabet import Alphabet
from .analysis import (
    empirical_distribution_report,
    exact_distribution_report,
    measure_stn_rate,
    min_entropy,
    model_digest,
    rate_lower_bound,
    shannon_entropy,
    st2_rate,
)
from .bits import bits_to_bytes, int_from_bits, iter_bits
from .codec import frame_payload, stn_embed_pieces, stn_extract_pieces, unframe_bits
from .errors import InvalidBlockLength, PermstegError, UnknownSymbol
from .sources import draw_cover, load_model

# The benchmark's tracer (bench/tracing.py) wraps these names in this module.
# The commands no longer call them: they stream through the *_pieces generators.
from .bits import bytes_to_bits  # noqa: F401
from .codec import st2_embed, st2_extract, stn_embed, stn_extract  # noqa: F401

EXIT_IO = 2
EXIT_UNKNOWN_SYMBOL = 3
EXIT_CONFIG = 4

# Lines of a token file are read in batches of about this many bytes.
_READ_BATCH_BYTES = 1 << 16


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

    Iterate once; ``count`` is the number of tokens read so far.
    """

    def __init__(self, fh) -> None:
        self._fh = fh
        self.count = 0

    def __iter__(self) -> Iterator[str]:
        return chain.from_iterable(self._batches())

    def _batches(self) -> Iterator[list[str]]:
        while (batch := _read_tokens(self._fh)) is not None:
            self.count += len(batch)
            yield batch


def _write_tokens(fh, tokens: Sequence[str]) -> None:
    """Write tokens to an open text file, one per line."""
    if tokens:
        fh.write("\n".join(tokens))
        fh.write("\n")


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


def _emit(summary: dict) -> None:
    click.echo(json.dumps(summary, sort_keys=True))


def _write_report(path: str | None, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2)
    if path:
        with _atomic_out(path) as out:
            out.write(text + "\n")
    else:
        click.echo(text)


def _as_dict(report) -> dict:
    return dataclasses.asdict(report)


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
    with open(cover_path, "r", encoding="utf-8") as cover_fh:
        with open(hidden_path, "rb") as fh:
            payload = fh.read()
        if frame_length:
            payload = frame_payload(payload)
        cover = _TokenStream(cover_fh)
        hidden = iter_bits(payload)
        if scheme == "st2":
            block_size = 2
        pieces = stn_embed_pieces(cover, hidden, block_size, alphabet,
                                  random.Random(seed_delta), random.Random(seed_padding))
        blocks = bits_embedded = padding_bits = 0
        with _atomic_out(out_path) as out:
            for piece in pieces:
                _write_tokens(out, piece.stego)
                blocks += piece.blocks
                bits_embedded += piece.bits_embedded
                padding_bits += piece.padding_bits
            if frame_length and bits_embedded < 8 * len(payload):
                raise ValueError(
                    f"framed payload of {8 * len(payload)} bits does not fit the cover: "
                    f"bits_embedded {bits_embedded}"
                )
    summary = {
        "scheme": scheme,
        "block_size": block_size,
        "cover_symbols": cover.count,
        "blocks": blocks,
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
    # One byte per recovered bit; framed, only the frame's bits are kept.
    bits = bytearray()
    recovered = 0
    frame_bits = None
    with open(stego_path, "r", encoding="utf-8") as fh:
        stego = _TokenStream(fh)
        if scheme == "st2":
            block_size = 2
        for piece in stn_extract_pieces(stego, block_size, alphabet):
            recovered += len(piece.bits)
            if frame_bits is None or len(bits) < frame_bits:
                bits.extend(piece.bits)
                if frame_length and frame_bits is None and len(bits) >= 32:
                    frame_bits = 32 + 8 * int_from_bits(bits[:32])
                if frame_bits is not None:
                    del bits[frame_bits:]
    if frame_length:
        payload = unframe_bits(bits)
        payload_bits = 8 * len(payload)
    else:
        payload = bits_to_bytes(bits)
        payload_bits = recovered
    with _atomic_out(out_path, binary=True) as out:
        out.write(payload)
    _emit({
        "scheme": scheme,
        "stego_symbols": stego.count,
        "bits_recovered": recovered,
        "payload_bits": payload_bits,
        "payload_bytes": len(payload),
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
    model = load_model(model_path)
    if count < 0:
        raise ValueError("--count must be >= 0")
    cover = draw_cover(model, count, random.Random(seed_source))
    with _atomic_out(out_path) as out:
        _write_tokens(out, cover)
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
@click.option("--seed-hidden", type=int, default=1, show_default=True)
@click.option("--seed-delta", type=int, default=2, show_default=True)
@click.option("--seed-padding", type=int, default=3, show_default=True)
@click.option("--report", "report_path", default=None,
              help="Write the JSON report here instead of standard output.")
@_guarded
def analyze(model_path, block_size, mode, samples, seed_source, seed_hidden,
            seed_delta, seed_padding, report_path) -> None:
    """Check output-distribution equality and report rates for one model."""
    model = load_model(model_path)
    if block_size < 2:
        raise InvalidBlockLength(f"block length must be >= 2, got {block_size}")
    if mode == "exact":
        dist = exact_distribution_report(model, block_size)
    else:
        dist = empirical_distribution_report(
            model, block_size, samples, seed_source, seed_hidden, seed_delta, seed_padding
        )
    bound = rate_lower_bound(model, block_size)
    rate = measure_stn_rate(
        model, block_size, samples * block_size,
        seed_source, seed_hidden, seed_delta, seed_padding, bound=bound,
    )
    payload = {
        "distribution": _as_dict(dist),
        "rate": _as_dict(rate),
        "theory": {
            "entropy": shannon_entropy(model),
            "min_entropy": min_entropy(model),
            "st2_rate": float(st2_rate(model)),
            "rate_lower_bound": _as_dict(bound),
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
@click.option("--seed-hidden", type=int, default=1, show_default=True)
@click.option("--seed-delta", type=int, default=2, show_default=True)
@click.option("--seed-padding", type=int, default=3, show_default=True)
@click.option("--report", "report_path", default=None)
@_guarded
def rates(model_path, block_sizes, symbols, seed_source, seed_hidden,
          seed_delta, seed_padding, report_path) -> None:
    """Measure hiding rates across block lengths (trend toward the entropy)."""
    model = load_model(model_path)
    try:
        sizes = [int(part) for part in block_sizes.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"bad --block-sizes value {block_sizes!r}") from None
    if not sizes or any(n < 2 for n in sizes):
        raise InvalidBlockLength("every block length in the sweep must be >= 2")
    reports = []
    for n in sorted(sizes):
        report = measure_stn_rate(
            model, n, symbols, seed_source, seed_hidden, seed_delta, seed_padding
        )
        reports.append(_as_dict(report))
    payload = {
        "entropy": shannon_entropy(model),
        "min_entropy": min_entropy(model),
        "model_digest": model_digest(model),
        "sweep": reports,
    }
    _write_report(report_path, payload)


if __name__ == "__main__":
    main()
