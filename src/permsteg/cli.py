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

A payload longer than the cover can carry is embedded only in part. Without
``--frame-length`` the embed still exits 0 and ``bits_embedded`` in the
summary says how many leading bits went in. With ``--frame-length`` a
framed payload that does not fit whole exits 4 and writes no stego file,
since the receiver could not unframe it.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import random
import sys
from pathlib import Path

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
from .bits import bits_to_bytes, bytes_to_bits
from .codec import frame_payload, st2_embed, st2_extract, stn_embed, stn_extract, unframe_bits
from .errors import (
    DegenerateCells,
    EmptyTrace,
    InvalidAlphabet,
    InvalidBlockLength,
    InvalidDelta,
    InvalidModel,
    NonPositive,
    PayloadOutOfRange,
    PermstegError,
    SpaceTooLarge,
    UnknownSymbol,
)
from .sources import draw_cover, load_model

EXIT_IO = 2
EXIT_UNKNOWN_SYMBOL = 3
EXIT_CONFIG = 4

_CONFIG_ERRORS = (
    InvalidAlphabet,
    InvalidModel,
    InvalidBlockLength,
    InvalidDelta,
    PayloadOutOfRange,
    NonPositive,
    SpaceTooLarge,
    DegenerateCells,
    EmptyTrace,
    ValueError,
)


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
        except _CONFIG_ERRORS as exc:
            _fail(EXIT_CONFIG, str(exc))
        except OSError as exc:
            _fail(EXIT_IO, str(exc))
        except PermstegError as exc:  # anything else from the package
            _fail(EXIT_CONFIG, str(exc))

    return wrapper


def _read_tokens(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        return [line for line in (raw.strip() for raw in fh) if line]


def _write_tokens(path: str, tokens) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for token in tokens:
            fh.write(token)
            fh.write("\n")


def _emit(summary: dict) -> None:
    click.echo(json.dumps(summary, sort_keys=True))


def _write_report(path: str | None, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2)
    if path:
        Path(path).write_text(text + "\n", encoding="utf-8")
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
              help="Block length for the stn scheme (ignored by st2).")
@click.option("--cover", "cover_path", required=True, help="Cover stream file.")
@click.option("--hidden", "hidden_path", required=True, help="Hidden payload file (raw bytes).")
@click.option("--out", "out_path", required=True, help="Stego stream output file.")
@click.option("--seed-delta", type=int, default=1, show_default=True,
              help="Seed for the payload-length draws.")
@click.option("--seed-padding", type=int, default=2, show_default=True,
              help="Seed for padding bits after payload exhaustion.")
@click.option("--frame-length", is_flag=True,
              help="Prefix the payload with its 32-bit length (encrypt framed payloads!).")
@click.option("--force-delta", type=int, default=None,
              help="Test hook: pin every payload-length draw to this value.")
@_guarded
def embed(alphabet_path, scheme, block_size, cover_path, hidden_path, out_path,
          seed_delta, seed_padding, frame_length, force_delta) -> None:
    """Embed a hidden payload into a cover stream."""
    alphabet = Alphabet.from_file(alphabet_path)
    cover = _read_tokens(cover_path)
    with open(hidden_path, "rb") as fh:
        payload = fh.read()
    if frame_length:
        payload = frame_payload(payload)
    hidden = bytes_to_bits(payload)
    if scheme == "st2":
        if force_delta is not None:
            raise ValueError("--force-delta applies to the stn scheme only")
        result = st2_embed(cover, hidden, alphabet, random.Random(seed_padding))
        block_size = 2
    else:
        result = stn_embed(
            cover,
            hidden,
            block_size,
            alphabet,
            random.Random(seed_delta),
            random.Random(seed_padding),
            force_delta=force_delta,
        )
    if frame_length and result.bits_embedded < len(hidden):
        raise ValueError(
            f"framed payload of {len(hidden)} bits does not fit the cover: "
            f"bits_embedded {result.bits_embedded}"
        )
    _write_tokens(out_path, result.stego)
    summary = {
        "scheme": scheme,
        "block_size": block_size,
        "cover_symbols": len(cover),
        "blocks": result.blocks,
        "bits_embedded": result.bits_embedded,
        "padding_bits": result.padding_bits,
        "bits_per_symbol": result.bits_embedded / len(cover) if cover else 0.0,
        "bits_per_block": result.bits_embedded / result.blocks if result.blocks else 0.0,
        "seeds": {"delta": seed_delta, "padding": seed_padding},
    }
    if force_delta is not None:
        summary["force_delta"] = force_delta
    _emit(summary)


@main.command()
@click.option("--alphabet", "alphabet_path", required=True, help="Alphabet file.")
@click.option("--scheme", type=click.Choice(["st2", "stn"]), default="stn", show_default=True)
@click.option("--block-size", "-n", "block_size", type=int, default=2, show_default=True,
              help="Block length for the stn scheme (ignored by st2).")
@click.option("--stego", "stego_path", required=True, help="Stego stream file to decode.")
@click.option("--out", "out_path", required=True, help="Recovered payload output file (raw bytes).")
@click.option("--frame-length", is_flag=True,
              help="Interpret the leading 32 bits as the payload byte length.")
@_guarded
def extract(alphabet_path, scheme, block_size, stego_path, out_path, frame_length) -> None:
    """Recover the embedded bit stream from a stego stream."""
    alphabet = Alphabet.from_file(alphabet_path)
    stego = _read_tokens(stego_path)
    if scheme == "st2":
        result = st2_extract(stego, alphabet)
    else:
        result = stn_extract(stego, block_size, alphabet)
    if frame_length:
        payload = unframe_bits(result.bits)
        payload_bits = 8 * len(payload)
    else:
        payload = bits_to_bytes(result.bits)
        payload_bits = len(result.bits)
    with open(out_path, "wb") as fh:
        fh.write(payload)
    _emit({
        "scheme": scheme,
        "stego_symbols": len(stego),
        "bits_recovered": len(result.bits),
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
    _write_tokens(out_path, cover)
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
