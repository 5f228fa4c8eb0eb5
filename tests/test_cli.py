import contextlib
import json
import math
import os
import random
import re
import time
import tracemalloc
from collections import Counter
from dataclasses import asdict
from fractions import Fraction
from itertools import accumulate, product
from types import SimpleNamespace

import pytest
from click.testing import CliRunner

import permsteg.analysis
import permsteg.cli
import permsteg.codec
from permsteg import (
    Alphabet,
    SourceModel,
    SpaceTooLarge,
    bits_to_bytes,
    bytes_to_bits,
    draw_cover,
    empirical_distribution_report,
    exact_distribution_report,
    frame_payload,
    load_model,
    measure_stn_rate,
    rate_lower_bound,
    save_model,
    stn_extract,
    zipf_model,
)
from permsteg.analysis import block_distribution
from permsteg.cli import main

from oracles import brute_class_size


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "alphabet.txt").write_text("a\nb\nc\n", encoding="utf-8")
    (tmp_path / "model.txt").write_text("a 0.5\nb 0.3\nc 0.2\n", encoding="utf-8")
    (tmp_path / "ab_model.txt").write_text("a 0.7\nb 0.3\n", encoding="utf-8")
    return tmp_path


def zipf_alphabet_cover(workdir, symbols):
    """Write a 26-letter alphabet file; a seeded Zipf cover over it."""
    tokens = "abcdefghijklmnopqrstuvwxyz"
    (workdir / "alphabet.txt").write_text("\n".join(tokens) + "\n", encoding="utf-8")
    return random.Random(5).choices(tokens, weights=[1 / i for i in range(1, 27)], k=symbols)


def traced_peak(call):
    """The result of ``call()`` and the peak memory traced while it ran."""
    tracemalloc.start()
    try:
        result = call()
        _, top = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, top


def write_tokens(path, text):
    path.write_text("".join(ch + "\n" for ch in text), encoding="utf-8")


def read_tokens(path):
    return "".join(line.strip() for line in path.read_text(encoding="utf-8").splitlines())


@pytest.fixture
def small_pieces(monkeypatch):
    """Stream in pieces of a few blocks, reading token files in small batches.

    A batch is 5 lines, which do not divide a 12-symbol piece, so pieces end
    mid-batch.
    """
    monkeypatch.setattr(permsteg.codec, "_PIECE_SYMBOLS", 12)
    monkeypatch.setattr(permsteg.cli, "_READ_BATCH_BYTES", 9)


def embed_args(workdir, scheme, *extra):
    return [
        "embed", "--alphabet", str(workdir / "alphabet.txt"),
        "--scheme", scheme, "--block-size", "3",
        "--cover", str(workdir / "cover.txt"),
        "--hidden", str(workdir / "hidden.bin"),
        "--out", str(workdir / "stego.txt"),
        *extra,
    ]


COMMAND_HELP = {
    "analyze": "Check output-distribution equality and report rates for one model.",
    "embed": "Embed a hidden payload into a cover stream.",
    "extract": "Recover the embedded bit stream from a stego stream.",
    "generate": "Draw an i.i.d. cover stream from a source model.",
    "rates": "Measure hiding rates across block lengths (trend toward the entropy).",
}


class TestCommands:
    def test_registered_commands(self):
        assert sorted(main.commands) == sorted(COMMAND_HELP)

    @pytest.mark.parametrize("name", sorted(COMMAND_HELP))
    def test_command_help(self, runner, name):
        result = runner.invoke(main, [name, "--help"])
        assert result.exit_code == 0, result.output
        assert COMMAND_HELP[name] in result.output

    def test_group_help_lists_every_command(self, runner):
        result = runner.invoke(main, ["--help"])
        assert result.exit_code == 0, result.output
        listing = {
            line.split(None, 1)[0]: line.split(None, 1)[1]
            for line in result.output.split("Commands:", 1)[1].splitlines()
            if line.strip()
        }
        assert sorted(listing) == sorted(COMMAND_HELP)
        for name, short in listing.items():
            # Either the whole first line, or a prefix of it marked as cut.
            assert short == COMMAND_HELP[name] or (
                short.endswith("...") and COMMAND_HELP[name].startswith(short[:-3])
            ), (name, short)


class TestEmbedExtract:
    def test_worked_example_session(self, runner, workdir):
        write_tokens(workdir / "cover.txt", "bac")
        (workdir / "hidden.bin").write_bytes(b"\x00")  # first bit is 0
        result = runner.invoke(main, [
            "embed", "--alphabet", str(workdir / "alphabet.txt"),
            "--scheme", "stn", "--block-size", "3",
            "--cover", str(workdir / "cover.txt"),
            "--hidden", str(workdir / "hidden.bin"),
            "--out", str(workdir / "stego.txt"),
            "--seed-delta", "5",  # its first draw lands in band d = 1 of the class of 6
        ])
        assert result.exit_code == 0, result.output
        assert read_tokens(workdir / "stego.txt") == "cab"
        summary = json.loads(result.output)
        assert summary["bits_embedded"] == 1

        extracted = runner.invoke(main, [
            "extract", "--alphabet", str(workdir / "alphabet.txt"),
            "--scheme", "stn", "--block-size", "3",
            "--stego", str(workdir / "stego.txt"),
            "--out", str(workdir / "recovered.bin"),
        ])
        assert extracted.exit_code == 0, extracted.output
        assert json.loads(extracted.output)["bits_recovered"] == 1
        assert (workdir / "recovered.bin").read_bytes() == b"\x00"

    def test_empty_cover(self, runner, workdir):
        (workdir / "cover.txt").write_text("", encoding="utf-8")
        (workdir / "hidden.bin").write_bytes(b"\xff")
        result = runner.invoke(main, [
            "embed", "--alphabet", str(workdir / "alphabet.txt"),
            "--cover", str(workdir / "cover.txt"),
            "--hidden", str(workdir / "hidden.bin"),
            "--out", str(workdir / "stego.txt"),
        ])
        assert result.exit_code == 0
        summary = json.loads(result.output)
        assert summary["bits_embedded"] == 0
        assert (workdir / "stego.txt").read_text() == ""

    def test_unknown_symbol_exit_3(self, runner, workdir):
        write_tokens(workdir / "cover.txt", "az")
        (workdir / "hidden.bin").write_bytes(b"\x00")
        result = runner.invoke(main, [
            "embed", "--alphabet", str(workdir / "alphabet.txt"),
            "--cover", str(workdir / "cover.txt"),
            "--hidden", str(workdir / "hidden.bin"),
            "--out", str(workdir / "stego.txt"),
            "--scheme", "st2",
        ])
        assert result.exit_code == 3

    def test_bad_block_size_exit_4(self, runner, workdir):
        write_tokens(workdir / "cover.txt", "abc")
        (workdir / "hidden.bin").write_bytes(b"\x00")
        result = runner.invoke(main, [
            "embed", "--alphabet", str(workdir / "alphabet.txt"),
            "--scheme", "stn", "--block-size", "1",
            "--cover", str(workdir / "cover.txt"),
            "--hidden", str(workdir / "hidden.bin"),
            "--out", str(workdir / "stego.txt"),
        ])
        assert result.exit_code == 4

    def test_missing_file_exit_2(self, runner, workdir):
        result = runner.invoke(main, [
            "embed", "--alphabet", str(workdir / "alphabet.txt"),
            "--cover", str(workdir / "missing.txt"),
            "--hidden", str(workdir / "missing.bin"),
            "--out", str(workdir / "stego.txt"),
        ])
        assert result.exit_code == 2
        # click's usage errors exit 2 as well; only the I/O path prints this line.
        error_lines = [line for line in result.output.splitlines() if line.startswith("error: ")]
        assert len(error_lines) == 1, result.output
        assert str(workdir / "missing.txt") in error_lines[0]

    def test_framed_round_trip(self, runner, workdir):
        payload = b"meet at the library"
        write_tokens(workdir / "cover.txt", "abcbca" * 60)
        (workdir / "hidden.bin").write_bytes(payload)
        embed = runner.invoke(main, [
            "embed", "--alphabet", str(workdir / "alphabet.txt"),
            "--scheme", "stn", "--block-size", "3",
            "--cover", str(workdir / "cover.txt"),
            "--hidden", str(workdir / "hidden.bin"),
            "--out", str(workdir / "stego.txt"),
            "--frame-length", "--seed-padding", "11",
        ])
        assert embed.exit_code == 0, embed.output
        extract = runner.invoke(main, [
            "extract", "--alphabet", str(workdir / "alphabet.txt"),
            "--scheme", "stn", "--block-size", "3",
            "--stego", str(workdir / "stego.txt"),
            "--out", str(workdir / "recovered.bin"),
            "--frame-length",
        ])
        assert extract.exit_code == 0, extract.output
        assert (workdir / "recovered.bin").read_bytes() == payload

    def test_framed_embed_frames_the_bytes_read(self, runner, workdir, monkeypatch):
        # procfs files report size 0 and sysfs files 4096; the frame holds
        # what reading the file gives, not its reported size
        payload = b"meet at the library"
        write_tokens(workdir / "cover.txt", "abcbca" * 60)
        (workdir / "hidden.bin").write_bytes(payload)
        real_fstat = os.fstat

        def fstat_size_0(fd):
            info = real_fstat(fd)
            return os.stat_result((*info[:6], 0, *info[7:10]))

        monkeypatch.setattr(os, "fstat", fstat_size_0)
        embed = runner.invoke(main, embed_args(workdir, "stn", "--frame-length"))
        assert embed.exit_code == 0, embed.output
        extract = runner.invoke(main, [
            "extract", "--alphabet", str(workdir / "alphabet.txt"), "--block-size", "3",
            "--stego", str(workdir / "stego.txt"), "--out", str(workdir / "recovered.bin"),
            "--frame-length",
        ])
        assert extract.exit_code == 0, extract.output
        assert (workdir / "recovered.bin").read_bytes() == payload

    @pytest.mark.parametrize("scheme", ["stn", "st2"])
    def test_framed_payload_too_long_exit_4(self, runner, workdir, scheme):
        write_tokens(workdir / "cover.txt", "abcbca" * 4)
        (workdir / "hidden.bin").write_bytes(b"xy")
        args = [
            "embed", "--alphabet", str(workdir / "alphabet.txt"),
            "--scheme", scheme, "--block-size", "3",
            "--cover", str(workdir / "cover.txt"),
            "--hidden", str(workdir / "hidden.bin"),
            "--out", str(workdir / "stego.txt"),
        ]
        result = runner.invoke(main, args + ["--frame-length"])
        assert result.exit_code == 4
        lines = result.output.strip().splitlines()
        assert len(lines) == 1
        assert re.fullmatch(
            r"error: framed payload of 48 bits does not fit the cover: bits_embedded \d+",
            lines[0],
        ), lines[0]
        assert sorted(p.name for p in workdir.iterdir()) == [
            "ab_model.txt", "alphabet.txt", "cover.txt", "hidden.bin", "model.txt",
        ]
        # Unframed, the same payload is embedded in part and the command succeeds.
        unframed = runner.invoke(main, args)
        assert unframed.exit_code == 0, unframed.output
        assert 0 < json.loads(unframed.output)["bits_embedded"] < 16
        assert (workdir / "stego.txt").exists()

    def test_pair_scheme_round_trip(self, runner, workdir):
        write_tokens(workdir / "cover.txt", "aababaaaabbaaaaabb")
        (workdir / "hidden.bin").write_bytes(bytes([0b01100000]))
        embed = runner.invoke(main, [
            "embed", "--alphabet", str(workdir / "alphabet.txt"),
            "--scheme", "st2",
            "--cover", str(workdir / "cover.txt"),
            "--hidden", str(workdir / "hidden.bin"),
            "--out", str(workdir / "stego.txt"),
        ])
        assert embed.exit_code == 0
        assert read_tokens(workdir / "stego.txt") == "aaabbaaabaabaaaabb"

    def test_pair_scheme_is_block_scheme_at_2(self, runner, workdir, small_pieces):
        secret = b"pairs"
        write_tokens(workdir / "cover.txt", "".join(random.Random(4).choices("abc", k=601)))
        (workdir / "hidden.bin").write_bytes(secret)
        summaries = []
        # st2 sets the block length to 2 whatever -n says
        for name, scheme_args in (("st2", ["--scheme", "st2", "-n", "5"]), ("stn", ["-n", "2"])):
            embed = runner.invoke(main, [
                "embed", "--alphabet", str(workdir / "alphabet.txt"), *scheme_args,
                "--cover", str(workdir / "cover.txt"),
                "--hidden", str(workdir / "hidden.bin"),
                "--out", str(workdir / f"{name}.txt"), "--frame-length",
            ])
            assert embed.exit_code == 0, embed.output
            summaries.append(json.loads(embed.output))
            extract = runner.invoke(main, [
                "extract", "--alphabet", str(workdir / "alphabet.txt"), *scheme_args,
                "--stego", str(workdir / f"{name}.txt"),
                "--out", str(workdir / f"{name}.bin"), "--frame-length",
            ])
            assert extract.exit_code == 0, extract.output
            assert (workdir / f"{name}.bin").read_bytes() == secret
        assert (workdir / "st2.txt").read_bytes() == (workdir / "stn.txt").read_bytes()
        keys = ("bits_embedded", "padding_bits", "blocks")
        assert [summaries[0][key] for key in keys] == [summaries[1][key] for key in keys]
        assert summaries[0]["padding_bits"] > 0

    def test_determinism(self, runner, workdir):
        write_tokens(workdir / "cover.txt", "abcabcbcaacb" * 40)
        (workdir / "hidden.bin").write_bytes(b"\x5a\xc3")
        args = [
            "embed", "--alphabet", str(workdir / "alphabet.txt"),
            "--scheme", "stn", "--block-size", "4",
            "--cover", str(workdir / "cover.txt"),
            "--hidden", str(workdir / "hidden.bin"),
            "--seed-delta", "100", "--seed-padding", "200",
        ]
        first = runner.invoke(main, args + ["--out", str(workdir / "s1.txt")])
        second = runner.invoke(main, args + ["--out", str(workdir / "s2.txt")])
        assert first.exit_code == second.exit_code == 0
        assert (workdir / "s1.txt").read_bytes() == (workdir / "s2.txt").read_bytes()
        assert first.output == second.output


class TestStreaming:
    """embed and extract stream their files piece by piece."""

    @pytest.mark.parametrize("scheme", ["stn", "st2"])
    @pytest.mark.parametrize("frame", [False, True])
    def test_files_match_whole_stream_library(self, runner, workdir, small_pieces,
                                              scheme, frame):
        # the library's pieces through the first one that pads, where the
        # payload ran out, and then the rest of the cover as it was
        alphabet = Alphabet(["a", "b", "c"])
        n = 2 if scheme == "st2" else 3
        cover = random.Random(3).choices("abc", k=3 * 80 + 2)  # a trailing partial block
        payload = b"\x9c"
        write_tokens(workdir / "cover.txt", "".join(cover))
        (workdir / "hidden.bin").write_bytes(payload)
        hidden = bytes_to_bits(frame_payload(payload) if frame else payload)
        pieces = []
        for piece in permsteg.codec.stn_embed_pieces(cover, hidden, n, alphabet,
                                                     random.Random(1), random.Random(2)):
            pieces.append(piece)
            if piece.padding_bits:
                break
        stego = [token for piece in pieces for token in piece.stego]
        assert pieces[-1].padding_bits > 0
        assert len(stego) + 3 * 12 < len(cover)  # pieces are passed through
        stego += cover[len(stego):]
        flag = ["--frame-length"] if frame else []
        embed = runner.invoke(main, embed_args(workdir, scheme, *flag))
        assert embed.exit_code == 0, embed.output
        summary = json.loads(embed.output)
        assert (workdir / "stego.txt").read_text(encoding="utf-8") == "".join(
            token + "\n" for token in stego
        )
        embedded = sum(piece.blocks for piece in pieces)
        assert summary["cover_symbols"] == len(cover)
        assert summary["blocks"] == len(cover) // n
        assert summary["passed_blocks"] == len(cover) // n - embedded
        assert summary["bits_embedded"] == len(hidden)
        assert summary["padding_bits"] == pieces[-1].padding_bits
        extract = runner.invoke(main, [
            "extract", "--alphabet", str(workdir / "alphabet.txt"),
            "--scheme", scheme, "--block-size", "3",
            "--stego", str(workdir / "stego.txt"),
            "--out", str(workdir / "recovered.bin"),
            *flag,
        ])
        assert extract.exit_code == 0, extract.output
        summary = json.loads(extract.output)
        assert summary["stego_symbols"] == len(cover)
        bits = stn_extract(stego, n, alphabet).bits
        assert bits[: len(hidden)] == tuple(hidden)
        # framed, extract decodes the frame and no further
        assert summary["bits_recovered"] == (len(hidden) if frame else len(bits))
        expected = payload if frame else bits_to_bytes(bits)
        assert (workdir / "recovered.bin").read_bytes() == expected

    @pytest.mark.parametrize("scheme", ["stn", "st2"])
    def test_unknown_symbol_in_last_block_exit_3(self, runner, workdir, small_pieces, scheme):
        write_tokens(workdir / "cover.txt", "abcbca" * 10 + "abz")
        (workdir / "hidden.bin").write_bytes(b"\x5a")
        before = sorted(p.name for p in workdir.iterdir())
        result = runner.invoke(main, embed_args(workdir, scheme))
        assert result.exit_code == 3, result.output
        assert sorted(p.name for p in workdir.iterdir()) == before

    @pytest.mark.parametrize("gap", [0, 29])
    def test_unknown_symbol_past_the_stop_exit_3(self, runner, workdir, small_pieces, gap):
        # the pieces after the one that pads are written as read, but still
        # token-checked from the token after that piece on
        cover = random.Random(10).choices("abc", k=3 * 400 + 1)
        write_tokens(workdir / "cover.txt", "".join(cover))
        (workdir / "hidden.bin").write_bytes(b"\x5a\xc3")
        embed = runner.invoke(main, embed_args(workdir, "stn", "--frame-length"))
        assert embed.exit_code == 0, embed.output
        summary = json.loads(embed.output)
        stop = 3 * (summary["blocks"] - summary["passed_blocks"])
        assert stop % 12 == 0 and stop + 3 * 12 < len(cover)
        assert (stop + gap) % 5  # inside a batch of 5 lines
        assert read_tokens(workdir / "stego.txt")[stop:] == "".join(cover[stop:])
        (workdir / "stego.txt").unlink()
        cover[stop + gap] = "z"
        write_tokens(workdir / "cover.txt", "".join(cover))
        before = sorted(p.name for p in workdir.iterdir())
        result = runner.invoke(main, embed_args(workdir, "stn", "--frame-length"))
        assert result.exit_code == 3, result.output
        assert result.output == "error: symbol 'z' is not in the alphabet\n"
        assert sorted(p.name for p in workdir.iterdir()) == before

    def test_failed_embed_leaves_existing_out_untouched(self, runner, workdir, small_pieces):
        write_tokens(workdir / "cover.txt", "abcbca" * 10 + "abz")
        (workdir / "hidden.bin").write_bytes(b"\x5a")
        (workdir / "stego.txt").write_bytes(b"earlier output\n")
        before = sorted(p.name for p in workdir.iterdir())
        result = runner.invoke(main, embed_args(workdir, "stn"))
        assert result.exit_code == 3, result.output
        assert (workdir / "stego.txt").read_bytes() == b"earlier output\n"
        assert sorted(p.name for p in workdir.iterdir()) == before

    def test_write_error_mid_stream_exit_2(self, runner, workdir, small_pieces, monkeypatch):
        write_tokens(workdir / "cover.txt", "abcbca" * 10)
        (workdir / "hidden.bin").write_bytes(b"\x5a")
        (workdir / "stego.txt").write_bytes(b"earlier output\n")
        before = sorted(p.name for p in workdir.iterdir())
        write = permsteg.cli._write_tokens
        calls = []

        def failing_write(fh, tokens):
            calls.append(len(tokens))
            if len(calls) == 3:
                raise OSError("disk full")
            write(fh, tokens)

        monkeypatch.setattr(permsteg.cli, "_write_tokens", failing_write)
        result = runner.invoke(main, embed_args(workdir, "stn"))
        assert result.exit_code == 2, result.output
        assert "error: disk full" in result.output
        assert (workdir / "stego.txt").read_bytes() == b"earlier output\n"
        assert sorted(p.name for p in workdir.iterdir()) == before

    def test_peak_memory_flat_in_cover_length(self, runner, workdir, monkeypatch):
        monkeypatch.setattr(permsteg.codec, "_PIECE_SYMBOLS", 400)
        monkeypatch.setattr(permsteg.cli, "_READ_BATCH_BYTES", 4096)
        tokens = "abcdefghijklmnopqrstuvwxyz"
        (workdir / "alphabet.txt").write_text("\n".join(tokens) + "\n", encoding="utf-8")
        rng = random.Random(5)
        cover = rng.choices(tokens, weights=[1 / i for i in range(1, 27)], k=4 * 20_000)
        secret = rng.randbytes(400)
        (workdir / "hidden.bin").write_bytes(secret)

        def peak(symbols):
            write_tokens(workdir / "cover.txt", "".join(cover[:symbols]))
            tracemalloc.start()
            try:
                embed = runner.invoke(main, [
                    "embed", "--alphabet", str(workdir / "alphabet.txt"), "-n", "10",
                    "--cover", str(workdir / "cover.txt"),
                    "--hidden", str(workdir / "hidden.bin"),
                    "--out", str(workdir / "stego.txt"), "--frame-length",
                ])
                extract = runner.invoke(main, [
                    "extract", "--alphabet", str(workdir / "alphabet.txt"), "-n", "10",
                    "--stego", str(workdir / "stego.txt"),
                    "--out", str(workdir / "recovered.bin"), "--frame-length",
                ])
                _, top = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert embed.exit_code == 0, embed.output
            assert extract.exit_code == 0, extract.output
            assert (workdir / "recovered.bin").read_bytes() == secret
            return top

        peak(20_000)  # first use settles lazily built module state
        assert peak(80_000) <= 1.25 * peak(20_000)

    def test_unframed_extract_peak_memory_flat_in_stream_length(self, runner, workdir,
                                                                 monkeypatch):
        # unframed, extract recovers every bit, padding included, and writes
        # them piece by piece instead of holding them
        monkeypatch.setattr(permsteg.codec, "_PIECE_SYMBOLS", 400)
        monkeypatch.setattr(permsteg.cli, "_READ_BATCH_BYTES", 4096)
        cover = zipf_alphabet_cover(workdir, 4 * 20_000)
        (workdir / "hidden.bin").write_bytes(random.Random(6).randbytes(400))

        def peak(symbols):
            write_tokens(workdir / "cover.txt", "".join(cover[:symbols]))
            embed = runner.invoke(main, [
                "embed", "--alphabet", str(workdir / "alphabet.txt"), "-n", "10",
                "--cover", str(workdir / "cover.txt"),
                "--hidden", str(workdir / "hidden.bin"),
                "--out", str(workdir / "stego.txt"),
            ])
            assert embed.exit_code == 0, embed.output
            extract, top = traced_peak(lambda: runner.invoke(main, [
                "extract", "--alphabet", str(workdir / "alphabet.txt"), "-n", "10",
                "--stego", str(workdir / "stego.txt"),
                "--out", str(workdir / "recovered.bin"),
            ]))
            assert extract.exit_code == 0, extract.output
            recovered = (workdir / "recovered.bin").read_bytes()
            bits = json.loads(extract.output)["bits_recovered"]
            assert bits > 8 * symbols // 10
            assert len(recovered) == (bits + 7) // 8
            assert recovered.startswith((workdir / "hidden.bin").read_bytes())
            return top

        peak(20_000)  # first use settles lazily built module state
        assert peak(80_000) <= 1.25 * peak(20_000)

    def test_embed_peak_memory_flat_in_hidden_size(self, runner, workdir, monkeypatch):
        # the cover carries a few kilobits whatever the hidden file's size,
        # and embed reads only the chunks it needs
        monkeypatch.setattr(permsteg.cli, "_READ_BATCH_BYTES", 4096)
        write_tokens(workdir / "cover.txt", "".join(zipf_alphabet_cover(workdir, 2000)))
        secret = random.Random(7).randbytes(1 << 20)

        def peak(size):
            (workdir / "hidden.bin").write_bytes(secret[:size])
            embed, top = traced_peak(lambda: runner.invoke(main, [
                "embed", "--alphabet", str(workdir / "alphabet.txt"), "-n", "10",
                "--cover", str(workdir / "cover.txt"),
                "--hidden", str(workdir / "hidden.bin"),
                "--out", str(workdir / f"stego-{size}.txt"),
            ]))
            assert embed.exit_code == 0, embed.output
            assert json.loads(embed.output)["padding_bits"] == 0
            return top

        peak(1 << 18)  # first use settles lazily built module state
        assert peak(1 << 20) <= 1.25 * peak(1 << 18)
        # the same leading bits went in
        assert (workdir / f"stego-{1 << 18}.txt").read_bytes() == (
            workdir / f"stego-{1 << 20}.txt").read_bytes()

    @pytest.mark.parametrize("existing", [False, True])
    def test_framed_stego_cut_short_exit_4(self, runner, workdir, small_pieces, existing):
        write_tokens(workdir / "cover.txt", "".join(random.Random(8).choices("abc", k=1200)))
        (workdir / "hidden.bin").write_bytes(bytes(1000))
        unframed = runner.invoke(main, embed_args(workdir, "stn"))
        assert unframed.exit_code == 0, unframed.output
        capacity = json.loads(unframed.output)["bits_embedded"]
        # a frame that needs almost every block of the cover
        (workdir / "hidden.bin").write_bytes(random.Random(9).randbytes(capacity // 8 - 5))
        framed = runner.invoke(main, embed_args(workdir, "stn", "--frame-length"))
        assert framed.exit_code == 0, framed.output
        stego = (workdir / "stego.txt").read_text(encoding="utf-8").splitlines(keepends=True)
        # cut inside the 76th of the 100 pieces of 12 symbols, and inside a block
        (workdir / "stego.txt").write_text("".join(stego[:905]), encoding="utf-8")
        out = workdir / "recovered.bin"
        if existing:
            out.write_bytes(b"earlier output")
        before = sorted(p.name for p in workdir.iterdir())
        result = runner.invoke(main, [
            "extract", "--alphabet", str(workdir / "alphabet.txt"), "--block-size", "3",
            "--stego", str(workdir / "stego.txt"), "--out", str(out), "--frame-length",
        ])
        assert result.exit_code == 4, result.output
        assert result.output.startswith("error: framed stream truncated: header says "
                                        f"{capacity // 8 - 5} bytes, only ")
        assert sorted(p.name for p in workdir.iterdir()) == before
        if existing:
            assert out.read_bytes() == b"earlier output"

    @pytest.mark.parametrize("gap", [0, 29])
    def test_framed_extract_decodes_only_the_frame(self, runner, workdir, small_pieces,
                                                   monkeypatch, gap):
        # with no decode map, extract ranks every block it decodes
        monkeypatch.setattr(permsteg.codec, "_MEMBER_TABLE_MAX_CLASS", 0)
        cover = random.Random(10).choices("abc", k=3 * 400 + 1)
        payload = b"\x5a\xc3"
        write_tokens(workdir / "cover.txt", "".join(cover))
        (workdir / "hidden.bin").write_bytes(payload)
        embed = runner.invoke(main, embed_args(workdir, "stn", "--frame-length"))
        assert embed.exit_code == 0, embed.output
        stego = (workdir / "stego.txt").read_text(encoding="utf-8").splitlines(keepends=True)
        frame_bits = 32 + 8 * len(payload)
        tokens = [token.strip() for token in stego]
        records = stn_extract(tokens, 3, Alphabet(["a", "b", "c"])).records
        # the block that carries the frame's last bit, and the blocks through its
        # piece of 4 blocks (12 symbols)
        last = next(i for i, bits in enumerate(accumulate(d for d, _, _ in records))
                    if bits >= frame_bits)
        through = (last // 4 + 1) * 4
        assert 4 * through <= len(records)  # the frame ends early in the stream
        rank = permsteg.codec.rank_indices
        calls = []
        monkeypatch.setattr(permsteg.codec, "rank_indices",
                            lambda word: calls.append(word) or rank(word))
        args = [
            "extract", "--alphabet", str(workdir / "alphabet.txt"), "--block-size", "3",
            "--stego", str(workdir / "stego.txt"), "--out", str(workdir / "recovered.bin"),
            "--frame-length",
        ]
        extract = runner.invoke(main, args)
        assert extract.exit_code == 0, extract.output
        assert 0 < len(calls) <= through
        summary = json.loads(extract.output)
        assert summary["stego_symbols"] == len(cover)
        assert summary["bits_recovered"] == frame_bits
        assert summary["payload_bytes"] == len(payload)
        assert (workdir / "recovered.bin").read_bytes() == payload
        # the stream past the frame is still token-checked, from the token
        # after the last decoded piece on: an unknown token there, or a few
        # pieces later, exits 3 and writes nothing
        stego[12 * (last // 4 + 1) + gap] = "z\n"
        (workdir / "stego.txt").write_text("".join(stego), encoding="utf-8")
        (workdir / "recovered.bin").unlink()
        before = sorted(p.name for p in workdir.iterdir())
        calls.clear()
        result = runner.invoke(main, args)
        assert result.exit_code == 3, result.output
        assert result.output == "error: symbol 'z' is not in the alphabet\n"
        assert len(calls) <= through
        assert sorted(p.name for p in workdir.iterdir()) == before

    @pytest.mark.parametrize("output_fault", ["open", "write"])
    @pytest.mark.parametrize("stream_fault, code", [(None, 2), ("unknown", 3), ("short", 4)])
    def test_extract_stream_fault_outranks_output_fault(self, runner, workdir, small_pieces,
                                                        monkeypatch, output_fault,
                                                        stream_fault, code):
        # extract writes while it reads, but reports an output fault only once
        # the whole stream is read, so a fault in the stream sets the exit code
        write_tokens(workdir / "cover.txt", "".join(random.Random(8).choices("abc", k=600)))
        (workdir / "hidden.bin").write_bytes(random.Random(9).randbytes(8))
        embed = runner.invoke(main, embed_args(workdir, "stn", "--frame-length"))
        assert embed.exit_code == 0, embed.output
        stego = (workdir / "stego.txt").read_text(encoding="utf-8").splitlines(keepends=True)
        if stream_fault == "unknown":
            stego[-10] = "z\n"
        elif stream_fault == "short":
            del stego[len(stego) // 2:]
        (workdir / "stego.txt").write_text("".join(stego), encoding="utf-8")
        out = workdir / "recovered.bin"
        if output_fault == "open":
            out = workdir / "missing" / "recovered.bin"
        else:
            atomic_out = permsteg.cli._atomic_out
            writes = []

            @contextlib.contextmanager
            def failing_out(path, binary=False):
                def write(data):
                    writes.append(data)
                    raise OSError("disk full")

                with atomic_out(path, binary):
                    yield SimpleNamespace(write=write)

            monkeypatch.setattr(permsteg.cli, "_atomic_out", failing_out)
        before = sorted(p.name for p in workdir.iterdir())
        result = runner.invoke(main, [
            "extract", "--alphabet", str(workdir / "alphabet.txt"), "--block-size", "3",
            "--stego", str(workdir / "stego.txt"), "--out", str(out), "--frame-length",
        ])
        assert result.exit_code == code, result.output
        assert sorted(p.name for p in workdir.iterdir()) == before
        if output_fault == "write":
            assert len(writes) == 1  # the first piece's bytes, before the stream's fault


class _Reads:
    """Scripted values for the reads of one run's two generators, as an odometer.

    ``delta`` and ``padding`` stand in for the generators. The run's i-th read
    takes the i-th logged value; a read past the log logs 0 together with the
    number of values the read can take: the next class size in ``sizes`` for
    a draw (one read of N.bit_length() bits gives u < N), 2**k for k padding
    bits. ``advance`` steps the log to the next run's values.
    """

    def __init__(self, sizes):
        self._sizes = sizes
        self.log = []  # [generator, value, values it can take, bits] per read
        self._used = 0
        self.delta = SimpleNamespace(getrandbits=lambda k: self._read("delta", k))
        self.padding = SimpleNamespace(getrandbits=lambda k: self._read("padding", k))

    def _read(self, name, k):
        if self._used == len(self.log):
            if name == "delta":
                size = self._sizes[sum(read[0] == "delta" for read in self.log)]
                assert k == size.bit_length(), (k, size)
            self.log.append([name, 0, size if name == "delta" else 1 << k, k])
        read = self.log[self._used]
        assert read[0] == name and read[3] == k, (read, name, k)
        self._used += 1
        return read[1]

    def advance(self):
        """Step to the next run's values; False once every run was made."""
        assert self._used == len(self.log)  # the run read every scripted value
        self._used = 0
        while self.log:
            self.log[-1][1] += 1
            if self.log[-1][1] < self.log[-1][2]:
                return True
            self.log.pop()
        return False


def _stream_law(model, n, blocks, length, stream):
    """The exact law of ``stream``'s output for a payload of ``length`` bits.

    Every cover stream of ``blocks`` blocks, every payload and every value
    of every draw and padding read that ``stream`` makes is run once: a draw
    goes to the next block whose class size N is no power of two and takes
    each u < N with weight 1/N, and a read of k padding bits takes each
    value with weight 2**-k.
    """
    symbols, probs = model.alphabet.symbols, model.probs
    law = {}
    for cover in product(range(len(symbols)), repeat=n * blocks):
        tokens = [symbols[i] for i in cover]
        sizes = [size for size in (brute_class_size(cover[i : i + n])
                                   for i in range(0, n * blocks, n)) if size & (size - 1)]
        runs = Counter()  # (output, 1 / the weight of its reads) -> payloads and runs
        for payload in product((0, 1), repeat=length):
            reads = _Reads(sizes)
            while True:
                out = []
                stream(iter(tokens), payload, n, model.alphabet, reads.delta, reads.padding,
                       out.extend)
                runs[tuple(out), math.prod(read[2] for read in reads.log)] += 1
                if not reads.advance():
                    break
        weight = math.prod(probs[i] for i in cover) / 2**length
        for (word, inverse), count in runs.items():
            law[word] = law.get(word, 0) + weight * count / inverse
    return law


def _sorted_blocks_pass(cover, hidden, n, alphabet, delta_rng, padding_rng, write):
    """Negative control: a cover block already in sorted order is written as read."""
    cover = list(cover)
    blocks = iter([cover[i : i + n] for i in range(0, len(cover), n)])

    def write_block(tokens):
        if tokens:
            block = next(blocks)
            write(block if block == sorted(block) else tokens)

    return permsteg.cli._embed_stream(iter(cover), hidden, n, alphabet, delta_rng, padding_rng,
                                      write_block)


class TestEmbedStreamLaw:
    """The CLI's embed keeps the product law on whole streams, not only per block.

    It stops embedding after the first piece that pads and writes the rest of
    the cover as read. Whether it stops after a piece rests on the class
    sizes, draws and payload length up to that piece, so the law of each
    stream, as a word of ``blocks * n`` symbols, is the product law.
    """

    @pytest.mark.parametrize("probs, n, blocks", [
        ((Fraction(1, 3), Fraction(2, 3)), 3, 2),
        ((Fraction(1, 3), Fraction(2, 3)), 3, 3),
        ((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)), 2, 3),
    ], ids=["k2-n3-b2", "k2-n3-b3", "k3-n2-b3"])
    def test_stop_rule_keeps_the_product_law(self, monkeypatch, probs, n, blocks):
        monkeypatch.setattr(permsteg.codec, "_PIECE_SYMBOLS", n)  # one block per piece
        model = SourceModel(Alphabet("abc"[: len(probs)]), probs)
        expected = block_distribution(model, n * blocks)
        # the most bits a stream can carry: floor(log2 N) per block
        capacity = blocks * max(brute_class_size(word).bit_length() - 1
                                for word in product(range(len(probs)), repeat=n))
        for length in range(capacity + 1):
            law = _stream_law(model, n, blocks, length, permsteg.cli._embed_stream)
            assert law == expected, length
        control = _stream_law(model, n, blocks, 0, _sorted_blocks_pass)
        assert sum(control.get(word, 0) != p for word, p in expected.items()) > 0


class TestGenerate:
    def test_generates_cover_deterministically(self, runner, workdir):
        for name in ("c1.txt", "c2.txt"):
            result = runner.invoke(main, [
                "generate", "--model", str(workdir / "model.txt"),
                "--count", "500", "--seed-source", "9",
                "--out", str(workdir / name),
            ])
            assert result.exit_code == 0, result.output
        assert (workdir / "c1.txt").read_bytes() == (workdir / "c2.txt").read_bytes()
        tokens = (workdir / "c1.txt").read_text().split()
        assert len(tokens) == 500
        assert set(tokens) <= {"a", "b", "c"}

    def test_batches_write_one_draw_in_flat_memory(self, runner, workdir, monkeypatch):
        # the cover is drawn and written a batch at a time from one seeded
        # generator: the bytes of a single draw, in memory flat in the count
        monkeypatch.setattr(permsteg.codec, "_PIECE_SYMBOLS", 400)
        model = load_model(workdir / "model.txt")

        def generate(count):
            tracemalloc.start()
            try:
                result = runner.invoke(main, [
                    "generate", "--model", str(workdir / "model.txt"),
                    "--count", str(count), "--seed-source", "9",
                    "--out", str(workdir / "cover.txt"),
                ])
                _, top = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert result.exit_code == 0, result.output
            return top

        generate(2_500)
        expected = "".join(t + "\n" for t in draw_cover(model, 2_500, random.Random(9)))
        assert (workdir / "cover.txt").read_text(encoding="utf-8") == expected
        generate(20_000)  # first use settles lazily built module state
        assert generate(80_000) <= 1.25 * generate(20_000)

    def test_bad_model_exit_4(self, runner, workdir):
        (workdir / "bad.txt").write_text("a 0.9\nb 0.3\n", encoding="utf-8")
        result = runner.invoke(main, [
            "generate", "--model", str(workdir / "bad.txt"),
            "--count", "10", "--out", str(workdir / "c.txt"),
        ])
        assert result.exit_code == 4


class TestAnalyze:
    def test_exact_mode_reports_zero_deviation(self, runner, workdir):
        result = runner.invoke(main, [
            "analyze", "--model", str(workdir / "ab_model.txt"),
            "--block-size", "2", "--mode", "exact", "--samples", "2000",
            "--report", str(workdir / "report.json"),
        ])
        assert result.exit_code == 0, result.output
        report = json.loads((workdir / "report.json").read_text())
        assert report["distribution"]["max_abs_deviation"] == 0.0
        assert report["distribution"]["arithmetic"] == "rational"
        assert report["rate"]["empirical_rate"] > 0
        assert report["theory"]["st2_rate"] == pytest.approx(0.21)

    def test_empirical_mode_reports_chi_square(self, runner, workdir):
        result = runner.invoke(main, [
            "analyze", "--model", str(workdir / "model.txt"),
            "--block-size", "3", "--mode", "empirical", "--samples", "4000",
            "--seed-source", "5", "--seed-hidden", "6", "--seed-delta", "7",
            "--report", str(workdir / "report.json"),
        ])
        assert result.exit_code == 0, result.output
        report = json.loads((workdir / "report.json").read_text())
        assert report["distribution"]["p_value"] > 1e-3
        assert report["distribution"]["seeds"]["source"] == 5
        assert report["rate"]["empirical_rate"] > 0

    def test_saved_float_model(self, runner, workdir):
        save_model(zipf_model(26), workdir / "zipf.txt")
        result = runner.invoke(main, ["analyze", "--model", str(workdir / "zipf.txt"), "-n", "2"])
        assert result.exit_code == 0, result.output

    def test_space_guard_exit_4(self, runner, workdir):
        result = runner.invoke(main, [
            "analyze", "--model", str(workdir / "model.txt"),
            "--block-size", "13", "--mode", "exact",
        ])
        assert result.exit_code == 4

    def test_long_block_exits_4_at_once(self, runner, workdir):
        # the guard refuses n = 10**8 from n alone, without building 3**n
        start = time.perf_counter()
        result = runner.invoke(main, [
            "analyze", "--model", str(workdir / "model.txt"), "-n", "100000000",
        ])
        assert result.exit_code == 4
        assert "exceeds the exact-enumeration guard" in result.output
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("mode", ["exact", "empirical"])
    def test_space_guard_before_any_work(self, runner, workdir, monkeypatch, mode):
        # beyond the guard, analyze exits 4 before it computes the rate bound
        # or embeds anything, and so does the library's empirical report
        calls = []

        def counted(name, real):
            return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

        for name in ("stn_embed", "rate_lower_bound"):
            monkeypatch.setattr(permsteg.analysis, name, counted(name, getattr(permsteg.analysis, name)))
        result = runner.invoke(main, [
            "analyze", "--model", str(workdir / "model.txt"),
            "--block-size", "13", "--mode", mode,
        ])
        assert result.exit_code == 4
        assert "exceeds the exact-enumeration guard" in result.output
        assert calls == []
        model = load_model(workdir / "model.txt")
        with pytest.raises(SpaceTooLarge):
            empirical_distribution_report(model, 13, 1000, 5, 6, 7)
        assert calls == []

    @pytest.mark.parametrize("mode", ["exact", "empirical"])
    def test_analyze_embeds_once(self, runner, workdir, monkeypatch, mode):
        # either mode measures the rate (and, empirically, the distribution)
        # on one embed of a fair payload; the rate reads no payload bit, so it
        # equals the zero-payload rate of measure_stn_rate at the same source
        # and delta seeds; the exact oracle adds one scripted embed per class
        model = load_model(workdir / "model.txt")
        if mode == "exact":
            distribution = exact_distribution_report(model, 3)
        else:
            distribution = empirical_distribution_report(model, 3, 600, 5, 6, 7)
        expected = {
            "distribution": asdict(distribution),
            "rate": asdict(measure_stn_rate(model, 3, 1800, 5, 7)),
        }
        calls = []
        real_embed = permsteg.analysis.stn_embed

        def counting_embed(*args, **kwargs):
            calls.append(args)
            return real_embed(*args, **kwargs)

        monkeypatch.setattr(permsteg.analysis, "stn_embed", counting_embed)
        result = runner.invoke(main, [
            "analyze", "--model", str(workdir / "model.txt"),
            "--block-size", "3", "--mode", mode, "--samples", "600",
            "--seed-source", "5", "--seed-hidden", "6", "--seed-delta", "7",
            "--report", str(workdir / "report.json"),
        ])
        assert result.exit_code == 0, result.output
        seeded = [args for args in calls if isinstance(args[4], random.Random)]
        assert len(seeded) == 1
        # k = 3, n = 3: 10 classes
        assert len(calls) - len(seeded) == (10 if mode == "exact" else 0)
        report = json.loads((workdir / "report.json").read_text())
        assert {part: report[part] for part in expected} == json.loads(json.dumps(expected))
        assert report["rate"]["bound"] == rate_lower_bound(model, 3)
        assert "rate_lower_bound" not in report["theory"]


@pytest.mark.parametrize("command, option", [("analyze", "--seed-padding"),
                                             ("rates", "--seed-padding"),
                                             ("rates", "--seed-hidden")],
                         ids=["analyze", "rates", "rates-seed-hidden"])
def test_analysis_commands_take_no_padding_seed(runner, workdir, command, option):
    # the analysis commands embed an endless hidden stream, which never
    # pads, so a padding seed could not change their output; nor could a
    # hidden seed change a rate, which reads no payload bit
    result = runner.invoke(main, [
        command, "--model", str(workdir / "model.txt"), option, "3",
    ])
    assert result.exit_code == 2
    # click words this "No such option: --x" or "No such option '--x'" by version
    assert "No such option" in result.output and option in result.output


def _without_seeds(report):
    """``report`` with every ``seeds`` object removed, at any depth."""
    if isinstance(report, dict):
        return {key: _without_seeds(value) for key, value in report.items() if key != "seeds"}
    if isinstance(report, list):
        return [_without_seeds(value) for value in report]
    return report


@pytest.mark.parametrize("command, exempt", [
    (["rates", "--block-sizes", "2,3", "--symbols", "600"], None),
    (["analyze", "-n", "3", "--mode", "exact", "--samples", "200"], "--seed-hidden"),
    (["analyze", "-n", "3", "--mode", "empirical", "--samples", "200"], None),
], ids=["rates", "analyze-exact", "analyze-empirical"])
def test_every_seed_option_changes_more_than_its_echo(runner, workdir, command, exempt):
    # a seed option that changes nothing but its own echo in `seeds` is an
    # input the report does not depend on; the one listed exemption is the
    # hidden seed of the exact mode, whose oracle and rate read no payload
    # bit, and which then leaves the whole report as it was
    params = main.commands[command[0]].params
    options = [param.opts[0] for param in params if param.opts[0].startswith("--seed-")]
    assert options
    for option in options:
        first, second = (
            runner.invoke(main, [*command, "--model", str(workdir / "model.txt"), option, value])
            for value in ("1", "99")
        )
        assert first.exit_code == second.exit_code == 0, (option, first.output, second.output)
        if option == exempt:
            assert first.output == second.output
        else:
            assert _without_seeds(json.loads(first.output)) != \
                _without_seeds(json.loads(second.output)), option


@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize("command, option", [(["analyze", "-n", "3"], "--samples"),
                                             (["rates"], "--symbols")], ids=["analyze", "rates"])
def test_analysis_commands_need_a_positive_count(runner, workdir, monkeypatch, command,
                                                 option, value):
    # a count below 1 exits 4 naming its option, before anything is embedded
    calls = []
    monkeypatch.setattr(permsteg.analysis, "stn_embed", lambda *args: calls.append(args))
    result = runner.invoke(main, [
        *command, "--model", str(workdir / "model.txt"), option, value,
        "--report", str(workdir / "report.json"),
    ])
    assert result.exit_code == 4
    assert f"error: {option} must be >= 1" in result.output
    assert calls == []
    assert not (workdir / "report.json").exists()


def test_rates_needs_a_cover_as_long_as_its_longest_block(runner, workdir, monkeypatch):
    # a cover shorter than the longest block length exits 4 naming --symbols
    # and that length, before anything is embedded
    calls = []
    monkeypatch.setattr(permsteg.analysis, "stn_embed", lambda *args: calls.append(args))
    result = runner.invoke(main, [
        "rates", "--model", str(workdir / "model.txt"), "--symbols", "5",
        "--block-sizes", "2,8", "--report", str(workdir / "report.json"),
    ])
    assert result.exit_code == 4
    assert "error: --symbols 5" in result.output and "block length 8" in result.output
    assert calls == []
    assert not (workdir / "report.json").exists()


class TestRatesSweep:
    def test_sweep_trends_toward_entropy(self, runner, workdir):
        result = runner.invoke(main, [
            "rates", "--model", str(workdir / "model.txt"),
            "--block-sizes", "4,2", "--symbols", "20000",
            "--report", str(workdir / "rates.json"),
        ])
        assert result.exit_code == 0, result.output
        report = json.loads((workdir / "rates.json").read_text())
        sweep = report["sweep"]
        assert [entry["n"] for entry in sweep] == [2, 4]
        assert sweep[0]["empirical_rate"] < sweep[1]["empirical_rate"]
        assert sweep[1]["empirical_rate"] < report["entropy"]

    def test_each_block_length_is_measured_once(self, runner, workdir):
        def sweep(block_sizes):
            result = runner.invoke(main, [
                "rates", "--model", str(workdir / "model.txt"),
                "--block-sizes", block_sizes, "--symbols", "2000",
            ])
            assert result.exit_code == 0, result.output
            return json.loads(result.output)["sweep"]

        repeated = sweep("4,2,4")
        assert [entry["n"] for entry in repeated] == [2, 4]
        assert repeated[1] == sweep("4")[0]

    def test_class_sizes_beyond_float_range(self, runner, workdir):
        # classes of 2048 letters pass 1.8e308, where the bound once raised
        # OverflowError; it is exact and finite at any block length
        result = runner.invoke(main, [
            "rates", "--model", str(workdir / "ab_model.txt"),
            "--block-sizes", "2048", "--symbols", "4096",
            "--report", str(workdir / "rates.json"),
        ])
        assert result.exit_code == 0, result.output
        report = json.loads((workdir / "rates.json").read_text())
        [entry] = report["sweep"]
        assert 0 < entry["bound"] < report["entropy"]
        assert "bound_std_error" not in entry

    def test_bad_block_sizes_exit_4(self, runner, workdir):
        for value in ("x,2", "1,4", ""):
            result = runner.invoke(main, [
                "rates", "--model", str(workdir / "model.txt"),
                "--block-sizes", value,
            ])
            assert result.exit_code == 4


class _FailingFile:
    """A file that writes half of its first write, then raises OSError."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(data[: len(data) // 2])
        self._fh.flush()
        raise OSError("disk full")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


class TestAtomicOutputs:
    @pytest.mark.parametrize("args", [
        ["generate", "--model", "{model}", "--count", "50", "--out", "{out}"],
        ["analyze", "--model", "{model}", "--block-size", "2", "--samples", "200",
         "--report", "{out}"],
        ["rates", "--model", "{model}", "--block-sizes", "2", "--symbols", "400",
         "--report", "{out}"],
    ], ids=["generate", "analyze", "rates"])
    def test_write_error_leaves_existing_output_untouched(self, runner, workdir, monkeypatch,
                                                         args):
        out = workdir / "out.txt"
        out.write_bytes(b"earlier output\n")
        before = sorted(p.name for p in workdir.iterdir())

        def failing_open(*open_args, **open_kwargs):
            return _FailingFile(open(*open_args, **open_kwargs))

        monkeypatch.setattr(permsteg.cli, "open", failing_open, raising=False)
        model = str(workdir / "ab_model.txt")
        result = runner.invoke(main, [arg.format(model=model, out=out) for arg in args])
        assert result.exit_code == 2, result.output
        assert "error: disk full" in result.output
        assert out.read_bytes() == b"earlier output\n"
        assert sorted(p.name for p in workdir.iterdir()) == before
