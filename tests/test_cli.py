import json
import random
import re
import tracemalloc

import pytest
from click.testing import CliRunner

import permsteg.cli
import permsteg.codec
from permsteg import (
    Alphabet,
    bits_to_bytes,
    bytes_to_bits,
    frame_payload,
    st2_embed,
    st2_extract,
    stn_embed,
    stn_extract,
)
from permsteg.cli import main


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "alphabet.txt").write_text("a\nb\nc\n", encoding="utf-8")
    (tmp_path / "model.txt").write_text("a 0.5\nb 0.3\nc 0.2\n", encoding="utf-8")
    (tmp_path / "ab_model.txt").write_text("a 0.7\nb 0.3\n", encoding="utf-8")
    return tmp_path


def write_tokens(path, text):
    path.write_text("".join(ch + "\n" for ch in text), encoding="utf-8")


def read_tokens(path):
    return "".join(line.strip() for line in path.read_text(encoding="utf-8").splitlines())


@pytest.fixture
def small_pieces(monkeypatch):
    """Stream in pieces of a few blocks, reading token files in small batches."""
    monkeypatch.setattr(permsteg.codec, "_PIECE_SYMBOLS", 12)
    monkeypatch.setattr(permsteg.cli, "_READ_BATCH_BYTES", 10)


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
        alphabet = Alphabet(["a", "b", "c"])
        rng = random.Random(3)
        cover = rng.choices("abc", k=3 * 80 + 2)  # a trailing partial block
        payload = b"\x9c"
        write_tokens(workdir / "cover.txt", "".join(cover))
        (workdir / "hidden.bin").write_bytes(payload)
        hidden = bytes_to_bits(frame_payload(payload) if frame else payload)
        if scheme == "st2":
            whole = st2_embed(cover, hidden, alphabet, random.Random(2))
            bits = st2_extract(whole.stego, alphabet).bits
        else:
            whole = stn_embed(cover, hidden, 3, alphabet, random.Random(1), random.Random(2))
            bits = stn_extract(whole.stego, 3, alphabet).bits
        assert whole.padding_bits > 0
        flag = ["--frame-length"] if frame else []
        embed = runner.invoke(main, embed_args(workdir, scheme, *flag))
        assert embed.exit_code == 0, embed.output
        assert json.loads(embed.output)["cover_symbols"] == len(cover)
        assert (workdir / "stego.txt").read_text(encoding="utf-8") == "".join(
            token + "\n" for token in whole.stego
        )
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
        assert summary["bits_recovered"] == len(bits)
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
            "--seed-source", "5", "--seed-hidden", "6",
            "--seed-delta", "7", "--seed-padding", "8",
            "--report", str(workdir / "report.json"),
        ])
        assert result.exit_code == 0, result.output
        report = json.loads((workdir / "report.json").read_text())
        assert report["distribution"]["p_value"] > 1e-3
        assert report["distribution"]["seeds"]["source"] == 5
        assert report["rate"]["empirical_rate"] > 0

    def test_space_guard_exit_4(self, runner, workdir):
        result = runner.invoke(main, [
            "analyze", "--model", str(workdir / "model.txt"),
            "--block-size", "13", "--mode", "exact",
        ])
        assert result.exit_code == 4


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
