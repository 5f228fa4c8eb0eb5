import json
import re

import pytest
from click.testing import CliRunner

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
            "--force-delta", "1",
        ])
        assert result.exit_code == 0, result.output
        assert read_tokens(workdir / "stego.txt") == "cab"
        summary = json.loads(result.output)
        assert summary["bits_embedded"] == 1
        assert summary["force_delta"] == 1

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

    def test_force_delta_rejected_for_pair_scheme(self, runner, workdir):
        write_tokens(workdir / "cover.txt", "ab")
        (workdir / "hidden.bin").write_bytes(b"\x00")
        result = runner.invoke(main, [
            "embed", "--alphabet", str(workdir / "alphabet.txt"),
            "--scheme", "st2",
            "--cover", str(workdir / "cover.txt"),
            "--hidden", str(workdir / "hidden.bin"),
            "--out", str(workdir / "stego.txt"),
            "--force-delta", "1",
        ])
        assert result.exit_code == 4

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
        assert not (workdir / "stego.txt").exists()
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
