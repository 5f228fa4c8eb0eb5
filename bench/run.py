#!/usr/bin/env python3
"""permsteg benchmark: embed/extract throughput, hiding rate and CLI cost.

Run from the root of a source checkout:

    python3 bench/run.py --workload small-classes --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --self-test

A run repeats whole rounds of the same operations on seeded inputs until
``--seconds`` have passed: library stn embed and extract, library st2 embed
and extract, then ``permsteg embed`` and ``permsteg extract`` on files.
Every output is checked (see checks.py). The last line of standard output
is one JSON object: end-to-end metrics with ``--trace 0``, per-layer
metrics from spans with ``--trace 1``. See bench/README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_REPS = 3
# The speed of this shared 2-core machine drifts by 10-30% over seconds to
# minutes, for a fixed pure-Python loop as much as for the program. Each
# timed operation is therefore preceded by a fixed calibration workload, and
# times are reported scaled by CALIBRATION_REF_S over the run's mean
# calibration time: as if on a machine whose mean calibration time within a
# run is 0.14 s, the median over 30 runs on this machine.
CALIBRATION_REF_S = 0.14

if not (SRC / "permsteg" / "__init__.py").is_file():
    sys.exit(f"bench: no permsteg sources under {SRC}; run from a source checkout")
sys.path.insert(0, str(SRC))

import permsteg  # noqa: E402
import permsteg.cli as cli  # noqa: E402
import permsteg.codec as codec  # noqa: E402
from click.testing import CliRunner  # noqa: E402

import checks  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, Inputs, Workload, ceilings, make_inputs, sum_log2_class_sizes,
)

if not Path(permsteg.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"bench: imported permsteg from {permsteg.__file__}, not from {SRC}")

CLI_ENV = dict(os.environ, PYTHONPATH=str(SRC))
CLI_ARGV = [sys.executable, str(BENCH / "cli_child.py")]


def calibration_seconds() -> float:
    """Time of a fixed workload like the program's: dicts, lists, big ints."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    keys = []
    for i in range(300_000):
        key = i * 7919 % 1021
        table[key] = table.get(key, 0) + 1
        keys.append(key)
    keys.sort()
    for _ in range(100):
        size = 1
        for i in range(1, 600):
            size = size * (600 + i) // i
    return time.perf_counter() - start


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


@dataclasses.dataclass
class CliOutcome:
    exit_code: int
    stdout: str
    maxrss_mb: float | None  # peak RSS of the child process; None in-process


def run_cli_process(args: list[str], workdir: Path) -> CliOutcome:
    """One CLI command as a child process, with that process's own peak RSS."""
    rss = workdir / "cli.rss"
    rss.unlink(missing_ok=True)
    with open(workdir / "cli.out", "w+b") as out, open(workdir / "cli.err", "w+b") as err:
        proc = subprocess.run(CLI_ARGV + args, cwd=workdir, env=CLI_ENV, stdout=out, stderr=err)
        out.seek(0)
        err.seek(0)
        stderr = err.read().decode(errors="replace").strip()
        if stderr:
            log(f"  cli stderr: {stderr[-500:]}")
        return CliOutcome(proc.returncode, out.read().decode(), int(rss.read_text()) / 1024)


class InProcessCli:
    """CLI commands through click in this process (traced runs only)."""

    def __init__(self, tracer: Tracer) -> None:
        self._runner = CliRunner()
        self._invoke = {
            cmd: tracer.wrap(f"cli.{cmd}", self._runner.invoke) for cmd in ("embed", "extract")
        }

    def __call__(self, args: list[str], workdir: Path) -> CliOutcome:
        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            result = self._invoke[args[0]](cli.main, args)
        finally:
            os.chdir(cwd)
        if result.exception is not None and not isinstance(result.exception, SystemExit):
            log(f"  cli raised {result.exception!r}")
        return CliOutcome(result.exit_code, result.stdout, None)


class Runner:
    """Runs rounds of operations, checks every output and keeps the timings.

    The first round's outputs pass the full checks; later rounds must
    reproduce them exactly (the inputs and seeds are the same).
    """

    def __init__(self, w: Workload, inputs: Inputs, workdir: Path, calls, run_cli,
                 corrupt: dict | None = None) -> None:
        self.w = w
        self.inputs = inputs
        self.workdir = workdir
        self.calls = calls
        self.run_cli = run_cli
        self.corrupt = corrupt or {}
        self.alphabet = permsteg.Alphabet(w.tokens)
        self.stn_cover = inputs.cover[: w.stn_symbols]
        self.st2_cover = inputs.cover[: w.st2_symbols]
        self.cli_cover = inputs.cover[: w.cli_symbols]
        self.stn_sum_log2_n = sum_log2_class_sizes(self.stn_cover, w.n)
        self.framed_bits = 8 * (len(inputs.secret) + 4)
        self.attempted = 0
        self.failed = 0
        self.failures: Counter[str] = Counter()
        self.correct = True
        self.rate = math.nan
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.calibration: list[float] = []
        self.reference: dict[str, object] = {}
        self._write_cli_inputs()

    def _write_cli_inputs(self) -> None:
        d = self.workdir
        (d / "alphabet.txt").write_text("\n".join(self.w.tokens) + "\n", encoding="utf-8")
        (d / "cover.txt").write_text("\n".join(self.cli_cover) + "\n", encoding="utf-8")
        (d / "secret.bin").write_bytes(self.inputs.secret)

    def _fail(self, name: str, why: str) -> None:
        log(f"  {name} failed: {why}")
        self.failed += 1
        self.failures[name] += 1

    def op(self, name: str, fn, check):
        """Attempt one operation and check its output; None when it failed.

        ``fn`` is None when the operation that makes its input failed.
        """
        self.attempted += 1
        if fn is None:
            self._fail(name, "its input operation failed")
            return None
        gc.collect()
        self.calibration.append(calibration_seconds())
        start = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # an operation that raises counts as failed
            self._fail(name, f"raised {exc!r}")
            return None
        seconds = time.perf_counter() - start
        if name in self.corrupt:
            out = self.corrupt[name](self, out)
        try:
            problems = check(out)
        except (OSError, ValueError, KeyError, IndexError) as exc:  # malformed output
            problems = [f"output could not be checked: {exc!r}"]
        if problems:
            self._fail(name, "; ".join(problems))
            self.correct = False
            return None
        self.samples[name].append(seconds)
        return out

    def _same_as_reference(self, key: str, value) -> list[str] | None:
        """None when there is no reference yet, else the comparison result."""
        if key not in self.reference:
            return None
        return [] if self.reference[key] == value else [f"{key} differs from the first round"]

    # Library operations -------------------------------------------------

    def check_stn_embed(self, res) -> list[str]:
        key = (res.stego, res.bits_embedded, res.padding_bits)
        same = self._same_as_reference("stn_embed", key)
        if same is not None:
            return same
        problems = checks.check_rearranged(self.stn_cover, res.stego, self.w.n)
        if res.padding_bits:
            problems.append(f"{res.padding_bits} padding bits although the payload outlasts the cover")
        blocks = len(self.stn_cover) // self.w.n
        problems += checks.check_rate(res.bits_embedded, len(self.stn_cover),
                                      self.stn_sum_log2_n, blocks)
        if self.w.chi_square:
            problems += checks.check_chi_square(res.stego, self.w.n, self.w.tokens, self.w.probs)
        if not problems:
            self.reference["stn_embed"] = key
        return problems

    def check_st2_embed(self, res) -> list[str]:
        key = (res.stego, res.bits_embedded, res.padding_bits)
        same = self._same_as_reference("st2_embed", key)
        if same is not None:
            return same
        problems = checks.check_pairs(self.st2_cover, res.stego, self.inputs.payload,
                                      res.bits_embedded, res.padding_bits)
        if not problems:
            self.reference["st2_embed"] = key
        return problems

    def library_round(self) -> None:
        w, inputs, calls, a = self.w, self.inputs, self.calls, self.alphabet
        payload = inputs.payload
        emb = self.op("stn_embed", lambda: calls.stn_embed(
            self.stn_cover, payload, w.n, a,
            random.Random(inputs.seed_delta), random.Random(inputs.seed_padding),
        ), self.check_stn_embed)
        if emb is not None:
            self.rate = emb.bits_embedded / len(self.stn_cover)
        self.op("stn_extract", emb and (lambda: calls.stn_extract(emb.stego, w.n, a)),
                lambda x: checks.check_bits(x.bits, payload, emb.bits_embedded, emb.padding_bits))
        emb2 = self.op("st2_embed", lambda: calls.st2_embed(
            self.st2_cover, payload, a, random.Random(inputs.seed_padding),
        ), self.check_st2_embed)
        self.op("st2_extract", emb2 and (lambda: calls.st2_extract(emb2.stego, a)),
                lambda x: checks.check_bits(x.bits, payload, emb2.bits_embedded, emb2.padding_bits))

    # CLI operations -----------------------------------------------------

    def check_cli_embed(self, outcome: CliOutcome) -> list[str]:
        if outcome.exit_code != 0:
            return [f"permsteg embed exited {outcome.exit_code}"]
        summary = json.loads(outcome.stdout.strip().splitlines()[-1])
        problems = []
        if summary["bits_embedded"] < self.framed_bits:
            problems.append(f"only {summary['bits_embedded']} of {self.framed_bits} "
                            "framed payload bits embedded")
        if summary["cover_symbols"] != len(self.cli_cover):
            problems.append(f"summary reports {summary['cover_symbols']} cover symbols")
        stego = (self.workdir / "stego.txt").read_bytes()
        same = self._same_as_reference("cli_embed", stego)
        if same is not None:
            return problems + same
        tokens = stego.decode("utf-8").split()
        problems += checks.check_rearranged(self.cli_cover, tokens, self.w.n)
        if not problems:
            self.reference["cli_embed"] = stego
        return problems

    def check_cli_extract(self, outcome: CliOutcome) -> list[str]:
        if outcome.exit_code != 0:
            return [f"permsteg extract exited {outcome.exit_code}"]
        if (self.workdir / "recovered.bin").read_bytes() != self.inputs.secret:
            return ["recovered file differs from the secret"]
        return []

    def cli_round(self) -> None:
        w, d = self.w, self.workdir
        for stale in ("stego.txt", "recovered.bin"):
            (d / stale).unlink(missing_ok=True)
        emb = self.op("cli_embed", lambda: self.run_cli([
            "embed", "--alphabet", "alphabet.txt", "--scheme", "stn", "-n", str(w.n),
            "--cover", "cover.txt", "--hidden", "secret.bin", "--out", "stego.txt",
            "--seed-delta", str(self.inputs.seed_delta),
            "--seed-padding", str(self.inputs.seed_padding), "--frame-length",
        ], d), self.check_cli_embed)
        ext = self.op("cli_extract", emb and (lambda: self.run_cli([
            "extract", "--alphabet", "alphabet.txt", "--scheme", "stn", "-n", str(w.n),
            "--stego", "stego.txt", "--out", "recovered.bin", "--frame-length",
        ], d)), self.check_cli_extract)
        if emb is not None and ext is not None and emb.maxrss_mb is not None:
            self.samples["cli_peak_rss_mb"].append(max(emb.maxrss_mb, ext.maxrss_mb))

    def round(self) -> None:
        self.library_round()
        self.cli_round()


def fresh_process_seconds(argv: list[str], reps: int,
                          calibration: list[float]) -> list[float]:
    """Wall times of ``reps`` fresh interpreter runs of ``argv``."""
    times = []
    for _ in range(reps):
        calibration.append(calibration_seconds())
        start = time.perf_counter()
        subprocess.run([sys.executable, *argv], env=CLI_ENV, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def import_seconds(reps: int) -> list[float]:
    """In-process time of ``import permsteg.cli`` in fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import permsteg.cli; "
            "print(time.perf_counter() - t)")
    return [
        float(subprocess.run([sys.executable, "-c", code], env=CLI_ENV, cwd=ROOT, check=True,
                             capture_output=True, text=True).stdout)
        for _ in range(reps)
    ]


def run_rounds(runner: Runner, seconds: float) -> int:
    """Whole rounds until ``seconds`` have passed; the last one ends the run."""
    deadline = time.perf_counter() + seconds
    rounds = 0
    while True:
        runner.round()
        rounds += 1
        if time.perf_counter() >= deadline:
            return rounds


def median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def end_to_end(runner: Runner, setup: list[float]) -> dict:
    w = runner.w
    scale = CALIBRATION_REF_S / statistics.mean(runner.calibration)

    def op_s(op: str) -> float:
        # A mean, like the calibration it is scaled by, over the whole run.
        return statistics.mean(runner.samples[op]) * scale if runner.samples[op] else math.nan

    def ksym(op: str, symbols: int) -> float:
        return symbols / op_s(op) / 1e3

    return {
        "setup_s": (median(setup) * scale, "s"),
        "embed_ksym_s": (ksym("stn_embed", w.stn_symbols), "ksym/s"),
        "extract_ksym_s": (ksym("stn_extract", w.stn_symbols), "ksym/s"),
        "st2_embed_ksym_s": (ksym("st2_embed", w.st2_symbols), "ksym/s"),
        "st2_extract_ksym_s": (ksym("st2_extract", w.st2_symbols), "ksym/s"),
        "rate_bits_per_sym": (runner.rate, "bits/sym"),
        "cli_embed_s": (op_s("cli_embed"), "s"),
        "cli_extract_s": (op_s("cli_extract"), "s"),
        "cli_peak_rss_mb": (median(runner.samples["cli_peak_rss_mb"]), "MB"),
    }


def per_layer(tr: Tracer, rounds: int, import_s: list[float], overhead: float) -> dict:
    total, self_time, calls = tr.totals()

    def per_round(table, *spans) -> float:
        return sum(table.get(span, 0) for span in spans) / rounds

    unrank_calls = calls.get("ranking.unrank_indices", 0)
    return {
        "ranking.rank_s": (per_round(total, "ranking.rank_indices"), "s"),
        "ranking.unrank_s": (per_round(total, "ranking.unrank_indices"), "s"),
        "ranking.rank_calls": (per_round(calls, "ranking.rank_indices"), "count"),
        "ranking.unrank_calls": (unrank_calls / rounds, "count"),
        "codec.member_table_hit_ratio": (1 - unrank_calls / tr.embed_blocks, "ratio"),
        "codec.stn_embed_self_s": (per_round(self_time, "codec.stn_embed"), "s"),
        "codec.stn_extract_self_s": (per_round(self_time, "codec.stn_extract"), "s"),
        "codec.blocks": (tr.embed_blocks / rounds, "count"),
        "codec.padding_bits": (tr.embed_padding / rounds, "count"),
        "codec.frame_s": (per_round(total, "codec.frame_payload", "codec.unframe_bits"), "s"),
        "payload.sample_delta_s": (per_round(total, "payload.sample_delta"), "s"),
        "payload.encode_index_s": (per_round(total, "payload.encode_index"), "s"),
        "payload.decode_index_s": (per_round(total, "payload.decode_index"), "s"),
        "payload.expand_s": (per_round(total, "payload.expand"), "s"),
        "payload.expand_calls": (per_round(calls, "payload.expand"), "count"),
        "payload.capacity_efficiency": (tr.payload_bits / tr.sum_log2_n, "ratio"),
        "bits.bits_from_int_s": (per_round(total, "bits.bits_from_int"), "s"),
        "bits.bytes_to_bits_s": (per_round(total, "bits.bytes_to_bits"), "s"),
        "bits.bits_to_bytes_s": (per_round(total, "bits.bits_to_bytes"), "s"),
        "cli.import_s": (median(import_s), "s"),
        "cli.alphabet_load_s": (per_round(total, "cli.alphabet_load"), "s"),
        "cli.read_tokens_s": (per_round(total, "cli.read_tokens"), "s"),
        "cli.write_tokens_s": (per_round(total, "cli.write_tokens"), "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }


def library_seconds(runner: Runner, first: int) -> float:
    """Library time of the round whose samples start at index ``first``."""
    return sum(runner.samples[op][first] for op in
               ("stn_embed", "stn_extract", "st2_embed", "st2_extract"))


def measure(w: Workload, seed: int, seconds: float, trace: bool,
            workdir: Path) -> tuple[dict, dict]:
    inputs = make_inputs(w, seed)
    extra: dict = {}
    if not trace:
        runner = Runner(w, inputs, workdir, codec, run_cli_process)
        setup = fresh_process_seconds(["-m", "permsteg.cli", "--help"], SETUP_REPS,
                                      runner.calibration)
        rounds = run_rounds(runner, seconds)
        metrics = end_to_end(runner, setup)
        extra["setup_samples"] = setup
    else:
        import_s = import_seconds(3)
        tracer = Tracer()
        runner = Runner(w, inputs, workdir, codec, InProcessCli(tracer))
        runner.library_round()
        runner.library_round()  # warm: the overhead compares warm rounds
        untraced = library_seconds(runner, 1)
        runner.calls = tracer.codec_calls(codec)
        with tracer.install(codec, cli):
            rounds = run_rounds(runner, seconds)
        traced = statistics.median(library_seconds(runner, 2 + i) for i in range(rounds))
        metrics = per_layer(tracer, rounds, import_s, traced / untraced)
        RESULTS.mkdir(exist_ok=True)
        tracer.dump(RESULTS / f"spans-{w.name}-seed{seed}.bin")
        extra["import_samples"] = import_s
    entropy, ceiling = ceilings(w)
    extra.update(rounds=rounds, samples=dict(runner.samples),
                 calibration=runner.calibration,
                 entropy_bits_per_sym=entropy, ceiling_bits_per_sym=ceiling)
    return {
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }, extra


def corrupt_stego(runner: Runner, res):
    """Swap two different tokens that sit in the first two blocks."""
    stego = list(res.stego)
    n = runner.w.n
    i, j = next((i, j) for i in range(n) for j in range(n, 2 * n) if stego[i] != stego[j])
    stego[i], stego[j] = stego[j], stego[i]
    return dataclasses.replace(res, stego=tuple(stego))


def corrupt_bits(runner: Runner, res):
    bits = list(res.bits)
    bits[len(bits) // 2] ^= 1
    return dataclasses.replace(res, bits=tuple(bits))


def corrupt_recovered(runner: Runner, outcome: CliOutcome) -> CliOutcome:
    path = runner.workdir / "recovered.bin"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x10
    path.write_bytes(bytes(data))
    return outcome


def self_test(workdir: Path) -> int:
    """The checks must pass clean outputs and report each corruption as failed."""
    w = dataclasses.replace(WORKLOADS["small-classes"], stn_symbols=4000, st2_symbols=4000,
                            cli_symbols=4000)
    inputs = make_inputs(w, 0)
    cases = {
        "clean": {},
        "stn_embed": {"stn_embed": corrupt_stego},
        "stn_extract": {"stn_extract": corrupt_bits},
        "cli_extract": {"cli_extract": corrupt_recovered},
    }
    ok = True
    for case, corrupt in cases.items():
        runner = Runner(w, inputs, workdir, codec, run_cli_process, corrupt)
        runner.round()
        expected = Counter({case: 1}) if corrupt else Counter()
        # A corrupted stego stream also fails the extract that depends on it.
        if case == "stn_embed":
            expected["stn_extract"] = 1
        passed = runner.failures == expected
        ok &= passed
        log(f"self-test {case}: failures {dict(runner.failures)} "
            f"of {runner.attempted} -> {'ok' if passed else 'WRONG'}")
    print(json.dumps({"self_test": "passed" if ok else "failed"}))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that corrupted outputs are reported as failed")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    workdir = BENCH / "work" / f"{args.workload or 'self-test'}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.self_test:
            return self_test(workdir)
        w = WORKLOADS[args.workload]
        result, extra = measure(w, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    RESULTS.mkdir(exist_ok=True)
    record = dict(result, workload=w.name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, **extra)
    out = RESULTS / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    for name, m in result["metrics"].items():
        log(f"{w.name:14s} {name:30s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
