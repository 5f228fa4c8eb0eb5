"""Spans around calls into permsteg's layers, installed from outside.

``Tracer.install`` replaces names in the ``permsteg.codec`` and
``permsteg.cli`` namespaces with wrappers that record one span per call
(name, start, end, parent) in flat arrays, and puts the originals back on
exit. The program's own files stay untouched. Calls run in one thread, so
children never overlap and a span's self time is its duration minus the
sum of its children's durations.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from collections import defaultdict
from math import log2
from types import SimpleNamespace

# Name in the module namespace -> span name (layer.function).
CODEC_NAMES = {
    "rank_indices": "ranking.rank_indices",
    "unrank_indices": "ranking.unrank_indices",
    "sample_delta": "payload.sample_delta",
    "encode_index": "payload.encode_index",
    "decode_index": "payload.decode_index",
    "expand": "payload.expand",
    "bits_from_int": "bits.bits_from_int",
    "bits_to_bytes": "bits.bits_to_bytes",
}
CLI_NAMES = {
    "bytes_to_bits": "bits.bytes_to_bits",
    "bits_to_bytes": "bits.bits_to_bytes",
    "frame_payload": "codec.frame_payload",
    "unframe_bits": "codec.unframe_bits",
    "_read_tokens": "cli.read_tokens",
    "_write_tokens": "cli.write_tokens",
    "stn_embed": "codec.stn_embed",
    "stn_extract": "codec.stn_extract",
    "st2_embed": "codec.st2_embed",
    "st2_extract": "codec.st2_extract",
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        # Sums over every stn_embed result seen, library and CLI calls alike.
        self.embed_blocks = 0
        self.embed_padding = 0
        self.payload_bits = 0
        self.sum_log2_n = 0.0

    def wrap(self, span: str, fn, on_result=None):
        nid = self._ids.setdefault(span, len(self.names))
        if nid == len(self.names):
            self.names.append(span)
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self._stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _stn_embed_result(self, result) -> None:
        self.embed_blocks += result.blocks
        self.embed_padding += result.padding_bits
        self.payload_bits += sum(rec.delta for rec in result.trace)
        self.sum_log2_n += sum(log2(rec.class_size) for rec in result.trace)

    def codec_calls(self, codec) -> SimpleNamespace:
        """Traced entry points for library calls made by the benchmark itself."""
        return SimpleNamespace(
            stn_embed=self.wrap("codec.stn_embed", codec.stn_embed, self._stn_embed_result),
            stn_extract=self.wrap("codec.stn_extract", codec.stn_extract),
            st2_embed=self.wrap("codec.st2_embed", codec.st2_embed),
            st2_extract=self.wrap("codec.st2_extract", codec.st2_extract),
        )

    @contextlib.contextmanager
    def install(self, codec, cli):
        saved = []

        def patch(module, attr, value):
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)

        for attr, span in CODEC_NAMES.items():
            patch(codec, attr, self.wrap(span, getattr(codec, attr)))
        for attr, span in CLI_NAMES.items():
            on_result = self._stn_embed_result if attr == "stn_embed" else None
            patch(cli, attr, self.wrap(span, getattr(cli, attr), on_result))
        patch(cli, "Alphabet", SimpleNamespace(
            from_file=self.wrap("cli.alphabet_load", cli.Alphabet.from_file)
        ))
        try:
            yield
        finally:
            for module, attr, value in reversed(saved):
                setattr(module, attr, value)

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: total duration, total self time and call count."""
        duration = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(duration)
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += duration[idx]
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for idx, nid in enumerate(self.name):
            span = self.names[nid]
            total[span] += duration[idx]
            self_time[span] += duration[idx] - child[idx]
            calls[span] += 1
        return total, self_time, calls

    def dump(self, path) -> None:
        """Write every span: a text header of names, then the raw arrays."""
        with open(path, "wb") as fh:
            header = "\t".join(self.names) + f"\n{len(self.start)}\n"
            fh.write(header.encode())
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)
