"""Span tracing of rvqlab's public functions from outside the program.

`Tracer.installed()` rebinds each function in LAYERS to a timing wrapper in
every loaded `rvqlab.*` module that binds it.  Module globals resolve at
call time, so calls made inside the library (frontend -> dsp.stft, training
-> rvq.kmeans_unit, ...) are caught as well as calls from the CLI.  The
originals are put back when the context exits, so untraced runs never go
through a wrapper.

Each span records name, start, end, parent and request id.  Wrapper
bookkeeping (argument binding, input fingerprints, work counts) is recorded
as `trace.bookkeeping` spans, so it is subtracted from the caller's self time
instead of being charged to it.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import os
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from time import perf_counter
from typing import Callable

import numpy as np

from stats import Span, self_times

BOOKKEEPING = "trace.bookkeeping"


def _digest_array(h, array) -> None:
    h.update(np.ascontiguousarray(array).view(np.uint8))


def _fp_resample(a) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    _digest_array(h, a["audio"].samples)
    h.update(repr((a["audio"].sample_rate, a["target_rate"])).encode())
    return h.digest()


def _fp_stft(a) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    _digest_array(h, a["audio"].samples)
    h.update(repr((a["audio"].sample_rate, a["config"].fft_size, a["config"].hop)).encode())
    return h.digest()


def _fp_args(a) -> bytes:
    return repr(sorted(a.items())).encode()


def _dequantized_stages(a) -> int:
    return a["n_stages"] if a["n_stages"] is not None else a["tokens"].n_stages


def _file_bytes(a, result) -> int:
    return os.path.getsize(a["path"])


@dataclass(frozen=True)
class Layer:
    """One traced public function and the work it reports."""

    module: str
    function: str
    counts: dict = field(default_factory=dict)  # quantity -> (unit, (bound args, result) -> number)
    fingerprint: Callable | None = None          # bound args -> key for distinct_ratio

    @property
    def name(self) -> str:
        return f"{self.module}.{self.function}"


LAYERS = (
    Layer("dsp", "resample", {"out_samples": ("samples", lambda a, r: len(r))}, _fp_resample),
    Layer("dsp", "griffin_lim",
          {"frame_iters": ("count", lambda a, r: a["magnitude"].n_frames * a["iterations"])}),
    Layer("dsp", "stft", {"frames": ("frames", lambda a, r: r.n_frames)}, _fp_stft),
    Layer("dsp", "mel_filterbank", fingerprint=_fp_args),
    Layer("frontend", "encode_latent", {"frames": ("frames", lambda a, r: r.n_frames)}),
    Layer("frontend", "decode_latent", {"frames": ("frames", lambda a, r: a["latents"].n_frames)}),
    Layer("frontend", "fit_frontend"),
    Layer("rvq", "quantize", {"frame_stages": ("count", lambda a, r: r.n_frames * r.n_stages)}),
    Layer("rvq", "dequantize",
          {"frame_stages": ("count", lambda a, r: r.n_frames * _dequantized_stages(a))}),
    Layer("rvq", "kmeans_unit",
          {"lloyd_iters": ("count", lambda a, r: len(r[2])),
           "point_iters": ("count", lambda a, r: a["points"].shape[0] * len(r[2]))}),
    Layer("rvq", "train_rvq"),
    Layer("bitstream", "pack", {"bytes": ("bytes", lambda a, r: len(r))}),
    Layer("bitstream", "unpack", {"bytes": ("bytes", lambda a, r: len(a["data"]))}),
    Layer("container", "load", {"bytes": ("bytes", _file_bytes)}),
    Layer("container", "save"),
    Layer("metrics", "stoi"),
    Layer("metrics", "mel_loss"),
    Layer("metrics", "stft_loss"),
    Layer("metrics", "pesq_adapter"),
    Layer("datapipe", "sample_batch", {"excerpts": ("count", lambda a, r: len(r))}),
    Layer("datapipe", "load_manifest"),
    Layer("wavio", "read_wav", {"bytes": ("bytes", _file_bytes)}),
    Layer("wavio", "write_wav", {"bytes": ("bytes", _file_bytes)}),
    Layer("evalstats", "run_evaluation"),
    Layer("evalstats", "render_report"),
    Layer("training", "train_codec"),
    Layer("cli", "main"),
)

MODULES = tuple(dict.fromkeys(layer.module for layer in LAYERS))

TRACE_HEALTH = (
    ("trace.overhead_frac", "fraction", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.bookkeeping_s", "s", "lower"),
)


def per_layer_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for layer in LAYERS:
        specs.append((f"{layer.name}.self_s", "s", "lower"))
        specs.append((f"{layer.name}.calls", "count", "lower"))
        specs.extend((f"{layer.name}.{q}", unit, "lower") for q, (unit, _) in layer.counts.items())
        if layer.fingerprint is not None:
            specs.append((f"{layer.name}.distinct_ratio", "ratio", "higher"))
    specs.extend((f"{module}.errors", "count", "lower") for module in MODULES)
    specs.extend(TRACE_HEALTH)
    return specs


class Tracer:
    """Records spans around LAYERS while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request: int | None = None
        self.counts = defaultdict(float)
        self.fingerprints = defaultdict(set)
        self.errors = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _span(self, name: str, start: float, end: float) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, start, end, parent, self.request)
        self.spans.append(span)
        return span

    def _wrap(self, layer: Layer, original):
        signature = inspect.signature(original)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            arguments = bound.arguments
            if layer.fingerprint is not None:
                self.fingerprints[layer.name].add(layer.fingerprint(arguments))
            self._span(BOOKKEEPING, t0, perf_counter())
            span = self._span(layer.name, perf_counter(), 0.0)
            self._stack.append(span.id)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                self.errors[layer.module] += 1
                raise
            finally:
                span.end = perf_counter()
                self._stack.pop()
            for quantity, (_, count) in layer.counts.items():
                self.counts[f"{layer.name}.{quantity}"] += count(arguments, result)
            self._span(BOOKKEEPING, span.end, perf_counter())
            return result

        wrapper.__perfbench_original__ = original
        return wrapper

    @contextmanager
    def installed(self):
        for module in MODULES:
            importlib.import_module(f"rvqlab.{module}")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "rvqlab" or name.startswith("rvqlab."))]
        try:
            for layer in LAYERS:
                original = getattr(importlib.import_module(f"rvqlab.{layer.module}"), layer.function)
                wrapper = self._wrap(layer, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))
            yield self
        finally:
            while self._patched:
                module, attr, original = self._patched.pop()
                setattr(module, attr, original)

    def metrics(self, traced_wall: float, untraced_wall: float) -> dict[str, float]:
        """Per-layer metrics over the recorded spans.

        traced_wall is the summed request time of the traced pass; the part
        of it no span covers is trace.unattributed_s, so the self times of
        all span names plus that remainder add up to traced_wall.
        """
        selfs = self_times(self.spans)
        self_by_name = defaultdict(float)
        calls = defaultdict(int)
        for span in self.spans:
            self_by_name[span.name] += selfs[span.id]
            calls[span.name] += 1
        roots = sum(span.duration for span in self.spans if span.parent is None)
        out = {}
        for layer in LAYERS:
            n = calls[layer.name]
            out[f"{layer.name}.self_s"] = self_by_name[layer.name]
            out[f"{layer.name}.calls"] = n
            for quantity in layer.counts:
                out[f"{layer.name}.{quantity}"] = self.counts[f"{layer.name}.{quantity}"]
            if layer.fingerprint is not None:
                out[f"{layer.name}.distinct_ratio"] = (
                    len(self.fingerprints[layer.name]) / n if n else 0.0
                )
        for module in MODULES:
            out[f"{module}.errors"] = self.errors[module]
        out["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
        out["trace.unattributed_s"] = traced_wall - roots
        out["trace.bookkeeping_s"] = self_by_name[BOOKKEEPING]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(span) for span in self.spans], fh)
