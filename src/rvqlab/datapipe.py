"""Dataset manifests, balanced mini-batch sampling, and excerpt extraction.

Manifests are JSON-lines files, one record per audio file:

    {"path": "clips/a.wav", "category": "HQ1", "duration": 3.25, "sample_rate": 24000}

Paths are resolved relative to the manifest's directory.  Every mini-batch
contains exactly batch_size / n_categories excerpts per quality category;
within a category, files are drawn with probability proportional to their
duration.  Sampling is a pure function of (manifest, spec, batch_index).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .dsp import AudioBuffer, _resampled_length, resample
from .errors import (
    EmptyCategory,
    EmptyInput,
    InvalidConfig,
    InvalidInput,
    MissingFile,
    NotDivisible,
    SchemaError,
    WavError,
    check_float,
    check_int,
    check_path,
)
from .frontend import HOP, MIN_SOURCE_RATE, SAMPLE_RATE
from .wavio import _read_layout, _read_window, read_wav


class QualityCategory(Enum):
    HQ1 = "HQ1"
    HQ2 = "HQ2"
    HQ3 = "HQ3"
    MQ1 = "MQ1"
    MQ2 = "MQ2"
    UQ = "UQ"


@dataclass(frozen=True)
class ManifestEntry:
    path: Path
    category: QualityCategory
    duration: float
    sample_rate: int


@dataclass(frozen=True)
class BatchSpec:
    batch_size: int = 72
    excerpt_samples: int = 9280  # 29 hops of 320 at 24 kHz, ~0.387 s
    seed: int = 0

    def __post_init__(self):
        for name, low in (("batch_size", 1), ("excerpt_samples", 1), ("seed", 0)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), low, error=InvalidConfig))
        if self.excerpt_samples % HOP:
            raise InvalidConfig(f"excerpt_samples must be a multiple of {HOP}, got {self.excerpt_samples}")


@dataclass(frozen=True)
class Excerpt:
    audio: AudioBuffer
    entry: ManifestEntry


def _text_lines(path, what: str, error) -> list[tuple[int, str]]:
    """The stripped (line number, line) pairs of the UTF-8 text at path that
    are neither blank nor # comments, past any byte-order mark.  MissingFile
    when nothing is at path, else error for a failed read or non-UTF-8 text."""
    try:
        with open(check_path(path), encoding="utf-8-sig") as fh:
            text = fh.read()
    except (FileNotFoundError, NotADirectoryError):
        raise MissingFile(path) from None
    except UnicodeDecodeError as exc:
        raise error(f"{path}: cannot read {what}: not UTF-8 text: {exc}") from exc
    except OSError as exc:
        raise error(f"{path}: cannot read {what}: {exc}") from exc
    lines = ((lineno, line.strip()) for lineno, line in enumerate(text.split("\n"), start=1))
    return [(lineno, line) for lineno, line in lines if line and not line.startswith("#")]


def load_manifest(path) -> list[ManifestEntry]:
    """Parse and validate a JSONL manifest; entries must point at real files."""
    lines = _text_lines(path, "manifest", SchemaError)
    path = Path(path)
    entries = []
    for lineno, line in lines:
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:  # too deep, or an int of > 4300 digits
            raise SchemaError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        try:
            raw_path = record["path"]
            category = record["category"]
            duration, rate = record["duration"], record["sample_rate"]
            if isinstance(duration, bool) or isinstance(rate, bool):
                raise TypeError("duration and sample_rate must be numbers, not booleans")
            if isinstance(rate, float) and rate % 1:
                raise ValueError(f"sample_rate must be a whole number, got {rate}")
            duration = float(duration) if isinstance(duration, str) else duration
            sample_rate = int(rate)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"{path}:{lineno}: missing or malformed field: {exc}") from exc
        if not isinstance(raw_path, str):
            raise SchemaError(f"{path}:{lineno}: path must be a string, got {raw_path!r}")
        try:
            cat = QualityCategory(category)
        except ValueError:
            raise SchemaError(
                f"{path}:{lineno}: unknown category {category!r}; "
                f"expected one of {[c.value for c in QualityCategory]}"
            ) from None
        duration = check_float(f"{path}:{lineno}: duration", duration, SchemaError)
        if duration <= 0:
            raise SchemaError(f"{path}:{lineno}: duration must be positive, got {duration}")
        sample_rate = check_int(f"{path}:{lineno}: sample_rate", sample_rate, MIN_SOURCE_RATE, error=SchemaError)
        audio_path = Path(raw_path)
        if not audio_path.is_absolute():
            audio_path = path.parent / audio_path
        if not os.path.exists(audio_path):  # False, not OSError, for a name too long to exist
            raise MissingFile(audio_path)
        if audio_path.is_dir():
            raise SchemaError(f"{path}:{lineno}: path names a directory: {audio_path}")
        entries.append(ManifestEntry(audio_path, cat, duration, sample_rate))
    return entries


def _read_entry(entry: ManifestEntry, read, *args):
    """read(entry.path, *args), with read_entry_audio's errors and sample-rate check."""
    try:
        result = read(entry.path, *args)
    except FileNotFoundError:
        raise MissingFile(entry.path) from None
    except OSError as exc:
        raise WavError(f"{entry.path}: cannot read: {exc.strerror or exc}") from None
    if result.sample_rate != entry.sample_rate:
        raise SchemaError(
            f"{entry.path}: manifest sample_rate {entry.sample_rate} Hz, WAV header {result.sample_rate} Hz"
        )
    return result


def read_entry_audio(entry: ManifestEntry) -> AudioBuffer:
    """The audio of a manifest entry, at the rate of its file.

    Raises:
        MissingFile: the file is gone, as when it was removed after the
            manifest was loaded.
        WavError: the file cannot be read (a directory, say) or is not a supported WAV.
        SchemaError: the WAV header's sample rate is not the entry's.
    """
    return _read_entry(entry, read_wav)


def summarize_manifest(entries) -> dict:
    """Per-category clip counts and hours, plus totals."""
    counts = {c.value: 0 for c in QualityCategory}
    hours = {c.value: 0.0 for c in QualityCategory}
    for entry in entries:
        counts[entry.category.value] += 1
        hours[entry.category.value] += entry.duration / 3600.0
    return {
        "categories": {
            name: {"files": counts[name], "hours": round(hours[name], 6)}
            for name in counts
        },
        "total_files": len(entries),
        "total_hours": round(sum(hours.values()), 6),
    }


def _draw_offset(n: int, length: int, rng: np.random.Generator) -> int:
    """Start of a length-sample excerpt of n samples, drawn only when n > length."""
    return int(rng.integers(0, n - length + 1)) if n > length else 0


def _cut(audio: AudioBuffer, length: int, offset: int) -> AudioBuffer:
    """The length samples of audio from offset, or a shorter audio reflect-padded to length."""
    n = len(audio)
    if n == 0:
        raise EmptyInput("cannot cut an excerpt from empty audio")
    if n == length:
        return audio
    if n > length:
        # copy: a view would pin the whole source file in memory
        samples = audio.samples[offset : offset + length].copy()
        return AudioBuffer(samples, audio.sample_rate)
    padded = np.pad(audio.samples, (0, length - n), mode="reflect")
    return AudioBuffer(padded, audio.sample_rate)


def sample_batch(
    manifest,
    spec: BatchSpec,
    batch_index: int = 0,
    load_audio: bool = True,
) -> list[Excerpt]:
    """Draw one exactly-balanced mini-batch of excerpts.

    Every category present in the manifest contributes batch_size /
    n_categories excerpts; an empty manifest is an error, as is a batch size
    the category count does not divide.  With load_audio=False the excerpts
    carry empty buffers (provenance only), which is handy for balance audits.

    The picked files' headers are read first, in pick order, and fix every
    offset; then the calling thread reads the excerpts in pick order, a
    24 kHz PCM16 file longer than the excerpt over its window only.  The
    samples are those of whole-file reads, and a read that fails raises
    the error of the first failing excerpt.
    """
    batch_index = check_int("batch_index", batch_index, 0)
    if not isinstance(load_audio, (bool, np.bool_)):
        raise InvalidInput(f"load_audio must be a bool, got {load_audio!r}")
    by_category = {}
    for entry in manifest:
        by_category.setdefault(entry.category, []).append(entry)
    active = sorted(by_category, key=lambda c: c.value)
    if not active:
        raise EmptyCategory("(manifest is empty)")
    if spec.batch_size % len(active):
        raise NotDivisible(
            f"batch_size {spec.batch_size} is not divisible by {len(active)} active categories"
        )
    per_category = spec.batch_size // len(active)

    # Entry selection and excerpt offsets use separate child streams, so the
    # chosen entries are identical whether or not audio is loaded.
    root = np.random.SeedSequence(entropy=spec.seed, spawn_key=(batch_index,))
    pick_seq, offset_seq = root.spawn(2)
    rng_pick = np.random.default_rng(pick_seq)
    rng_offset = np.random.default_rng(offset_seq)

    chosen = []
    for category in active:
        entries = by_category[category]
        durations = np.array([e.duration for e in entries])
        weights = durations / durations.sum()
        picks = rng_pick.choice(len(entries), size=per_category, replace=True, p=weights)
        chosen.extend(entries[int(p)] for p in picks)

    if not load_audio:
        return [Excerpt(AudioBuffer(np.zeros(0), SAMPLE_RATE), entry) for entry in chosen]
    # Each file's header fixes its length at 24 kHz, and with it whether and
    # where rng_offset draws the excerpt's offset, as a whole-file read would.
    length = spec.excerpt_samples
    layouts = {entry: _read_entry(entry, _read_layout) for entry in dict.fromkeys(chosen)}
    n_24k = {e: _resampled_length(h.n_samples, h.sample_rate, SAMPLE_RATE) for e, h in layouts.items()}
    offsets = [_draw_offset(n_24k[entry], length, rng_offset) for entry in chosen]
    excerpts = []
    for entry, offset in zip(chosen, offsets):  # a failing read raises at once, in pick order
        layout = layouts[entry]
        # A float32 file is read whole: a non-finite sample anywhere fails the read.
        if layout.dtype == "<i2" and layout.sample_rate == SAMPLE_RATE and n_24k[entry] > length:
            audio = _read_entry(entry, _read_window, offset, length)
        else:
            audio = read_entry_audio(entry)
            if audio.sample_rate != SAMPLE_RATE:
                audio = resample(audio, SAMPLE_RATE)
            audio = _cut(audio, length, offset)
        excerpts.append(Excerpt(audio, entry))
    return excerpts
