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
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .dsp import AudioBuffer, resample
from .errors import (
    EmptyCategory,
    EmptyInput,
    InvalidConfig,
    MissingFile,
    NotDivisible,
    SchemaError,
    check_int,
)
from .frontend import HOP, SAMPLE_RATE
from .wavio import read_wav


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
    offset: int  # start sample in the (resampled) source


def load_manifest(path) -> list[ManifestEntry]:
    """Parse and validate a JSONL manifest; entries must point at real files."""
    path = Path(path)
    if not path.exists():
        raise MissingFile(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"{path}: cannot read manifest: {exc}") from exc
    entries = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        try:
            raw_path = record["path"]
            category = record["category"]
            duration, rate = record["duration"], record["sample_rate"]
            if isinstance(duration, bool) or isinstance(rate, bool):
                raise TypeError("duration and sample_rate must be numbers, not booleans")
            if isinstance(rate, float) and rate % 1:
                raise ValueError(f"sample_rate must be a whole number, got {rate}")
            duration, sample_rate = float(duration), int(rate)
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
        if not (math.isfinite(duration) and duration > 0):
            raise SchemaError(
                f"{path}:{lineno}: duration must be positive and finite, got {duration}"
            )
        if sample_rate <= 0:
            raise SchemaError(f"{path}:{lineno}: sample_rate must be positive, got {sample_rate}")
        audio_path = Path(raw_path)
        if not audio_path.is_absolute():
            audio_path = path.parent / audio_path
        if not audio_path.exists():
            raise MissingFile(audio_path)
        if audio_path.is_dir():
            raise SchemaError(f"{path}:{lineno}: path names a directory: {audio_path}")
        entries.append(ManifestEntry(audio_path, cat, duration, sample_rate))
    return entries


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


def _excerpt_from(audio: AudioBuffer, length: int, rng: np.random.Generator):
    n = len(audio)
    if n == 0:
        raise EmptyInput("cannot cut an excerpt from empty audio")
    if n == length:
        return audio, 0
    if n > length:
        offset = int(rng.integers(0, n - length + 1))
        # copy: a view would pin the whole source file in memory
        samples = audio.samples[offset : offset + length].copy()
        return AudioBuffer(samples, audio.sample_rate), offset
    # Shorter sources are reflect-padded out to the excerpt length.
    padded = np.pad(audio.samples, (0, length - n), mode="reflect")
    return AudioBuffer(padded, audio.sample_rate), 0


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
    """
    batch_index = check_int("batch_index", batch_index, 0)
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

    batch = []
    for entry in chosen:
        if load_audio:
            audio = read_wav(entry.path)
            if audio.sample_rate != SAMPLE_RATE:
                audio = resample(audio, SAMPLE_RATE)
            excerpt, offset = _excerpt_from(audio, spec.excerpt_samples, rng_offset)
        else:
            excerpt, offset = AudioBuffer(np.zeros(0), SAMPLE_RATE), 0
        batch.append(Excerpt(excerpt, entry, offset))
    return batch
