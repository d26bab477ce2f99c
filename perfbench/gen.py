"""Deterministic benchmark inputs: speech-like WAVs, manifests and request plans.

Everything here is a pure function of the workload seed, so one seed gives
byte-identical files.  The program under test only ever sees the files
written here plus its argv.

Clip lengths are stratified: a group of n clips spanning [lo, hi] seconds
gets one length from each of n equal strata, drawn in mirrored pairs.
Lengths stay continuous and distinct (no two requests share a frame
count), while the total audio per group, and with it the work in a run,
does not move from seed to seed.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.signal import lfilter

SAMPLE_RATE = 24000
HOP = 320
CATEGORIES = ("HQ1", "HQ2", "HQ3", "MQ1", "MQ2", "UQ")
Q_CHOICES = (1, 2, 4, 8)

# Seed-sequence tags keep each workload's inputs independent of the others'.
_STREAMS = {"encode": 1, "decode": 2, "eval_grid": 3, "train_desk": 4, "model": 5, "warmup": 6}


def speech_like(duration: float, sample_rate: int, seed: int, level: float = 0.25) -> np.ndarray:
    """Source-filter speech stand-in: the recipe of tests/signals.speech_like.

    A pitch-drifting 12-harmonic source with aspiration noise, two wandering
    resonances, and a 2-6 Hz syllabic envelope, peak-normalized to `level`.
    Kept as a copy so that edits to the test helpers never change the
    benchmark's inputs.
    """
    rng = np.random.default_rng(seed)
    n = int(round(duration * sample_rate))
    n_ctrl = max(4, int(duration * 6) + 2)
    pitch_ctrl = rng.uniform(90.0, 250.0, size=n_ctrl)
    pitch = np.interp(np.linspace(0, n_ctrl - 1, n), np.arange(n_ctrl), pitch_ctrl)
    phase = 2 * np.pi * np.cumsum(pitch) / sample_rate

    source = np.zeros(n)
    for k in range(1, 13):
        source += (1.0 / k) * np.sin(k * phase + rng.uniform(0, 2 * np.pi))
    source += 0.15 * rng.standard_normal(n)

    for f_lo, f_hi, bw in ((300.0, 900.0, 120.0), (1200.0, 2600.0, 200.0)):
        fc = rng.uniform(f_lo, f_hi)
        r = np.exp(-np.pi * bw / sample_rate)
        theta = 2 * np.pi * fc / sample_rate
        source = lfilter([1.0], [1.0, -2 * r * np.cos(theta), r * r], source)

    n_env = max(4, int(duration * 4) + 2)
    env_ctrl = rng.uniform(0.25, 1.0, size=n_env)
    envelope = np.interp(np.linspace(0, n_env - 1, n), np.arange(n_env), env_ctrl)
    out = source * envelope
    peak = np.max(np.abs(out))
    return out * (level / peak) if peak > 0 else out


def write_pcm16(path: Path, samples: np.ndarray, sample_rate: int) -> None:
    """Write a mono 16-bit PCM WAV file."""
    payload = np.round(np.clip(samples, -1.0, 1.0) * 32767.0).astype("<i2").tobytes()
    fmt = struct.pack("<HHIIHH", 1, 1, sample_rate, 2 * sample_rate, 2, 16)
    riff_len = 4 + (8 + len(fmt)) + (8 + len(payload))
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", riff_len) + b"WAVE")
        fh.write(b"fmt " + struct.pack("<I", len(fmt)) + fmt)
        fh.write(b"data" + struct.pack("<I", len(payload)) + payload)


def rng_for(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, _STREAMS[stream]]))


def stratified(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """n values in [lo, hi], one in each of n equal strata, in stratum order.

    Draws are antithetic: the value in stratum n-1-i mirrors the one in
    stratum i about the centre (an odd middle stratum takes the centre), so
    the seed moves individual lengths but never their total or median.
    """
    width = (hi - lo) / n
    low = lo + width * (np.arange(n // 2) + rng.uniform(size=n // 2))
    middle = [(lo + hi) / 2] * (n % 2)
    return np.concatenate([low, middle, (lo + hi - low)[::-1]])


@dataclass(frozen=True)
class Clip:
    """One generated WAV file and the request parameters that go with it."""

    path: Path
    sample_rate: int
    n_samples: int
    q: int = 8

    @property
    def duration(self) -> float:
        return self.n_samples / self.sample_rate

    @property
    def n_24k(self) -> int:
        """Sample count after the program's resampler: round(n * 24000 / rate)."""
        return int(round(self.n_samples * SAMPLE_RATE / self.sample_rate))

    @property
    def frames(self) -> int:
        return -(-self.n_24k // HOP)


def write_clip(root: Path, name: str, duration: float, sample_rate: int,
               rng: np.random.Generator, q: int = 8) -> Clip:
    samples = speech_like(duration, sample_rate, int(rng.integers(1 << 31)))
    path = root / f"{name}.wav"
    write_pcm16(path, samples, sample_rate)
    return Clip(path, sample_rate, len(samples), q)


def write_manifest(root: Path, clips: list[Clip], name: str) -> Path:
    """JSONL manifest over clips, categories assigned round-robin."""
    lines = [
        json.dumps({
            "path": clip.path.name,
            "category": CATEGORIES[i % len(CATEGORIES)],
            "duration": clip.duration,
            "sample_rate": clip.sample_rate,
        })
        for i, clip in enumerate(clips)
    ]
    manifest = root / name
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


def write_corpus(root: Path, rng: np.random.Generator, per_category: int,
                 lo: float, hi: float) -> tuple[Path, list[Clip]]:
    """A balanced six-category 24 kHz corpus and its JSONL manifest."""
    root.mkdir(parents=True, exist_ok=True)
    durations = rng.permutation(stratified(rng, per_category * len(CATEGORIES), lo, hi))
    clips = [write_clip(root, f"corpus_{i:03d}", float(d), SAMPLE_RATE, rng)
             for i, d in enumerate(durations)]
    return write_manifest(root, clips, "manifest.jsonl"), clips


def encode_clips(root: Path, seed: int, seconds: int) -> list[Clip]:
    """2-12 s clips, four in five at 24 kHz and the rest at 16 or 48 kHz.

    Each rate group is stratified on its own, so the resampled share of the
    audio is the same for every seed.  q cycles through 1, 2, 4, 8.
    """
    rng = rng_for(seed, "encode")
    n_other = max(1, round(0.3 * seconds))
    groups = ((SAMPLE_RATE, 8 * n_other), (16000, n_other), (48000, n_other))
    specs = [(rate, float(d)) for rate, n in groups for d in stratified(rng, n, 2.0, 12.0)]
    order = rng.permutation(len(specs))
    root.mkdir(parents=True, exist_ok=True)
    return [
        write_clip(root, f"enc_{i:03d}", specs[j][1], specs[j][0], rng, Q_CHOICES[i % len(Q_CHOICES)])
        for i, j in enumerate(order)
    ]


def decode_clips(root: Path, seed: int, seconds: int) -> list[Clip]:
    """24 kHz 2-12 s clips; q is the prefix each stream is decoded at."""
    rng = rng_for(seed, "decode")
    n = max(2, round(1.2 * seconds))
    durations = rng.permutation(stratified(rng, n, 2.0, 12.0))
    root.mkdir(parents=True, exist_ok=True)
    return [
        write_clip(root, f"dec_{i:03d}", float(d), SAMPLE_RATE, rng, Q_CHOICES[i % len(Q_CHOICES)])
        for i, d in enumerate(durations)
    ]


def held_out_set(root: Path, seed: int, seconds: int) -> tuple[Path, list[Clip]]:
    """Three 24 kHz held-out files for one eval call, about 0.7 s of audio per run second."""
    rng = rng_for(seed, "eval_grid")
    lo, hi = max(1.0, 0.15 * seconds), max(1.5, 0.3 * seconds)
    durations = rng.permutation(stratified(rng, 3, lo, hi))
    root.mkdir(parents=True, exist_ok=True)
    clips = [write_clip(root, f"held_{i}", float(d), SAMPLE_RATE, rng) for i, d in enumerate(durations)]
    return write_manifest(root, clips, "held.jsonl"), clips
