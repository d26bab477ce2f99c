"""Objective reconstruction metrics.

Multi-scale log-mel and linear-magnitude L1 losses, short-time objective
intelligibility (STOI), and an adapter that shells out to an external
wideband PESQ tool.

The analysis is fixed, so scores compare across runs and models: both
losses use the four (fft_size, hop, n_mels) scales of LOSS_SCALES,
(256, 64, 40), (512, 128, 80), (1024, 256, 160) and (2048, 512, 320), with
magnitudes divided by the Hann window gain, and the log-mel floor
LOSS_FLOOR = 1e-5; STOI uses the _STOI_* constants.

The losses and STOI each run in two private halves.  The reference half
(_loss_reference, _stoi_reference) analyses the aligned reference: its
four loss-scale magnitudes and log-mels, and STOI's 10 kHz resample,
energy gate and band envelopes.  It holds about 2 MB per audio-second at
24 kHz, against about 0.2 MB for the audio itself.  The test half
(_losses_against, _stoi_against) scores one signal against it.  The public
functions run both halves on one pair; run_evaluation builds the reference
half once per file and runs the test half at every stage count.
"""

from __future__ import annotations

import functools
import os
import re
import subprocess
import tempfile
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from . import wavio
from .dsp import (
    AudioBuffer,
    Spectrogram,
    StftConfig,
    _frame_signal,
    _overlap_add,
    log_mel,
    resample,
    stft,
)
from .errors import (
    ExternalToolError,
    InsufficientDuration,
    InvalidInput,
    SampleRateMismatch,
    check_float,
    check_path,
)


@dataclass(frozen=True)
class MetricValue:
    name: str
    value: float
    higher_is_better: bool

    def __post_init__(self):
        object.__setattr__(self, "value", check_float(f"metric {self.name}", self.value))


# (fft_size, hop, n_mels) of each loss scale, and the log-mel floor.
LOSS_SCALES = ((256, 64, 40), (512, 128, 80), (1024, 256, 160), (2048, 512, 320))
LOSS_FLOOR = 1e-5


def _aligned_pair(ref: AudioBuffer, test: AudioBuffer):
    if ref.sample_rate != test.sample_rate:
        raise SampleRateMismatch(
            f"reference at {ref.sample_rate} Hz, test at {test.sample_rate} Hz"
        )
    n = min(len(ref), len(test))
    if n == 0:
        raise InvalidInput("cannot compare empty signals")
    return (
        AudioBuffer(ref.samples[:n], ref.sample_rate),
        AudioBuffer(test.samples[:n], test.sample_rate),
    )


def _gain_normalized_magnitude(buf: AudioBuffer, config: StftConfig) -> Spectrogram:
    # Dividing by the window gain (fft/2 for Hann) keeps magnitudes, and so
    # the per-scale loss terms, on a common footing across resolutions.
    mag = np.abs(stft(buf, config).frames) / (config.fft_size / 2)
    return Spectrogram(mag, config, buf.sample_rate)


@dataclass(frozen=True)
class _LossReference:
    """The reference half of the spectral losses for one aligned reference of
    n samples: per LOSS_SCALES entry, its gain-normalized magnitude frames
    and their log-mel (None when built without the mel loss)."""

    n: int
    sample_rate: int
    scales: tuple


def _loss_reference(ref: AudioBuffer, with_mel: bool = True) -> _LossReference:
    scales = []
    for fft_size, hop, n_mels in LOSS_SCALES:
        a = _gain_normalized_magnitude(ref, StftConfig(fft_size, hop))
        scales.append((a.frames, log_mel(a, n_mels, LOSS_FLOOR) if with_mel else None))
    return _LossReference(len(ref), ref.sample_rate, tuple(scales))


def _cut_to(reference, test: AudioBuffer) -> AudioBuffer:
    """test cut to the n samples its reference analysis was built from."""
    if test.sample_rate != reference.sample_rate:
        raise SampleRateMismatch(
            f"reference at {reference.sample_rate} Hz, test at {test.sample_rate} Hz"
        )
    if len(test) < reference.n:
        raise InvalidInput(
            f"test signal of {len(test)} samples is shorter than its reference ({reference.n})"
        )
    return AudioBuffer(test.samples[: reference.n], test.sample_rate)


def _losses_against(reference: _LossReference, test: AudioBuffer):
    """(mel, stft) losses of test against a reference half, each summed in
    LOSS_SCALES order; the mel loss is 0.0 if the reference has no log-mel."""
    test = _cut_to(reference, test)
    mel = lin = 0.0
    for (fft_size, hop, n_mels), (a, a_mel) in zip(LOSS_SCALES, reference.scales):
        b = _gain_normalized_magnitude(test, StftConfig(fft_size, hop))
        lin += float(np.mean(np.abs(a - b.frames)))
        if a_mel is not None:
            mel += float(np.mean(np.abs(a_mel - log_mel(b, n_mels, LOSS_FLOOR))))
    return mel, lin


def _spectral_losses(ref: AudioBuffer, test: AudioBuffer, with_mel: bool = True):
    """(mel, stft) losses from one magnitude pass, each summed in LOSS_SCALES
    order.  Without with_mel the mel loss is 0.0 and no filterbank is built."""
    ref, test = _aligned_pair(ref, test)
    return _losses_against(_loss_reference(ref, with_mel), test)


def mel_loss(ref: AudioBuffer, test: AudioBuffer) -> MetricValue:
    """Sum over scales of the mean L1 distance between log-mel spectrograms.

    Raises:
        InvalidConfig: from 27204 Hz up a loss-scale filterbank has an empty
            row; resample such signals first.
    """
    return MetricValue("mel", _spectral_losses(ref, test)[0], higher_is_better=False)


def stft_loss(ref: AudioBuffer, test: AudioBuffer) -> MetricValue:
    """Sum over scales of the mean L1 distance between linear magnitudes."""
    lin = _spectral_losses(ref, test, with_mel=False)[1]
    return MetricValue("stft", lin, higher_is_better=False)


# --- STOI ------------------------------------------------------------------

_STOI_FS = 10000
_STOI_FRAME = 256
_STOI_HOP = 128
_STOI_NFFT = 512
_STOI_BANDS = 15
_STOI_MIN_FREQ = 150.0
_STOI_SEG = 30
_STOI_BETA_DB = -15.0
_STOI_DYN_RANGE = 40.0
_EPS = np.finfo(np.float64).eps


def _stoi_window() -> np.ndarray:
    # Endpoint-free Hann, matching the reference listening-metric convention.
    k = np.arange(1, _STOI_FRAME + 1)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * k / (_STOI_FRAME + 1))


@functools.cache
def _third_octave_matrix() -> scipy.sparse.csr_array:
    """(bands, bins) 0/1 band matrix in CSR form: a row product sums the
    band's bins in ascending order, with no BLAS call."""
    freqs = np.arange(_STOI_NFFT // 2 + 1) * (_STOI_FS / _STOI_NFFT)
    bands = np.arange(_STOI_BANDS)
    f_lo = _STOI_MIN_FREQ * 2.0 ** ((2 * bands - 1) / 6.0)
    f_hi = _STOI_MIN_FREQ * 2.0 ** ((2 * bands + 1) / 6.0)
    matrix = np.zeros((_STOI_BANDS, len(freqs)))
    for j in range(_STOI_BANDS):
        lo = int(np.argmin((freqs - f_lo[j]) ** 2))
        hi = int(np.argmin((freqs - f_hi[j]) ** 2))
        matrix[j, lo:hi] = 1.0
    return scipy.sparse.csr_array(matrix)


@dataclass(frozen=True)
class _StoiReference:
    """The reference half of STOI for one aligned reference of n samples:
    the mask of its speech-active 10 kHz frames and their one-third-octave
    envelopes, or the InsufficientDuration message that scoring raises."""

    n: int
    sample_rate: int
    keep: np.ndarray | None = None
    env: np.ndarray | None = None  # (bands, frames)
    error: str | None = None


def _stoi_frames(x: np.ndarray) -> np.ndarray:
    return _frame_signal(x, _STOI_FRAME, _STOI_HOP) * _stoi_window()


def _stoi_envelopes(frames: np.ndarray) -> np.ndarray:
    """(bands, frames) one-third-octave envelopes of the signal the kept frames overlap-add to."""
    spec = np.fft.rfft(_stoi_frames(_overlap_add(frames, _STOI_HOP)), n=_STOI_NFFT, axis=1)
    return np.sqrt(_third_octave_matrix() @ (np.abs(spec) ** 2).T)


def _stoi_reference(ref: AudioBuffer) -> _StoiReference:
    """Never raises InsufficientDuration: it records the message instead."""
    n, sample_rate = len(ref), ref.sample_rate
    xf = _stoi_frames(resample(ref, _STOI_FS).samples)
    if xf.shape[0] == 0:
        return _StoiReference(n, sample_rate, error="signal shorter than one analysis frame")
    energies = 20.0 * np.log10(np.linalg.norm(xf, axis=1) + _EPS)
    keep = energies.max() - _STOI_DYN_RANGE - energies < 0
    # empty only if the frame energies overflow; the _STOI_SEG check below catches it
    env = _stoi_envelopes(xf[keep])
    n_frames = env.shape[1]
    if n_frames < _STOI_SEG:
        return _StoiReference(
            n, sample_rate, error=f"need at least {_STOI_SEG} speech-active frames (384 ms), got {n_frames}"
        )
    return _StoiReference(n, sample_rate, keep, env)


def _stoi_against(reference: _StoiReference, test: AudioBuffer) -> MetricValue:
    """STOI of test against a reference half; raises the reference's
    InsufficientDuration, if it has one, before any work on test."""
    test = _cut_to(reference, test)
    if reference.error is not None:
        raise InsufficientDuration(reference.error)
    env_x = reference.env
    env_y = _stoi_envelopes(_stoi_frames(resample(test, _STOI_FS).samples)[reference.keep])

    seg_starts = np.arange(env_x.shape[1] - _STOI_SEG + 1)
    idx = seg_starts[:, None] + np.arange(_STOI_SEG)[None, :]
    xs = env_x[:, idx]  # (bands, segments, 30)
    ys = env_y[:, idx]
    alpha = np.linalg.norm(xs, axis=2, keepdims=True) / (
        np.linalg.norm(ys, axis=2, keepdims=True) + _EPS
    )
    clip = 10.0 ** (-_STOI_BETA_DB / 20.0)
    yp = np.minimum(alpha * ys, (1.0 + clip) * xs)
    xc = xs - xs.mean(axis=2, keepdims=True)
    yc = yp - yp.mean(axis=2, keepdims=True)
    denom = np.linalg.norm(xc, axis=2) * np.linalg.norm(yc, axis=2)
    corr = np.where(denom > 0, np.sum(xc * yc, axis=2) / np.where(denom > 0, denom, 1.0), 0.0)
    return MetricValue("stoi", float(corr.mean()), higher_is_better=True)


def stoi(ref: AudioBuffer, test: AudioBuffer) -> MetricValue:
    """Short-time objective intelligibility of `test` against `ref`.

    Both signals are resampled to 10 kHz; frames more than 40 dB below the
    loudest reference frame are discarded; one-third-octave envelopes are
    compared by correlation over 384 ms segments after clipped gain
    normalization.  The score is the plain mean of those correlations.

    Raises:
        InsufficientDuration: fewer than 30 speech-active frames survive.
    """
    ref, test = _aligned_pair(ref, test)
    return _stoi_against(_stoi_reference(ref), test)


# --- PESQ adapter ----------------------------------------------------------

_PESQ_RANGE = (-0.5, 4.64)


def pesq_adapter(
    ref: AudioBuffer, test: AudioBuffer, tool_path: str | None = None
) -> MetricValue | None:
    """Score a pair with an external wideband PESQ tool, if one is given.

    The caller resolves the tool (run_evaluation reads $RVQLAB_PESQ_TOOL);
    this function never reads the environment.  The tool is invoked as
    `tool_path ref.wav test.wav` on 16 kHz mono PCM16 files and must print
    a conformant score (the last float on stdout is taken).  Returns None
    when tool_path is None or empty; that is an expected state, not an error.
    """
    if tool_path is None or not check_path(tool_path):
        return None
    ref, test = _aligned_pair(ref, test)
    ref16 = resample(ref, 16000)
    test16 = resample(test, 16000)
    with tempfile.TemporaryDirectory(prefix="rvqlab_pesq_") as workdir:
        ref_path = os.path.join(workdir, "ref.wav")
        test_path = os.path.join(workdir, "test.wav")
        wavio.write_wav(ref_path, ref16, encoding="pcm16")
        wavio.write_wav(test_path, test16, encoding="pcm16")
        try:
            proc = subprocess.run(
                [tool_path, ref_path, test_path],
                capture_output=True,
                text=True,
                timeout=300,
            )
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise ExternalToolError(f"PESQ tool {tool_path!r} failed to run: {exc}") from exc
    if proc.returncode != 0:
        raise ExternalToolError(
            f"PESQ tool exited with {proc.returncode}: {proc.stderr.strip() or proc.stdout.strip()}"
        )
    floats = re.findall(r"-?\d+(?:\.\d+)?", proc.stdout)
    if not floats:
        raise ExternalToolError(f"PESQ tool printed no score: {proc.stdout!r}")
    score = float(floats[-1])
    if not _PESQ_RANGE[0] <= score <= _PESQ_RANGE[1]:
        raise ExternalToolError(f"PESQ score {score} outside {_PESQ_RANGE}")
    return MetricValue("pesq", score, higher_is_better=True)
