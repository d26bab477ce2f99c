"""Objective reconstruction metrics.

Multi-scale log-mel and linear-magnitude L1 losses, short-time objective
intelligibility (STOI), and an adapter that shells out to an external
wideband PESQ tool.

The analysis is fixed, so scores compare across runs and models: both
losses use the four (fft_size, hop, n_mels) scales of LOSS_SCALES,
(256, 64, 40), (512, 128, 80), (1024, 256, 160) and (2048, 512, 320), with
magnitudes divided by the Hann window gain, and the log-mel floor
LOSS_FLOOR = 1e-5; STOI uses the _STOI_* constants.
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


def _spectral_losses(ref: AudioBuffer, test: AudioBuffer, with_mel: bool = True):
    """(mel, stft) losses from one magnitude pass, each summed in LOSS_SCALES
    order.  Without with_mel the mel loss is 0.0 and no filterbank is built."""
    ref, test = _aligned_pair(ref, test)
    mel = lin = 0.0
    for fft_size, hop, n_mels in LOSS_SCALES:
        config = StftConfig(fft_size, hop)
        a = _gain_normalized_magnitude(ref, config)
        b = _gain_normalized_magnitude(test, config)
        lin += float(np.mean(np.abs(a.frames - b.frames)))
        if with_mel:
            mel += float(np.mean(np.abs(log_mel(a, n_mels, LOSS_FLOOR) - log_mel(b, n_mels, LOSS_FLOOR))))
    return mel, lin


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
    x = resample(ref, _STOI_FS).samples
    y = resample(test, _STOI_FS).samples

    w = _stoi_window()
    xf = _frame_signal(x, _STOI_FRAME, _STOI_HOP) * w
    yf = _frame_signal(y, _STOI_FRAME, _STOI_HOP) * w
    if xf.shape[0] == 0:
        raise InsufficientDuration("signal shorter than one analysis frame")
    energies = 20.0 * np.log10(np.linalg.norm(xf, axis=1) + _EPS)
    keep = energies.max() - _STOI_DYN_RANGE - energies < 0
    # empty only if the frame energies overflow; the _STOI_SEG check below catches it
    xf, yf = xf[keep], yf[keep]
    x_active = _overlap_add(xf, _STOI_HOP)
    y_active = _overlap_add(yf, _STOI_HOP)

    spec_x = np.fft.rfft(_frame_signal(x_active, _STOI_FRAME, _STOI_HOP) * w, n=_STOI_NFFT, axis=1)
    spec_y = np.fft.rfft(_frame_signal(y_active, _STOI_FRAME, _STOI_HOP) * w, n=_STOI_NFFT, axis=1)
    obm = _third_octave_matrix()
    env_x = np.sqrt(obm @ (np.abs(spec_x) ** 2).T)  # (bands, frames)
    env_y = np.sqrt(obm @ (np.abs(spec_y) ** 2).T)
    n_frames = env_x.shape[1]
    if n_frames < _STOI_SEG:
        raise InsufficientDuration(
            f"need at least {_STOI_SEG} speech-active frames (384 ms), got {n_frames}"
        )

    seg_starts = np.arange(n_frames - _STOI_SEG + 1)
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
