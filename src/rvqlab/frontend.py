"""Deterministic analysis/synthesis front-end at exactly 75 frames per second.

Analysis: 24 kHz audio -> log-mel (fft 1024, hop 320, 80 mels over
0-12 kHz, floor 1e-5) -> mean removal -> orthonormal projection onto the
top-D principal components.  Synthesis: inverse projection ->
mel-to-linear magnitudes via the filterbank pseudo-inverse (clamped at
zero) -> Griffin-Lim.  This geometry is fixed: the constants below are the
only copy, and a fitted model holds only its statistics and projection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .dsp import (
    AudioBuffer,
    Spectrogram,
    StftConfig,
    griffin_lim,
    log_mel,
    mel_filterbank,
    stft,
)
from .errors import (
    EmptyInput,
    InsufficientData,
    InvalidInput,
    SampleRateMismatch,
    check_int,
    check_real,
)

SAMPLE_RATE = 24000
FRAME_RATE = 75
FFT_SIZE = 1024
HOP = SAMPLE_RATE // FRAME_RATE  # 320 samples: hop * 75 == sample_rate exactly
N_MELS = 80
# The mel bank always spans the full band; .rvqm stores these edges and
# rejects any others.
F_MIN, F_MAX = 0.0, SAMPLE_RATE / 2
LOG_FLOOR = 1e-5
STFT_CONFIG = StftConfig(FFT_SIZE, HOP)
MAX_SEED = (1 << 63) - 1  # .rvqm stores seeds as int64


@dataclass(frozen=True)
class LatentSequence:
    """T x D matrix of latent frames at 75 Hz."""

    frames: np.ndarray

    def __post_init__(self):
        frames = np.asarray(check_real("latents", self.frames), dtype=np.float64)
        if frames.ndim != 2 or frames.shape[0] < 1:
            raise InvalidInput(f"latents must be a nonempty T x D matrix, got {frames.shape}")
        if not np.all(np.isfinite(frames)):
            raise InvalidInput("latents contain non-finite values")
        object.__setattr__(self, "frames", frames)

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]


@dataclass(frozen=True)
class FrontendModel:
    """Fitted analysis front-end: log-mel statistics plus a PCA projection."""

    mean: np.ndarray                      # (n_mels,)
    basis: np.ndarray                     # (D, n_mels), orthonormal rows
    explained_variance: np.ndarray        # all n_mels eigenvalue fractions
    seed: int

    @property
    def latent_dim(self) -> int:
        return self.basis.shape[0]


def _analysis_log_mel(audio: AudioBuffer) -> np.ndarray:
    """Log-mel frames with the codec framing: exactly ceil(len/hop) frames.

    The tail is reflect-padded to a whole number of hops; the trailing
    center-padded STFT frame is dropped so 1 s of audio gives 75 frames.

    Raises:
        SampleRateMismatch: audio not at 24 kHz.
    """
    if audio.sample_rate != SAMPLE_RATE:
        raise SampleRateMismatch(f"audio at {audio.sample_rate} Hz, expected {SAMPLE_RATE}")
    n = len(audio)
    if n == 0:
        raise EmptyInput("cannot encode empty audio")
    remainder = n % HOP
    samples = audio.samples
    if remainder:
        pad = HOP - remainder
        samples = np.pad(samples, (0, pad), mode="reflect")
    spec = stft(AudioBuffer(samples, SAMPLE_RATE), STFT_CONFIG)
    kept = Spectrogram(spec.frames[:-1], STFT_CONFIG, SAMPLE_RATE)  # T = len/hop
    return log_mel(kept, mel_filterbank(SAMPLE_RATE, FFT_SIZE, N_MELS), LOG_FLOOR)


def _principal_basis(matrix: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """All eigenvalues (descending) of the symmetrized matrix and the top n
    eigenvectors as rows, each signed so its largest-magnitude entry is
    positive: refits are reproducible bit for bit."""
    eigvals, eigvecs = np.linalg.eigh((matrix + matrix.T) / 2.0)
    order = np.argsort(eigvals)[::-1]
    basis = eigvecs[:, order[:n]].T
    for row in basis:
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            row *= -1.0
    return eigvals[order], basis


def _fit_log_mel(frame_sets: Iterable[np.ndarray], latent_dim: int, seed: int) -> FrontendModel:
    """Fit the PCA projection to the log-mel frames of each training buffer."""
    latent_dim = check_int("latent_dim", latent_dim, 1, N_MELS)
    seed = check_int("seed", seed, 0, MAX_SEED)

    count = 0
    total = np.zeros(N_MELS)
    outer = np.zeros((N_MELS, N_MELS))
    for frames in frame_sets:
        count += frames.shape[0]
        total += frames.sum(axis=0)
        outer += frames.T @ frames

    if count < 10 * latent_dim:
        raise InsufficientData(
            f"need at least {10 * latent_dim} training frames for D={latent_dim}, got {count}"
        )
    mean = total / count
    eigvals, basis = _principal_basis(outer / count - np.outer(mean, mean), latent_dim)
    eigvals = np.maximum(eigvals, 0.0)
    explained = eigvals / eigvals.sum() if eigvals.sum() > 0 else eigvals
    return FrontendModel(
        mean=mean,
        basis=basis.copy(),
        explained_variance=explained,
        seed=seed,
    )


def fit_frontend(training_audio: Iterable[AudioBuffer], latent_dim: int, seed: int) -> FrontendModel:
    """Fit the PCA projection of the log-mel front-end.

    Args:
        training_audio: iterable of 24 kHz AudioBuffers.
        latent_dim: D, number of retained principal components (<= 80).
        seed: recorded for provenance; the fit itself is deterministic.

    Raises:
        InvalidInput: latent_dim not in [1, 80] or seed not in [0, 2^63 - 1].
        InsufficientData: fewer than 10 * D training frames.
        SampleRateMismatch: any buffer not at 24 kHz.
    """
    return _fit_log_mel(map(_analysis_log_mel, training_audio), latent_dim, seed)


def _project(model: FrontendModel, frames: np.ndarray) -> LatentSequence:
    """Latents of codec log-mel frames."""
    return LatentSequence((frames - model.mean) @ model.basis.T)


def encode_latent(model: FrontendModel, audio: AudioBuffer) -> LatentSequence:
    """Project audio onto the latent space; 1 s of 24 kHz audio -> 75 frames."""
    return _project(model, _analysis_log_mel(audio))


_MEL_INVERSION_STEPS = 10


def decode_latent(model: FrontendModel, latents: LatentSequence, gl_iterations: int = 32) -> AudioBuffer:
    """Invert the latent projection and reconstruct a waveform.

    Linear magnitudes start from the clamped filterbank pseudo-inverse and
    are sharpened by a few multiplicative nonnegative updates before
    Griffin-Lim.  Output length is exactly n_frames * hop samples.
    """
    if latents.dim != model.latent_dim:
        raise InvalidInput(
            f"latents have dimension {latents.dim}, model expects {model.latent_dim}"
        )
    logmel = latents.frames @ model.basis + model.mean
    mel_amp = np.exp(logmel)
    weights = mel_filterbank(SAMPLE_RATE, FFT_SIZE, N_MELS).weights
    pinv = np.linalg.pinv(weights)  # (n_bins, n_mels)
    mags = np.maximum(mel_amp @ pinv.T, 0.0)
    col_sum = np.maximum(weights.sum(axis=0), 1e-12)
    for _ in range(_MEL_INVERSION_STEPS):
        ratio = mel_amp / np.maximum(mags @ weights.T, 1e-12)
        mags *= (ratio @ weights) / col_sum
    # The codec framing dropped the trailing analysis frame; synthesize it by
    # repeating the last magnitude frame so reconstruction spans T * hop.
    mags = np.vstack([mags, mags[-1:]])
    spec = Spectrogram(mags, STFT_CONFIG, SAMPLE_RATE)
    return griffin_lim(spec, iterations=gl_iterations)
