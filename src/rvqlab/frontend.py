"""Deterministic analysis/synthesis front-end at exactly 75 frames per second.

Analysis: 24 kHz audio -> log-mel (fft 1024, hop 320, 80 mels over
0-12 kHz, floor 1e-5) -> mean removal -> orthonormal projection onto the
top-D principal components.  Synthesis: inverse projection ->
mel-to-linear magnitudes via the filterbank pseudo-inverse (clamped at
zero) and a few multiplicative updates, in sparse and banded products
that call no BLAS -> a phase integrated along time from the magnitudes'
own phase gradient (Prusa, Balazs and Soendergaard, IEEE/ACM TASLP 2017)
-> Fast Griffin-Lim (Perraudin, Balazs and Soendergaard, WASPAA 2013)
from that phase, with momentum 0.99, 12 iterations unless the caller sets
its own.
On speech-like held-out sets that scores a lower mel loss and a higher
STOI at every stage count than 20 fast iterations from zero phase, in
about 60% of the Griffin-Lim time; its spectral-convergence error, unlike
plain Griffin-Lim's, is not monotone.
This geometry is fixed: the constants below are the only copy, and a
fitted model holds only its statistics and projection.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable

import numpy as np
import scipy.sparse
from scipy.linalg import solveh_banded

from .dsp import (
    AudioBuffer,
    Spectrogram,
    StftConfig,
    _mel_csr,
    _phase_gradient_phase,
    griffin_lim,
    log_mel,
    mel_filterbank,
    stft,
)
from .errors import (
    EmptyInput,
    InsufficientData,
    InvalidConfig,
    InvalidInput,
    SampleRateMismatch,
    check_array,
    check_int,
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
GL_ITERATIONS = 12  # Griffin-Lim iterations of a decode that does not set its own
GL_MOMENTUM = 0.99  # Fast Griffin-Lim momentum of every decode
GL_INIT = "phase_gradient"  # Griffin-Lim start phase of every decode


@dataclass(frozen=True)
class LatentSequence:
    """T x D matrix of latent frames at 75 Hz."""

    frames: np.ndarray

    def __post_init__(self):
        frames = check_array("latents", self.frames, 2)
        if frames.shape[0] < 1:
            raise InvalidInput(f"latents must be a nonempty T x D matrix, got {frames.shape}")
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

    def __post_init__(self):
        for name, ndim in (("mean", 1), ("basis", 2), ("explained_variance", 1)):
            object.__setattr__(self, name, check_array(name, getattr(self, name), ndim, InvalidConfig))
        object.__setattr__(self, "seed", check_int("seed", self.seed, 0, MAX_SEED, InvalidConfig))

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
    return log_mel(kept, N_MELS, LOG_FLOOR)


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
# Full-scale audio reads a log-mel of about 10.  Far above that, decoded
# samples stop fitting a float32 WAV (near 92) and then float64 (near 700).
_MAX_LOG_MEL = 80.0


@functools.cache
def _mel_inversion():
    """(bank, bank_t, update, gram): the codec mel bank W (80 x 513) as CSR
    arrays W, W^T and W^T with row j divided by column sum j of W (floored at
    1e-12), and W W^T in solveh_banded's upper form.

    Neighbouring triangles are the only ones that share a bin, so W W^T is
    tridiagonal; it is positive definite (condition number ~50), and
    pinv(W) = W^T (W W^T)^-1.  Its two diagonals are summed with einsum.
    """
    weights = mel_filterbank(SAMPLE_RATE, FFT_SIZE, N_MELS)
    gram = np.zeros((2, N_MELS))
    gram[0, 1:] = np.einsum("ij,ij->i", weights[:-1], weights[1:])
    gram[1] = np.einsum("ij,ij->i", weights, weights)
    col_sum = np.maximum(weights.sum(axis=0), 1e-12)
    update = scipy.sparse.csr_array(weights.T / col_sum[:, None])
    return _mel_csr(SAMPLE_RATE, FFT_SIZE, N_MELS), scipy.sparse.csr_array(weights.T), update, gram


def _decoded_magnitudes(model: FrontendModel, latents: LatentSequence) -> Spectrogram:
    """The T + 1 linear magnitude frames that decode_latent synthesizes.

    They start from the clamped filterbank pseudo-inverse of the mel
    amplitudes and are sharpened by a few multiplicative nonnegative
    updates; the last frame is repeated for the trailing analysis frame
    that the codec framing drops, so synthesis spans T * hop samples.

    The work runs in (bins, T) layout through einsum, a LAPACK tridiagonal
    solve and CSR products (see _mel_inversion), none of which calls BLAS,
    so the magnitudes do not depend on the BLAS thread count.
    """
    if latents.dim != model.latent_dim:
        raise InvalidInput(
            f"latents have dimension {latents.dim}, model expects {model.latent_dim}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        logmel = np.einsum("td,dm->mt", latents.frames, model.basis) + model.mean[:, None]
    if not np.all(logmel <= _MAX_LOG_MEL):  # also false for nan
        raise InvalidInput(f"latents decode to log-mel values above {_MAX_LOG_MEL}, beyond any audio")
    mel_amp = np.exp(logmel)
    bank, bank_t, update, gram = _mel_inversion()
    mags = np.maximum(bank_t @ solveh_banded(gram, mel_amp, check_finite=False), 0.0)
    for _ in range(_MEL_INVERSION_STEPS):
        mags *= update @ (mel_amp / np.maximum(bank @ mags, 1e-12))
    return Spectrogram(np.hstack([mags, mags[:, -1:]]).T.copy(), STFT_CONFIG, SAMPLE_RATE)


def decode_latent(
    model: FrontendModel, latents: LatentSequence, gl_iterations: int = GL_ITERATIONS, callback=None
) -> AudioBuffer:
    """Invert the latent projection and reconstruct a waveform.

    Fast Griffin-Lim starts from the phase-gradient phase of the decoded
    magnitudes and calls callback(iteration, sc_error) once per iteration.
    Output length is exactly n_frames * hop samples.

    Raises:
        InvalidInput: latents of the wrong dimension, or whose log-mel
            exceeds 80, far above that of any audio.
    """
    spec = _decoded_magnitudes(model, latents)
    return griffin_lim(
        spec, iterations=gl_iterations, callback=callback, momentum=GL_MOMENTUM,
        init_phase=_phase_gradient_phase(spec.frames, STFT_CONFIG),
    )
