"""Deterministic signal-processing kernels.

STFT analysis/synthesis with a periodic Hann window and reflect padding,
mel filterbanks on the 2595*log10(1 + f/700) scale, log-mel analysis,
Griffin-Lim phase reconstruction, and a polyphase windowed-sinc resampler
(bandlimited interpolation after J. O. Smith, "Digital Audio Resampling")
whose kernel table holds one row per exact rational phase and whose
working memory is linear in the output length.  All functions are pure:
identical inputs (and seeds) give identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyInput, InvalidConfig, InvalidInput


@dataclass(frozen=True)
class AudioBuffer:
    """Mono PCM samples plus their sample rate.

    Samples are float64 in nominal [-1, 1]; all values must be finite.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise InvalidInput(f"audio must be mono 1-D, got shape {samples.shape}")
        if samples.size and not np.all(np.isfinite(samples)):
            raise InvalidInput("audio contains non-finite samples")
        if self.sample_rate <= 0:
            raise InvalidInput(f"sample_rate must be positive, got {self.sample_rate}")
        object.__setattr__(self, "samples", samples)

    def __len__(self):
        return len(self.samples)

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


@dataclass(frozen=True)
class StftConfig:
    """Analysis configuration: power-of-two FFT size, hop, periodic Hann window."""

    fft_size: int
    hop: int

    def __post_init__(self):
        if self.fft_size < 2 or self.fft_size & (self.fft_size - 1):
            raise InvalidConfig(f"fft_size must be a power of two, got {self.fft_size}")
        if not 0 < self.hop <= self.fft_size:
            raise InvalidConfig(f"hop must satisfy 0 < hop <= fft_size, got {self.hop}")

    @property
    def window(self) -> np.ndarray:
        # Periodic Hann: w[n] = 0.5 * (1 - cos(2*pi*n/N)), n = 0..N-1.
        n = np.arange(self.fft_size)
        return 0.5 * (1.0 - np.cos(2.0 * np.pi * n / self.fft_size))

    @property
    def n_bins(self) -> int:
        return self.fft_size // 2 + 1


@dataclass(frozen=True)
class Spectrogram:
    """T x (fft_size/2 + 1) matrix of STFT values (complex, or magnitudes)."""

    frames: np.ndarray
    config: StftConfig
    sample_rate: int

    def __post_init__(self):
        frames = np.asarray(self.frames)
        if frames.ndim != 2 or frames.shape[1] != self.config.n_bins:
            raise InvalidConfig(
                f"spectrogram must be T x {self.config.n_bins}, got {frames.shape}"
            )
        if frames.size and not np.all(np.isfinite(frames)):
            raise InvalidInput("spectrogram contains non-finite values")
        object.__setattr__(self, "frames", frames)

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    def magnitude(self) -> "Spectrogram":
        return Spectrogram(np.abs(self.frames), self.config, self.sample_rate)


@dataclass(frozen=True)
class MelFilterbank:
    """Triangular mel filters: n_mels x (fft_size/2 + 1) nonnegative weights."""

    weights: np.ndarray
    center_freqs: np.ndarray = field(repr=False)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def _frame_signal(x: np.ndarray, fft_size: int, hop: int) -> np.ndarray:
    """Slice x into (T, fft_size) frames at the given hop; no padding."""
    n_frames = (len(x) - fft_size) // hop + 1
    idx = np.arange(fft_size)[None, :] + hop * np.arange(n_frames)[:, None]
    return x[idx]


def stft(audio: AudioBuffer, config: StftConfig) -> Spectrogram:
    """Short-time Fourier transform with reflect padding of fft_size/2 per side.

    Args:
        audio: input signal; must be non-empty.
        config: FFT size, hop, and (implicitly) the periodic Hann window.

    Returns:
        Complex spectrogram with T = (len + fft_size - fft_size)//hop + 1
        frames over the padded signal, i.e. len//hop + 1 frames.
    """
    if len(audio) == 0:
        raise EmptyInput("cannot compute STFT of empty audio")
    pad = config.fft_size // 2
    x = np.pad(audio.samples, pad, mode="reflect") if len(audio) > 1 else np.pad(
        audio.samples, pad, mode="edge"
    )
    return Spectrogram(_windowed_rfft(x, config), config, audio.sample_rate)


def _windowed_rfft(x: np.ndarray, config: StftConfig) -> np.ndarray:
    """rfft of each Hann-windowed frame of an already padded signal; (T, n_bins)."""
    frames = _frame_signal(x, config.fft_size, config.hop)
    return np.fft.rfft(frames * config.window[None, :], axis=1)


def _overlap_add(frames: np.ndarray, hop: int) -> np.ndarray:
    """Sum (T, N) frames placed hop samples apart: (T - 1) * hop + N samples."""
    n_frames, size = frames.shape
    out = np.zeros((n_frames - 1) * hop + size)
    for t in range(n_frames):
        out[t * hop : t * hop + size] += frames[t]
    return out


def _istft_padded(frames: np.ndarray, config: StftConfig) -> np.ndarray:
    """Least-squares inverse STFT of the padded-domain frames (no trimming)."""
    frames_td = np.fft.irfft(frames, n=config.fft_size, axis=1)
    window = config.window
    acc = _overlap_add(frames_td * window, config.hop)
    env = _overlap_add(np.broadcast_to(window * window, frames_td.shape), config.hop)
    # The envelope must be bounded away from zero everywhere the original
    # padded signal is recoverable; only the fft_size/2 trim margins may dip.
    interior = env[config.fft_size // 2 : len(env) - config.fft_size // 2]
    if interior.size and interior.min() < 1e-8:
        raise InvalidConfig(
            f"window/hop combination (fft={config.fft_size}, hop={config.hop}) "
            "does not satisfy the overlap-add condition"
        )
    safe = np.where(env > 1e-12, env, 1.0)
    return acc / safe


def istft(spec: Spectrogram) -> AudioBuffer:
    """Invert an STFT produced by :func:`stft`.

    Returns the unpadded interior, (T - 1) * hop samples: for x of length
    that is a hop multiple, istft(stft(x)) == x to machine precision.
    """
    config = spec.config
    frames = np.asarray(spec.frames, dtype=np.complex128)
    y = _istft_padded(frames, config)
    pad = config.fft_size // 2
    return AudioBuffer(y[pad : len(y) - pad], spec.sample_rate)


def mel_filterbank(
    sample_rate: int, fft_size: int, n_mels: int, f_min: float, f_max: float
) -> MelFilterbank:
    """Build triangular filters with centers equally spaced on the mel scale.

    Args:
        sample_rate: Hz of the signals the bank will analyze.
        fft_size: FFT size of the magnitude spectrogram it applies to.
        n_mels: number of filters (>= 1).
        f_min, f_max: band limits, 0 <= f_min < f_max <= sample_rate/2.

    Raises:
        InvalidConfig: if the band edges are inconsistent or a filter would
            cover no FFT bin (too many mels for the available resolution).
    """
    if n_mels < 1:
        raise InvalidConfig(f"n_mels must be >= 1, got {n_mels}")
    if not (0 <= f_min < f_max <= sample_rate / 2):
        raise InvalidConfig(
            f"need 0 <= f_min < f_max <= sample_rate/2, got [{f_min}, {f_max}] at {sample_rate} Hz"
        )
    n_bins = fft_size // 2 + 1
    fft_freqs = np.arange(n_bins) * (sample_rate / fft_size)
    edges = mel_to_hz(np.linspace(hz_to_mel(f_min), hz_to_mel(f_max), n_mels + 2))
    weights = np.zeros((n_mels, n_bins))
    for i in range(n_mels):
        lower = (fft_freqs - edges[i]) / max(edges[i + 1] - edges[i], 1e-12)
        upper = (edges[i + 2] - fft_freqs) / max(edges[i + 2] - edges[i + 1], 1e-12)
        weights[i] = np.maximum(0.0, np.minimum(lower, upper))
    if np.any(weights.max(axis=1) <= 0.0):
        raise InvalidConfig(
            f"{n_mels} mel filters leave empty rows for fft_size {fft_size}; "
            "reduce n_mels or widen [f_min, f_max]"
        )
    return MelFilterbank(weights, edges[1:-1].copy())


def log_mel(spec: Spectrogram, fb: MelFilterbank, floor: float) -> np.ndarray:
    """ln(max(fb @ magnitude, floor)) per frame; shape (T, n_mels)."""
    if floor <= 0:
        raise InvalidConfig(f"floor must be positive, got {floor}")
    mag = np.asarray(spec.frames)
    if np.iscomplexobj(mag):
        mag = np.abs(mag)
    if mag.shape[1] != fb.weights.shape[1]:
        raise InvalidConfig(
            f"filterbank expects {fb.weights.shape[1]} bins, spectrogram has {mag.shape[1]}"
        )
    return np.log(np.maximum(mag @ fb.weights.T, floor))


def _spectral_convergence(estimate_mag: np.ndarray, target_mag: np.ndarray) -> float:
    denom = np.linalg.norm(target_mag)
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(estimate_mag - target_mag) / denom)


def griffin_lim(
    magnitude: Spectrogram,
    iterations: int,
    seed: int | None = None,
    callback=None,
) -> AudioBuffer:
    """Reconstruct a waveform from an STFT magnitude by Griffin-Lim iteration.

    Starts from zero phase (or random phase when a seed is given) and
    alternates least-squares synthesis with magnitude replacement, entirely
    in the padded analysis domain so the per-iteration spectral-convergence
    error is nonincreasing.

    Args:
        magnitude: magnitude spectrogram (nonnegative, real).
        iterations: number of projection cycles, >= 1.
        seed: optional seed selecting random-phase initialization.
        callback: optional callable(iteration, sc_error) invoked once per
            cycle with the current spectral-convergence error.
    """
    if iterations < 1:
        raise InvalidInput(f"iterations must be >= 1, got {iterations}")
    if seed is not None and seed < 0:
        raise InvalidInput(f"seed must be nonnegative, got {seed}")
    config = magnitude.config
    target = np.asarray(magnitude.frames, dtype=np.float64)
    if np.iscomplexobj(magnitude.frames):
        target = np.abs(magnitude.frames)
    if np.any(target < 0):
        raise InvalidInput("magnitude spectrogram must be nonnegative")

    if seed is None:
        phase = np.zeros_like(target)
    else:
        rng = np.random.default_rng(seed)
        phase = rng.uniform(-np.pi, np.pi, size=target.shape)
    estimate = target * np.exp(1j * phase)

    x = _istft_padded(estimate, config)
    for i in range(iterations):
        spec = _windowed_rfft(x, config)
        if callback is not None:
            callback(i, _spectral_convergence(np.abs(spec), target))
        mag = np.abs(spec)
        unit = np.where(mag > 0, spec / np.where(mag > 0, mag, 1.0), 1.0)
        x = _istft_padded(target * unit, config)

    pad = config.fft_size // 2
    return AudioBuffer(x[pad : len(x) - pad], magnitude.sample_rate)


_RESAMPLE_TAPS = 64  # windowed-sinc support, in source samples
_RESAMPLE_BETA = 8.555  # Kaiser shape: ~85 dB stopband


def _kaiser_continuous(delta: np.ndarray, half_width: float) -> np.ndarray:
    """Kaiser window evaluated at arbitrary offsets; zero outside the support."""
    from scipy.special import i0

    inside = np.abs(delta) <= half_width
    arg = np.where(inside, 1.0 - (delta / half_width) ** 2, 0.0)
    return np.where(inside, i0(_RESAMPLE_BETA * np.sqrt(arg)) / i0(_RESAMPLE_BETA), 0.0)


def resample(audio: AudioBuffer, target_rate: int) -> AudioBuffer:
    """Band-limited resampling by Kaiser-windowed sinc interpolation.

    Output length is round(len * target/source).  When target equals the
    source rate the samples are returned unchanged.

    With g = gcd(source, target), up = target/g and down = source/g, output
    n lies at source position n*down/up: integer base n*down // up plus the
    exact phase ((n*down) % up) / up, which repeats with period up.  The
    64-tap kernel is therefore evaluated once per distinct phase, into a
    (min(up, n_out), 64) table, and the taps are accumulated one at a time
    over a zero-padded copy of the source.  Working memory is O(n_out).
    """
    if target_rate <= 0:
        raise InvalidInput(f"target_rate must be positive, got {target_rate}")
    if target_rate == audio.sample_rate:
        return audio
    src = audio.samples
    n_out = int(round(len(src) * target_rate / audio.sample_rate))
    if len(src) == 0 or n_out == 0:
        return AudioBuffer(np.zeros(0), target_rate)

    g = math.gcd(audio.sample_rate, target_rate)
    up, down = target_rate // g, audio.sample_rate // g
    ratio = audio.sample_rate / target_rate  # source samples per output sample
    cutoff = min(1.0, 1.0 / ratio) * 0.945  # fraction of source Nyquist
    half = _RESAMPLE_TAPS // 2
    offsets = np.arange(-half + 1, half + 1)
    n_rows = min(up, n_out)
    phase = np.arange(n_rows) * down % up / up
    delta = offsets[None, :] - phase[:, None]
    kernel = cutoff * np.sinc(cutoff * delta) * _kaiser_continuous(delta, half)

    # Output n uses kernel row n % up and reads padded[start[n] + j] for tap
    # j, where padded[k] = src[k - half + 1]; the zeros stand in for taps
    # that fall outside the source.
    n = np.arange(n_out)
    start = n * down // up
    rows = n % up
    tail = int(start[-1]) + _RESAMPLE_TAPS - (half - 1) - len(src)
    padded = np.pad(src, (half - 1, max(tail, 0)))
    out = np.zeros(n_out)
    for j, weights in enumerate(kernel.T):
        out += weights[rows] * padded[j:][start]
    return AudioBuffer(out, target_rate)
