"""Deterministic signal-processing kernels.

STFT analysis/synthesis with a periodic Hann window and reflect padding,
mel filterbanks on the 2595*log10(1 + f/700) scale, log-mel analysis,
Griffin-Lim phase reconstruction, and a polyphase windowed-sinc resampler
(bandlimited interpolation after J. O. Smith, "Digital Audio Resampling")
whose kernel table holds one row per exact rational phase and whose
working memory is linear in the output length.  All functions are pure:
identical inputs give identical outputs.

The resampler uses the polyphase decomposition (Crochiere & Rabiner,
"Multirate Digital Signal Processing"): all outputs of one phase read one
kernel row, tap by tap, from a strided slice of the padded source.  Pairs
with too few outputs per phase to repay the per-slice overhead gather rows
and samples for all outputs at once instead.

The vectorized framing, overlap-add, Griffin-Lim phase projection and both
resampler accumulations are exact: each returns, bit for bit, what the
plain loop or expression named in its docstring returns, so a faster
kernel never moves a decoded sample or a token.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyInput, InvalidConfig, InvalidInput, check_int, check_real


@dataclass(frozen=True)
class AudioBuffer:
    """Mono PCM samples plus their sample rate.

    Samples are float64 in nominal [-1, 1]; all values must be finite.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(check_real("audio", self.samples), dtype=np.float64)
        if samples.ndim != 1:
            raise InvalidInput(f"audio must be mono 1-D, got shape {samples.shape}")
        if samples.size and not np.all(np.isfinite(samples)):
            raise InvalidInput("audio contains non-finite samples")
        object.__setattr__(self, "sample_rate", check_int("sample_rate", self.sample_rate, 1))
        object.__setattr__(self, "samples", samples)

    def __len__(self):
        return len(self.samples)


@dataclass(frozen=True)
class StftConfig:
    """Analysis configuration: power-of-two FFT size, hop, periodic Hann window."""

    fft_size: int
    hop: int

    def __post_init__(self):
        fft_size = check_int("fft_size", self.fft_size, 2, error=InvalidConfig)
        if fft_size & (fft_size - 1):
            raise InvalidConfig(f"fft_size must be a power of two, got {fft_size}")
        check_int("hop", self.hop, 1, fft_size, InvalidConfig)

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
        object.__setattr__(self, "sample_rate", check_int("sample_rate", self.sample_rate, 1))
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
    """Slice x into (T, fft_size) frames at the given hop; no padding.

    The frames are a read-only strided view of x holding exactly the values
    of the gather x[np.arange(fft_size) + hop * np.arange(T)[:, None]];
    below one frame the result has shape (0, fft_size).
    """
    if len(x) < fft_size:
        return np.empty((0, fft_size), dtype=x.dtype)
    return np.lib.stride_tricks.sliding_window_view(x, fft_size)[::hop]


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
    x = np.pad(audio.samples, config.fft_size // 2, mode="reflect")
    return Spectrogram(_windowed_rfft(x, config), config, audio.sample_rate)


def _windowed_rfft(x: np.ndarray, config: StftConfig) -> np.ndarray:
    """rfft of each Hann-windowed frame of an already padded signal; (T, n_bins)."""
    frames = _frame_signal(x, config.fft_size, config.hop)
    return np.fft.rfft(frames * config.window[None, :], axis=1)


def _overlap_add(frames: np.ndarray, hop: int) -> np.ndarray:
    """Sum (T, N) frames placed hop samples apart: (T - 1) * hop + N samples.

    The frames are cut into ceil(N / hop) hop-wide column blocks; block b of
    frame t lands on row t + b of a (T - 1 + n_blocks, hop) accumulator.
    Adding the blocks highest first makes every output sample sum its frames
    in ascending t, starting from zero, exactly as a per-frame loop does, so
    the result equals that loop to the bit.
    """
    n_frames, size = frames.shape
    n_blocks = -(-size // hop)
    out = np.zeros((n_frames - 1 + n_blocks, hop))
    for b in reversed(range(n_blocks)):
        block = frames[:, b * hop : (b + 1) * hop]
        out[b : b + n_frames, : block.shape[1]] += block
    return out.reshape(-1)[: (n_frames - 1) * hop + size]


def _synthesis_divisor(config: StftConfig, n_frames: int) -> np.ndarray:
    """Squared-window overlap-add envelope of n_frames frames, made safe to divide by.

    Raises:
        InvalidConfig: if the envelope comes near zero inside the fft_size/2
            trim margins, where the padded signal must be recoverable.
    """
    window = config.window
    env = _overlap_add(np.broadcast_to(window * window, (n_frames, config.fft_size)), config.hop)
    interior = env[config.fft_size // 2 : len(env) - config.fft_size // 2]
    if interior.size and interior.min() < 1e-8:
        raise InvalidConfig(
            f"window/hop combination (fft={config.fft_size}, hop={config.hop}) "
            "does not satisfy the overlap-add condition"
        )
    return np.where(env > 1e-12, env, 1.0)


def _istft_padded(frames: np.ndarray, config: StftConfig, divisor: np.ndarray) -> np.ndarray:
    """Least-squares inverse STFT of the padded-domain frames (no trimming),
    given the frames' :func:`_synthesis_divisor`."""
    frames_td = np.fft.irfft(frames, n=config.fft_size, axis=1)
    frames_td *= config.window
    out = _overlap_add(frames_td, config.hop)
    out /= divisor
    return out


def istft(spec: Spectrogram) -> AudioBuffer:
    """Invert an STFT produced by :func:`stft`.

    Returns the unpadded interior, (T - 1) * hop samples: for x of length
    that is a hop multiple, istft(stft(x)) == x to machine precision.
    """
    config = spec.config
    frames = np.asarray(spec.frames, dtype=np.complex128)
    y = _istft_padded(frames, config, _synthesis_divisor(config, len(frames)))
    pad = config.fft_size // 2
    return AudioBuffer(y[pad : len(y) - pad], spec.sample_rate)


@functools.lru_cache(maxsize=32, typed=True)
def mel_filterbank(sample_rate: int, fft_size: int, n_mels: int) -> MelFilterbank:
    """Build triangular filters with centers equally spaced on the mel scale
    over the full band, 0 Hz to sample_rate/2.

    Args:
        sample_rate: Hz of the signals the bank will analyze.
        fft_size: FFT size of the magnitude spectrogram it applies to.
        n_mels: number of filters (>= 1).

    Banks are cached on their arguments and shared by every caller, so their
    weights and center_freqs are read-only.  The cache is typed, so 4.0 never
    finds the bank of 4 and skips the checks.

    Raises:
        InvalidConfig: if an argument is not an integer >= 1 or a filter
            would cover no FFT bin (too many mels for the available resolution).
    """
    for name, value in (("sample_rate", sample_rate), ("fft_size", fft_size), ("n_mels", n_mels)):
        check_int(name, value, 1, error=InvalidConfig)
    n_bins = fft_size // 2 + 1
    fft_freqs = np.arange(n_bins) * (sample_rate / fft_size)
    edges = mel_to_hz(np.linspace(0.0, hz_to_mel(sample_rate / 2), n_mels + 2))
    weights = np.zeros((n_mels, n_bins))
    for i in range(n_mels):
        lower = (fft_freqs - edges[i]) / max(edges[i + 1] - edges[i], 1e-12)
        upper = (edges[i + 2] - fft_freqs) / max(edges[i + 2] - edges[i + 1], 1e-12)
        weights[i] = np.maximum(0.0, np.minimum(lower, upper))
    if np.any(weights.max(axis=1) <= 0.0):
        raise InvalidConfig(f"{n_mels} mel filters leave empty rows for fft_size {fft_size}")
    centers = edges[1:-1].copy()
    weights.flags.writeable = False
    centers.flags.writeable = False
    return MelFilterbank(weights, centers)


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


def _project_magnitude(spec: np.ndarray, mag: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Give spec the target magnitude and keep its phase, in place: target *
    spec / |spec|, with phase 0 where |spec| == 0.  mag holds |spec| and is
    overwritten.

    The in-place steps are the same complex division and real-by-complex
    product as target * np.where(mag > 0, spec / np.where(mag > 0, mag, 1.0),
    1.0), so the result equals that expression to the bit, signed zeros
    included.  (Multiplying by 1 / mag instead rounds the same way but can
    flip the sign of a zero part.)
    """
    zero = mag == 0
    mag[zero] = 1.0
    spec /= mag
    spec[zero] = 1.0
    spec *= target
    return spec


def griffin_lim(magnitude: Spectrogram, iterations: int, callback=None) -> AudioBuffer:
    """Reconstruct a waveform from an STFT magnitude by Griffin-Lim iteration.

    Starts from zero phase and alternates least-squares synthesis with
    magnitude replacement, entirely in the padded analysis domain so the
    per-iteration spectral-convergence error is nonincreasing.

    The synthesis divisor is built once per call, and each iteration
    reuses the analysis magnitudes for the spectral convergence and the
    phase projection.

    Args:
        magnitude: magnitude spectrogram (nonnegative, real).
        iterations: number of projection cycles, >= 1.
        callback: optional callable(iteration, sc_error) invoked once per
            cycle with the current spectral-convergence error.
    """
    iterations = check_int("iterations", iterations, 1)
    config = magnitude.config
    if np.iscomplexobj(magnitude.frames) or np.any(magnitude.frames < 0):
        raise InvalidInput("magnitude spectrogram must be real and nonnegative")
    target = np.asarray(magnitude.frames, dtype=np.float64)

    divisor = _synthesis_divisor(config, len(target))
    x = _istft_padded(target + 0j, config, divisor)
    for i in range(iterations):
        spec = _windowed_rfft(x, config)
        mag = np.abs(spec)
        if callback is not None:
            callback(i, _spectral_convergence(mag, target))
        x = _istft_padded(_project_magnitude(spec, mag, target), config, divisor)

    pad = config.fft_size // 2
    return AudioBuffer(x[pad : len(x) - pad], magnitude.sample_rate)


_RESAMPLE_TAPS = 64  # windowed-sinc support, in source samples
_RESAMPLE_BETA = 8.555  # Kaiser shape: ~85 dB stopband
# Fewest outputs per phase for the strided accumulation in resample.  On a
# 2-core x86 VM, at 1024 outputs per phase it was 1.4-2.3x faster than the
# gathered one on each of the eight pairs timed (1 to 160 phases); at 512 it
# was up to 1.6x slower, and at 32 up to 14x, on pairs with 80 or more
# phases, whose per-phase cost of 128 numpy calls (~80 us) it cannot amortize.
_STRIDED_MIN_OUTPUTS_PER_PHASE = 1024
_RESAMPLE_BLOCK = 16384  # outputs per phase accumulated at once (128 KiB buffers)


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
    n = m*up + r lies at source position n*down/up: integer base
    m*down + s_r, with s_r = r*down // up, plus the exact phase
    ((r*down) % up) / up.  The 64-tap kernel is therefore evaluated once per
    phase r, into a (min(up, n_out), 64) table, and tap j of every output of
    phase r reads the same scalar weight kernel[r, j] against the strided
    slice padded[s_r + j :: down] of a zero-padded copy of the source.

    Inputs with at least _STRIDED_MIN_OUTPUTS_PER_PHASE (1024) outputs per
    phase accumulate each phase over those strided slices: 48k -> 24k from
    0.04 s of output, 16k -> 24k from 0.13 s, 24k -> 10k from 0.51 s and
    44.1k -> 24k (80 phases) from 3.4 s.  Inputs with fewer, such as any
    24001 -> 24000 input (24000 phases), would pay more in per-slice call
    overhead than they save, so they accumulate all outputs at once from
    gathered kernel rows and samples.  Either way each output sums its 64
    products kernel[r, j] * sample in ascending j, starting from zero, so
    the two paths return the same bits.  Working memory is O(n_out).
    """
    target_rate = check_int("target_rate", target_rate, 1)
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

    # Tap j of output n reads padded[n*down // up + j], where
    # padded[k] = src[k - half + 1]; the zeros stand in for taps that fall
    # outside the source, and pad its length to a multiple of down.
    tail = max((n_out - 1) * down // up + _RESAMPLE_TAPS - (half - 1) - len(src), 0)
    tail += -(half - 1 + len(src) + tail) % down
    padded = np.pad(src, (half - 1, tail))
    if n_out < _STRIDED_MIN_OUTPUTS_PER_PHASE * n_rows:
        out = _accumulate_gathered(padded, kernel, n_out, up, down)
    else:
        out = _accumulate_strided(padded, kernel, n_out, up, down)
    return AudioBuffer(out, target_rate)


def _accumulate_strided(padded, kernel, n_out, up, down) -> np.ndarray:
    """Per phase r: sum over ascending j of kernel[r, j] * padded[s_r + j :: down].

    padded, whose length is a multiple of down, is first split into its down
    residue classes, lanes[k, i] = padded[k + i*down], so that each strided
    slice is the contiguous lanes[(s_r + j) % down, (s_r + j) // down :].
    Each phase is accumulated in blocks of at most _RESAMPLE_BLOCK outputs,
    whose buffers and lane windows stay in cache across the 64 taps.
    """
    lanes = np.ascontiguousarray(padded.reshape(-1, down).T)
    out = np.empty(n_out)
    block = min(_RESAMPLE_BLOCK, -(-n_out // up))
    acc = np.empty(block)
    prod = np.empty(block)
    for r, weights in enumerate(kernel):
        phase_out = out[r::up]
        base = r * down // up
        for m0 in range(0, len(phase_out), block):
            m = min(block, len(phase_out) - m0)
            acc_b, prod_b = acc[:m], prod[:m]
            acc_b.fill(0.0)
            for j, w in enumerate(weights):
                col, lane = divmod(base + j, down)
                np.multiply(w, lanes[lane, col + m0 : col + m0 + m], out=prod_b)
                acc_b += prod_b
            phase_out[m0 : m0 + m] = acc_b
    return out


def _accumulate_gathered(padded, kernel, n_out, up, down) -> np.ndarray:
    """All outputs at once, tap by tap, from gathered kernel rows and samples."""
    n = np.arange(n_out)
    start = n * down // up
    rows = n % up
    out = np.zeros(n_out)
    for j, weights in enumerate(kernel.T):
        out += weights[rows] * padded[j:][start]
    return out
