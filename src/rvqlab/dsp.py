"""Deterministic signal-processing kernels.

STFT analysis/synthesis with a periodic Hann window and reflect padding,
mel filterbanks on the 2595*log10(1 + f/700) scale, log-mel analysis,
Griffin-Lim phase reconstruction from zero phase or a given start phase
(such as the magnitudes' own phase-gradient phase), and a polyphase
windowed-sinc resampler (bandlimited interpolation after J. O. Smith,
"Digital Audio Resampling") whose kernel table holds one row per exact
rational phase and whose working memory is linear in the output length.
All functions are pure: identical inputs give identical outputs.

The resampler uses the polyphase decomposition (Crochiere & Rabiner,
"Multirate Digital Signal Processing"): all outputs of one phase read one
kernel row, tap by tap, from a strided slice of the padded source.  Pairs
with too few outputs per phase to repay the per-slice overhead gather rows
and samples for all outputs at once instead.

The vectorized framing, overlap-add, Griffin-Lim phase projection and
momentum step, and both resampler accumulations are exact: each returns,
bit for bit, what the plain loop or expression named in its docstring
returns, so a faster kernel never moves a decoded sample or a token.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from . import _workers
from .errors import EmptyInput, InvalidConfig, InvalidInput, check_array, check_float, check_int


@dataclass(frozen=True)
class AudioBuffer:
    """Mono PCM samples plus their sample rate.

    Samples are float64 in nominal [-1, 1]; all values must be finite.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        object.__setattr__(self, "samples", check_array("audio", self.samples, 1))
        object.__setattr__(self, "sample_rate", check_int("sample_rate", self.sample_rate, 1))

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

    @functools.cached_property
    def window(self) -> np.ndarray:
        # Periodic Hann: w[n] = 0.5 * (1 - cos(2*pi*n/N)), n = 0..N-1.
        # Built once per config and read-only, since every caller shares it.
        n = np.arange(self.fft_size)
        window = 0.5 * (1.0 - np.cos(2.0 * np.pi * n / self.fft_size))
        window.flags.writeable = False
        return window

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
        frames = check_array("spectrogram", self.frames, 2, complex_ok=True)
        if frames.shape[1] != self.config.n_bins:
            raise InvalidConfig(f"spectrogram must be T x {self.config.n_bins}, got {frames.shape}")
        object.__setattr__(self, "sample_rate", check_int("sample_rate", self.sample_rate, 1))
        object.__setattr__(self, "frames", frames)

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    def magnitude(self) -> "Spectrogram":
        return Spectrogram(np.abs(self.frames), self.config, self.sample_rate)


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + f / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (m / 2595.0) - 1.0)


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

    The frames are transformed in row chunks on the calling thread and the
    idle helpers (rvqlab._workers.map_frames); each row's transform does
    not depend on the chunk it is in.
    """
    if len(audio) == 0:
        raise EmptyInput("cannot compute STFT of empty audio")
    x = np.pad(audio.samples, config.fft_size // 2, mode="reflect")
    frames = _frame_signal(x, config.fft_size, config.hop)
    out = np.empty((len(frames), config.n_bins), dtype=np.complex128)

    def analyse(lo, hi):
        np.fft.rfft(frames[lo:hi] * config.window, axis=1, out=out[lo:hi])

    _workers.map_frames(analyse, len(frames))
    return Spectrogram(out, config, audio.sample_rate)


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


def istft(spec: Spectrogram) -> AudioBuffer:
    """Invert an STFT produced by :func:`stft`: the least-squares overlap-add
    of the windowed frames, divided by the squared-window envelope.

    Returns the unpadded interior, (T - 1) * hop samples: for x of length
    that is a hop multiple, istft(stft(x)) == x to machine precision.
    """
    config = spec.config
    frames = np.fft.irfft(spec.frames, n=config.fft_size, axis=1)
    frames *= config.window
    y = _overlap_add(frames, config.hop)
    y /= _synthesis_divisor(config, spec.n_frames)
    pad = config.fft_size // 2
    return AudioBuffer(y[pad : len(y) - pad], spec.sample_rate)


def mel_filterbank(sample_rate: int, fft_size: int, n_mels: int) -> np.ndarray:
    """Triangular filters with centers equally spaced on the mel scale over
    the full band, 0 Hz to sample_rate/2: an (n_mels, fft_size/2 + 1) array
    of nonnegative weights.

    Args:
        sample_rate: Hz of the signals the bank will analyze.
        fft_size: FFT size of the magnitude spectrogram it applies to.
        n_mels: number of filters (>= 1).

    Banks are cached on their checked arguments and shared by every caller,
    so the array is read-only.

    Raises:
        InvalidConfig: if an argument is not an integer >= 1 or a filter
            would cover no FFT bin (too many mels for the available resolution).
    """
    args = (("sample_rate", sample_rate), ("fft_size", fft_size), ("n_mels", n_mels))
    return _mel_filterbank(*(check_int(name, value, 1, error=InvalidConfig) for name, value in args))


@functools.lru_cache(maxsize=32)
def _mel_filterbank(sample_rate: int, fft_size: int, n_mels: int) -> np.ndarray:
    n_bins = fft_size // 2 + 1
    fft_freqs = np.arange(n_bins) * (sample_rate / fft_size)
    edges = _mel_to_hz(np.linspace(0.0, _hz_to_mel(sample_rate / 2), n_mels + 2))
    weights = np.zeros((n_mels, n_bins))
    for i in range(n_mels):
        lower = (fft_freqs - edges[i]) / max(edges[i + 1] - edges[i], 1e-12)
        upper = (edges[i + 2] - fft_freqs) / max(edges[i + 2] - edges[i + 1], 1e-12)
        weights[i] = np.maximum(0.0, np.minimum(lower, upper))
    if np.any(weights.max(axis=1) <= 0.0):
        raise InvalidConfig(f"{n_mels} mel filters leave empty rows for fft_size {fft_size}")
    weights.flags.writeable = False
    return weights


@functools.lru_cache(maxsize=32)
def _mel_csr(sample_rate: int, fft_size: int, n_mels: int) -> scipy.sparse.csr_array:
    """The cached bank in CSR form, for the mel products of every caller.

    Row m of bank @ x sums w[m, j] * x[j] over the nonzero bins j of band m
    in ascending j, starting from zero, in scipy's own loop: no BLAS call,
    so the bits do not depend on the BLAS thread count.  A mel bin lies in
    at most two bands, so the product does ~2 * n_bins multiply-adds per
    column where the dense one does n_mels * n_bins.
    """
    return scipy.sparse.csr_array(_mel_filterbank(sample_rate, fft_size, n_mels))


def log_mel(spec: Spectrogram, n_mels: int, floor: float) -> np.ndarray:
    """ln(max(bank @ magnitude, floor)) per frame; shape (T, n_mels), where
    bank is mel_filterbank(spec.sample_rate, spec.config.fft_size, n_mels).
    Each band sums its nonzero bins in ascending order (see _mel_csr), in
    row chunks on the calling thread and the idle helpers
    (rvqlab._workers.map_frames).

    Raises:
        InvalidConfig: floor not finite and positive, or n_mels rejected by
            mel_filterbank.
    """
    floor = check_float("floor", floor, InvalidConfig)
    if floor <= 0:
        raise InvalidConfig(f"floor must be positive, got {floor}")
    args = (spec.sample_rate, spec.config.fft_size, n_mels)
    mel_filterbank(*args)  # checks n_mels against the spectrogram's resolution
    bank = _mel_csr(*args)
    out = np.empty((spec.n_frames, n_mels))

    def analyse(lo, hi):
        mag = spec.frames[lo:hi]
        if np.iscomplexobj(mag):
            mag = np.abs(mag)
        bands = (bank @ mag.T).T  # (hi - lo, n_mels)
        np.log(np.maximum(bands, floor, out=out[lo:hi]), out=out[lo:hi])

    _workers.map_frames(analyse, spec.n_frames)
    return out


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


def _frobenius_norm(x: np.ndarray) -> float:
    """sqrt of the sum of squares of a 2-D array, by one einsum reduction."""
    return math.sqrt(np.einsum("ij,ij->", x, x))


# lambda / N^2 of the Gaussian exp(-pi t^2 / lambda) that best fits an N-point
# Hann window (Prusa, Balazs and Soendergaard, TASLP 2017).
_HANN_GAMMA = 0.25645


def _phase_gradient_phase(target: np.ndarray, config: StftConfig) -> np.ndarray:
    """A phase for the (T, n_bins) magnitudes target, from their own gradient.

    Phase Gradient Heap Integration (Prusa, Balazs and Soendergaard, "A
    noniterative method for reconstruction of phase from STFT magnitude",
    IEEE/ACM TASLP 2017), integrated along time only.  With L = ln(target),
    zeros floored at the smallest normal float, bin k of frame t has the
    frequency w[t, k] = 2 pi k / N + (L[t, k+1] - L[t, k-1]) / (2 gamma / N),
    gamma = 0.25645 N^2, or 2 pi k / N at the edge bins.  The phase starts at
    -pi k and advances by hop * (w[t-1, k] + w[t, k]) / 2 per frame.  It is
    returned reduced to one turn as p - 2 pi floor(p / 2 pi), which lies in
    [0, 2 pi] up to rounding and costs a fraction of np.mod.
    """
    size = config.fft_size
    log_mag = np.log(np.maximum(target, np.finfo(np.float64).tiny))
    bins = np.arange(target.shape[1])
    omega = np.empty_like(log_mag)
    omega[:] = (2.0 * np.pi / size) * bins
    omega[:, 1:-1] += (log_mag[:, 2:] - log_mag[:, :-2]) / (2.0 * _HANN_GAMMA * size)
    phase = np.empty_like(omega)
    phase[0] = -np.pi * bins
    np.add(omega[:-1], omega[1:], out=phase[1:])
    phase[1:] *= config.hop / 2.0
    np.cumsum(phase, axis=0, out=phase)
    phase -= (2.0 * np.pi) * np.floor(phase / (2.0 * np.pi))
    return phase


def griffin_lim(
    magnitude: Spectrogram, iterations: int, callback=None, momentum: float = 0.0, init_phase=None
) -> AudioBuffer:
    """Reconstruct a waveform from an STFT magnitude by Griffin-Lim iteration.

    Starts from zero phase, or from init_phase when given, and alternates
    least-squares synthesis with magnitude replacement, entirely in the
    padded analysis domain.  With momentum 0 this is plain Griffin-Lim,
    whose per-iteration spectral-convergence error is nonincreasing.

    With momentum a in (0, 1) it is Fast Griffin-Lim (Perraudin, Balazs and
    Soendergaard, "A fast Griffin-Lim algorithm", WASPAA 2013): each
    iteration after the first synthesizes c_n + a * (c_n - c_{n-1}) from the
    projected spectra c_n, computed in c_{n-1}'s buffer with the expression's
    bits.  It reaches a lower error in fewer iterations, but the error is
    not monotone.

    The synthesis divisor is computed once per call, and so is the target's
    norm when a callback is given.  Each iteration reuses the analysis
    magnitudes for the spectral convergence ||mag - target|| / ||target||
    (0 for an all-zero target) and the phase projection.  Both norms are
    einsum reductions, not BLAS ddot, whose split across threads moves the
    last bit, so the trace is the same at any BLAS thread count.

    Everything a frame row needs, from the start spectrum's cos/sin to
    framing, rfft, magnitude, residual, projection, momentum and windowed
    irfft, works on that row alone, so it runs in row chunks on the calling
    thread and on every idle helper (rvqlab._workers.map_rows).  Overlap-add,
    the divide and the norms run whole, so the output and the callback's
    errors are the same, to the bit, at any CPU count.  The work is done in
    per-call buffers: two spectra, one magnitude, one residual (with a
    callback) and one frame array, each T rows.

    Args:
        magnitude: magnitude spectrogram (nonnegative, real).
        iterations: number of projection cycles, >= 1.
        callback: optional callable(iteration, sc_error) invoked once per
            cycle with the current spectral-convergence error, in the
            calling thread.
        momentum: a in [0, 1); 0 is plain Griffin-Lim.
        init_phase: optional finite (T, n_bins) phase in radians; the first
            synthesis is of target * e^{i init_phase} instead of target.
    """
    iterations = check_int("iterations", iterations, 1)
    momentum = check_float("momentum", momentum)
    if not 0.0 <= momentum < 1.0:
        raise InvalidInput(f"momentum must be in [0, 1), got {momentum}")
    config = magnitude.config
    if np.iscomplexobj(magnitude.frames) or np.any(magnitude.frames < 0):
        raise InvalidInput("magnitude spectrogram must be real and nonnegative")
    target = magnitude.frames
    if init_phase is not None:
        init_phase = check_array("init_phase", init_phase, 2)
        if init_phase.shape != target.shape:
            raise InvalidInput(f"init_phase must be {target.shape}, got {init_phase.shape}")

    size, window = config.fft_size, config.window
    divisor = _synthesis_divisor(config, len(target))
    target_norm = _frobenius_norm(target) if callback is not None else 0.0
    spec = np.empty(target.shape, dtype=np.complex128)  # this iteration's spectra
    prev = np.empty_like(spec) if momentum else spec  # the last projection
    mag = np.empty(target.shape)
    residual = np.empty(target.shape) if callback is not None else None
    frames = np.empty((len(target), size))
    framed = None  # frame view of the current signal
    first = True  # no projection before this iteration's

    def start(lo, hi):  # the start spectra of rows lo:hi, synthesized
        s, m, t = spec[lo:hi], mag[lo:hi], target[lo:hi]
        if init_phase is None:
            np.add(t, 0j, out=s)
        else:
            np.multiply(t, np.cos(init_phase[lo:hi], out=m), out=s.real)
            np.multiply(t, np.sin(init_phase[lo:hi], out=m), out=s.imag)
        synthesize(s, lo, hi)

    def iterate(lo, hi):  # one projection cycle of rows lo:hi
        s, m, t = spec[lo:hi], mag[lo:hi], target[lo:hi]
        np.multiply(framed[lo:hi], window, out=frames[lo:hi])
        np.fft.rfft(frames[lo:hi], axis=1, out=s)
        np.abs(s, out=m)
        if residual is not None:
            np.subtract(m, t, out=residual[lo:hi])
        step = _project_magnitude(s, m, t)
        if momentum and not first:
            step = prev[lo:hi]
            np.subtract(s, step, out=step)
            step *= momentum
            step += s
        synthesize(step, lo, hi)

    def synthesize(step, lo, hi):
        np.fft.irfft(step, n=size, axis=1, out=frames[lo:hi])
        frames[lo:hi] *= window

    def signal():  # the padded signal of the synthesized frames
        x = _overlap_add(frames, config.hop)
        x /= divisor
        return x

    _workers.map_rows(start, len(target))
    for i in range(iterations):
        framed = _frame_signal(signal(), size, config.hop)
        _workers.map_rows(iterate, len(target))
        if callback is not None:
            callback(i, _frobenius_norm(residual) / target_norm if target_norm else 0.0)
        if momentum:
            spec, prev = prev, spec
        first = False

    x = signal()
    pad = size // 2
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
