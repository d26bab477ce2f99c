import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import i0

from rvqlab import _workers
from rvqlab.dsp import (
    LOG_FLOOR,
    _STRIDED_MIN_OUTPUTS_PER_PHASE,
    AudioBuffer,
    Spectrogram,
    StftConfig,
    _frame_signal,
    _mel_csr,
    _overlap_add,
    _phase_gradient_phase,
    _project_magnitude,
    _resampled_length,
    griffin_lim,
    istft,
    log_mel,
    mel_filterbank,
    resample,
    stft,
)
from rvqlab.errors import EmptyInput, InvalidConfig, InvalidInput
from rvqlab.frontend import _analysis_log_mel

from signals import speech_like


def _per_tap_resample(audio, target_rate):
    """Oracle: evaluate the 64-tap Kaiser-windowed sinc afresh for every output.

    Output n sits at the float source position n * source/target; its
    kernel is cutoff * sinc(cutoff * delta) * kaiser(delta) over the offsets
    -31..32 around floor(position), and taps outside the source read zero.
    """
    src = audio.samples
    n_out = int(round(len(src) * target_rate / audio.sample_rate))
    if len(src) == 0 or n_out == 0:
        return np.zeros(0)
    ratio = audio.sample_rate / target_rate
    cutoff = min(1.0, 1.0 / ratio) * 0.945
    offsets = np.arange(-31, 33)
    t = np.arange(n_out) * ratio
    base = np.floor(t).astype(np.int64)
    idx = base[:, None] + offsets[None, :]
    delta = offsets[None, :] - (t - base)[:, None]
    inside = np.abs(delta) <= 32
    arg = np.where(inside, 1.0 - (delta / 32) ** 2, 0.0)
    window = np.where(inside, i0(8.555 * np.sqrt(arg)) / i0(8.555), 0.0)
    kernel = cutoff * np.sinc(cutoff * delta) * window
    valid = (idx >= 0) & (idx < len(src))
    gathered = np.where(valid, src[np.clip(idx, 0, len(src) - 1)], 0.0)
    return np.sum(gathered * kernel, axis=1)


def _reference_polyphase_resample(audio, target_rate):
    """Oracle: the gather loop over one kernel row per exact rational phase.

    Output n reads kernel row n % up against padded[n*down // up + j] for
    taps j = 0..63 and adds the 64 products to a zero start in ascending j,
    all outputs at once per tap.  The kernel is the Kaiser-windowed sinc of
    _per_tap_resample, evaluated at the phases (n*down % up) / up.
    """
    src = audio.samples
    n_out = int(round(len(src) * target_rate / audio.sample_rate))
    if len(src) == 0 or n_out == 0:
        return np.zeros(0)
    g = math.gcd(audio.sample_rate, target_rate)
    up, down = target_rate // g, audio.sample_rate // g
    cutoff = min(1.0, 1.0 / (audio.sample_rate / target_rate)) * 0.945
    offsets = np.arange(-31, 33)
    phase = np.arange(min(up, n_out)) * down % up / up
    delta = offsets[None, :] - phase[:, None]
    inside = np.abs(delta) <= 32
    arg = np.where(inside, 1.0 - (delta / 32) ** 2, 0.0)
    window = np.where(inside, i0(8.555 * np.sqrt(arg)) / i0(8.555), 0.0)
    kernel = cutoff * np.sinc(cutoff * delta) * window
    n = np.arange(n_out)
    start = n * down // up
    rows = n % up
    tail = int(start[-1]) + 64 - 31 - len(src)
    padded = np.pad(src, (31, max(tail, 0)))
    out = np.zeros(n_out)
    for j, weights in enumerate(kernel.T):
        out += weights[rows] * padded[j:][start]
    return out


# (source, target) pairs with 1 (48k->24k) to 160 (22.05k->24k) phases.
_RATE_PAIRS = [
    (16000, 24000),
    (48000, 24000),
    (24000, 10000),
    (24000, 16000),
    (44100, 24000),
    (22050, 24000),
    (8000, 24000),
]


def _per_frame_ola(frames, hop):
    """Oracle: add each frame in turn at t * hop, as a per-frame loop."""
    n_frames, size = frames.shape
    out = np.zeros((n_frames - 1) * hop + size)
    for t in range(n_frames):
        start = t * hop
        out[start : start + size] += frames[t]
    return out


def _reference_griffin_lim(magnitude, iterations, callback=None, momentum=0.0, init_phase=None):
    """Oracle: the straightforward Griffin-Lim loop.

    Frames are gathered by fancy indexing, overlap-add runs frame by frame,
    every synthesis rebuilds the squared-window envelope, and the phase is
    projected by complex division.  With momentum, each iteration after the
    first synthesizes c + momentum * (c - c_prev) from the projections c
    (Fast Griffin-Lim).  With init_phase, the first synthesis is of target *
    (cos + i sin)(init_phase), its parts set one by one.  Returns the
    trimmed samples.
    """
    config = magnitude.config
    size, hop = config.fft_size, config.hop
    window = config.window
    target = np.asarray(magnitude.frames, dtype=np.float64)

    def norm(x):  # one einsum reduction, never BLAS ddot
        return math.sqrt(np.einsum("ij,ij->", x, x))

    denom = norm(target)

    def synthesize(spec):
        frames = np.fft.irfft(spec, n=size, axis=1)
        acc = _per_frame_ola(frames * window, hop)
        env = _per_frame_ola(np.broadcast_to(window * window, frames.shape), hop)
        return acc / np.where(env > 1e-12, env, 1.0)

    def analyse(x):
        n_frames = (len(x) - size) // hop + 1
        idx = np.arange(size)[None, :] + hop * np.arange(n_frames)[:, None]
        return np.fft.rfft(x[idx] * window[None, :], axis=1)

    if init_phase is None:
        start = target * np.exp(1j * np.zeros_like(target))
    else:
        start = np.zeros(target.shape, dtype=complex)
        start.real = target * np.cos(init_phase)
        start.imag = target * np.sin(init_phase)
    x = synthesize(start)
    prev = None
    for i in range(iterations):
        spec = analyse(x)
        mag = np.abs(spec)
        if callback is not None:
            callback(i, 0.0 if denom == 0.0 else norm(mag - target) / denom)
        unit = np.where(mag > 0, spec / np.where(mag > 0, mag, 1.0), 1.0)
        projected = target * unit
        x = synthesize(projected if prev is None else projected + momentum * (projected - prev))
        if momentum:
            prev = projected
    return x[size // 2 : len(x) - size // 2]


def _speech_magnitude(size, hop, n_frames, seed):
    x = speech_like(1.0, 24000, seed)
    return np.abs(stft(AudioBuffer(x, 24000), StftConfig(size, hop)).frames[:n_frames])


def _clamped_pinv_magnitude(n_frames, seed):
    """Mel amplitudes mapped back through the clamped filterbank pseudo-inverse,
    as decoding does: many bins come out exactly zero."""
    weights = mel_filterbank(24000, 1024, 80)
    mel_amp = np.random.default_rng(seed).uniform(0.05, 1.0, (n_frames, 80))
    return np.maximum(mel_amp @ np.linalg.pinv(weights).T, 0.0)


def _sine(freq, duration, sr, amp=0.5):
    t = np.arange(int(duration * sr)) / sr
    return AudioBuffer(amp * np.sin(2 * np.pi * freq * t), sr)


class TestAudioBuffer:
    def test_rejects_stereo(self):
        with pytest.raises(InvalidInput):
            AudioBuffer(np.zeros((2, 100)), 24000)

    def test_rejects_nan(self):
        with pytest.raises(InvalidInput):
            AudioBuffer(np.array([0.0, np.nan]), 24000)

    def test_rejects_bad_rate(self):
        with pytest.raises(InvalidInput):
            AudioBuffer(np.zeros(10), 0)


_SPEC_CONFIG = StftConfig(1024, 256)


class TestTypedErrors:
    @pytest.mark.parametrize(
        "call, error",
        [
            (lambda: StftConfig(1000, 250), InvalidConfig),
            (lambda: StftConfig(1024, 1025), InvalidConfig),
            (lambda: Spectrogram(np.zeros((4, 512)), _SPEC_CONFIG, 24000), InvalidConfig),
            (lambda: Spectrogram(np.full((4, 513), np.inf), _SPEC_CONFIG, 24000), InvalidInput),
            (lambda: mel_filterbank(24000, 1024, 0), InvalidConfig),
            (lambda: log_mel(Spectrogram(np.ones((4, 33)), StftConfig(64, 16), 24000), 60), InvalidConfig),
            (lambda: griffin_lim(Spectrogram(-np.ones((4, 513)), _SPEC_CONFIG, 24000), 1),
             InvalidInput),
        ],
        ids=["fft-not-power-of-two", "hop-above-fft", "spectrogram-width",
             "spectrogram-non-finite", "zero-mels", "too-many-mels", "negative-magnitude"],
    )
    def test_typed_errors(self, call, error):
        with pytest.raises(error):
            call()


class TestStft:
    @pytest.mark.parametrize("fft_size", [2, 256, 1024, 4096])
    def test_window_is_built_once_read_only_and_exactly_periodic_hann(self, fft_size):
        config = StftConfig(fft_size, fft_size // 2)
        window = config.window
        assert config.window is window
        assert not window.flags.writeable
        with pytest.raises(ValueError):
            window[0] = 1.0
        with pytest.raises(AttributeError):
            config.window = np.ones(fft_size)
        n = np.arange(fft_size)
        expected = 0.5 * (1.0 - np.cos(2.0 * np.pi * n / fft_size))
        assert window.dtype == np.float64
        assert window.tobytes() == expected.tobytes()
        # An equal config is an equal key, whatever it has cached.
        assert config == StftConfig(fft_size, fft_size // 2)
        assert hash(config) == hash(StftConfig(fft_size, fft_size // 2))

    def test_zero_signal_zero_magnitudes(self):
        spec = stft(AudioBuffer(np.zeros(9600), 24000), StftConfig(1024, 320))
        assert np.all(np.abs(spec.frames) == 0.0)

    def test_frame_count(self):
        spec = stft(AudioBuffer(np.zeros(9600), 24000), StftConfig(1024, 320))
        # reflect padding adds fft_size total: T = (9600 + 1024 - 1024)//320 + 1
        assert spec.n_frames == 9600 // 320 + 1

    def test_sine_peak_bin(self):
        # 750 Hz at 24 kHz with fft 1024: bin = 750 * 1024 / 24000 = 32 exactly.
        spec = stft(_sine(750.0, 1.0, 24000), StftConfig(1024, 320))
        peaks = np.argmax(np.abs(spec.frames), axis=1)
        # Frames whose window sees only original samples peak at bin 32; the
        # two boundary frames see the reflection kink and may smear one bin.
        assert np.all(peaks[2:-2] == 32)
        assert np.all(np.abs(peaks - 32) <= 1)

    def test_windowed_energy_matches_direct_computation(self):
        # Brute-force oracle: per-frame Parseval identity against a manual
        # time-domain windowed-energy computation.
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, 4800)
        config = StftConfig(1024, 256)
        spec = stft(AudioBuffer(x, 24000), config)

        padded = np.pad(x, 512, mode="reflect")
        w = config.window
        for t in range(spec.n_frames):
            seg = padded[t * 256 : t * 256 + 1024] * w
            time_energy = np.sum(seg**2)
            mags = np.abs(spec.frames[t])
            freq_energy = (mags[0] ** 2 + 2 * np.sum(mags[1:-1] ** 2) + mags[-1] ** 2) / 1024
            assert freq_energy == pytest.approx(time_energy, rel=1e-6)

    def test_empty_audio(self):
        with pytest.raises(EmptyInput):
            stft(AudioBuffer(np.zeros(0), 24000), StftConfig(1024, 320))


class TestIstft:
    def test_roundtrip_noise(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, 24000)
        buf = AudioBuffer(x, 24000)
        for config in (StftConfig(1024, 256), StftConfig(512, 128), StftConfig(2048, 512)):
            y = istft(stft(buf, config)).samples
            n = len(y)
            assert n == (24000 // config.hop) * config.hop
            assert np.max(np.abs(y - x[:n])) < 1e-6

    def test_zero_spectrogram(self):
        config = StftConfig(1024, 320)
        spec = Spectrogram(np.zeros((20, 513), dtype=complex), config, 24000)
        assert np.all(istft(spec).samples == 0.0)

    def test_sine_roundtrip_preserves_peak_bin(self):
        buf = _sine(750.0, 1.0, 24000)
        y = istft(stft(buf, StftConfig(1024, 320)))
        spec2 = stft(y, StftConfig(1024, 320))
        peaks = np.argmax(np.abs(spec2.frames), axis=1)
        assert np.all(peaks[2:-2] == 32)
        assert np.all(np.abs(peaks - 32) <= 1)

    def test_non_ola_hop_rejected(self):
        # hop == fft_size with a Hann window leaves zero-energy seams.
        config = StftConfig(1024, 1024)
        spec = stft(AudioBuffer(np.ones(4096) * 0.1, 24000), config)
        with pytest.raises(InvalidConfig):
            istft(spec)


class TestOverlapAdd:
    # (1024, 320) is the codec framing, where the hop does not divide N.
    @pytest.mark.parametrize(
        "size,hop,n_frames", [(1024, 320, 40), (1024, 256, 40), (256, 128, 40), (1024, 320, 1)]
    )
    def test_equals_per_frame_oracle(self, size, hop, n_frames):
        frames = np.random.default_rng(size + hop + n_frames).standard_normal((n_frames, size))
        out = _overlap_add(frames, hop)
        expected = _per_frame_ola(frames, hop)
        assert out.shape == expected.shape == ((n_frames - 1) * hop + size,)
        assert np.array_equal(out, expected)


class TestFrameSignal:
    def test_equals_gather(self):
        x = np.random.default_rng(4).standard_normal(5000)
        n_frames = (5000 - 1024) // 320 + 1
        idx = np.arange(1024)[None, :] + 320 * np.arange(n_frames)[:, None]
        assert np.array_equal(_frame_signal(x, 1024, 320), x[idx])

    @pytest.mark.parametrize("length", [0, 1, 1023])
    def test_shorter_than_one_frame(self, length):
        assert _frame_signal(np.zeros(length), 1024, 320).shape == (0, 1024)


class TestMelFilterbank:
    def test_shape_and_sign(self):
        weights = mel_filterbank(24000, 1024, 80)
        assert weights.shape == (80, 513)
        assert np.all(weights >= 0.0)

    def test_centers_match_mel_formula(self):
        # Independent oracle: evaluate the mel formula directly.  Each
        # triangle peaks within one FFT bin of its center.
        weights = mel_filterbank(24000, 1024, 80)
        lo = 2595.0 * np.log10(1.0 + 0.0 / 700.0)
        hi = 2595.0 * np.log10(1.0 + 12000.0 / 700.0)
        mels = np.linspace(lo, hi, 82)[1:-1]
        expected = 700.0 * (10.0 ** (mels / 2595.0) - 1.0)
        bin_hz = 24000 / 1024
        peaks = np.argmax(weights, axis=1)
        assert np.all(np.abs(peaks * bin_hz - expected) <= bin_hz)
        assert np.all(np.diff(peaks) > 0)

    def test_single_triangle(self):
        weights = mel_filterbank(24000, 1024, 1)
        assert weights.shape[0] == 1
        assert 0 < np.argmax(weights[0]) < 512
        assert weights[0].max() > 0

    def test_cached_bank_is_shared_and_read_only(self):
        weights = mel_filterbank(24000, 1024, 80)
        assert mel_filterbank(24000, 1024, 80) is weights
        with pytest.raises(ValueError):
            weights[0, 0] = 1.0

    def test_too_many_mels_rejected(self):
        with pytest.raises(InvalidConfig):
            mel_filterbank(24000, 64, 60)


class TestLogMel:
    def test_floor_dominates_zero_spectrogram(self):
        config = StftConfig(1024, 320)
        spec = Spectrogram(np.zeros((10, 513)), config, 24000)
        out = log_mel(spec, 80)
        assert out.shape == (10, 80)
        assert np.all(out == np.log(1e-5))

    def test_doubling_adds_ln2(self):
        buf = AudioBuffer(speech_like(0.5, 24000, 11, level=0.5), 24000)
        config = StftConfig(1024, 320)
        mag = stft(buf, config).magnitude()
        a = log_mel(mag, 80)
        doubled = Spectrogram(2.0 * mag.frames, config, 24000)
        b = log_mel(doubled, 80)
        unfloored = a > np.log(LOG_FLOOR)  # doubling keeps these above the floor too
        assert unfloored.mean() > 0.5
        np.testing.assert_allclose((b - a)[unfloored], np.log(2.0), atol=1e-9)

    @pytest.mark.parametrize("sample_rate", [24000, 16000])
    def test_matmul_oracle(self, sample_rate):
        # The bank follows the spectrogram's own sample rate and FFT size.
        rng = np.random.default_rng(5)
        mags = rng.uniform(0, 1, (17, 513))
        spec = Spectrogram(mags, StftConfig(1024, 320), sample_rate)
        out = log_mel(spec, 40)
        weights = mel_filterbank(sample_rate, 1024, 40)
        # Element by element: each band adds its nonzero bins' products in
        # ascending bin order, starting from zero.
        expected = np.empty((17, 40))
        for t in range(17):
            for m in range(40):
                total = 0.0
                for j in np.flatnonzero(weights[m]):
                    total += weights[m, j] * mags[t, j]
                expected[t, m] = np.log(max(total, 1e-5))
        assert out.tobytes() == expected.tobytes()
        assert out.flags.c_contiguous

    def test_monotone_in_magnitude(self):
        rng = np.random.default_rng(9)
        mags = rng.uniform(0, 1, (8, 513))
        spec_lo = Spectrogram(mags, StftConfig(1024, 320), 24000)
        spec_hi = Spectrogram(mags + rng.uniform(0, 0.5, mags.shape), StftConfig(1024, 320), 24000)
        assert np.all(log_mel(spec_hi, 80) >= log_mel(spec_lo, 80))


class TestGriffinLim:
    def test_zero_magnitude_zero_audio(self):
        config = StftConfig(1024, 256)
        mag = Spectrogram(np.zeros((30, 513)), config, 24000)
        out = griffin_lim(mag, iterations=4)
        assert np.all(out.samples == 0.0)

    def test_sine_converges(self):
        buf = _sine(750.0, 1.0, 24000)
        config = StftConfig(1024, 256)
        mag = stft(buf, config).magnitude()
        errors = []
        griffin_lim(mag, iterations=64, callback=lambda i, sc: errors.append(sc))
        assert errors[-1] < 0.1

    def test_sc_nonincreasing(self):
        x = speech_like(0.6, 24000, 21)
        config = StftConfig(1024, 256)
        mag = stft(AudioBuffer(x, 24000), config).magnitude()
        errors = []
        griffin_lim(mag, iterations=32, callback=lambda i, sc: errors.append(sc))
        diffs = np.diff(errors)
        assert np.all(diffs <= 1e-7)

    def test_bad_iterations(self):
        mag = Spectrogram(np.zeros((4, 513)), StftConfig(1024, 256), 24000)
        with pytest.raises(InvalidInput):
            griffin_lim(mag, iterations=0)


class TestGriffinLimMatchesReference:
    """Griffin-Lim equals the straightforward loop to the bit: samples and
    the spectral-convergence trace."""

    @pytest.mark.parametrize(
        "size,hop,magnitude",
        [
            (1024, 320, _speech_magnitude(1024, 320, 1, 51)),
            (1024, 320, _speech_magnitude(1024, 320, 2, 52)),
            (1024, 320, _speech_magnitude(1024, 320, 40, 53)),
            (1024, 256, _speech_magnitude(1024, 256, 40, 54)),
            (1024, 320, _clamped_pinv_magnitude(40, 55)),
            (1024, 320, np.zeros((40, 513))),
        ],
        ids=["T1", "T2", "T40", "hop256", "clamped_zeros", "all_zero"],
    )
    def test_bit_exact(self, size, hop, magnitude):
        spec = Spectrogram(magnitude, StftConfig(size, hop), 24000)
        errors, expected_errors = [], []
        out = griffin_lim(spec, iterations=8, callback=lambda i, sc: errors.append(sc))
        expected = _reference_griffin_lim(
            spec, 8, callback=lambda i, sc: expected_errors.append(sc)
        )
        assert out.samples.dtype == expected.dtype
        assert out.samples.tobytes() == expected.tobytes()
        assert errors == expected_errors

    def test_projection_equals_complex_division(self):
        rng = np.random.default_rng(56)
        spec = rng.standard_normal((40, 513)) + 1j * rng.standard_normal((40, 513))
        spec[3] = 0.0                                 # zero bins: phase 0
        spec.real[4, :100] = -0.0                     # signed-zero parts
        spec.imag[5, :100] = -0.0
        spec[6, :100] *= 1e-160                       # tiny magnitudes
        target = rng.uniform(0.0, 2.0, spec.shape)
        target[7] = 0.0
        mag = np.abs(spec)
        expected = target * np.where(mag > 0, spec / np.where(mag > 0, mag, 1.0), 1.0)
        out = _project_magnitude(spec.copy(), mag.copy(), target)
        assert out.tobytes() == expected.tobytes()

    def test_clamped_case_has_exact_zeros(self):
        magnitude = _clamped_pinv_magnitude(40, 55)
        assert 0 < np.count_nonzero(magnitude == 0.0) < magnitude.size


class TestFastGriffinLim:
    @pytest.mark.parametrize(
        "size,hop,magnitude,warm",
        [
            (1024, 320, _speech_magnitude(1024, 320, 1, 51), False),
            (1024, 320, _speech_magnitude(1024, 320, 40, 53), False),
            (1024, 256, _speech_magnitude(1024, 256, 40, 54), False),
            (1024, 320, _clamped_pinv_magnitude(40, 55), False),
            (1024, 320, np.zeros((40, 513)), False),
            (1024, 320, _speech_magnitude(1024, 320, 1, 51), True),
            (1024, 320, _speech_magnitude(1024, 320, 40, 53), True),
            (1024, 320, _clamped_pinv_magnitude(40, 55), True),
            (1024, 320, np.zeros((40, 513)), True),
        ],
        ids=["T1", "T40", "hop256", "clamped_zeros", "all_zero",
             "warm_T1", "warm_T40", "warm_clamped_zeros", "warm_all_zero"],
    )
    def test_bit_exact(self, size, hop, magnitude, warm):
        config = StftConfig(size, hop)
        spec = Spectrogram(magnitude, config, 24000)
        phase = _phase_gradient_phase(magnitude, config) if warm else None
        errors, expected_errors = [], []
        out = griffin_lim(spec, iterations=8, callback=lambda i, sc: errors.append(sc), momentum=0.99,
                          init_phase=phase)
        expected = _reference_griffin_lim(
            spec, 8, callback=lambda i, sc: expected_errors.append(sc), momentum=0.99, init_phase=phase
        )
        assert out.samples.tobytes() == expected.tobytes()
        assert errors == expected_errors

    def test_momentum_zero_is_plain(self):
        spec = Spectrogram(_speech_magnitude(1024, 320, 40, 53), StftConfig(1024, 320), 24000)
        plain = griffin_lim(spec, iterations=8)
        assert griffin_lim(spec, iterations=8, momentum=0.0).samples.tobytes() == plain.samples.tobytes()
        assert griffin_lim(spec, iterations=8, momentum=0.5).samples.tobytes() != plain.samples.tobytes()

    @pytest.mark.parametrize("hop", [256, 320], ids=["criterion-10-framing", "codec-framing"])
    def test_fast_20_ends_below_plain_32_on_the_criterion_10_signals(self, hop):
        config = StftConfig(1024, hop)
        for seed in range(10):
            mag = stft(AudioBuffer(speech_like(0.6, 24000, 600 + seed), 24000), config).magnitude()
            plain, fast = [], []
            griffin_lim(mag, iterations=32, callback=lambda i, sc: plain.append(sc))
            griffin_lim(mag, iterations=20, callback=lambda i, sc: fast.append(sc), momentum=0.99)
            assert fast[-1] < plain[-1], seed


def _long_speech_magnitude(n_frames, seed):
    x = speech_like(n_frames * 320 / 24000, 24000, seed)
    return np.abs(stft(AudioBuffer(x, 24000), StftConfig(1024, 320)).frames[:n_frames])


class TestGriffinLimRowChunks:
    """Each iteration runs in row chunks shared with the idle helpers; the bytes must not show it."""

    @pytest.mark.parametrize("n_frames", [1, 2, 3, 226, 901])
    def test_any_split_equals_the_reference(self, n_frames, monkeypatch):
        config = StftConfig(1024, 320)
        magnitude = _long_speech_magnitude(n_frames, 57)
        magnitude[::7] = _clamped_pinv_magnitude(len(magnitude[::7]), 58)  # exact zeros too
        spec = Spectrogram(magnitude, config, 24000)
        phase = _phase_gradient_phase(magnitude, config)
        iterations = 4
        helper_tasks = []
        real_task = _workers._Task

        def task(fn):
            helper_tasks.append(fn)
            return real_task(fn)

        monkeypatch.setattr(_workers, "_Task", task)
        for momentum in (0.0, 0.99):
            for init_phase in (None, phase):
                expected_errors = []
                expected = _reference_griffin_lim(
                    spec, iterations, lambda i, sc: expected_errors.append(sc), momentum, init_phase
                )
                for cpus in (1, 2, 4):  # 0, 1 and 3 idle helpers
                    monkeypatch.setattr(_workers, "_cpu_count", lambda: cpus)
                    helper_tasks.clear()
                    errors = []
                    out = griffin_lim(spec, iterations, lambda i, sc: errors.append(sc), momentum, init_phase)
                    assert out.samples.tobytes() == expected.tobytes(), (momentum, init_phase is None, cpus)
                    assert errors == expected_errors
                    # The start synthesis and every iteration hand one task to
                    # each idle helper, never more helpers than frames less one.
                    assert len(helper_tasks) == (iterations + 1) * (min(cpus, n_frames) - 1)

    def test_peak_memory_of_one_call_is_bounded(self):
        # A 3 s decode's Griffin-Lim: its per-call buffers hold two spectra,
        # a magnitude, a residual and a frame array, about 4 (T, 513) complex
        # arrays; with the signal, the divisor and the temporaries, the peak
        # stays under 5.5 of them.
        n_frames = 226
        config = StftConfig(1024, 320)
        magnitude = _long_speech_magnitude(n_frames, 59)
        spec = Spectrogram(magnitude, config, 24000)
        phase = _phase_gradient_phase(magnitude, config)
        complex_array = n_frames * config.n_bins * np.dtype(np.complex128).itemsize
        tracemalloc.start()
        try:
            griffin_lim(spec, 12, lambda i, sc: None, 0.99, phase)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.5 * complex_array, peak / complex_array


# A training excerpt, frame counts around the split floor (one ending in an
# odd frame), and inputs long enough for chunks far smaller than the whole.
_FLOOR = _workers._MIN_SPLIT_FRAMES
_SPLIT_FRAME_COUNTS = [29, _FLOOR - 1, _FLOOR, _FLOOR + 1, _FLOOR + 2, 151, 751]


@pytest.fixture
def spy_tasks(monkeypatch):
    """The functions the splits hand to helpers, in order."""
    tasks = []
    real_task = _workers._Task

    def task(fn):
        tasks.append(fn)
        return real_task(fn)

    monkeypatch.setattr(_workers, "_Task", task)
    return tasks


class TestAnalysisRowChunks:
    """stft and log_mel split their frame rows over the idle helpers; any
    split must give the bytes of the one whole-array expression."""

    @pytest.mark.parametrize("n_frames", _SPLIT_FRAME_COUNTS)
    def test_stft_of_any_split_equals_one_transform(self, n_frames, monkeypatch):
        config = StftConfig(1024, 320)
        x = speech_like((n_frames - 1) * 320 / 24000, 24000, n_frames)
        frames = _frame_signal(np.pad(x, 512, mode="reflect"), 1024, 320)
        expected = np.fft.rfft(frames * config.window, axis=1)
        assert len(expected) == n_frames
        for cpus in (1, 2, 4):
            monkeypatch.setattr(_workers, "_cpu_count", lambda: cpus)
            out = stft(AudioBuffer(x, 24000), config).frames
            assert out.tobytes() == expected.tobytes(), cpus

    @pytest.mark.parametrize("n_frames", _SPLIT_FRAME_COUNTS)
    def test_log_mel_of_any_split_equals_one_product(self, n_frames, monkeypatch):
        config = StftConfig(1024, 320)
        x = speech_like((n_frames - 1) * 320 / 24000, 24000, n_frames + 1)
        complex_spec = stft(AudioBuffer(x, 24000), config)
        for spec in (complex_spec, complex_spec.magnitude()):
            bands = _mel_csr(24000, 1024, 80) @ np.abs(spec.frames).T
            expected = np.log(np.maximum(bands.T, 1e-5), order="C")
            for cpus in (1, 2, 4):
                monkeypatch.setattr(_workers, "_cpu_count", lambda: cpus)
                out = log_mel(spec, 80)
                assert out.tobytes() == expected.tobytes(), cpus
                assert out.flags.c_contiguous

    @pytest.mark.parametrize("n_frames, split", [(29, False), (_FLOOR, True)])
    def test_a_training_excerpt_is_analysed_whole(self, n_frames, split, monkeypatch, spy_tasks):
        # Training analyses 29-frame excerpts: below the floor, no helper
        # is woken for them, while an input at the floor is split.
        monkeypatch.setattr(_workers, "_cpu_count", lambda: 4)
        _analysis_log_mel(AudioBuffer(speech_like(n_frames * 320 / 24000, 24000, 3), 24000))
        assert bool(spy_tasks) == split


class TestPhaseGradientPhase:
    def test_bin_centre_sinusoid_advances_by_its_bin_frequency(self):
        config = StftConfig(1024, 320)
        k = 37  # 867.1875 Hz at 24 kHz: a bin centre, so the window leaks into k - 1 and k + 1 only
        mag = stft(_sine(k * 24000 / 1024, 1.0, 24000), config).magnitude().frames
        phase = _phase_gradient_phase(mag, config)
        interior = slice(2, len(mag) - 2)  # frames that see no reflect padding
        advance = np.diff(phase[interior, k])
        expected = 2 * np.pi * k * config.hop / config.fft_size
        off = (advance - expected + np.pi) % (2 * np.pi) - np.pi
        assert np.max(np.abs(off)) < 1e-9

    @pytest.mark.parametrize("offset", [0.3, -0.3])
    def test_off_centre_sinusoid_advance_follows_the_log_magnitude_slope(self, offset):
        # 0.3 bins off centre the advance is 0.59 rad from the bin frequency's;
        # the gradient term, with its sign, must recover nearly all of it.
        config = StftConfig(1024, 320)
        k = 37
        freq = (k + offset) * 24000 / 1024
        mag = stft(_sine(freq, 1.0, 24000), config).magnitude().frames
        advance = np.diff(_phase_gradient_phase(mag, config)[2 : len(mag) - 2, k])
        expected = 2 * np.pi * freq * config.hop / 24000
        off = (advance - expected + np.pi) % (2 * np.pi) - np.pi
        assert np.max(np.abs(off)) < 0.05

    @pytest.mark.parametrize(
        "magnitude",
        [np.zeros((40, 513)), _clamped_pinv_magnitude(40, 55), _speech_magnitude(1024, 320, 1, 51)],
        ids=["all_zero", "clamped_zeros", "T1"],
    )
    def test_finite_warning_free_and_repeatable(self, magnitude):
        config = StftConfig(1024, 320)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            first = _phase_gradient_phase(magnitude, config)
            second = _phase_gradient_phase(magnitude, config)
        assert first.shape == magnitude.shape
        assert np.all(np.isfinite(first))
        assert first.tobytes() == second.tobytes()

    def test_starts_at_minus_pi_k_and_stays_within_one_turn(self):
        config = StftConfig(1024, 320)
        phase = _phase_gradient_phase(_speech_magnitude(1024, 320, 40, 53), config)
        off = (phase[0] + np.pi * np.arange(513) + np.pi) % (2 * np.pi) - np.pi
        assert np.max(np.abs(off)) < 1e-12
        assert -1e-9 < phase.min() and phase.max() < 2 * np.pi + 1e-9


class TestSparseMelBank:
    def test_cached_csr_holds_the_bank_and_is_shared(self):
        cached = _mel_csr(24000, 1024, 80)
        weights = mel_filterbank(24000, 1024, 80)
        assert cached.toarray().tobytes() == weights.tobytes()
        assert cached.nnz == np.count_nonzero(weights)
        assert cached.has_sorted_indices
        assert _mel_csr(24000, 1024, 80) is cached

    def test_row_product_is_the_ascending_sum_over_nonzero_bins(self):
        weights = mel_filterbank(24000, 1024, 80)
        x = np.random.default_rng(57).uniform(0, 1, (513, 9))
        expected = np.zeros((80, 9))
        for m in range(80):
            for j in np.flatnonzero(weights[m]):
                expected[m] += weights[m, j] * x[j]
        assert (_mel_csr(24000, 1024, 80) @ x).tobytes() == expected.tobytes()


class TestResample:
    def test_identity(self):
        buf = _sine(440.0, 0.5, 16000)
        out = resample(buf, 16000)
        assert np.array_equal(out.samples, buf.samples)

    def test_length_arithmetic(self):
        buf = AudioBuffer(np.zeros(16000), 16000)
        assert len(resample(buf, 24000)) == 24000
        assert len(resample(AudioBuffer(np.zeros(9280), 24000), 10000)) == round(9280 * 10000 / 24000)

    @pytest.mark.parametrize("rate", [8000, 16000, 22050, 44100, 48000])
    def test_resampled_length_is_the_output_length(self, rate):
        rng = np.random.default_rng(rate)
        for n in [0, 1, *rng.integers(2, 3 * rate, size=4)]:
            audio = AudioBuffer(rng.uniform(-1.0, 1.0, n), rate)
            assert _resampled_length(n, rate, 24000) == len(resample(audio, 24000)), n

    def test_sine_peak_preserved(self):
        buf = _sine(440.0, 1.0, 16000)
        out = resample(buf, 24000)
        spectrum = np.abs(np.fft.rfft(out.samples))
        peak_hz = np.argmax(spectrum) * 24000 / len(out.samples)
        assert abs(peak_hz - 440.0) <= 24000 / len(out.samples)

    def test_downsample_rejects_aliasing(self):
        # An 11 kHz tone must not leak into a 16 kHz output band.
        buf = _sine(11000.0, 0.5, 48000)
        out = resample(buf, 16000)
        assert np.sqrt(np.mean(out.samples**2)) < 0.01

    def test_bad_rate(self):
        with pytest.raises(InvalidInput):
            resample(_sine(440.0, 0.1, 16000), 0)


# Source rates whose reduced resampling factor down = rate / gcd(rate, 24000)
# is the rate itself, so a pad to a multiple of down would hold 77-367 MiB.
_LARGE_DOWN_RATES = [9_600_001, 20_000_003, 48_000_001]


class TestResampleMemory:
    """Working memory follows the samples read and written, not the rates."""

    @pytest.mark.parametrize("rate", _LARGE_DOWN_RATES)
    def test_a_short_input_at_a_large_rate_peaks_at_a_few_mib(self, rate):
        audio = AudioBuffer(speech_like(2000 / rate, rate, 7), rate)
        assert len(audio) == 2000
        tracemalloc.start()
        try:
            out = resample(audio, 24000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out) == _resampled_length(2000, rate, 24000) >= 1
        assert peak < 4 << 20, peak

    @settings(max_examples=80, deadline=None)
    @given(
        rate=st.one_of(st.integers(8000, 2**32 - 1), st.integers(1, 2000).map(lambda k: 8000 * k)),
        target=st.sampled_from([24000, 16000, 10000]),
        outputs=st.integers(1, 2100),
    )
    def test_the_pad_is_linear_in_the_input_and_output(self, rate, target, outputs):
        # A spy on np.pad raises before a longer pad is allocated, so no draw
        # allocates more than a few MiB, whatever the rate.
        n = min(-(-outputs * rate // target), 200_000)
        n_out = _resampled_length(n, rate, target)
        g = math.gcd(rate, target)
        up, down = target // g, rate // g
        bound = n + 64 + n_out * down / up + (down if _strided_side(n, rate, target) else 0)
        real_pad = np.pad

        def pad(array, width, *args, **kwargs):
            if len(array) + np.sum(width) > bound:
                raise AssertionError(f"pad of {len(array)} samples to {len(array) + np.sum(width)}")
            return real_pad(array, width, *args, **kwargs)

        audio = AudioBuffer(np.random.default_rng(n).uniform(-1.0, 1.0, n), rate)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np, "pad", pad)
            assert len(resample(audio, target)) == n_out


def _strided_side(n, source, target):
    """True when resample takes the per-phase strided path for n samples."""
    n_out = int(round(n * target / source))
    phases = min(target // math.gcd(source, target), n_out)
    return n_out >= _STRIDED_MIN_OUTPUTS_PER_PHASE * phases


def _straddling_lengths(source, target):
    """The last source length on the gathered side and the first on the strided side."""
    up = target // math.gcd(source, target)
    n = int(_STRIDED_MIN_OUTPUTS_PER_PHASE * up * source / target) + 2
    while _strided_side(n - 1, source, target):
        n -= 1
    while not _strided_side(n, source, target):
        n += 1
    return n - 1, n


def _assert_same_bytes(x, source, target):
    out = resample(AudioBuffer(x, source), target).samples
    expected = _reference_polyphase_resample(AudioBuffer(x, source), target)
    assert out.dtype == expected.dtype and out.shape == expected.shape
    assert out.tobytes() == expected.tobytes()


class TestResampleMatchesPerTapOracle:
    """Within 1e-10 of the per-tap oracle, and bit-equal to the polyphase
    reference on both sides of the strided/gathered path selection."""

    @staticmethod
    def _assert_matches(x, source, target):
        out = resample(AudioBuffer(x, source), target).samples
        expected = _per_tap_resample(AudioBuffer(x, source), target)
        assert len(out) == len(expected)
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-10)
        _assert_same_bytes(x, source, target)

    @pytest.mark.parametrize("source,target", _RATE_PAIRS)
    def test_speech_like(self, source, target):
        self._assert_matches(speech_like(0.5, source, 41, level=0.9), source, target)

    def test_coprime_pair(self):
        # gcd(24001, 24000) = 1: 24000 phases, more than the 12000 outputs.
        self._assert_matches(speech_like(0.5, 24001, 42, level=0.9), 24001, 24000)

    @pytest.mark.parametrize(
        "source,target,n", [(44100, 24000, 50), (22050, 24000, 100), (24001, 24000, 7)]
    )
    def test_fewer_outputs_than_phases(self, source, target, n):
        # 80, 160 and 24000 phases respectively; n_out is 27, 109 and 7.
        self._assert_matches(speech_like(n / source, source, 43, level=0.9), source, target)

    @pytest.mark.parametrize("source,target", _RATE_PAIRS)
    def test_both_sides_of_path_selection(self, source, target):
        # Up to 330k outputs: against the reference only, as the per-tap
        # oracle would hold several (n_out, 64) arrays.
        below, above = _straddling_lengths(source, target)
        assert not _strided_side(below, source, target) and _strided_side(above, source, target)
        for n in (below, above, 2 * above):
            _assert_same_bytes(speech_like(n / source, source, 44, level=0.9), source, target)

    @settings(max_examples=60, deadline=None)
    @given(
        pair=st.sampled_from(_RATE_PAIRS + [(24001, 24000)]),
        n=st.integers(min_value=1, max_value=3000),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_property_random_lengths(self, pair, n, seed):
        source, target = pair
        x = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
        self._assert_matches(x, source, target)


class TestDeterminism:
    def test_stft_deterministic(self):
        x = speech_like(0.4, 24000, 33)
        buf = AudioBuffer(x, 24000)
        a = stft(buf, StftConfig(512, 128)).frames
        b = stft(buf, StftConfig(512, 128)).frames
        assert np.array_equal(a, b)
