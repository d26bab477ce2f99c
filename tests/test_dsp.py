import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import i0

from rvqlab.dsp import (
    AudioBuffer,
    MelFilterbank,
    Spectrogram,
    StftConfig,
    _overlap_add,
    griffin_lim,
    hz_to_mel,
    istft,
    log_mel,
    mel_filterbank,
    mel_to_hz,
    resample,
    stft,
)
from rvqlab.errors import EmptyInput, InvalidConfig, InvalidInput

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


class TestStft:
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


class TestMelFilterbank:
    def test_shape_and_sign(self):
        fb = mel_filterbank(24000, 1024, 80, 0.0, 12000.0)
        assert fb.weights.shape == (80, 513)
        assert np.all(fb.weights >= 0.0)

    def test_centers_match_mel_formula(self):
        # Independent oracle: evaluate the mel formula directly.
        fb = mel_filterbank(24000, 1024, 80, 0.0, 12000.0)
        lo = 2595.0 * np.log10(1.0 + 0.0 / 700.0)
        hi = 2595.0 * np.log10(1.0 + 12000.0 / 700.0)
        mels = np.linspace(lo, hi, 82)[1:-1]
        expected = 700.0 * (10.0 ** (mels / 2595.0) - 1.0)
        np.testing.assert_allclose(fb.center_freqs, expected, rtol=1e-12)
        assert np.all(np.diff(fb.center_freqs) > 0)

    def test_single_triangle(self):
        fb = mel_filterbank(24000, 1024, 1, 100.0, 4000.0)
        assert fb.weights.shape[0] == 1
        assert 100.0 < fb.center_freqs[0] < 4000.0
        assert fb.weights[0].max() > 0

    def test_cached_bank_is_shared_and_read_only(self):
        fb = mel_filterbank(24000, 1024, 80, 0.0, 12000.0)
        assert mel_filterbank(24000, 1024, 80, 0.0, 12000.0) is fb
        with pytest.raises(ValueError):
            fb.weights[0, 0] = 1.0
        with pytest.raises(ValueError):
            fb.center_freqs[0] = 1.0

    def test_too_many_mels_rejected(self):
        with pytest.raises(InvalidConfig):
            mel_filterbank(24000, 64, 60, 0.0, 12000.0)

    def test_bad_band_edges(self):
        with pytest.raises(InvalidConfig):
            mel_filterbank(24000, 1024, 10, 8000.0, 4000.0)


class TestLogMel:
    def test_floor_dominates_zero_spectrogram(self):
        config = StftConfig(1024, 320)
        spec = Spectrogram(np.zeros((10, 513)), config, 24000)
        fb = mel_filterbank(24000, 1024, 80, 0.0, 12000.0)
        out = log_mel(spec, fb, 1e-5)
        assert out.shape == (10, 80)
        assert np.all(out == np.log(1e-5))

    def test_doubling_adds_ln2(self):
        buf = AudioBuffer(speech_like(0.5, 24000, 11, level=0.5), 24000)
        config = StftConfig(1024, 320)
        mag = stft(buf, config).magnitude()
        fb = mel_filterbank(24000, 1024, 80, 0.0, 12000.0)
        floor = 1e-12  # keep everything unfloored for the analytic check
        a = log_mel(mag, fb, floor)
        doubled = Spectrogram(2.0 * mag.frames, config, 24000)
        b = log_mel(doubled, fb, floor)
        np.testing.assert_allclose(b - a, np.log(2.0), atol=1e-9)

    def test_matmul_oracle(self):
        rng = np.random.default_rng(5)
        mags = rng.uniform(0, 1, (17, 513))
        spec = Spectrogram(mags, StftConfig(1024, 320), 24000)
        fb = mel_filterbank(24000, 1024, 40, 0.0, 12000.0)
        out = log_mel(spec, fb, 1e-5)
        # Brute-force matrix multiply, element by element.
        expected = np.empty((17, 40))
        for t in range(17):
            for m in range(40):
                expected[t, m] = np.log(max(np.dot(fb.weights[m], mags[t]), 1e-5))
        np.testing.assert_allclose(out, expected, atol=1e-9)

    def test_monotone_in_magnitude(self):
        rng = np.random.default_rng(9)
        mags = rng.uniform(0, 1, (8, 513))
        spec_lo = Spectrogram(mags, StftConfig(1024, 320), 24000)
        spec_hi = Spectrogram(mags + rng.uniform(0, 0.5, mags.shape), StftConfig(1024, 320), 24000)
        fb = mel_filterbank(24000, 1024, 80, 0.0, 12000.0)
        assert np.all(log_mel(spec_hi, fb, 1e-5) >= log_mel(spec_lo, fb, 1e-5))

    def test_shape_mismatch(self):
        spec = Spectrogram(np.zeros((4, 257)), StftConfig(512, 128), 24000)
        fb = mel_filterbank(24000, 1024, 80, 0.0, 12000.0)
        with pytest.raises(InvalidConfig):
            log_mel(spec, fb, 1e-5)


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

    def test_deterministic_given_seed(self):
        x = speech_like(0.3, 24000, 2)
        mag = stft(AudioBuffer(x, 24000), StftConfig(1024, 256)).magnitude()
        a = griffin_lim(mag, iterations=8, seed=5).samples
        b = griffin_lim(mag, iterations=8, seed=5).samples
        assert np.array_equal(a, b)

    def test_bad_iterations(self):
        mag = Spectrogram(np.zeros((4, 513)), StftConfig(1024, 256), 24000)
        with pytest.raises(InvalidInput):
            griffin_lim(mag, iterations=0)


class TestResample:
    def test_identity(self):
        buf = _sine(440.0, 0.5, 16000)
        out = resample(buf, 16000)
        assert np.array_equal(out.samples, buf.samples)

    def test_length_arithmetic(self):
        buf = AudioBuffer(np.zeros(16000), 16000)
        assert len(resample(buf, 24000)) == 24000
        assert len(resample(AudioBuffer(np.zeros(9280), 24000), 10000)) == round(9280 * 10000 / 24000)

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


class TestResampleMatchesPerTapOracle:
    @staticmethod
    def _assert_matches(x, source, target):
        out = resample(AudioBuffer(x, source), target).samples
        expected = _per_tap_resample(AudioBuffer(x, source), target)
        assert len(out) == len(expected)
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("source,target", _RATE_PAIRS)
    def test_speech_like(self, source, target):
        self._assert_matches(speech_like(0.5, source, 41, level=0.9), source, target)

    def test_coprime_pair(self):
        # gcd(24001, 24000) = 1: 24000 phases, more than the 12000 outputs.
        self._assert_matches(speech_like(0.5, 24001, 42, level=0.9), 24001, 24000)

    @pytest.mark.parametrize("source,target,n", [(44100, 24000, 50), (22050, 24000, 100)])
    def test_fewer_outputs_than_phases(self, source, target, n):
        # 80 and 160 phases respectively; n_out is 27 and 109.
        self._assert_matches(speech_like(n / source, source, 43, level=0.9), source, target)

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
