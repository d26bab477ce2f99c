import numpy as np
import pytest
from scipy.linalg import solveh_banded

from rvqlab.dsp import AudioBuffer, griffin_lim, mel_filterbank
from rvqlab.errors import EmptyInput, InsufficientData, InvalidConfig, InvalidInput, SampleRateMismatch
from rvqlab.frontend import (
    GL_ITERATIONS,
    GL_MOMENTUM,
    LOG_FLOOR,
    FrontendModel,
    LatentSequence,
    _decoded_magnitudes,
    _mel_inversion,
    decode_latent,
    encode_latent,
    fit_frontend,
)
from rvqlab.metrics import mel_loss, stoi

from signals import speech_like


def _training_audio(n_clips=8, duration=2.0, base_seed=100):
    return [AudioBuffer(speech_like(duration, 24000, base_seed + i), 24000) for i in range(n_clips)]


@pytest.fixture(scope="module")
def model64():
    return fit_frontend(_training_audio(), latent_dim=64, seed=0)


@pytest.fixture(scope="module")
def model80():
    return fit_frontend(_training_audio(), latent_dim=80, seed=0)


class TestFitFrontend:
    def test_full_rank_reconstructs_exactly(self, model80):
        audio = AudioBuffer(speech_like(1.0, 24000, 100), 24000)
        latents = encode_latent(model80, audio)
        from rvqlab.frontend import _analysis_log_mel

        frames = _analysis_log_mel(audio)
        recon = latents.frames @ model80.basis + model80.mean
        assert np.max(np.abs(recon - frames)) < 1e-9

    def test_reconstruction_error_equals_discarded_eigenvalues(self):
        # Eigendecomposition oracle: mean per-frame squared reconstruction
        # error of a rank-D PCA equals the sum of the discarded eigenvalues.
        clips = _training_audio(n_clips=6, duration=1.5, base_seed=300)
        model = fit_frontend(clips, latent_dim=48, seed=0)

        from rvqlab.frontend import _analysis_log_mel

        frames = np.vstack([_analysis_log_mel(c) for c in clips])
        centered = frames - frames.mean(axis=0)
        cov = centered.T @ centered / frames.shape[0]
        eigvals = np.sort(np.linalg.eigvalsh(cov))[::-1]

        recon = (centered @ model.basis.T) @ model.basis
        mse_per_frame = np.mean(np.sum((centered - recon) ** 2, axis=1))
        expected = eigvals[48:].sum()
        assert mse_per_frame == pytest.approx(expected, rel=1e-6)

    def test_basis_orthonormal(self, model64):
        gram = model64.basis @ model64.basis.T
        np.testing.assert_allclose(gram, np.eye(64), atol=1e-10)

    def test_deterministic(self):
        clips = _training_audio(n_clips=3, duration=1.0, base_seed=40)
        a = fit_frontend(clips, latent_dim=16, seed=7)
        b = fit_frontend(clips, latent_dim=16, seed=7)
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.basis, b.basis)

    def test_insufficient_data(self):
        tiny = [AudioBuffer(speech_like(0.05, 24000, 1), 24000)]
        with pytest.raises(InsufficientData):
            fit_frontend(tiny, latent_dim=64, seed=0)

    def test_wrong_rate_rejected(self):
        clips = [AudioBuffer(speech_like(1.0, 16000, 1), 16000)]
        with pytest.raises(SampleRateMismatch):
            fit_frontend(clips, latent_dim=8, seed=0)


class TestTypedErrors:
    @pytest.mark.parametrize(
        "call, error",
        [
            (lambda m: LatentSequence(np.zeros(4)), InvalidInput),
            (lambda m: LatentSequence(np.full((2, 4), np.nan)), InvalidInput),
            (lambda m: encode_latent(m, AudioBuffer(np.zeros(0), 24000)), EmptyInput),
            (lambda m: fit_frontend(_training_audio(1), latent_dim=0, seed=0), InvalidInput),
            (lambda m: fit_frontend(_training_audio(1), latent_dim=8, seed=-1), InvalidInput),
            (lambda m: FrontendModel("x", m.basis, m.explained_variance, 0), InvalidConfig),
            (lambda m: FrontendModel(m.mean, m.basis[0], m.explained_variance, 0), InvalidConfig),
            (lambda m: FrontendModel(m.mean, m.basis, m.explained_variance + np.inf, 0), InvalidConfig),
        ],
        ids=["one-d-latents", "non-finite-latents", "empty-audio", "latent-dim-zero",
             "negative-seed", "model-mean-text", "model-basis-one-d", "model-variance-inf"],
    )
    def test_typed_errors(self, model64, call, error):
        with pytest.raises(error):
            call(model64)


class TestEncodeLatent:
    def test_one_second_gives_75_frames(self, model64):
        audio = AudioBuffer(speech_like(1.0, 24000, 55), 24000)
        assert len(audio) == 24000
        latents = encode_latent(model64, audio)
        assert latents.n_frames == 75
        assert latents.dim == 64

    def test_excerpt_framing(self, model64):
        audio = AudioBuffer(speech_like(9280 / 24000, 24000, 56), 24000)
        assert len(audio) == 9280
        assert encode_latent(model64, audio).n_frames == 29

    def test_non_multiple_length_rounds_up(self, model64):
        audio = AudioBuffer(speech_like(0.4, 24000, 57)[:9300], 24000)
        assert encode_latent(model64, audio).n_frames == 30  # ceil(9300/320)

    def test_zero_audio_constant_frames(self, model64):
        latents = encode_latent(model64, AudioBuffer(np.zeros(9600), 24000))
        assert np.max(np.abs(latents.frames - latents.frames[0])) == 0.0

    def test_rate_mismatch(self, model64):
        with pytest.raises(SampleRateMismatch):
            encode_latent(model64, AudioBuffer(np.zeros(16000), 16000))

    def test_gain_shifts_logmel_by_ln_g(self, model64):
        # Scale covariance in the log domain, asserted on the log-mel
        # intermediate where no flooring is active.
        from rvqlab.frontend import _analysis_log_mel

        x = speech_like(0.5, 24000, 58, level=0.5)
        a = _analysis_log_mel(AudioBuffer(x, 24000))
        b = _analysis_log_mel(AudioBuffer(0.5 * x, 24000))
        unfloored = a > np.log(LOG_FLOOR) + np.log(2.0) + 1e-9
        np.testing.assert_allclose(
            (b - a)[unfloored], np.log(0.5), atol=1e-9
        )


class TestDecodeLatent:
    def test_output_length(self, model64):
        audio = AudioBuffer(speech_like(1.0, 24000, 60), 24000)
        latents = encode_latent(model64, audio)
        out = decode_latent(model64, latents, gl_iterations=4)
        assert len(out) == 75 * 320 == 24000

    def test_sine_roundtrip_keeps_tone(self, model80):
        # STOI is degenerate on stationary tones (constant band envelopes),
        # so the tone check is spectral: the reconstruction must keep its
        # dominant frequency.
        t = np.arange(24000) / 24000
        audio = AudioBuffer(0.5 * np.sin(2 * np.pi * 750.0 * t), 24000)
        recon = decode_latent(model80, encode_latent(model80, audio), gl_iterations=64)
        spectrum = np.abs(np.fft.rfft(recon.samples))
        peak_hz = np.argmax(spectrum) * 24000 / len(recon.samples)
        assert abs(peak_hz - 750.0) <= 24000 / len(recon.samples)

    def test_speech_roundtrip_stoi(self, model80):
        # Measured full-rank roundtrip quality of the mel + Griffin-Lim
        # synthesis chain on modulated signals: 0.78-0.92 depending on the
        # draw.  0.75 is the honest floor this chain must clear.
        scores = []
        for seed in (100, 55, 7):
            audio = AudioBuffer(speech_like(1.0, 24000, seed), 24000)
            recon = decode_latent(model80, encode_latent(model80, audio), gl_iterations=64)
            scores.append(stoi(audio, recon).value)
        assert min(scores) > 0.75
        assert np.mean(scores) > 0.85

    def test_floor_latents_near_silence(self, model64):
        floor_frame = (np.full(80, np.log(LOG_FLOOR)) - model64.mean) @ model64.basis.T
        latents = LatentSequence(np.tile(floor_frame, (30, 1)))
        out = decode_latent(model64, latents, gl_iterations=8)
        assert np.sqrt(np.mean(out.samples**2)) < 1e-3

    def test_dimension_mismatch(self, model64):
        with pytest.raises(InvalidInput):
            decode_latent(model64, LatentSequence(np.zeros((10, 32))))

    @pytest.mark.parametrize("value", [800.0, 1e308, 81.0], ids=["exp-overflow", "huge", "above-ceiling"])
    def test_latents_beyond_any_audio_are_refused_without_a_warning(self, value):
        # 800 used to overflow np.exp, warn, and fail on the spectrogram.
        model = FrontendModel(np.zeros(80), np.eye(80)[:16], np.zeros(80), 0)
        latents = np.zeros((5, 16))
        latents[2, 3] = value
        with pytest.raises(InvalidInput, match="latents decode to log-mel values above"):
            decode_latent(model, LatentSequence(latents), gl_iterations=2)

    def test_latents_far_below_the_floor_decode_to_silence(self):
        model = FrontendModel(np.full(80, -800.0), np.eye(80)[:16], np.zeros(80), 0)
        out = decode_latent(model, LatentSequence(np.zeros((5, 16))), gl_iterations=2)
        assert len(out) == 5 * 320 and not np.any(out.samples)


class TestMelInversion:
    def test_gram_is_the_tridiagonal_of_w_wt(self):
        weights = mel_filterbank(24000, 1024, 80)
        _, _, _, gram = _mel_inversion()
        full = weights @ weights.T
        assert np.all(np.triu(full, 2) == 0.0)
        np.testing.assert_allclose(gram[1], np.diag(full), rtol=1e-14)
        np.testing.assert_allclose(gram[0, 1:], np.diag(full, 1), rtol=1e-14)

    def test_banded_pseudo_inverse_matches_the_dense_one(self):
        # W^T (W W^T)^-1 and numpy's SVD pseudo-inverse agree to rounding.
        weights = mel_filterbank(24000, 1024, 80)
        _, bank_t, _, gram = _mel_inversion()
        mel_amp = np.exp(np.random.default_rng(58).normal(0.0, 2.0, (80, 300)))
        banded = bank_t @ solveh_banded(gram, mel_amp)
        dense = np.linalg.pinv(weights) @ mel_amp
        assert np.max(np.abs(banded - dense)) <= 1e-13 * np.max(np.abs(dense))

    def test_frames_decode_alike_in_any_batch(self, model64):
        # Every product of the inversion works frame by frame, so a frame's
        # magnitudes do not depend on the frames decoded with it.
        latents = encode_latent(model64, AudioBuffer(speech_like(1.0, 24000, 59), 24000))
        whole = _decoded_magnitudes(model64, latents).frames
        head = _decoded_magnitudes(model64, LatentSequence(latents.frames[:10])).frames
        assert whole[:10].tobytes() == head[:10].tobytes()


class TestWarmStartedGriffinLim:
    """The shipped decode against 20 fast iterations from zero phase, the
    decode it replaced, on the criterion-10 signals through the codec's mel
    inversion (full-rank frontend)."""

    @pytest.fixture(scope="class")
    def decodes(self):
        model = FrontendModel(np.zeros(80), np.eye(80), np.zeros(80), 0)
        out = []
        for seed in range(10):
            audio = AudioBuffer(speech_like(0.6, 24000, 600 + seed), 24000)
            latents = encode_latent(model, audio)
            spec = _decoded_magnitudes(model, latents)
            warm_sc, cold_sc = [], []
            warm = decode_latent(model, latents, callback=lambda i, sc: warm_sc.append(sc))
            griffin_lim(spec, GL_ITERATIONS, lambda i, sc: cold_sc.append(sc), GL_MOMENTUM)
            cold20 = griffin_lim(spec, 20, momentum=GL_MOMENTUM)
            out.append((audio, warm, cold20, warm_sc[-1], cold_sc[-1]))
        return out

    def test_warm_start_ends_closer_to_the_magnitudes_on_every_signal(self, decodes):
        for seed, (_, _, _, warm_sc, cold_sc) in enumerate(decodes):
            assert warm_sc < cold_sc, seed

    def test_warm_decode_has_a_lower_mean_mel_loss_than_20_from_zero_phase(self, decodes):
        warm = np.mean([mel_loss(audio, w).value for audio, w, _, _, _ in decodes])
        cold = np.mean([mel_loss(audio, c).value for audio, _, c, _, _ in decodes])
        assert warm < cold
