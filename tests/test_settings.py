"""Every integer setting of the library takes an integer in range; anything
else is the setting's typed error, never a TypeError, ValueError or
struct.error from deeper in the call."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvqlab.bitstream import pack, prefix, unpack
from rvqlab.datapipe import BatchSpec, sample_batch
from rvqlab.dsp import AudioBuffer, Spectrogram, StftConfig, griffin_lim, mel_filterbank, resample
from rvqlab.errors import InvalidConfig, InvalidInput, WavError, check_int
from rvqlab.evalstats import run_evaluation
from rvqlab.frontend import MAX_SEED, STFT_CONFIG, LatentSequence, fit_frontend
from rvqlab.rvq import MAX_CODEBOOK_SIZE, RvqConfig, TokenStream, bitrate, dequantize, kmeans_unit, quantize, train_rvq
from rvqlab.training import train_codec
from rvqlab.wavio import write_wav


@pytest.fixture(scope="module")
def ctx(tmp_path_factory):
    rng = np.random.default_rng(0)
    model = train_rvq(rng.normal(size=(40, 4)), RvqConfig(n_stages=4, codebook_size=2, code_dim=2, latent_dim=4))
    latents = LatentSequence(rng.normal(size=(5, 4)))
    tokens = quantize(model, latents, 4)
    return SimpleNamespace(
        model=model,
        latents=latents,
        tokens=tokens,
        stream=pack(tokens),
        container=SimpleNamespace(rvq=model),
        magnitude=Spectrogram(np.ones((3, 513)), STFT_CONFIG, 24000),
        points=rng.normal(size=(8, 3)),
        wav=tmp_path_factory.mktemp("wav") / "out.wav",
    )


def _write_at_rate(ctx, rate):
    audio = AudioBuffer(np.zeros(4), 24000)
    object.__setattr__(audio, "sample_rate", rate)  # reach write_wav's own check
    write_wav(ctx.wav, audio)


# (setting, call(ctx, value), low, high or None, typed error)
SETTINGS = [
    ("AudioBuffer.sample_rate", lambda c, v: AudioBuffer(np.zeros(4), v), 1, None, InvalidInput),
    ("Spectrogram.sample_rate", lambda c, v: Spectrogram(np.zeros((1, 513)), STFT_CONFIG, v), 1, None, InvalidInput),
    ("StftConfig.fft_size", lambda c, v: StftConfig(v, 1), 2, None, InvalidConfig),
    ("StftConfig.hop", lambda c, v: StftConfig(1024, v), 1, 1024, InvalidConfig),
    ("mel_filterbank.sample_rate", lambda c, v: mel_filterbank(v, 1024, 10), 1, None, InvalidConfig),
    ("mel_filterbank.fft_size", lambda c, v: mel_filterbank(24000, v, 10), 1, None, InvalidConfig),
    ("mel_filterbank.n_mels", lambda c, v: mel_filterbank(24000, 1024, v), 1, None, InvalidConfig),
    ("griffin_lim.iterations", lambda c, v: griffin_lim(c.magnitude, v), 1, None, InvalidInput),
    ("resample.target_rate", lambda c, v: resample(AudioBuffer(np.zeros(8), 16000), v), 1, None, InvalidInput),
    ("RvqConfig.n_stages", lambda c, v: RvqConfig(n_stages=v), 1, 32, InvalidConfig),
    ("RvqConfig.codebook_size", lambda c, v: RvqConfig(4, codebook_size=v), 2, 1 << 15, InvalidConfig),
    ("RvqConfig.code_dim", lambda c, v: RvqConfig(4, code_dim=v), 1, 64, InvalidConfig),
    ("RvqConfig.latent_dim", lambda c, v: RvqConfig(4, code_dim=1, latent_dim=v), 1, 80, InvalidConfig),
    ("RvqConfig.seed", lambda c, v: RvqConfig(4, seed=v), 0, MAX_SEED, InvalidConfig),
    ("kmeans_unit.k", lambda c, v: kmeans_unit(c.points, v, 0), 1, None, InvalidConfig),
    ("kmeans_unit.seed", lambda c, v: kmeans_unit(c.points, 2, v), 0, None, InvalidConfig),
    ("quantize.n_stages", lambda c, v: quantize(c.model, c.latents, v), 1, 4, InvalidInput),
    ("dequantize.n_stages", lambda c, v: dequantize(c.model, c.tokens, v), 1, 4, InvalidInput),
    ("bitrate.n_stages", lambda c, v: bitrate(c.model.config, v), 1, 4, InvalidInput),
    ("TokenStream.codebook_size", lambda c, v: TokenStream(np.zeros((2, 1)), v), 2, MAX_CODEBOOK_SIZE, InvalidInput),
    ("prefix.n_stages", lambda c, v: prefix(c.stream, v), 1, 4, InvalidInput),
    ("BatchSpec.batch_size", lambda c, v: BatchSpec(batch_size=v), 1, None, InvalidConfig),
    ("BatchSpec.excerpt_samples", lambda c, v: BatchSpec(excerpt_samples=v), 1, None, InvalidConfig),
    ("BatchSpec.seed", lambda c, v: BatchSpec(seed=v), 0, None, InvalidConfig),
    ("sample_batch.batch_index", lambda c, v: sample_batch([], BatchSpec(), v), 0, None, InvalidInput),
    ("fit_frontend.latent_dim", lambda c, v: fit_frontend([], v, 0), 1, 80, InvalidInput),
    ("fit_frontend.seed", lambda c, v: fit_frontend([], 4, v), 0, MAX_SEED, InvalidInput),
    ("train_codec.n_batches", lambda c, v: train_codec([], n_batches=v), 1, None, InvalidInput),
    ("train_codec.max_rvq_frames", lambda c, v: train_codec([], max_rvq_frames=v), 1, None, InvalidInput),
    ("run_evaluation.q", lambda c, v: run_evaluation(c.container, {"a": []}, [v]), 1, 4, InvalidInput),
    ("run_evaluation.gl_iterations",
     lambda c, v: run_evaluation(c.container, {"a": []}, [1], gl_iterations=v), 1, None, InvalidInput),
    ("write_wav.sample_rate", _write_at_rate, 1, 0xFFFFFFFF // 4, WavError),
]


def _bad_values(low, high):
    values = [("half", 2.5), ("float", 4.0), ("str", "3"), ("bool", True), ("none", None), ("below", low - 1)]
    return values + ([("above", high + 1)] if high is not None else [])


@pytest.mark.parametrize(
    "call, value, error",
    [
        pytest.param(call, value, error, id=f"{name}-{kind}")
        for name, call, low, high, error in SETTINGS
        for kind, value in _bad_values(low, high)
    ],
)
def test_every_integer_setting_rejects_what_is_not_an_integer_in_range(ctx, call, value, error):
    # the match makes sure the setting's own check fired, not a later one
    with pytest.raises(error, match="must be an integer"):
        call(ctx, value)


def test_value_types_store_the_checked_int():
    rate = np.int64(24000)
    assert type(AudioBuffer(np.zeros(4), rate).sample_rate) is int
    assert type(Spectrogram(np.zeros((1, 513)), STFT_CONFIG, rate).sample_rate) is int
    assert type(BatchSpec(batch_size=np.int32(6)).batch_size) is int
    tokens = TokenStream(np.zeros((1, 1)), np.int64(16))
    assert type(tokens.codebook_size) is int
    assert unpack(pack(tokens)).codebook_size == 16


@pytest.mark.parametrize(
    "call",
    [
        lambda: TokenStream([[np.nan]], 16),
        lambda: TokenStream([[1.5]], 16),
        lambda: TokenStream([[70000]], 1 << 17),
        lambda: TokenStream(np.zeros((2, 1)), 1000),
        lambda: TokenStream(np.zeros((2, 0)), 16),
        lambda: TokenStream([["a"]], 16),
        lambda: AudioBuffer(np.array([1 + 1j]), 24000),
        lambda: AudioBuffer(["a", "b"], 24000),
        lambda: LatentSequence(np.ones((2, 2), dtype=complex)),
        lambda: LatentSequence([["a"]]),
        lambda: griffin_lim(Spectrogram(np.ones((3, 513), dtype=complex), STFT_CONFIG, 24000), 1),
    ],
    ids=["tokens-nan", "tokens-fraction", "tokens-wrap-u16", "tokens-k-not-power-of-two", "tokens-no-stage",
         "tokens-text", "audio-complex", "audio-text", "latents-complex", "latents-text", "griffin-lim-complex"],
)
def test_value_types_hold_only_what_they_represent(call):
    with pytest.raises(InvalidInput):
        call()


def test_wav_rate_beyond_its_u32_header_fields_is_a_wav_error(tmp_path):
    with pytest.raises(WavError, match="sample_rate"):
        write_wav(tmp_path / "x.wav", AudioBuffer(np.zeros(4), 2**33))
    write_wav(tmp_path / "x.wav", AudioBuffer(np.zeros(4), 0xFFFFFFFF // 2), encoding="pcm16")


@settings(max_examples=600, deadline=None)
@given(
    value=st.one_of(
        st.integers(-10, 10),
        st.integers(-20, 20).map(np.int64),
        st.floats(allow_nan=True),
        st.text(max_size=4),
        st.booleans(),
        st.none(),
    ),
    low=st.integers(-5, 5),
    width=st.one_of(st.none(), st.integers(0, 10)),
)
def test_check_int_returns_an_int_in_range_or_raises_the_given_error(value, low, width):
    high = None if width is None else low + width
    is_int = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    fits = is_int and low <= value and (high is None or value <= high)
    if fits:
        result = check_int("x", value, low, high, InvalidConfig)
        assert type(result) is int and result == value
    else:
        with pytest.raises(InvalidConfig, match="x must be an integer"):
            check_int("x", value, low, high, InvalidConfig)
