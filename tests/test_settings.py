"""Every integer setting of the library takes an integer in range, every
float setting a finite real, every array a finite numeric array of its
dimensions and every path a str or os.PathLike; the model objects check
their own fields.  Anything else is the typed error of the setting or value,
never a TypeError, ValueError, AttributeError or struct.error from deeper in
the call."""

import math
import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvqlab import container
from rvqlab.bitstream import pack, prefix, unpack
from rvqlab.datapipe import BatchSpec, load_manifest, sample_batch
from rvqlab.dsp import AudioBuffer, Spectrogram, StftConfig, griffin_lim, log_mel, mel_filterbank, resample
from rvqlab.errors import InvalidConfig, InvalidInput, WavError, check_array, check_float, check_int, check_path
from rvqlab.evalstats import MushraRecord, load_mushra_records, run_evaluation
from rvqlab.frontend import MAX_SEED, STFT_CONFIG, FrontendModel, LatentSequence, fit_frontend
from rvqlab.metrics import MetricValue
from rvqlab.rvq import MAX_CODEBOOK_SIZE, RvqConfig, TokenStream, bitrate, dequantize, kmeans_unit, quantize, train_rvq
from rvqlab.rvq import RvqModel
from rvqlab.training import train_codec
from rvqlab.wavio import read_wav, write_wav


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
        frontend=FrontendModel(np.zeros(80), np.eye(4, 80), np.zeros(80), 0),
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
    ("log_mel.n_mels", lambda c, v: log_mel(c.magnitude, v, 1e-5), 1, None, InvalidConfig),
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
    ("FrontendModel.seed", lambda c, v: FrontendModel(np.zeros(80), np.zeros((4, 80)), np.zeros(80), v), 0, MAX_SEED,
     InvalidConfig),
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


_TINY_RVQ = RvqConfig(n_stages=1, codebook_size=2, code_dim=2, latent_dim=4)
_ONES = Spectrogram(np.ones((3, 513)), STFT_CONFIG, 24000)


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
        lambda: griffin_lim(_ONES, 1, init_phase=np.full((3, 513), np.nan)),
        lambda: griffin_lim(_ONES, 1, init_phase=np.full((3, 513), np.inf)),
        lambda: griffin_lim(_ONES, 1, init_phase=np.zeros((3, 512))),
        lambda: griffin_lim(_ONES, 1, init_phase=np.zeros(513)),
        lambda: Spectrogram([["a"] * 513], STFT_CONFIG, 24000),
        lambda: Spectrogram([[1.0] * 513, [1.0]], STFT_CONFIG, 24000),
        lambda: train_rvq([["a"] * 4] * 40, _TINY_RVQ),
        lambda: train_rvq(np.ones((40, 4), dtype=complex), _TINY_RVQ),
        lambda: kmeans_unit([["a", "b"]], 2, 0),
        lambda: kmeans_unit(np.array([[object(), object()]]), 2, 0),
        lambda: kmeans_unit(np.ones((4, 2), dtype=complex), 2, 0),
    ],
    ids=["tokens-nan", "tokens-fraction", "tokens-wrap-u16", "tokens-k-not-power-of-two", "tokens-no-stage",
         "tokens-text", "audio-complex", "audio-text", "latents-complex", "latents-text", "griffin-lim-complex",
         "griffin-lim-init-phase-nan", "griffin-lim-init-phase-inf", "griffin-lim-init-phase-shape",
         "griffin-lim-init-phase-1d",
         "spectrogram-text", "spectrogram-ragged", "training-latents-text", "training-latents-complex",
         "kmeans-points-text", "kmeans-points-object", "kmeans-points-complex"],
)
def test_value_types_hold_only_what_they_represent(call):
    with pytest.raises(InvalidInput):
        call()


def _on_descriptor(call):
    """call(fd) on the descriptor of a fresh empty file, which must stay open and empty."""
    def run(ctx):
        fd = os.open(ctx.wav.with_name("descriptor.bin"), os.O_RDWR | os.O_CREAT | os.O_TRUNC)
        try:
            call(fd)
        finally:
            size = os.fstat(fd).st_size  # OSError if the call closed the descriptor
            os.close(fd)
            assert size == 0
    return run


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda c: MushraRecord("a", "b", "c", "x"), InvalidInput),
        (lambda c: MushraRecord(["s"], "a", "x", 50.0), InvalidInput),
        (lambda c: MushraRecord("s", None, "x", 50.0), InvalidInput),
        (lambda c: MushraRecord("s", "a", ["x"], 50.0), InvalidInput),
        (lambda c: MetricValue("m", "x", True), InvalidInput),
        (lambda c: read_wav(None), InvalidInput),
        (lambda c: container.load(None), InvalidInput),
        (lambda c: load_manifest(None), InvalidInput),
        (lambda c: load_mushra_records(None), InvalidInput),
        (_on_descriptor(read_wav), InvalidInput),
        (_on_descriptor(lambda fd: write_wav(fd, AudioBuffer(np.zeros(4), 24000))), InvalidInput),
        (lambda c: container.to_bytes(container.ModelContainer(None, RvqModel(RvqConfig(2), (), None))),
         InvalidConfig),
        (lambda c: container.ModelContainer(c.frontend, c.model, {"k": "\ud800"}), InvalidConfig),
    ],
    ids=["mushra-score-text", "mushra-subject-list", "mushra-stimulus-none", "mushra-system-list",
         "metric-value-text", "read-wav-none", "container-load-none", "load-manifest-none", "load-mushra-records-none", "read-wav-descriptor", "write-wav-descriptor",
         "rvq-model-without-codebooks", "container-metadata-not-utf8"],
)
def test_float_path_and_model_values_raise_the_typed_error(ctx, call, error):
    with pytest.raises(error):
        call(ctx)


@pytest.mark.parametrize("value", [math.nan, math.inf, -0.5, -1e-300, 1.0, 1.5, "0.5", True, None, 0.5j])
def test_griffin_lim_momentum_is_a_real_in_zero_to_one(ctx, value):
    with pytest.raises(InvalidInput, match="momentum must be"):
        griffin_lim(ctx.magnitude, 1, momentum=value)


@pytest.mark.parametrize("value", [0, 0.0, 0.5, np.float32(0.99), 1 - 2**-53])
def test_griffin_lim_momentum_accepts_zero_to_below_one(ctx, value):
    assert len(griffin_lim(ctx.magnitude, 2, momentum=value)) == 2 * STFT_CONFIG.hop


@pytest.mark.parametrize("path", [3, True, None, b"x.wav", 2.5, "a\x00b", "\ud800", Path("a\x00")])
def test_check_path_refuses_what_cannot_name_a_file(path):
    with pytest.raises(InvalidInput, match="path must be a str or os.PathLike"):
        check_path(path)


@pytest.mark.parametrize("path", ["x.wav", Path("x.wav"), "\udcff"])  # \udcff: an undecodable byte
def test_check_path_returns_a_str_or_path_unchanged(path):
    assert check_path(path) is path


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


@settings(max_examples=600)
@given(
    value=st.one_of(
        st.floats(),
        st.floats(width=32).map(np.float32),
        st.integers(),
        st.integers(-(2**63), 2**63 - 1).map(np.int64),
        st.complex_numbers(),
        st.text(max_size=4),
        st.booleans(),
        st.none(),
    ),
)
def test_check_float_returns_a_finite_float_or_raises_the_given_error(value):
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    real = isinstance(value, (float, np.floating)) and math.isfinite(value)
    if real or integer and abs(int(value)) <= np.finfo(np.float64).max:
        result = check_float("x", value, InvalidConfig)
        assert type(result) is float and result == float(value)
    else:
        with pytest.raises(InvalidConfig, match="x must be a finite real number"):
            check_float("x", value, InvalidConfig)


_ELEMENTS = {
    "bool": st.booleans(),
    "int": st.integers(-(2**53), 2**53),
    "float": st.floats(),
    "complex": st.complex_numbers(),
    "text": st.text(max_size=3),
    "object": st.just(None),
}


@settings(max_examples=600)
@given(
    data=st.data(),
    kind=st.sampled_from(sorted(_ELEMENTS) + ["ragged"]),
    shape=st.lists(st.integers(0, 3), max_size=3),
    ndim=st.integers(0, 3),
    complex_ok=st.booleans(),
    transposed=st.booleans(),
)
def test_check_array_returns_a_finite_float_array_or_raises_the_given_error(
    data, kind, shape, ndim, complex_ok, transposed
):
    if kind == "ragged":
        values, accepted = [[1.0], [1.0, 2.0]], False
    else:
        size = int(np.prod(shape))
        items = data.draw(st.lists(_ELEMENTS[kind], min_size=size, max_size=size))
        values = np.array(items, dtype=object if kind == "object" else None).reshape(shape)
        if transposed:  # a strided view: the result is C-contiguous all the same
            values = values.T
        accepted = (
            values.dtype.kind in ("biufc" if complex_ok else "biuf")
            and values.ndim == ndim
            and bool(np.isfinite(values.astype(complex)).all())
        )
    if accepted:
        result = check_array("x", values, ndim, InvalidConfig, complex_ok)
        assert result.dtype == (np.complex128 if values.dtype.kind == "c" else np.float64)
        assert result.shape == values.shape and np.array_equal(result, values)
        assert result.flags.c_contiguous
    else:
        with pytest.raises(InvalidConfig, match="x"):
            check_array("x", values, ndim, InvalidConfig, complex_ok)
