"""The input contract over every public function and dataclass of rvqlab.

CONTRACT has one row per public callable, and each row gives every
parameter a kind and a valid value.  Per example, up to two parameters that
are not objects get a hostile value from the mixed strategy below; the rest
keep their valid values, so later checks are reached too.

- value: numbers (nan, inf and bools included), text, None, arrays, bytes,
  lists and dicts.
- path: the same, plus ints standing in for paths and str or Path names in a
  scratch directory; writes land there or in the scratch working directory.
- tool: a value that is neither text nor a path, so no example starts a
  process.
- argv: `rvqlab validate` followed by drawn text.
- object: always the valid library object, never drawn.  README's rule is
  that such an argument is trusted.

Only RvqLabError subclasses may escape, plus OSError when a path parameter
got a drawn name (of a missing file, say) and SystemExit from cli.main's
argument parser.  test_every_public_callable_has_a_row walks the package with
inspect, so a new entry point or parameter cannot skip the contract.
"""

import contextlib
import dataclasses
import importlib
import inspect
import io
import os
import pkgutil
import shutil
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import rvqlab
from rvqlab import codec, container, dsp, evalstats
from rvqlab.bitstream import pack
from rvqlab.datapipe import BatchSpec, QualityCategory, load_manifest
from rvqlab.errors import InvalidInput, RvqLabError
from rvqlab.wavio import write_wav

from signals import speech_like
from test_fuzz import _tiny_container

VALUE, PATH, TOOL, ARGV, OBJECT = "value", "path", "tool", "argv", "object"


class E(str):
    """A valid value that the env fixture holds under this name."""


def _same(*names):
    return {name: (VALUE, E(name)) for name in names}


# qualified name -> {parameter: (kind, valid value)}
CONTRACT = {
    "bitstream.pack": {"tokens": (OBJECT, E("tokens"))},
    "bitstream.unpack": {"data": (VALUE, E("stream"))},
    "bitstream.prefix": {"data": (VALUE, E("stream")), "n_stages": (VALUE, 1)},
    "cli.main": {"argv": (ARGV, E("argv"))},
    "codec.encode": {"model": (OBJECT, E("model")), "audio": (OBJECT, E("audio")), "n_stages": (VALUE, 1)},
    "codec.decode": {"model": (OBJECT, E("model")), "tokens": (OBJECT, E("tokens")), "n_stages": (VALUE, 1),
                     "gl_iterations": (VALUE, 1), "callback": (OBJECT, None)},
    "container.ModelContainer": {"frontend": (OBJECT, E("frontend")), "rvq": (OBJECT, E("rvq")),
                                 "metadata": (VALUE, {"seed": "3"})},
    "container.to_bytes": {"container": (OBJECT, E("model"))},
    "container.from_bytes": {"data": (VALUE, E("model_bytes"))},
    "container.save": {"container": (OBJECT, E("model")), "path": (PATH, E("out_model"))},
    "container.load": {"path": (PATH, E("model_path"))},
    "datapipe.ManifestEntry": {"path": (VALUE, E("clip_path")), "category": (VALUE, QualityCategory.HQ1),
                               "duration": (VALUE, 0.5), "sample_rate": (VALUE, 24000)},
    "datapipe.BatchSpec": {"batch_size": (VALUE, 4), "excerpt_samples": (VALUE, 3200), "seed": (VALUE, 0)},
    "datapipe.Excerpt": {"audio": (OBJECT, E("audio")), "entry": (OBJECT, E("entry"))},
    "datapipe.load_manifest": {"path": (PATH, E("manifest_path"))},
    "datapipe.summarize_manifest": {"entries": (OBJECT, E("entries"))},
    "datapipe.read_entry_audio": {"entry": (OBJECT, E("entry"))},
    "datapipe.sample_batch": {"manifest": (OBJECT, E("entries")), "spec": (OBJECT, E("spec_batch")),
                              "batch_index": (VALUE, 0), "load_audio": (VALUE, True)},
    "dsp.AudioBuffer": {"samples": (VALUE, E("samples")), "sample_rate": (VALUE, 24000)},
    "dsp.StftConfig": {"fft_size": (VALUE, 256), "hop": (VALUE, 64)},
    "dsp.Spectrogram": {"frames": (VALUE, E("spec_frames")), "config": (OBJECT, E("stft_config")),
                        "sample_rate": (VALUE, 24000)},
    "dsp.stft": {"audio": (OBJECT, E("audio")), "config": (OBJECT, E("stft_config"))},
    "dsp.istft": {"spec": (OBJECT, E("spec"))},
    "dsp.mel_filterbank": {"sample_rate": (VALUE, 24000), "fft_size": (VALUE, 256), "n_mels": (VALUE, 20)},
    "dsp.log_mel": {"spec": (OBJECT, E("magnitude")), "n_mels": (VALUE, 20), "floor": (VALUE, 1e-5)},
    "dsp.griffin_lim": {"magnitude": (OBJECT, E("magnitude")), "iterations": (VALUE, 1),
                        "callback": (OBJECT, None), "momentum": (VALUE, 0.5),
                        "init_phase": (VALUE, E("init_phase"))},
    "dsp.resample": {"audio": (OBJECT, E("audio")), "target_rate": (VALUE, 16000)},
    # The checks themselves: their bounds, error class and flags are the caller's constants.
    "errors.check_int": {"name": (VALUE, "x"), "value": (VALUE, 1), "low": (OBJECT, 0), "high": (OBJECT, 4),
                         "error": (OBJECT, InvalidInput)},
    "errors.check_float": {"name": (VALUE, "x"), "value": (VALUE, 0.5), "error": (OBJECT, InvalidInput)},
    "errors.check_path": {"path": (PATH, E("clip_path"))},
    "errors.check_array": {"name": (VALUE, "x"), "values": (VALUE, E("samples")), "ndim": (OBJECT, 1),
                           "error": (OBJECT, InvalidInput), "complex_ok": (OBJECT, False)},
    "evalstats.MetricReport": {"rows": (VALUE, E("report_rows")), "q_list": (VALUE, (1,)),
                               "config": (VALUE, {}), "failures": (VALUE, ())},
    "evalstats.MushraRecord": {"subject": (VALUE, "s1"), "stimulus": (VALUE, "a"), "system": (VALUE, "codec"),
                               "score": (VALUE, 50.0)},
    "evalstats.MushraSummary": {"system": (VALUE, "codec"), "mean": (VALUE, 50.0), "ci_low": (VALUE, 40.0),
                                "ci_high": (VALUE, 60.0), "n": (VALUE, 2)},
    "evalstats.SignificanceResult": {"system": (VALUE, "codec"), "p_value": (VALUE, 0.5),
                                     "significant": (VALUE, False), "alpha": (VALUE, 0.05),
                                     "method": (VALUE, "exact")},
    "evalstats.run_evaluation": {"container": (OBJECT, E("model")), "test_manifests": (OBJECT, E("manifests")),
                                 "q_list": (VALUE, [1]), "gl_iterations": (VALUE, 1)},
    "evalstats.load_mushra_records": {"path": (PATH, E("scores_path"))},
    "evalstats.mushra_summary": {"records": (OBJECT, E("records"))},
    "evalstats.wilcoxon_ranksum": {"a": (VALUE, [1.0, 2.0]), "b": (VALUE, [3.0, 4.0]), "alpha": (VALUE, 0.05),
                                   "method": (VALUE, "auto"), "system": (VALUE, "codec")},
    "evalstats.render_report": {"report": (OBJECT, E("report")), "fmt": (VALUE, "csv")},
    "frontend.LatentSequence": {"frames": (VALUE, E("latent_frames"))},
    "frontend.FrontendModel": {**_same("mean", "basis", "explained_variance"), "seed": (VALUE, 3)},
    "frontend.fit_frontend": {"training_audio": (OBJECT, E("training_audio")), "latent_dim": (VALUE, 2),
                              "seed": (VALUE, 0)},
    "frontend.encode_latent": {"model": (OBJECT, E("frontend")), "audio": (OBJECT, E("audio"))},
    "frontend.decode_latent": {"model": (OBJECT, E("frontend")), "latents": (OBJECT, E("latents")),
                               "gl_iterations": (VALUE, 1), "callback": (OBJECT, None)},
    "metrics.MetricValue": {"name": (VALUE, "mel"), "value": (VALUE, 0.5), "higher_is_better": (VALUE, False)},
    "metrics.mel_loss": {"ref": (OBJECT, E("audio")), "test": (OBJECT, E("decoded"))},
    "metrics.stft_loss": {"ref": (OBJECT, E("audio")), "test": (OBJECT, E("decoded"))},
    "metrics.stoi": {"ref": (OBJECT, E("audio")), "test": (OBJECT, E("decoded"))},
    "metrics.pesq_adapter": {"ref": (OBJECT, E("audio")), "test": (OBJECT, E("decoded")),
                             "tool_path": (TOOL, None)},
    "rvq.RvqConfig": {"n_stages": (VALUE, 1), "codebook_size": (VALUE, 2), "code_dim": (VALUE, 1),
                      "latent_dim": (VALUE, 2), "seed": (VALUE, 0)},
    "rvq.Codebook": {"entries": (VALUE, E("codebook_entries")), **_same("in_proj", "out_proj")},
    "rvq.RvqModel": {"config": (OBJECT, E("rvq_config")), "stages": (OBJECT, E("stages")),
                     "training_stats": (VALUE, E("training_stats"))},
    "rvq.TokenStream": {"frames": (VALUE, E("token_frames")), "codebook_size": (VALUE, 2)},
    "rvq.kmeans_unit": {"points": (VALUE, E("points")), "k": (VALUE, 2), "seed": (VALUE, 0)},
    "rvq.train_rvq": {"latents": (VALUE, E("training_latents")), "config": (OBJECT, E("rvq_config"))},
    "rvq.quantize": {"model": (OBJECT, E("rvq")), "latents": (OBJECT, E("latents")), "n_stages": (VALUE, 1)},
    "rvq.dequantize": {"model": (OBJECT, E("rvq")), "tokens": (OBJECT, E("tokens")), "n_stages": (VALUE, 1)},
    "rvq.bitrate": {"config": (OBJECT, E("rvq_config")), "n_stages": (VALUE, 1)},
    "rvq.stage_distortions": {"model": (OBJECT, E("rvq")), "latents": (OBJECT, E("latents"))},
    "training.train_codec": {"manifest": (OBJECT, E("entries")), "n_stages": (VALUE, 1),
                             "codebook_size": (VALUE, 2), "latent_dim": (VALUE, 2), "code_dim": (VALUE, 1),
                             "seed": (VALUE, 0), "n_batches": (VALUE, 2), "batch_size": (VALUE, 4),
                             "excerpt_samples": (VALUE, 3200), "max_rvq_frames": (VALUE, 100)},
    "wavio.read_wav": {"path": (PATH, E("clip_path"))},
    "wavio.write_wav": {"path": (PATH, E("out_wav")), "audio": (OBJECT, E("audio")),
                        "encoding": (VALUE, "pcm16")},
}


def _callable(name):
    module, attr = name.split(".")
    return getattr(importlib.import_module(f"rvqlab.{module}"), attr)


def _public_callables():
    found = set()
    for info in pkgutil.iter_modules(rvqlab.__path__):
        if info.name.startswith("_"):  # a private module, such as _workers, is no entry point
            continue
        module = importlib.import_module(f"rvqlab.{info.name}")
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) or dataclasses.is_dataclass(obj):
                found.add(f"{info.name}.{attr}")
    return found


def test_every_public_callable_has_a_row():
    assert set(CONTRACT) == _public_callables()
    for name, params in CONTRACT.items():
        assert list(params) == list(inspect.signature(_callable(name)).parameters), name


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    """Valid values for every row: a tiny D=2, K=2 model, a 0.5 s clip and the files around them."""
    root = tmp_path_factory.mktemp("contract")
    valid, out = root / "valid", root / "out"
    for folder in (valid, out, root / "cwd"):
        folder.mkdir()
    audio = dsp.AudioBuffer(speech_like(0.5, 24000, 3), 24000)
    write_wav(valid / "clip.wav", audio)
    model = _tiny_container()
    container.save(model, valid / "model.rvqm")
    (valid / "scores.csv").write_text("subject,stimulus,system,score\ns1,a,codec,60\ns2,a,codec,70\n")
    (valid / "manifest.jsonl").write_text(
        '{"path": "clip.wav", "category": "HQ1", "duration": 0.5, "sample_rate": 24000}\n'
    )
    shutil.copytree(valid, root / "junk")  # drawn paths name these copies, so writes spare valid/
    entries = load_manifest(valid / "manifest.jsonl")
    _, latents, tokens = codec.encode(model, audio, 1)
    stft_config = dsp.StftConfig(256, 64)
    spec = dsp.stft(audio, stft_config)
    stage = model.rvq.stages[0]
    rng = np.random.default_rng(0)
    report_rows = {("t", "mel", "rvq"): {1: 0.5}}
    return SimpleNamespace(
        root=root,
        # files
        clip_path=str(valid / "clip.wav"),
        model_path=valid / "model.rvqm",
        scores_path=valid / "scores.csv",
        manifest_path=str(valid / "manifest.jsonl"),
        out_model=out / "model.rvqm",
        out_wav=str(out / "clip.wav"),
        argv=["validate", str(valid / "manifest.jsonl")],
        # signals
        audio=audio,
        samples=audio.samples,
        training_audio=[audio],
        decoded=codec.decode(model, tokens, 1, 1)[1],
        stft_config=stft_config,
        spec=spec,
        spec_frames=spec.frames,
        magnitude=spec.magnitude(),
        init_phase=np.zeros(spec.frames.shape),
        # model
        model=model,
        model_bytes=container.to_bytes(model),
        frontend=model.frontend,
        mean=model.frontend.mean,
        basis=model.frontend.basis,
        explained_variance=model.frontend.explained_variance,
        rvq=model.rvq,
        rvq_config=model.rvq.config,
        stages=model.rvq.stages,
        training_stats=model.rvq.training_stats,
        codebook_entries=stage.entries,
        in_proj=stage.in_proj,
        out_proj=stage.out_proj,
        points=rng.normal(size=(8, 2)),
        training_latents=rng.normal(size=(40, 2)),
        latents=latents,
        latent_frames=latents.frames,
        tokens=tokens,
        token_frames=tokens.frames,
        stream=pack(tokens),
        # data and reports
        entries=entries,
        entry=entries[0],
        spec_batch=BatchSpec(batch_size=4, excerpt_samples=3200),
        manifests={"t": entries},
        records=evalstats.load_mushra_records(valid / "scores.csv"),
        report_rows=report_rows,
        report=evalstats.MetricReport(report_rows, (1,), {}),
    )


_FILES = ["clip.wav", "model.rvqm", "scores.csv", "manifest.jsonl", "", "missing.wav", "no/such/dir.wav"]
_INTS = st.integers(-2, 8) | st.booleans() | st.sampled_from([np.int64(4), np.bool_(True)])
_REALS = st.floats() | st.sampled_from([np.float32(np.nan), np.float64(np.inf), 1e308, -0.0])
_NUMBERS = _INTS | _REALS
_TEXT = st.text(max_size=4) | st.sampled_from(["\ud800", "a\x00b", "float32", "csv", "auto", "1.5"])
_ARRAYS = hnp.arrays(
    st.sampled_from([np.float64, np.int64, np.bool_, np.complex128, np.dtype("U2")]),
    hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
) | st.sampled_from([np.array([None, 1.0], dtype=object), np.zeros((2, 0))])
_OTHERS = (
    _TEXT | st.none() | _ARRAYS | st.binary(max_size=24)
    | st.lists(_NUMBERS | st.none(), max_size=3) | st.dictionaries(_TEXT, _TEXT | _NUMBERS, max_size=2)
)
# Few examples reach each row, so the usual suspects come first.
_SUSPECTS = st.sampled_from([
    None, "x", "\ud800", "a\x00b", -1, 2.5, True, np.nan, np.inf, 10**400, np.float32(1.5),
    np.zeros(3), np.zeros(0), np.array([np.nan]), np.array(["a"]), b"", [], {},
])
_VALUES = _SUSPECTS | _NUMBERS | _OTHERS
# Ints standing in for paths lie above any descriptor the process holds, so a
# missing path check fails with EBADF instead of writing to stdout.
_FD_LIKE = st.integers(2**24, 2**31 - 1)


def _drawn(kind, root):
    if kind == PATH:
        names = st.sampled_from(_FILES).map(lambda name: root / "junk" / name)
        suspects = _SUSPECTS.filter(lambda v: not isinstance(v, int))  # True is descriptor 1
        return names | names.map(str) | _FD_LIKE | suspects | _REALS | _OTHERS
    if kind == TOOL:
        return _NUMBERS | st.none() | _ARRAYS | st.just("")
    if kind == ARGV:
        return st.lists(_TEXT | _NUMBERS.map(str), max_size=3).map(lambda rest: ["validate", *rest])
    return _VALUES


def _resolve(spec, env):
    return getattr(env, spec) if isinstance(spec, E) else spec


@settings(max_examples=20)
@given(data=st.data())
@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_only_documented_errors_escape(env, name, data):
    params = CONTRACT[name]
    drawable = [p for p, (kind, _) in params.items() if kind != OBJECT]
    hostile = data.draw(st.sets(st.sampled_from(drawable), max_size=2) if drawable else st.just(set()))
    kwargs = {
        p: data.draw(_drawn(kind, env.root), label=p) if p in hostile else _resolve(valid, env)
        for p, (kind, valid) in params.items()
    }
    allowed = (RvqLabError,)
    if any(params[p][0] == PATH and isinstance(kwargs[p], (str, os.PathLike)) for p in hostile):
        allowed += (OSError,)  # a drawn name of a missing file or a directory
    if name == "cli.main":
        allowed += (SystemExit,)
    cwd = os.getcwd()
    os.chdir(env.root / "cwd")  # a relative drawn path is written here
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            _callable(name)(**kwargs)
    except allowed:
        pass
    finally:
        os.chdir(cwd)


@pytest.mark.parametrize(
    "call",
    [
        lambda e: codec.encode(None, e.audio, 1),
        lambda e: evalstats.render_report(5, "csv"),
        lambda e: dsp.griffin_lim(e.magnitude, 1, callback=5),
    ],
    ids=["encode-without-model", "render-a-number", "callback-not-callable"],
)
def test_a_wrong_object_argument_is_a_programming_error(env, call):
    # README: an argument that must be a library object is trusted, not
    # checked, so Python's own error surfaces.
    with pytest.raises((TypeError, AttributeError)):
        call(env)
