import gc
import shutil
import sys

import pytest

from rvqlab import _workers, container, datapipe, training
from rvqlab.datapipe import BatchSpec, load_manifest, sample_batch
from rvqlab.dsp import AudioBuffer
from rvqlab.errors import InsufficientData, InvalidConfig, InvalidInput
from rvqlab.rvq import train_rvq
from rvqlab.training import train_codec


def _train_without_reading_audio(corpus, monkeypatch, setting, value, error, **others):
    manifest = load_manifest(corpus)

    def no_reads(path):
        raise AssertionError(f"read {path} before validating {setting}")

    monkeypatch.setattr(datapipe, "read_wav", no_reads)
    settings = {"n_stages": 1, "codebook_size": 16, "latent_dim": 8, **others, setting: value}
    with pytest.raises(error, match=setting):
        train_codec(manifest, **settings)


@pytest.mark.parametrize("max_rvq_frames", [0, -1])
def test_max_rvq_frames_below_one_rejected_before_reading_audio(toy_corpus, monkeypatch, max_rvq_frames):
    _train_without_reading_audio(toy_corpus, monkeypatch, "max_rvq_frames", max_rvq_frames, InvalidInput)


@pytest.mark.parametrize(
    "setting, value, error",
    [
        pytest.param(setting, value, error, id=f"{setting}={value}")
        for setting, value, error in [
            ("n_batches", 0, InvalidInput),
            ("n_batches", -1, InvalidInput),
            ("n_stages", 33, InvalidConfig),
            ("codebook_size", 3, InvalidConfig),
            ("latent_dim", 81, InvalidConfig),
            ("code_dim", 9, InvalidConfig),
            ("seed", -1, InvalidConfig),
            ("batch_size", 0, InvalidConfig),
            ("excerpt_samples", 100, InvalidConfig),
            ("max_rvq_frames", 159, InsufficientData),
            ("codebook_size", 16384, InsufficientData),
        ]
    ],
)
def test_bad_setting_rejected_before_reading_audio(toy_corpus, monkeypatch, setting, value, error):
    _train_without_reading_audio(toy_corpus, monkeypatch, setting, value, error)


def test_too_few_frames_for_latent_dim_rejected_before_reading_audio(toy_corpus, monkeypatch):
    # 1 x 6 excerpts of 29 frames: 174 frames, enough for K=16 but not for D=80.
    _train_without_reading_audio(toy_corpus, monkeypatch, "latent_dim", 80, InsufficientData,
                                 n_batches=1, batch_size=6)


def test_same_corpus_elsewhere_gives_same_container_bytes(toy_model, toy_corpus, tmp_path):
    from conftest import train_toy_model

    moved = shutil.copytree(toy_corpus.parent, tmp_path / "elsewhere" / "corpus")
    model, _ = train_toy_model(moved / toy_corpus.name)
    assert container.to_bytes(model) == container.to_bytes(toy_model[1])


def test_rvq_training_holds_no_excerpt_audio(toy_corpus, monkeypatch):
    # Excerpts are counted, hashed and analysed as they are drawn, so by the
    # time k-means runs no excerpt and no excerpt-length buffer is alive, and
    # k-means sees only the subsampled latents.
    excerpt_samples = 3520  # a length no other buffer of the test session has
    seen = {}

    def spy(latents, config):
        gc.collect()
        alive = gc.get_objects()
        seen["excerpts"] = sum(isinstance(o, datapipe.Excerpt) for o in alive)
        seen["buffers"] = sum(isinstance(o, AudioBuffer) and len(o) == excerpt_samples for o in alive)
        seen["rows"] = latents.shape[0]
        return train_rvq(latents, config)

    monkeypatch.setattr(training, "train_rvq", spy)
    _, summary = train_codec(
        load_manifest(toy_corpus), n_stages=1, codebook_size=16, latent_dim=8, seed=2,
        n_batches=4, batch_size=12, excerpt_samples=excerpt_samples, max_rvq_frames=300,
    )
    assert summary["frames_total"] == 4 * 12 * excerpt_samples // 320 > 300
    assert seen == {"excerpts": 0, "buffers": 0, "rows": summary["rvq_frames"]}
    assert summary["rvq_frames"] == 300


def test_trained_bytes_do_not_depend_on_the_cpu_count(toy_model, toy_corpus, monkeypatch):
    from conftest import train_toy_model

    _, model, summary = toy_model
    for cpus in (1, 2, 4):
        monkeypatch.setattr(_workers, "_cpu_count", lambda: cpus)
        trained, trained_summary = train_toy_model(toy_corpus)
        assert container.to_bytes(trained) == container.to_bytes(model), cpus
        assert trained_summary == summary, cpus


def test_the_excerpt_pass_runs_on_the_calling_thread(toy_corpus, monkeypatch):
    # One excerpt's read or analysis costs less than handing it to a helper,
    # so reading and analysing excerpts make no split; k-means alone splits.
    from conftest import train_toy_model

    callers = []
    map_rows = _workers.map_rows

    def spy(fn, n_rows):
        callers.append(sys._getframe(1).f_code.co_name)
        map_rows(fn, n_rows)

    monkeypatch.setattr(_workers, "map_rows", spy)
    batch = sample_batch(load_manifest(toy_corpus), BatchSpec(batch_size=12, seed=5))
    assert len(batch) == 12 and callers == []
    train_toy_model(toy_corpus)
    assert callers and set(callers) == {"kmeans_unit"}
