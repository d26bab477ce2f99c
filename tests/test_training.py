import shutil

import pytest

from rvqlab import container, datapipe
from rvqlab.datapipe import load_manifest
from rvqlab.errors import InvalidConfig, InvalidInput
from rvqlab.training import train_codec


def _train_without_reading_audio(corpus, monkeypatch, setting, value, error):
    manifest = load_manifest(corpus)

    def no_reads(path):
        raise AssertionError(f"read {path} before validating {setting}")

    monkeypatch.setattr(datapipe, "read_wav", no_reads)
    settings = {"n_stages": 1, "codebook_size": 16, "latent_dim": 8, setting: value}
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
        ]
    ],
)
def test_bad_setting_rejected_before_reading_audio(toy_corpus, monkeypatch, setting, value, error):
    _train_without_reading_audio(toy_corpus, monkeypatch, setting, value, error)


def test_same_corpus_elsewhere_gives_same_container_bytes(toy_model, toy_corpus, tmp_path):
    from conftest import train_toy_model

    moved = shutil.copytree(toy_corpus.parent, tmp_path / "elsewhere" / "corpus")
    model, _ = train_toy_model(moved / toy_corpus.name)
    assert container.to_bytes(model) == container.to_bytes(toy_model[1])
