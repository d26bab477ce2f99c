import shutil

import pytest

from rvqlab import container, datapipe
from rvqlab.datapipe import load_manifest
from rvqlab.errors import InvalidInput
from rvqlab.training import train_codec


@pytest.mark.parametrize("max_rvq_frames", [0, -1])
def test_max_rvq_frames_below_one_rejected_before_reading_audio(toy_corpus, monkeypatch, max_rvq_frames):
    manifest = load_manifest(toy_corpus)

    def no_reads(path):
        raise AssertionError(f"read {path} before validating max_rvq_frames")

    monkeypatch.setattr(datapipe, "read_wav", no_reads)
    with pytest.raises(InvalidInput, match="max_rvq_frames"):
        train_codec(manifest, n_stages=1, codebook_size=16, latent_dim=8, max_rvq_frames=max_rvq_frames)


def test_same_corpus_elsewhere_gives_same_container_bytes(toy_model, toy_corpus, tmp_path):
    from conftest import train_toy_model

    moved = shutil.copytree(toy_corpus.parent, tmp_path / "elsewhere" / "corpus")
    model, _ = train_toy_model(moved / toy_corpus.name)
    assert container.to_bytes(model) == container.to_bytes(toy_model[1])
