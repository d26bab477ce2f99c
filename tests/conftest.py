import json
import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Every run draws the same examples, so a property failure reproduces
# instead of flickering between runs.
settings.register_profile("rvqlab", derandomize=True, deadline=None, database=None)
settings.load_profile("rvqlab")

from rvqlab.datapipe import QualityCategory  # noqa: E402
from rvqlab.dsp import AudioBuffer  # noqa: E402
from rvqlab.wavio import write_wav  # noqa: E402

from signals import speech_like  # noqa: E402


def make_corpus(
    root, per_category=2, duration=2.0, base_seed=0, name="manifest.jsonl", rates=(24000,), seed_step=7
):
    """Write a small balanced speech-like corpus and its JSONL manifest."""
    root.mkdir(parents=True, exist_ok=True)
    lines = []
    seed = base_seed
    for category in QualityCategory:
        for j in range(per_category):
            sr = rates[(seed + j) % len(rates)]
            fname = f"{category.value.lower()}_{j}.wav"
            x = speech_like(duration, sr, seed)
            write_wav(root / fname, AudioBuffer(x, sr))
            lines.append(
                json.dumps(
                    {
                        "path": fname,
                        "category": category.value,
                        "duration": len(x) / sr,
                        "sample_rate": sr,
                    }
                )
            )
            seed += seed_step
    manifest = root / name
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


def make_toy_corpus(root):
    """The toy corpus: twelve 2 s speech-like 24 kHz files, two per category."""
    return make_corpus(root, per_category=2, duration=2.0, base_seed=11)


def train_toy_model(manifest_path):
    """(model, summary) of the toy model: Q=4, K=16, D=16, seed 5."""
    from rvqlab.datapipe import load_manifest
    from rvqlab.training import train_codec

    return train_codec(
        load_manifest(manifest_path),
        n_stages=4,
        codebook_size=16,
        latent_dim=16,
        code_dim=8,
        seed=5,
        n_batches=6,
        batch_size=12,
    )


def make_desk_corpus(root):
    """The desk corpus: sixty-six 30 s speech-like 24 kHz files, 11 per category (33 minutes)."""
    return make_corpus(root, per_category=11, duration=30.0, base_seed=9000, name="train.jsonl", seed_step=13)


def make_desk_held(root):
    """The desk held-out set: two 2 s speech-like 24 kHz files per category."""
    root.mkdir(parents=True, exist_ok=True)
    lines = []
    for i, category in enumerate(QualityCategory):
        for j in range(2):
            fname = f"h_{category.value.lower()}_{j}.wav"
            x = speech_like(2.0, 24000, 77000 + i * 31 + j)
            write_wav(root / fname, AudioBuffer(x, 24000))
            lines.append(
                json.dumps(
                    {"path": fname, "category": category.value, "duration": 2.0, "sample_rate": 24000}
                )
            )
    manifest = root / "held.jsonl"
    manifest.write_text("\n".join(lines))
    return manifest


def train_desk_model(manifest_path):
    """(model, summary) of the desk model: Q=32, K=1024, D=64, seed 0, 30000 RVQ frames."""
    from rvqlab.datapipe import load_manifest
    from rvqlab.training import train_codec

    return train_codec(
        load_manifest(manifest_path),
        n_stages=32,
        codebook_size=1024,
        latent_dim=64,
        code_dim=8,
        seed=0,
        n_batches=30,
        batch_size=72,
        max_rvq_frames=30000,
    )


def evaluate_desk_model(model, held_manifest_path):
    """The held-out eval report of the desk model at q = 1, 2, 4, 8, 16, 32, decoded
    with the shipped Griffin-Lim (GL_ITERATIONS fast iterations)."""
    from rvqlab.datapipe import load_manifest
    from rvqlab.evalstats import run_evaluation

    held = load_manifest(held_manifest_path)
    return run_evaluation(model, {"held": held}, q_list=[1, 2, 4, 8, 16, 32])


@pytest.fixture(scope="session")
def toy_corpus(tmp_path_factory):
    return make_toy_corpus(tmp_path_factory.mktemp("toy_corpus"))


@pytest.fixture(scope="session")
def toy_model(tmp_path_factory, toy_corpus):
    """A small trained container on disk, shared by CLI and eval tests."""
    from rvqlab import container

    model, summary = train_toy_model(toy_corpus)
    path = tmp_path_factory.mktemp("toy_model") / "model.rvqm"
    container.save(model, path)
    return path, model, summary
