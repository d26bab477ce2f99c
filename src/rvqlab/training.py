"""End-to-end training pipeline: balanced excerpts -> frontend PCA -> RVQ."""

from __future__ import annotations

import hashlib

import numpy as np

from .container import ModelContainer
from .datapipe import BatchSpec, sample_batch, summarize_manifest
from .errors import InvalidInput
from .frontend import _analysis_log_mel, _fit_log_mel, _project
from .rvq import RvqConfig, train_rvq


def _corpus_hash(excerpts, spec: BatchSpec, n_batches: int) -> str:
    """Hash of what training consumed: the batch settings and every excerpt's
    samples in training order.  No file path enters it, so one corpus gives
    one hash, and one .rvqm, wherever it is stored."""
    h = hashlib.sha256(repr((spec.batch_size, spec.excerpt_samples, spec.seed, n_batches)).encode())
    for excerpt in excerpts:
        h.update(np.ascontiguousarray(excerpt.audio.samples, dtype="<f8"))
    return h.hexdigest()[:16]


def _fit_and_encode(excerpts, latent_dim: int, seed: int):
    """Fit the frontend on the excerpts and return it with their stacked
    latents, analysing each excerpt once."""
    frame_sets = [_analysis_log_mel(e.audio) for e in excerpts]
    frontend = _fit_log_mel(frame_sets, latent_dim, seed)
    return frontend, np.vstack([_project(frontend, f).frames for f in frame_sets])


def train_codec(
    manifest,
    n_stages: int = 32,
    codebook_size: int = 1024,
    latent_dim: int = 64,
    code_dim: int = 8,
    seed: int = 0,
    n_batches: int = 50,
    batch_size: int = 72,
    excerpt_samples: int = 9280,
    max_rvq_frames: int = 60000,
):
    """Train frontend and RVQ from balanced excerpts of a manifest.

    Returns (ModelContainer, summary) where summary carries the data
    balance, explained variance, and per-stage training distortions.
    Deterministic given the seed; the container metadata deliberately skips
    wall-clock fields so identical seeds produce identical bytes.
    """
    if max_rvq_frames < 1:
        raise InvalidInput(f"max_rvq_frames must be >= 1, got {max_rvq_frames}")
    spec = BatchSpec(batch_size=batch_size, excerpt_samples=excerpt_samples, seed=seed)
    excerpts = []
    for batch_index in range(n_batches):
        excerpts.extend(sample_batch(manifest, spec, batch_index))

    balance = {}
    for excerpt in excerpts:
        balance[excerpt.entry.category.value] = balance.get(excerpt.entry.category.value, 0) + 1

    frontend, latents = _fit_and_encode(excerpts, latent_dim, seed)

    if latents.shape[0] > max_rvq_frames:
        rng = np.random.default_rng(seed)
        keep = np.sort(rng.choice(latents.shape[0], size=max_rvq_frames, replace=False))
        rvq_latents = latents[keep]
    else:
        rvq_latents = latents

    config = RvqConfig(
        n_stages=n_stages,
        codebook_size=codebook_size,
        code_dim=code_dim,
        latent_dim=latent_dim,
        seed=seed,
    )
    rvq_model = train_rvq(rvq_latents, config)

    container = ModelContainer(
        frontend=frontend,
        rvq=rvq_model,
        metadata={
            "corpus_hash": _corpus_hash(excerpts, spec, n_batches),
            "seed": str(seed),
            "excerpts": str(len(excerpts)),
            "rvq_frames": str(rvq_latents.shape[0]),
        },
    )
    summary = {
        "balance": dict(sorted(balance.items())),
        "manifest": summarize_manifest(manifest),
        "frames_total": int(latents.shape[0]),
        "rvq_frames": int(rvq_latents.shape[0]),
        "explained_variance_top_d": float(
            frontend.explained_variance[:latent_dim].sum()
        ),
        "stage_mse": [float(v) for v in rvq_model.training_stats],
    }
    return container, summary
