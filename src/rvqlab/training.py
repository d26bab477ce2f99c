"""End-to-end training pipeline: balanced excerpts -> frontend PCA -> RVQ."""

from __future__ import annotations

import hashlib
from collections import Counter

import numpy as np

from .container import ModelContainer
from .datapipe import BatchSpec, sample_batch, summarize_manifest
from .errors import InsufficientData, check_int
from .frontend import HOP, _analysis_log_mel, _fit_log_mel, _project
from .rvq import RvqConfig, train_rvq


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
    wall-clock fields so identical seeds produce identical bytes.  Every
    setting is checked before any audio is read, the frame count they fix
    too: InsufficientData unless it is at least 10 * latent_dim and, capped
    at max_rvq_frames, at least 10 * codebook_size.

    Each excerpt is counted, hashed and analysed on the calling thread, in
    batch order, and each batch's audio is dropped before the next batch is
    read.  RVQ training holds only the frontend and the at most
    max_rvq_frames latents it trains on (29 MiB at the defaults): no audio,
    no log-mel frames and not the full latent matrix.
    """
    n_batches = check_int("n_batches", n_batches, 1)
    max_rvq_frames = check_int("max_rvq_frames", max_rvq_frames, 1)
    config = RvqConfig(
        n_stages=n_stages,
        codebook_size=codebook_size,
        code_dim=code_dim,
        latent_dim=latent_dim,
        seed=seed,
    )
    spec = BatchSpec(batch_size=batch_size, excerpt_samples=excerpt_samples, seed=seed)
    # Every excerpt is excerpt_samples long, so the settings fix the frame count.
    frames_total = n_batches * spec.batch_size * (spec.excerpt_samples // HOP)
    drawn = (f"n_batches={n_batches} x batch_size={spec.batch_size} x "
             f"excerpt_samples={spec.excerpt_samples} / {HOP} = {frames_total} frames")
    if frames_total < 10 * config.latent_dim:
        raise InsufficientData(f"latent_dim={config.latent_dim} needs {10 * config.latent_dim} frames; {drawn}")
    if min(frames_total, max_rvq_frames) < 10 * config.codebook_size:
        raise InsufficientData(f"codebook_size={config.codebook_size} needs {10 * config.codebook_size} "
                               f"frames; {drawn}, max_rvq_frames={max_rvq_frames}")
    # One pass over the excerpts, a batch at a time: count each category, hash
    # the samples in training order and keep only the log-mel frames.  No file
    # path enters the hash, so one corpus gives one .rvqm wherever it is stored.
    balance = Counter()
    corpus = hashlib.sha256(repr((spec.batch_size, spec.excerpt_samples, spec.seed, n_batches)).encode())
    frame_sets = []
    for batch_index in range(n_batches):
        batch = sample_batch(manifest, spec, batch_index)
        for excerpt in batch:
            balance[excerpt.entry.category.value] += 1
            corpus.update(np.ascontiguousarray(excerpt.audio.samples, dtype="<f8"))
            frame_sets.append(_analysis_log_mel(excerpt.audio))
        del batch, excerpt  # before the next batch is read
    frontend = _fit_log_mel(frame_sets, latent_dim, seed)
    latents = np.vstack([_project(frontend, f).frames for f in frame_sets])
    del frame_sets  # frames now projected
    if frames_total > max_rvq_frames:
        keep = np.random.default_rng(seed).choice(frames_total, size=max_rvq_frames, replace=False)
        latents = latents[np.sort(keep)]

    rvq_model = train_rvq(latents, config)

    container = ModelContainer(
        frontend=frontend,
        rvq=rvq_model,
        metadata={
            "corpus_hash": corpus.hexdigest()[:16],
            "seed": str(seed),
            "excerpts": str(sum(balance.values())),
            "rvq_frames": str(latents.shape[0]),
        },
    )
    summary = {
        "balance": dict(sorted(balance.items())),
        "manifest": summarize_manifest(manifest),
        "frames_total": frames_total,
        "rvq_frames": latents.shape[0],
        "explained_variance_top_d": float(
            frontend.explained_variance[:latent_dim].sum()
        ),
        "stage_mse": [float(v) for v in rvq_model.training_stats],
    }
    return container, summary
