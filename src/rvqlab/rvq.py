"""Multi-stage residual vector quantization.

Each stage projects the current residual into a low-dimensional code space,
L2-normalizes it, and picks the nearest unit-norm codebook entry; the
entry's image under the stage's output projection is subtracted and the
next stage quantizes what is left.  Codebooks are trained by k-means++
seeded Lloyd iterations on the normalized projections, so training is
deterministic given a seed.  Streams are embedded: the first q' stages of
any stream are a valid lower-rate stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _workers
from .errors import CorruptTokens, InsufficientData, InvalidConfig, InvalidInput, check_array, check_int
from .frontend import FRAME_RATE, MAX_SEED, N_MELS, LatentSequence, _principal_basis

MAX_CODEBOOK_SIZE = 1 << 15  # largest power of two the .rvqs header's u16 K field holds
_LLOYD_MAX_ITER = 100
_LLOYD_REL_TOL = 1e-6
# Absolute floor of the stop test: an exact fit's distortion is rounding
# noise around zero, which a tolerance relative to it never covers.
_LLOYD_ABS_TOL = 1e-12
_NORM_EPS = 1e-12


@dataclass(frozen=True)
class RvqConfig:
    n_stages: int                    # Q
    codebook_size: int = 1024        # K = 2**bits
    code_dim: int = 8
    latent_dim: int = 64
    seed: int = 0

    def __post_init__(self):
        check_int("n_stages", self.n_stages, 1, 32, InvalidConfig)
        k = check_int("codebook_size", self.codebook_size, 2, MAX_CODEBOOK_SIZE, InvalidConfig)
        if k & (k - 1):
            raise InvalidConfig(f"codebook_size must be a power of two, got {k}")
        latent_dim = check_int("latent_dim", self.latent_dim, 1, N_MELS, InvalidConfig)
        check_int("code_dim", self.code_dim, 1, latent_dim, InvalidConfig)
        check_int("seed", self.seed, 0, MAX_SEED, InvalidConfig)

    @property
    def bits_per_code(self) -> int:
        return int(math.log2(self.codebook_size))


@dataclass(frozen=True)
class Codebook:
    """One RVQ stage: unit-norm entries plus the in/out projections."""

    entries: np.ndarray   # (K, code_dim), rows unit L2 norm
    in_proj: np.ndarray   # (code_dim, D), orthonormal rows
    out_proj: np.ndarray  # (D, code_dim)

    def __post_init__(self):
        for name in ("entries", "in_proj", "out_proj"):
            object.__setattr__(self, name, check_array(name, getattr(self, name), 2, InvalidConfig))
        if np.any(np.abs(np.linalg.norm(self.entries, axis=1) - 1.0) > 1e-9):
            raise InvalidConfig("codebook entries must be unit vectors")
        code_dim, dim = self.entries.shape[1], self.in_proj.shape[1]
        if self.in_proj.shape != (code_dim, dim) or self.out_proj.shape != (dim, code_dim):
            raise InvalidConfig(f"in_proj must be {code_dim} x D and out_proj D x {code_dim}")


@dataclass(frozen=True)
class RvqModel:
    config: RvqConfig
    stages: tuple            # Q Codebooks, in quantization order
    training_stats: np.ndarray = field(repr=False)  # per-stage MSE

    def __post_init__(self):
        cfg = self.config
        shape = ((cfg.codebook_size, cfg.code_dim), (cfg.code_dim, cfg.latent_dim))  # entries, in_proj
        if [(s.entries.shape, s.in_proj.shape) for s in self.stages] != [shape] * cfg.n_stages:
            raise InvalidConfig(f"need {cfg.n_stages} codebooks with (entries, in_proj) shapes {shape}")
        stats = check_array("training_stats", self.training_stats, 1, InvalidConfig)
        if stats.shape != (cfg.n_stages,):
            raise InvalidConfig(f"training_stats must hold {cfg.n_stages} values, got {stats.shape}")
        object.__setattr__(self, "training_stats", stats)

    @property
    def n_stages(self) -> int:
        return len(self.stages)


@dataclass(frozen=True)
class TokenStream:
    """T x q matrix of codeword indices plus the config they came from."""

    frames: np.ndarray
    codebook_size: int

    def __post_init__(self):
        k = check_int("codebook_size", self.codebook_size, 2, MAX_CODEBOOK_SIZE)
        if k & (k - 1):
            raise InvalidInput(f"codebook_size must be a power of two, got {k}")
        object.__setattr__(self, "codebook_size", k)
        frames = check_array("token frames", self.frames, 2)
        if not np.array_equal(frames, np.trunc(frames)):
            raise InvalidInput("token frames must hold integer values")
        if frames.shape[1] < 1:
            raise InvalidInput(f"token frames must be T x q with q >= 1, got shape {frames.shape}")
        if frames.size and (frames.min() < 0 or frames.max() >= self.codebook_size):
            raise CorruptTokens(f"token index out of range [0, {self.codebook_size})")
        frames = frames.astype(np.uint16)
        frames.flags.writeable = False  # the range checks above hold for good
        object.__setattr__(self, "frames", frames)

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def n_stages(self) -> int:
        return self.frames.shape[1]


def _normalize_rows(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    return x / np.maximum(norms, _NORM_EPS)


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: D^2-weighted sampling of k centers from points.

    Exactness contract: the points are held as (dim, N) columns, and d2
    adds each point's squared coordinate differences in coordinate order,
    where np.sum adds them in another.  d2 reaches the model only through
    the picks, and each pick is rng.choice(n, p=d2 / total): the cdf /
    searchsorted draw on one rng.random() is the one Generator.choice
    performs.  So a pick can differ from the textbook one only when
    rng.random() lands within d2's last-bit rounding of a cdf step.
    """
    n, dim = points.shape
    cols = np.ascontiguousarray(points.T)
    diff = np.empty_like(cols)

    def sq_dists(center):
        np.subtract(cols, center[:, None], out=diff)
        np.square(diff, out=diff)
        return diff.sum(axis=0)  # row after row: in coordinate order

    centers = np.empty((k, dim))
    first = int(rng.integers(n))
    centers[0] = points[first]
    d2 = sq_dists(centers[0])
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            pick = int(rng.integers(n))  # all points coincide with a center
        else:
            cdf = (d2 / total).cumsum()
            cdf /= cdf[-1]
            pick = int(cdf.searchsorted(rng.random(), side="right"))
        centers[i] = points[pick]
        np.minimum(d2, sq_dists(centers[i]), out=d2)
    return centers


def _best_columns(block: np.ndarray, centers_t: np.ndarray):
    """(argmax, max) of each row of block @ centers_t, ties to the lowest column.

    The sims block lives only inside this call, so each thread holds at most one.
    """
    sims = block @ centers_t
    local = np.argmax(sims, axis=1)
    return local, sims[np.arange(local.size), local]


def _two_or_more(idx: np.ndarray, total: int) -> np.ndarray:
    """idx, with a lone index repeated when it is a proper subset of range(total).

    numpy sends a 1-row or 1-column product to gemv, whose rounding may
    differ from the gemm blocks of the full product; two equal rows or
    columns keep the subset on gemm and change no argmax or max.
    """
    return np.repeat(idx, 2) if idx.size == 1 < total else idx


def kmeans_unit(points: np.ndarray, k: int, seed: int):
    """Spherical k-means on (mostly unit-norm) points.

    Centroids are re-normalized after every Lloyd update, which keeps the
    mean squared distance to assigned centroids nonincreasing for unit-norm
    data.  Empty clusters are re-seeded with the point currently farthest
    from its centroid, worst first.

    Exactness contract: assignments, best similarities, centroids and history
    equal, to the bit, those of recomputing the full points @ centroids.T
    product in every iteration.  A product entry depends only on its row and
    column, so row and column subsets of the product are bit-equal to it.
    After the first iteration only centroids whose bytes changed in the
    update ("moved", -0/+0 flips included) are looked at again.  Each point
    updates its stored best with one take rule: column j replaces it when
    its value is larger, or equal with j below the stored index, which is
    argmax's lowest-index tie rule.  A point whose own centroid moved starts
    from -inf and takes its full row, where the rule is plain argmax; any
    other point's stored best is the exact maximum over the unmoved columns,
    so it takes its row of the moved columns only.  A lone row or column of
    a subset is repeated (_two_or_more), so no subset product goes to gemv.
    Each row group is one _workers.map_rows split, with BLAS on each calling
    thread (_workers.blas_on_caller), whose chunks take their own rows only.

    Raises:
        InvalidConfig: k is not a positive integer or seed not a nonnegative one.
        InvalidInput: points is not a nonempty N x d array of finite values,
            or they are so large that a squared distance could overflow.

    Returns:
        (centroids, assignments, distortion_history)
    """
    k = check_int("k", k, 1, error=InvalidConfig)
    seed = check_int("seed", seed, 0, error=InvalidConfig)
    points = check_array("points", points, 2)
    if points.size == 0:
        raise InvalidInput(f"points must be a nonempty N x d array, got shape {points.shape}")
    n, dim = points.shape
    with np.errstate(over="ignore"):
        sq_norms = np.sum(points**2, axis=1)
        # Seeding sums n squared distances, each at most 4 * max |p|^2.
        bound = 4.0 * n * sq_norms.max()
    if not np.isfinite(bound):
        raise InvalidInput("points are too large: their squared distances overflow")
    rng = np.random.default_rng(seed)
    centers = _normalize_rows(_kmeans_pp_init(points, k, rng))
    # Cap each thread's sims block at ~32 MB: products of at most chunk rows.
    # A 4096 x 1024 float64 block is exactly 32 MiB, which glibc always serves
    # with a fresh mmap (and page faults) per product; blocks just below the
    # cap are reused from the heap after the first free.
    n_chunks = -(-(n * k) // (1 << 22))
    chunk = -(-n // n_chunks)
    history = []
    prev = None
    assign = np.zeros(n, dtype=np.int64)
    best_sim = np.empty(n)
    moved = np.ones(k, dtype=bool)

    def take(lo, hi):  # the take rule on rows group[lo:hi], at most chunk rows per product
        for start in range(lo, hi, chunk):
            rows = _two_or_more(group[start : min(start + chunk, hi)], n)
            local, sim = _best_columns(points[rows], cols_t)
            cand = cols[local]
            best = best_sim[rows]
            taken = (sim > best) | ((sim == best) & (cand < assign[rows]))
            assign[rows[taken]] = cand[taken]
            best_sim[rows[taken]] = sim[taken]

    for _ in range(_LLOYD_MAX_ITER):
        centers_t = centers.T.copy()
        own_moved = moved[assign]
        best_sim[own_moved] = -np.inf
        for mask, cols in ((own_moved, np.arange(k)), (~own_moved, np.flatnonzero(moved))):
            # With no moved column every stored best stands (and no own centroid moved).
            group = np.flatnonzero(mask) if cols.size else cols
            cols = _two_or_more(cols, k)
            cols_t = centers_t[:, cols]
            with _workers.blas_on_caller():
                _workers.map_rows(take, group.size)
        dists = sq_norms + 1.0 - 2.0 * best_sim
        distortion = float(np.mean(dists))
        history.append(distortion)
        if prev is not None and abs(prev - distortion) <= max(_LLOYD_REL_TOL * prev, _LLOYD_ABS_TOL):
            break
        prev = distortion

        before = centers.copy()
        counts = np.bincount(assign, minlength=k)
        sums = np.column_stack(
            [np.bincount(assign, weights=points[:, j], minlength=k) for j in range(dim)]
        )
        nonempty = counts > 0
        means = sums[nonempty] / counts[nonempty, None]
        # A cluster whose members cancel keeps its previous centroid; a
        # zero-norm centroid would break both the unit-norm invariant and
        # the monotone-distortion argument.
        degenerate = np.linalg.norm(means, axis=1) < _NORM_EPS
        means[degenerate] = centers[nonempty][degenerate]
        centers[nonempty] = _normalize_rows(means)
        empty = np.flatnonzero(~nonempty)
        if empty.size:
            worst = np.argsort(dists)[::-1]
            for slot, point_idx in zip(empty, worst[: empty.size]):
                centers[slot] = _normalize_rows(points[point_idx : point_idx + 1])[0]
        moved = np.any(centers.view(np.uint64) != before.view(np.uint64), axis=1)
    return centers, assign, history


def train_rvq(latents: np.ndarray, config: RvqConfig) -> RvqModel:
    """Train the stage codebooks by residual k-means on an N x latent_dim array.

    Each stage fits its input projection to the current residuals, runs
    seeded k-means++ / Lloyd on the normalized projections, folds the
    least-squares reconstruction gain into the output projection, subtracts
    the quantized values, and records the remaining mean squared error.
    """
    data = check_array("training latents", latents, 2)
    if data.shape[1] != config.latent_dim:
        raise InvalidInput(f"training latents must be N x {config.latent_dim}, got {data.shape}")
    if data.shape[0] < 10 * config.codebook_size:
        raise InsufficientData(
            f"need at least {10 * config.codebook_size} training frames, got {data.shape[0]}"
        )

    residual = data.copy()
    stages = []
    stats = []
    for stage_idx in range(config.n_stages):
        # Top code_dim principal directions of the (uncentered) residual cloud.
        _, in_proj = _principal_basis(residual.T @ residual / residual.shape[0], config.code_dim)
        projected = residual @ in_proj.T
        normalized = _normalize_rows(projected)
        entries, assign, _ = kmeans_unit(
            normalized, config.codebook_size, seed=config.seed + stage_idx
        )
        # Least-squares gain: the unit entries only carry direction, so the
        # reconstruction scale that minimizes the residual is the mean
        # alignment between residuals and their selected directions.
        directions = entries[assign] @ in_proj  # (N, D), unit rows
        gain = float(np.sum(residual * directions) / max(len(residual), 1))
        out_proj = gain * in_proj.T
        stages.append(Codebook(entries, in_proj, out_proj))
        residual -= entries[assign] @ out_proj.T
        stats.append(float(np.mean(residual**2)))
    return RvqModel(config=config, stages=tuple(stages), training_stats=np.array(stats))


def quantize(model: RvqModel, latents: LatentSequence, n_stages: int) -> TokenStream:
    """Greedy per-stage quantization of a latent sequence.

    Per frame and stage: project the residual, L2-normalize, pick the
    nearest entry (lowest index on ties), subtract its reconstruction, and
    continue with the next stage.

    Each stage's nearest entries are picked in row chunks on the calling
    thread and the idle helpers (rvqlab._workers.map_frames); the rest of
    the stage is one product over every frame.  OpenBLAS picks its kernel
    by a product's shape, and its kernels round the projection's D-term
    sums differently for few rows and many, while the similarities'
    code_dim-term sums came out the same for every row count from two up,
    so tokens do not depend on the chunks (tests/test_rvq.py checks both).
    """
    n_stages = check_int("n_stages", n_stages, 1, model.n_stages)
    if latents.dim != model.config.latent_dim:
        raise InvalidInput(
            f"latents have dimension {latents.dim}, model expects {model.config.latent_dim}"
        )
    tokens = np.empty((latents.n_frames, n_stages), dtype=np.uint16)
    residual = latents.frames.copy()

    def pick(lo, hi):  # stage i's tokens of rows lo:hi
        # Unit vectors both sides: nearest by distance == max cosine, and
        # argmax resolves ties toward the lowest index.
        tokens[lo:hi, i] = np.argmax(normalized[lo:hi] @ stage.entries.T, axis=1)

    for i, stage in enumerate(model.stages[:n_stages]):
        normalized = _normalize_rows(residual @ stage.in_proj.T)
        _workers.map_frames(pick, latents.n_frames)
        residual -= stage.entries[tokens[:, i]] @ stage.out_proj.T
    return TokenStream(tokens, model.config.codebook_size)


def dequantize(model: RvqModel, tokens: TokenStream, n_stages: int) -> LatentSequence:
    """Sum the first n_stages codeword reconstructions per frame.

    The products are einsum reductions, which call no BLAS, so the latents
    do not depend on the BLAS thread count.
    """
    n_stages = check_int("n_stages", n_stages, 1, tokens.n_stages)
    if tokens.n_stages > model.n_stages:
        raise InvalidInput(
            f"stream has {tokens.n_stages} stages but model only {model.n_stages}"
        )
    if tokens.codebook_size != model.config.codebook_size:
        raise CorruptTokens(
            f"stream codebook size {tokens.codebook_size} != model {model.config.codebook_size}"
        )
    out = np.zeros((tokens.n_frames, model.config.latent_dim))
    for i in range(n_stages):
        stage = model.stages[i]
        out += np.einsum("tc,dc->td", stage.entries[tokens.frames[:, i]], stage.out_proj)
    return LatentSequence(out)


def bitrate(config: RvqConfig, n_stages: int) -> int:
    """Bits per second for an n_stages stream: q * log2(K) * FRAME_RATE."""
    return check_int("n_stages", n_stages, 1, config.n_stages) * config.bits_per_code * FRAME_RATE


def stage_distortions(model: RvqModel, latents: LatentSequence) -> np.ndarray:
    """Mean squared error of the q-stage reconstruction, for q = 1 to all of
    the model's stages."""
    tokens = quantize(model, latents, model.n_stages)
    return np.array([
        float(np.mean((latents.frames - dequantize(model, tokens, q).frames) ** 2))
        for q in range(1, model.n_stages + 1)
    ])
