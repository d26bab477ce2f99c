from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvqlab import _workers, rvq
from rvqlab._workers import _MIN_SPLIT_FRAMES
from rvqlab.errors import CorruptTokens, InsufficientData, InvalidConfig, InvalidInput
from rvqlab.frontend import FRAME_RATE, LatentSequence
from rvqlab.rvq import (
    _LLOYD_ABS_TOL,
    _LLOYD_MAX_ITER,
    _LLOYD_REL_TOL,
    _NORM_EPS,
    Codebook,
    RvqConfig,
    RvqModel,
    TokenStream,
    _normalize_rows,
    bitrate,
    dequantize,
    kmeans_unit,
    quantize,
    stage_distortions,
    train_rvq,
)


def _gaussian_latents(n, dim, seed, scale=4.0):
    rng = np.random.default_rng(seed)
    return scale * rng.standard_normal((n, dim))


def _reference_kmeans_pp_init(points, k, rng):
    """Oracle: textbook k-means++ with np.sum distances and rng.choice draws."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    first = int(rng.integers(n))
    centers[0] = points[first]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            pick = int(rng.integers(n))
        else:
            pick = int(rng.choice(n, p=d2 / total))
        centers[i] = points[pick]
        d2 = np.minimum(d2, np.sum((points - centers[i]) ** 2, axis=1))
    return centers


def _reference_kmeans_unit(points, k, seed):
    """Oracle: spherical Lloyd over sims blocks of 2^22 // k rows plus a remainder."""
    rng = np.random.default_rng(seed)
    centers = _normalize_rows(_reference_kmeans_pp_init(points, k, rng))
    sq_norms = np.sum(points**2, axis=1)
    n, dim = points.shape
    chunk = max(1, (1 << 22) // max(k, 1))
    history = []
    prev = None
    assign = np.empty(n, dtype=np.int64)
    best_sim = np.empty(n)
    for _ in range(_LLOYD_MAX_ITER):
        centers_t = centers.T.copy()
        for start in range(0, n, chunk):
            stop = min(start + chunk, n)
            sims = points[start:stop] @ centers_t
            local = np.argmax(sims, axis=1)
            assign[start:stop] = local
            best_sim[start:stop] = sims[np.arange(stop - start), local]
        dists = sq_norms + 1.0 - 2.0 * best_sim
        distortion = float(np.mean(dists))
        history.append(distortion)
        if prev is not None and abs(prev - distortion) <= max(_LLOYD_REL_TOL * prev, _LLOYD_ABS_TOL):
            break
        prev = distortion
        counts = np.bincount(assign, minlength=k)
        sums = np.column_stack(
            [np.bincount(assign, weights=points[:, j], minlength=k) for j in range(dim)]
        )
        nonempty = counts > 0
        means = sums[nonempty] / counts[nonempty, None]
        degenerate = np.linalg.norm(means, axis=1) < _NORM_EPS
        means[degenerate] = centers[nonempty][degenerate]
        centers[nonempty] = _normalize_rows(means)
        empty = np.flatnonzero(~nonempty)
        if empty.size:
            worst = np.argsort(dists)[::-1]
            for slot, point_idx in zip(empty, worst[: empty.size]):
                centers[slot] = _normalize_rows(points[point_idx : point_idx + 1])[0]
    return centers, assign, history


def _unit_points(n, dim, seed):
    return _normalize_rows(np.random.default_rng(seed).standard_normal((n, dim)))


def _lattice_points(n, seed, high=3):
    """n 2-D points with small nonnegative integer coordinates, none zero.

    Their directions repeat, so centroids coincide to the bit and a moved
    centroid often ties exactly with an unmoved one.
    """
    points = np.random.default_rng(seed).integers(0, high + 1, (n, 2)).astype(float)
    points[np.all(points == 0, axis=1), 0] = 1.0
    return points


@pytest.fixture(scope="module")
def small_model():
    data = _gaussian_latents(2000, 16, seed=1)
    config = RvqConfig(n_stages=4, codebook_size=16, code_dim=8, latent_dim=16, seed=3)
    return train_rvq(data, config), data


class TestTrainRvq:
    def test_perfect_fit_for_equal_norm_vectors(self):
        # K distinct equal-norm vectors (each given 10 times to satisfy the
        # data floor) are exactly representable by a single stage.
        rng = np.random.default_rng(0)
        k = 16
        dirs = rng.standard_normal((k, 8))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        vectors = 3.7 * dirs
        data = np.repeat(vectors, 10, axis=0)
        config = RvqConfig(n_stages=1, codebook_size=k, code_dim=8, latent_dim=8, seed=0)
        model = train_rvq(data, config)
        assert model.training_stats[-1] == pytest.approx(0.0, abs=1e-18)

    def test_stage_mse_nonincreasing(self):
        for seed in range(10):
            data = _gaussian_latents(1500, 12, seed=seed + 50)
            config = RvqConfig(n_stages=4, codebook_size=16, code_dim=6, latent_dim=12, seed=seed)
            model = train_rvq(data, config)
            assert np.all(np.diff(model.training_stats) <= 1e-12)

    def test_lloyd_distortion_nonincreasing(self):
        # Textbook Lloyd guarantee, asserted directly on the k-means engine.
        for seed in range(10):
            rng = np.random.default_rng(seed + 200)
            points = rng.standard_normal((800, 8))
            points /= np.linalg.norm(points, axis=1, keepdims=True)
            _, _, history = kmeans_unit(points, 32, seed=seed)
            history = np.asarray(history)
            assert np.all(np.diff(history) <= 1e-9 * np.maximum(history[:-1], 1e-30))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_exact_fit_stops(self, seed):
        # 6 distinct points for 40 centroids fit exactly: every distortion is
        # rounding noise around zero, so the second iteration must stop.
        points = np.repeat(_unit_points(6, 8, seed=seed), 10, axis=0)
        _, _, history = kmeans_unit(points, 40, seed)
        assert len(history) == 2

    def test_insufficient_data(self):
        config = RvqConfig(n_stages=1, codebook_size=1024, code_dim=8, latent_dim=16, seed=0)
        with pytest.raises(InsufficientData):
            train_rvq(_gaussian_latents(100, 16, seed=0), config)

    def test_nan_rejected(self):
        data = _gaussian_latents(200, 8, seed=0)
        data[5, 3] = np.nan
        config = RvqConfig(n_stages=1, codebook_size=16, code_dim=4, latent_dim=8, seed=0)
        with pytest.raises(InvalidInput):
            train_rvq(data, config)

    def test_deterministic(self):
        data = _gaussian_latents(500, 8, seed=9)
        config = RvqConfig(n_stages=2, codebook_size=16, code_dim=4, latent_dim=8, seed=11)
        a = train_rvq(data, config)
        b = train_rvq(data, config)
        for sa, sb in zip(a.stages, b.stages):
            assert np.array_equal(sa.entries, sb.entries)
            assert np.array_equal(sa.out_proj, sb.out_proj)

    def test_entries_unit_norm(self, small_model):
        model, _ = small_model
        for stage in model.stages:
            np.testing.assert_allclose(np.linalg.norm(stage.entries, axis=1), 1.0, atol=1e-9)

    def test_config_validation(self):
        with pytest.raises(InvalidConfig):
            RvqConfig(n_stages=0)
        with pytest.raises(InvalidConfig):
            RvqConfig(n_stages=33)
        with pytest.raises(InvalidConfig):
            RvqConfig(n_stages=4, codebook_size=1000)
        with pytest.raises(InvalidConfig):
            RvqConfig(n_stages=4, code_dim=80, latent_dim=64)
        with pytest.raises(InvalidConfig):
            RvqConfig(n_stages=4, codebook_size=1 << 16)
        with pytest.raises(InvalidConfig):
            RvqConfig(n_stages=4, seed=-1)


class TestKmeansRejects:
    """kmeans_unit raises typed errors before seeding, never numpy's."""

    @pytest.mark.parametrize(
        "points, k, seed, error",
        [
            (_unit_points(50, 4, seed=0), 0, 0, InvalidConfig),
            (_unit_points(50, 4, seed=0), -1, 0, InvalidConfig),
            (_unit_points(50, 4, seed=0), 2.5, 0, InvalidConfig),
            (_unit_points(50, 4, seed=0), 4, -1, InvalidConfig),
            (np.empty((0, 4)), 4, 0, InvalidInput),
            (np.ones(8), 2, 0, InvalidInput),
            (np.where(np.arange(50)[:, None] == 7, np.nan, _unit_points(50, 4, seed=0)), 4, 0,
             InvalidInput),
            (np.array([[1e308, 1e308], [1.0, 2.0], [3.0, -1e308]]), 2, 0, InvalidInput),
            (np.array([[1.2e154, 0.0], [-1.2e154, 0.0], [1.0, 1.0]]), 2, 0, InvalidInput),
        ],
        ids=["k-zero", "k-negative", "k-fractional", "seed-negative", "no-points", "one-d",
             "nan-row", "norm-overflows", "distance-overflows"],
    )
    def test_typed_errors(self, points, k, seed, error):
        with pytest.raises(error):
            kmeans_unit(points, k, seed)


class TestKmeansMatchesReference:
    """kmeans_unit returns the reference's centroids, assignments and history to the bit."""

    @staticmethod
    def _assert_same(points, k, seed):
        want = _reference_kmeans_unit(points, k, seed)
        got = kmeans_unit(points, k, seed)
        for g, w in zip(got[:2], want[:2]):
            assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())
        assert got[2] == want[2]

    @pytest.mark.parametrize("dim", [1, 3, 8, 13])
    def test_dims(self, dim):
        self._assert_same(_unit_points(900, dim, seed=dim), 32, seed=dim + 1)

    def test_multi_chunk(self):
        # N * K > 2^22: the reference splits 4096 + 904 rows, kmeans_unit 2500 + 2500.
        self._assert_same(_unit_points(5000, 8, seed=21), 1024, seed=4)

    def test_duplicate_points(self):
        points = _unit_points(600, 8, seed=22)
        points[::3] = points[0]
        points[1::7] = points[5]
        self._assert_same(points, 64, seed=6)

    def test_ties_between_moved_and_unmoved_centroids(self):
        # Several of these seeds need the lowest-index tie rule between a
        # moved column and a point's stored best to match.
        for seed in range(20):
            self._assert_same(_lattice_points(30, seed), 8, seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_empty_cluster_reseeds(self, seed):
        # 6 distinct points for 40 centroids: empty clusters every iteration.
        points = np.repeat(_unit_points(6, 8, seed=seed), 10, axis=0)
        self._assert_same(points, 40, seed)

    @pytest.mark.parametrize("seed", [11, 14, 27, 30])
    def test_antipodal_degenerate_cluster(self, seed):
        # A zero centroid (from the zero row) ties with e1 on the pair +-e2,
        # so its members cancel and it keeps its previous centroid.
        points = np.array([[0, 0], [1, 0], [1, 0], [1, 0], [0, 1], [0, -1]], dtype=float)
        self._assert_same(points, 2, seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_zero_rows(self, seed):
        points = _unit_points(60, 4, seed=seed)
        points[::4] = 0.0
        self._assert_same(points, 16, seed)

    @pytest.mark.parametrize(
        "points, k, seed",
        [
            (_lattice_points(30, 8), 8, 8),  # an iteration where one centroid moved
            (_unit_points(30, 2, seed=9), 5, 9),  # an iteration with one candidate row
        ],
        ids=["one-moved-centroid", "one-candidate-row"],
    )
    def test_subset_products_never_use_gemv(self, monkeypatch, points, k, seed):
        # numpy sends a 1-row or 1-column product to gemv, whose rounding may
        # differ from gemm's: every product must have two rows and two columns.
        calls = []
        best_columns = rvq._best_columns

        def spy(block, centers_t):
            calls.append((block, centers_t))
            return best_columns(block, centers_t)

        monkeypatch.setattr(rvq, "_best_columns", spy)
        self._assert_same(points, k, seed)
        assert all(block.shape[0] >= 2 and cols.shape[1] >= 2 for block, cols in calls)
        # The case really has a lone row or a lone moved column, repeated.
        assert any(
            (block.shape[0] == 2 and np.array_equal(block[0], block[1]))
            or (cols.shape[1] == 2 and np.array_equal(cols[:, 0], cols[:, 1]))
            for block, cols in calls
        )

    @settings(max_examples=80, deadline=None)
    @given(
        dim=st.integers(min_value=1, max_value=200),
        n=st.integers(min_value=2, max_value=40),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_seeding_matches_textbook_at_every_dim(self, dim, n, seed):
        # Seeding adds d2 in coordinate order and np.sum does not; the picks
        # must agree all the same.  Magnitudes over 16 decades make the sum
        # depend on the addition order; zero and near-equal rows give zero and
        # tiny distances.
        rng = np.random.default_rng(seed)
        points = rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-8, 9, (n, dim))
        points[rng.random(n) < 0.2] = 0.0
        near = rng.random(n) < 0.2
        points[near] = points[0] * (1.0 + 1e-15 * rng.standard_normal(dim))
        k = n // 2
        got = rvq._kmeans_pp_init(points, k, np.random.default_rng(seed))
        want = _reference_kmeans_pp_init(points, k, np.random.default_rng(seed))
        assert got.tobytes() == want.tobytes()


class TestQuantize:
    def test_exact_direction_hits_its_entry(self, small_model):
        model, _ = small_model
        stage = model.stages[0]
        target = 7
        # Build a frame whose stage-1 projected direction is exactly entry 7.
        frame = 5.0 * (stage.entries[target] @ stage.in_proj)
        tokens = quantize(model, LatentSequence(frame[None, :]), 1)
        assert tokens.frames[0, 0] == target

    def test_matches_exhaustive_oracle(self, small_model):
        # Brute-force per-stage scan: recompute every stage's argmin over all
        # K entries by explicit squared distances in normalized code space.
        model, _ = small_model
        rng = np.random.default_rng(77)
        frames = 4.0 * rng.standard_normal((50, 16))
        tokens = quantize(model, LatentSequence(frames), 3)

        for n in range(frames.shape[0]):
            residual = frames[n].copy()
            for s in range(3):
                stage = model.stages[s]
                z = residual @ stage.in_proj.T
                norm = np.linalg.norm(z)
                zn = z / norm if norm > 1e-12 else z
                dists = [float(np.sum((zn - e) ** 2)) for e in stage.entries]
                best = min(range(len(dists)), key=lambda i: (dists[i], i))
                assert tokens.frames[n, s] == best
                residual = residual - stage.entries[best] @ stage.out_proj.T

    def test_rate_example(self):
        # q=4 at 75 Hz, 10-bit codebooks: 300 tokens/s, 3000 bps.
        config = RvqConfig(n_stages=4, codebook_size=1024, code_dim=8, latent_dim=64)
        assert 4 * FRAME_RATE == 300
        assert bitrate(config, 4) == 3000

    def test_q_out_of_range(self, small_model):
        model, _ = small_model
        lat = LatentSequence(np.zeros((3, 16)))
        with pytest.raises(InvalidInput):
            quantize(model, lat, 0)
        with pytest.raises(InvalidInput):
            quantize(model, lat, 5)

    def test_deterministic(self, small_model):
        model, _ = small_model
        lat = LatentSequence(_gaussian_latents(64, 16, seed=5))
        a = quantize(model, lat, 4)
        b = quantize(model, lat, 4)
        assert np.array_equal(a.frames, b.frames)


def _reference_quantize(model, frames, n_stages):
    """The greedy loop with every product over all frames at once."""
    tokens = np.empty((len(frames), n_stages), dtype=np.uint16)
    residual = frames.copy()
    for i, stage in enumerate(model.stages[:n_stages]):
        idx = np.argmax(_normalize_rows(residual @ stage.in_proj.T) @ stage.entries.T, axis=1)
        tokens[:, i] = idx
        residual -= stage.entries[idx] @ stage.out_proj.T
    return tokens


@pytest.fixture(scope="module")
def codec_sized_model():
    """Random stages of the codec's shape, K=1024 and D=64: the projection
    sums 64 terms, which BLAS kernels for different row counts may round
    differently."""
    rng = np.random.default_rng(41)
    stages = []
    for _ in range(8):
        entries = rng.standard_normal((1024, 8))
        entries /= np.linalg.norm(entries, axis=1, keepdims=True)
        in_proj = np.linalg.qr(rng.standard_normal((64, 8)))[0].T.copy()
        stages.append(Codebook(entries, in_proj, 0.3 * rng.standard_normal((64, 8))))
    return RvqModel(RvqConfig(8, 1024, 8, 64), tuple(stages), np.zeros(8))


class TestQuantizeRowChunks:
    @pytest.mark.parametrize("n_frames", [29, _MIN_SPLIT_FRAMES - 1, _MIN_SPLIT_FRAMES,
                                          _MIN_SPLIT_FRAMES + 1, _MIN_SPLIT_FRAMES + 2, 151, 751])
    def test_any_split_equals_the_whole_products(self, codec_sized_model, n_frames, monkeypatch):
        frames = _gaussian_latents(n_frames, 64, seed=n_frames)
        expected = _reference_quantize(codec_sized_model, frames, 8)
        projected = []  # the shape of each projection that is normalized
        monkeypatch.setattr(rvq, "_normalize_rows", lambda x: projected.append(x.shape) or _normalize_rows(x))
        for cpus in (1, 2, 4):
            monkeypatch.setattr(_workers, "_cpu_count", lambda: cpus)
            projected.clear()
            tokens = quantize(codec_sized_model, LatentSequence(frames), 8)
            assert tokens.frames.tobytes() == expected.tobytes(), cpus
            # Tokens rarely show a projection's last bits, so check that each
            # stage projects every frame in one product, whatever the split.
            assert projected == [(n_frames, 8)] * 8


class TestKmeansAtAnyCpuCount:
    @pytest.mark.parametrize(
        "points, k, one_row_group",
        [
            (_unit_points(3000, 2, seed=31), 64, False),
            (_unit_points(5000, 8, seed=32), 1024, False),  # N * K > 2^22: two products per group
            (_unit_points(1200, 64, seed=33), 48, False),
            (_unit_points(30, 2, seed=9), 5, True),  # an iteration whose group is one row
        ],
        ids=["dim2", "dim8-multi-chunk", "dim64", "one-row-group"],
    )
    def test_same_results_at_one_to_four_cpus(self, monkeypatch, points, k, one_row_group):
        want = _reference_kmeans_unit(points, k, 9)
        sizes = []
        map_rows = _workers.map_rows
        monkeypatch.setattr(_workers, "map_rows", lambda fn, n: sizes.append(n) or map_rows(fn, n))
        for cpus in (1, 2, 3, 4):
            monkeypatch.setattr(_workers, "_cpu_count", lambda: cpus)
            got = kmeans_unit(points, k, 9)
            for g, w in zip(got[:2], want[:2]):
                assert g.tobytes() == w.tobytes(), cpus
            assert got[2] == want[2], cpus
        assert 1 in sizes or not one_row_group


class TestDequantize:
    def test_roundtrip_error_equals_recorded_residual(self, small_model):
        model, _ = small_model
        frames = _gaussian_latents(128, 16, seed=8)
        lat = LatentSequence(frames)
        for q in (1, 2, 4):
            tokens = quantize(model, lat, q)
            recon = dequantize(model, tokens, q)
            mse = np.mean((frames - recon.frames) ** 2)
            assert mse == pytest.approx(stage_distortions(model, lat)[q - 1], abs=1e-12)

    def test_held_out_mse_nonincreasing_in_q(self, small_model):
        model, _ = small_model
        frames = _gaussian_latents(400, 16, seed=13)
        lat = LatentSequence(frames)
        tokens = quantize(model, lat, 4)
        mses = [
            np.mean((frames - dequantize(model, tokens, q).frames) ** 2) for q in (1, 2, 3, 4)
        ]
        assert np.all(np.diff(mses) <= 1e-12)

    def test_q_zero_disallowed(self, small_model):
        model, _ = small_model
        tokens = quantize(model, LatentSequence(np.zeros((2, 16))), 2)
        with pytest.raises(InvalidInput):
            dequantize(model, tokens, 0)

    def test_prefix_property(self, small_model):
        model, _ = small_model
        lat = LatentSequence(_gaussian_latents(32, 16, seed=21))
        full = quantize(model, lat, 4)
        short = quantize(model, lat, 2)
        assert np.array_equal(full.frames[:, :2], short.frames)
        np.testing.assert_array_equal(
            dequantize(model, full, 2).frames, dequantize(model, short, 2).frames
        )

    def test_corrupt_index_rejected(self, small_model):
        model, _ = small_model
        with pytest.raises(CorruptTokens):
            TokenStream(np.array([[999]], dtype=np.int64), model.config.codebook_size)

    def test_frames_are_read_only(self, small_model):
        # The range check at construction is the only one: pack and
        # dequantize do not repeat it, so the frames must not change after it.
        model, _ = small_model
        tokens = quantize(model, LatentSequence(np.zeros((2, 16))), 2)
        with pytest.raises(ValueError, match="read-only"):
            tokens.frames[0, 0] = model.config.codebook_size


class TestTypedErrors:
    @pytest.mark.parametrize(
        "call, error",
        [
            (lambda m: rvq.Codebook(np.full((2, 2), 0.5), np.eye(2), np.eye(2)), InvalidConfig),
            (lambda m: rvq.Codebook([["a"]], np.eye(1), np.eye(1)), InvalidConfig),
            (lambda m: rvq.Codebook(np.ones(2), np.eye(1), np.eye(1)), InvalidConfig),
            (lambda m: rvq.Codebook(np.eye(2), np.ones(3), "x"), InvalidConfig),
            (lambda m: rvq.Codebook(np.eye(2), np.ones((2, 3)), np.ones((2, 3))), InvalidConfig),
            (lambda m: TokenStream(np.zeros(4), 1024), InvalidInput),
            (lambda m: train_rvq(_gaussian_latents(400, 15, seed=0), m.config), InvalidInput),
            (lambda m: quantize(m, LatentSequence(np.zeros((2, 15))), 1), InvalidInput),
            (lambda m: dequantize(m, TokenStream(np.zeros((2, m.n_stages + 1)), 16), 1),
             InvalidInput),
            (lambda m: rvq.RvqModel(m.config, m.stages[:-1], m.training_stats[:-1]), InvalidConfig),
            (lambda m: rvq.RvqModel(replace(m.config, codebook_size=32), m.stages, m.training_stats),
             InvalidConfig),
            (lambda m: rvq.RvqModel(m.config, m.stages, m.training_stats[:-1]), InvalidConfig),
            (lambda m: rvq.RvqModel(m.config, m.stages, np.full(m.n_stages, np.nan)), InvalidConfig),
            (lambda m: rvq.RvqModel(m.config, m.stages, ["a"] * m.n_stages), InvalidConfig),
        ],
        ids=["non-unit-entries", "text-entries", "one-d-entries", "projections-not-matrices",
             "out-proj-not-transposed", "one-d-tokens", "training-width", "quantize-width",
             "stream-deeper-than-model", "model-missing-a-codebook", "model-codebooks-of-another-k",
             "model-stats-short", "model-stats-nan", "model-stats-text"],
    )
    def test_typed_errors(self, small_model, call, error):
        model, _ = small_model
        with pytest.raises(error):
            call(model)


class TestBitrate:
    def test_standard_rate_points(self):
        config = RvqConfig(n_stages=32, codebook_size=1024, code_dim=8, latent_dim=64)
        assert bitrate(config, 2) == 1500
        assert bitrate(config, 4) == 3000
        assert bitrate(config, 32) == 24000
        assert bitrate(config, 1) == 750

    def test_out_of_range(self):
        config = RvqConfig(n_stages=4, codebook_size=1024, code_dim=8, latent_dim=64)
        with pytest.raises(InvalidInput):
            bitrate(config, 5)


class TestStageDistortions:
    def test_training_set_matches_training_stats(self):
        data = _gaussian_latents(1200, 12, seed=31)
        config = RvqConfig(n_stages=3, codebook_size=16, code_dim=6, latent_dim=12, seed=2)
        model = train_rvq(data, config)
        measured = stage_distortions(model, LatentSequence(data))
        np.testing.assert_allclose(measured, model.training_stats, atol=1e-9)

    def test_exactly_representable_point_zero_tail(self):
        rng = np.random.default_rng(3)
        k = 16
        dirs = rng.standard_normal((k, 8))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        data = np.repeat(2.5 * dirs, 10, axis=0)
        config = RvqConfig(n_stages=2, codebook_size=k, code_dim=8, latent_dim=8, seed=0)
        model = train_rvq(data, config)
        dist = stage_distortions(model, LatentSequence(data[:k]))
        assert dist[0] == pytest.approx(0.0, abs=1e-18)
        assert dist[-1] == pytest.approx(0.0, abs=1e-18)

    def test_agrees_with_quantize_dequantize(self, small_model):
        model, _ = small_model
        frames = _gaussian_latents(100, 16, seed=41)
        lat = LatentSequence(frames)
        dist = stage_distortions(model, lat)
        tokens = quantize(model, lat, model.n_stages)
        for q in range(1, model.n_stages + 1):
            recon = dequantize(model, tokens, q)
            assert np.mean((frames - recon.frames) ** 2) == pytest.approx(dist[q - 1], abs=1e-12)
