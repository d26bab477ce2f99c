"""Acceptance suite: one criterion per test, one PASS/FAIL line per criterion.

Run `pytest -s tests/test_acceptance.py` to stream the lines; without -s
they appear in captured output.  The rate-distortion criterion trains a
full 32-stage, 1024-entry model on a 33-minute synthetic corpus and takes
several minutes.
"""

import os
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.stats import spearmanr

from rvqlab import bitstream, container
from rvqlab.datapipe import BatchSpec, load_manifest, sample_batch
from rvqlab.dsp import AudioBuffer, StftConfig, griffin_lim, istft, stft
from rvqlab.errors import RvqLabError
from rvqlab.evalstats import PESQ_TOOL_ENV, run_evaluation, wilcoxon_ranksum
from rvqlab.frontend import FRAME_RATE, GL_ITERATIONS, LatentSequence, encode_latent
from rvqlab.metrics import LOSS_SCALES, mel_loss, stft_loss, stoi
from rvqlab.rvq import RvqConfig, bitrate, dequantize, kmeans_unit, quantize, train_rvq

import golden
from conftest import evaluate_desk_model, make_corpus, make_desk_corpus, make_desk_held, train_desk_model
from signals import degraded_pair, speech_like
from stoi_reference import reference_stoi


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL {title}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS {title}")


# --- shared desk-scale fixture (criterion 4) ---------------------------------


@pytest.fixture(scope="session")
def desk_run(tmp_path_factory):
    """Train on a 33-minute corpus and evaluate held-out files at the q grid."""
    manifest_path = make_desk_corpus(tmp_path_factory.mktemp("desk_corpus"))
    manifest = load_manifest(manifest_path)
    total_minutes = sum(e.duration for e in manifest) / 60.0
    assert total_minutes >= 30.0

    model, summary = train_desk_model(manifest_path)
    report = evaluate_desk_model(model, make_desk_held(tmp_path_factory.mktemp("desk_held")))
    return model, summary, report, manifest


# --- criteria -----------------------------------------------------------------


def test_criterion_1_rate_arithmetic():
    with criterion(1, "rate arithmetic exact: q*750 bps at K=1024, 75 Hz"):
        config = RvqConfig(n_stages=32, codebook_size=1024, code_dim=8, latent_dim=64)
        for q in range(1, 33):
            assert bitrate(config, q) == q * 750
        assert bitrate(config, 2) == 1500
        assert bitrate(config, 4) == 3000
        assert bitrate(config, 32) == 24000
        assert 2 * FRAME_RATE == 150 and 4 * FRAME_RATE == 300


def test_criterion_2_bitstream_roundtrip_and_fuzz():
    with criterion(2, "bitstream: 1000 bit-exact roundtrips, 10000 fuzzed byte strings"):
        from rvqlab.rvq import TokenStream

        rng = np.random.default_rng(2024)
        for _ in range(1000):
            t = int(rng.integers(0, 501))
            q = int(rng.integers(1, 33))
            tokens = TokenStream(rng.integers(0, 1024, (t, q)), codebook_size=1024)
            data = bitstream.pack(tokens)
            back = bitstream.unpack(data)
            assert np.array_equal(back.frames, tokens.frames)
            assert back.n_frames == t and back.n_stages == q
            assert bitstream.pack(back) == data

        for i in range(10_000):
            length = int(rng.integers(0, 120))
            blob = rng.bytes(length)
            if i % 5 == 0:
                blob = b"RVQS" + blob  # exercise the post-magic paths too
            try:
                bitstream.unpack(blob)
            except RvqLabError:
                pass  # typed errors only; anything else fails the test


def test_criterion_3_rvq_oracles():
    with criterion(3, "RVQ: exhaustive nearest-neighbor oracle, Lloyd monotone over 10 seeds"):
        rng = np.random.default_rng(31)
        data = 4.0 * rng.standard_normal((2600, 24))
        config = RvqConfig(n_stages=4, codebook_size=256, code_dim=8, latent_dim=24, seed=7)
        model = train_rvq(data, config)

        frames = 4.0 * rng.standard_normal((100, 24))
        tokens = quantize(model, LatentSequence(frames), 4)
        for n in range(100):
            residual = frames[n].copy()
            for s in range(4):
                stage = model.stages[s]
                z = residual @ stage.in_proj.T
                norm = np.linalg.norm(z)
                zn = z / norm if norm > 1e-12 else z
                dists = np.sum((zn[None, :] - stage.entries) ** 2, axis=1)
                best = int(np.flatnonzero(dists == dists.min())[0])  # lowest index on ties
                assert tokens.frames[n, s] == best
                residual = residual - stage.entries[best] @ stage.out_proj.T

        for seed in range(10):
            pts = np.random.default_rng(seed).standard_normal((1200, 8))
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            _, _, history = kmeans_unit(pts, 64, seed=seed)
            history = np.asarray(history)
            assert np.all(np.diff(history) <= 1e-9 * np.maximum(history[:-1], 1e-30))


def test_criterion_4_rate_distortion_trend(desk_run):
    with criterion(4, "rate-distortion trend on a 30+ minute corpus across q=1..32"):
        model, summary, report, _ = desk_run
        grid = [1, 2, 4, 8, 16, 32]
        mse = [report.cell("held", "latent_mse", "rvq", q) for q in grid]
        mel = [report.cell("held", "mel", "rvq", q) for q in grid]
        st = [report.cell("held", "stoi", "rvq", q) for q in grid]

        assert spearmanr(grid, mse).statistic <= -0.9
        assert spearmanr(grid, mel).statistic <= -0.9
        assert np.all(np.diff(mse) <= 0)
        assert np.all(np.diff(st) >= 0)
        assert st[-1] - st[0] >= 0.05
        assert np.all(np.diff(summary["stage_mse"]) <= 1e-12)


def test_desk_train_held_self_consistency(desk_run):
    # Full-stage mel loss on (a balanced slice of) the training data matches
    # the held-out value within 10%: at q=32 the quantization error is
    # negligible next to the synthesis ceiling, so train and held-out files
    # from the same source distribution score alike.
    model, _, report, train_manifest = desk_run
    by_category = {}
    for entry in train_manifest:
        by_category.setdefault(entry.category, entry)
    train_slice = list(by_category.values())
    train_report = run_evaluation(model, {"train": train_slice}, q_list=[32], gl_iterations=GL_ITERATIONS)
    mel_train = train_report.cell("train", "mel", "rvq", 32)
    mel_held = report.cell("held", "mel", "rvq", 32)
    assert abs(mel_train - mel_held) <= 0.10 * mel_held


def test_desk_model_and_report_match_golden_digests(desk_run):
    # Pins K=1024 training at N=30000 and the held-out eval of its model,
    # bit for bit, at no cost beyond the shared fixture.
    reason = golden.platform_mismatch()
    if reason:
        pytest.skip(reason)
    if os.environ.get(PESQ_TOOL_ENV):
        pytest.skip(f"{PESQ_TOOL_ENV} is set: the desk eval report records the PESQ tool it used")
    model, _, report, _ = desk_run
    moved = golden.moved(golden.desk_digests(model, report))
    assert not moved, f"golden digests moved: {', '.join(moved)}; {golden.REWRITE_HINT}"


def test_criterion_5_metric_identities():
    with criterion(5, "metric identities and the S*ln2 gain shift"):
        for seed in range(20):
            x = AudioBuffer(speech_like(0.8, 24000, 4000 + seed), 24000)
            assert mel_loss(x, x).value == 0.0
            assert stft_loss(x, x).value == 0.0
            assert stoi(x, x).value >= 0.999

        rng = np.random.default_rng(5005)
        loud = 0.4 * rng.standard_normal(24000)
        loss = mel_loss(AudioBuffer(loud, 24000), AudioBuffer(2.0 * loud, 24000)).value
        assert abs(loss - len(LOSS_SCALES) * np.log(2.0)) <= 1e-6


def test_criterion_6_stoi_oracle_equivalence():
    with criterion(6, "STOI within 0.02 of the independent reference on 20 degraded pairs"):
        kinds = ["noise_high", "noise_low", "lowpass", "clip", "coarse"]
        rates = [10000, 16000, 24000, 24000]
        for i in range(20):
            kind = kinds[i % len(kinds)]
            sr = rates[i % len(rates)]
            ref, test = degraded_pair(1.0, sr, 1000 + i, kind)
            mine = stoi(AudioBuffer(ref, sr), AudioBuffer(test, sr)).value
            oracle = reference_stoi(ref, test, sr)
            assert abs(mine - oracle) <= 0.02, (i, kind, sr, mine, oracle)


def test_criterion_7_wilcoxon():
    with criterion(7, "Wilcoxon: exact p=0.1 case, approx within 0.02, alpha flags"):
        exact = wilcoxon_ranksum([1, 2, 3], [4, 5, 6])
        assert exact.method == "exact"
        assert exact.p_value == pytest.approx(0.1, abs=1e-12)

        rng = np.random.default_rng(707)
        for _ in range(200):
            n_a = int(rng.integers(4, 9))
            n_b = int(rng.integers(30, 61))
            a = rng.integers(0, 101, n_a).astype(float)
            b = rng.integers(0, 101, n_b).astype(float)
            p_exact = wilcoxon_ranksum(a, b, method="exact").p_value
            p_approx = wilcoxon_ranksum(a, b, method="normal-approx").p_value
            assert abs(p_exact - p_approx) <= 0.02

        # Alpha-flag logic at the borderline: 0.05 < 0.062 < 0.1.
        borderline = wilcoxon_ranksum([1, 2, 3], [4, 5, 6], alpha=0.05)  # p = 0.1 > 0.062 > 0.05
        assert borderline.p_value > 0.05 and not borderline.significant
        clear = wilcoxon_ranksum(list(range(50)), [x + 40 for x in range(50)], alpha=0.05)
        assert clear.p_value < 1e-5 and clear.significant


def test_criterion_8_balanced_sampler(tmp_path_factory):
    with criterion(8, "sampler: exactly 12 per category in 1000 batches of 72, byte-exact replay"):
        manifest = load_manifest(
            make_corpus(tmp_path_factory.mktemp("sampler"), per_category=3, duration=0.8, base_seed=800)
        )
        spec = BatchSpec(batch_size=72, seed=88)
        for batch_index in range(1000):
            batch = sample_batch(manifest, spec, batch_index, load_audio=False)
            per_cat = {}
            for excerpt in batch:
                per_cat[excerpt.entry.category] = per_cat.get(excerpt.entry.category, 0) + 1
            assert len(per_cat) == 6
            assert all(count == 12 for count in per_cat.values())

        a = sample_batch(manifest, spec, 17)
        b = sample_batch(manifest, spec, 17)
        assert all(
            ea.entry == eb.entry and ea.audio.samples.tobytes() == eb.audio.samples.tobytes()
            for ea, eb in zip(a, b)
        )


def test_criterion_9_container_and_prefix_roundtrips(toy_model, tmp_path):
    with criterion(9, "container save/load encode-identical; prefix decode == direct dequantize"):
        model_path, model, _ = toy_model
        reloaded = container.load(model_path)
        audio = AudioBuffer(speech_like(1.0, 24000, 909), 24000)
        a = encode_latent(model.frontend, audio).frames
        b = encode_latent(reloaded.frontend, audio).frames
        assert np.array_equal(a, b)
        assert container.to_bytes(reloaded) == model_path.read_bytes()

        latents = encode_latent(model.frontend, audio)
        tokens = quantize(model.rvq, latents, 4)
        data = bitstream.pack(tokens)
        for q_prefix in (1, 2, 3, 4):
            prefix_tokens = bitstream.unpack(bitstream.prefix(data, q_prefix))
            via_prefix = dequantize(model.rvq, prefix_tokens, q_prefix)
            direct = dequantize(model.rvq, tokens, q_prefix)
            assert np.array_equal(via_prefix.frames, direct.frames)


def test_criterion_10_griffin_lim_and_istft():
    with criterion(10, "Griffin-Lim SC nonincreasing on 10 signals; iSTFT roundtrip < 1e-6"):
        config = StftConfig(1024, 256)
        for seed in range(10):
            x = speech_like(0.6, 24000, 600 + seed)
            mag = stft(AudioBuffer(x, 24000), config).magnitude()
            errors = []
            griffin_lim(mag, iterations=32, callback=lambda i, sc: errors.append(sc))
            assert len(errors) == 32
            assert np.all(np.diff(errors) <= 1e-7)

        rng = np.random.default_rng(1010)
        for cfg in (StftConfig(1024, 256), StftConfig(512, 128)):
            x = rng.uniform(-1, 1, 24576)
            y = istft(stft(AudioBuffer(x, 24000), cfg)).samples
            assert np.max(np.abs(y - x[: len(y)])) < 1e-6
