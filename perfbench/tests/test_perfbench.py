"""Self-tests of the benchmark's own arithmetic, inputs and tracer.

Run with `python3 -m pytest -q perfbench/tests` from the repository root.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import gen
import stats
from spans import LAYERS, Tracer, per_layer_specs
from stats import Span

ROOT = Path(__file__).resolve().parents[2]


# --- self time ---------------------------------------------------------------------


def test_self_time_of_nested_tree():
    # root [0, 10) has children a [1, 4) and b [5, 9); a has child c [2, 3).
    spans = [
        Span(0, "root", 0.0, 10.0, None, 0),
        Span(1, "a", 1.0, 4.0, 0, 0),
        Span(2, "c", 2.0, 3.0, 1, 0),
        Span(3, "b", 5.0, 9.0, 0, 0),
    ]
    selfs = stats.self_times(spans)
    assert selfs == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
    assert sum(selfs.values()) == spans[0].duration


def test_self_time_clips_and_merges_child_intervals():
    # Overlapping children count once; a child reaching past its parent is clipped.
    spans = [
        Span(0, "p", 0.0, 10.0, None, 0),
        Span(1, "x", 2.0, 6.0, 0, 0),
        Span(2, "y", 4.0, 8.0, 0, 0),
        Span(3, "z", 9.0, 12.0, 0, 0),
    ]
    assert stats.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


# --- latency and throughput ------------------------------------------------------------


def test_tail_needs_ten_samples_beyond():
    assert stats.tail(range(10)) is None
    assert stats.tail(range(11)) == (100.0 * 1 / 11, 0)
    percentile, value = stats.tail(list(range(100, 0, -1)))  # 1..100, unsorted
    assert (percentile, value) == (90.0, 90)
    assert sum(1 for x in range(1, 101) if x > value) == 10


def test_audio_x_is_total_audio_over_total_wall():
    assert stats.audio_x([2.0, 6.0], [0.5, 1.5]) == 4.0
    assert stats.audio_x([10.0], [4.0]) == 2.5
    with pytest.raises(ValueError):
        stats.audio_x([1.0], [0.0])


# --- inputs ---------------------------------------------------------------------------------


def _tree_bytes(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def test_inputs_are_byte_identical_for_a_seed(tmp_path):
    def generate(root, seed):
        gen.encode_clips(root / "enc", seed, 1)
        gen.held_out_set(root / "held", seed, 1)
        gen.write_corpus(root / "corpus", gen.rng_for(seed, "train_desk"), 1, 0.5, 1.0)
        return _tree_bytes(root)

    first = generate(tmp_path / "a", 7)
    assert first == generate(tmp_path / "b", 7)
    other = generate(tmp_path / "c", 8)
    assert first.keys() == other.keys()
    assert all(first[name] != other[name] for name in first if name.endswith(".wav"))


@pytest.mark.parametrize("n", [1, 5, 12])
def test_stratified_lengths_fill_each_stratum_with_fixed_total_and_median(n):
    for seed in range(5):
        values = gen.stratified(np.random.default_rng(seed), n, 2.0, 12.0)
        strata = np.floor((values - 2.0) / (10.0 / n)).astype(int)
        assert list(np.minimum(strata, n - 1)) == list(range(n))
        assert values.sum() == pytest.approx(7.0 * n)
        assert np.median(values) == pytest.approx(7.0)


def test_speech_like_matches_the_test_suite_recipe():
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        signals = pytest.importorskip("signals")
    finally:
        sys.path.remove(str(ROOT / "tests"))
    for duration, rate, seed in ((0.7, 24000, 3), (1.3, 16000, 11)):
        assert np.array_equal(gen.speech_like(duration, rate, seed),
                              signals.speech_like(duration, rate, seed))


# --- tracer -----------------------------------------------------------------------------------


def _bindings():
    """(module, attribute) -> object for every traced function bound in rvqlab."""
    import rvqlab.cli  # noqa: F401  imports every module the CLI uses

    originals = set()
    for layer in LAYERS:
        module = sys.modules[f"rvqlab.{layer.module}"]
        originals.add(id(getattr(module, layer.function)))
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name.startswith("rvqlab") and module is not None
        for attr, value in vars(module).items()
        if id(value) in originals
    }


def _tiny_frontend():
    from rvqlab.dsp import AudioBuffer
    from rvqlab.frontend import fit_frontend

    audio = AudioBuffer(gen.speech_like(1.0, 24000, 1), 24000)
    return fit_frontend([audio], 4, 0), audio


def test_tracer_catches_calls_inside_the_library_and_restores_everything():
    from rvqlab import frontend

    model, audio = _tiny_frontend()
    before = _bindings()
    tracer = Tracer()
    with tracer.installed():
        assert hasattr(frontend.encode_latent, "__perfbench_original__")
        frontend.encode_latent(model, audio)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert not any(hasattr(v, "__perfbench_original__") for v in after.values())

    names = {s.id: s.name for s in tracer.spans}
    parents = {s.name: names.get(s.parent) for s in tracer.spans if s.name != "trace.bookkeeping"}
    assert parents == {"frontend.encode_latent": None,
                       "dsp.mel_filterbank": "frontend.encode_latent",
                       "dsp.stft": "frontend.encode_latent"}
    metrics = tracer.metrics(traced_wall=10.0, untraced_wall=8.0)
    assert metrics["frontend.encode_latent.calls"] == 1
    assert metrics["frontend.encode_latent.frames"] == 75
    assert metrics["dsp.stft.distinct_ratio"] == 1.0
    assert metrics["trace.overhead_frac"] == pytest.approx(0.25)
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_total + metrics["trace.bookkeeping_s"] + metrics["trace.unattributed_s"] \
        == pytest.approx(10.0)


def test_tracer_restores_after_an_exception_and_counts_it():
    from rvqlab import dsp
    from rvqlab.errors import RvqLabError

    before = _bindings()
    tracer = Tracer()
    with pytest.raises(RvqLabError):
        with tracer.installed():
            dsp.resample(dsp.AudioBuffer(np.zeros(4), 8000), -1)
    assert _bindings() == before
    assert tracer.metrics(1.0, 1.0)["dsp.errors"] == 1


# --- declared metrics ---------------------------------------------------------------------------


def test_benchmark_json_declares_what_the_runner_reports():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] \
        == per_layer_specs()
    assert {m["name"] for m in declared["end_to_end"]} \
        == {"setup_s", "request_p50_ms", "audio_x", "peak_rss_mb"}
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])
    assert math.isclose(max(m["bound"] for m in declared["end_to_end"]),
                        next(m["bound"] for m in declared["end_to_end"] if m["name"] == "setup_s"))
