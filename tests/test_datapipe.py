import json
import struct
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chisquare

from rvqlab import _workers, datapipe
from rvqlab.datapipe import (
    BatchSpec,
    QualityCategory,
    _cut,
    _draw_offset,
    load_manifest,
    sample_batch,
    summarize_manifest,
)
from rvqlab.dsp import AudioBuffer, resample
from rvqlab.errors import (
    EmptyCategory,
    EmptyInput,
    InvalidConfig,
    InvalidInput,
    MissingFile,
    NotDivisible,
    SchemaError,
    WavError,
)
from rvqlab.wavio import read_wav, write_wav

from signals import speech_like


def _write_manifest(tmp_path, per_category=2, duration=0.6, rates=(24000,)):
    lines = []
    seed = 0
    for category in QualityCategory:
        for j in range(per_category):
            sr = rates[(seed + j) % len(rates)]
            name = f"{category.value.lower()}_{j}.wav"
            x = speech_like(duration, sr, seed)
            write_wav(tmp_path / name, AudioBuffer(x, sr))
            lines.append(
                json.dumps(
                    {
                        "path": name,
                        "category": category.value,
                        "duration": len(x) / sr,
                        "sample_rate": sr,
                    }
                )
            )
            seed += 1
    manifest_path = tmp_path / "manifest.jsonl"
    manifest_path.write_text("\n".join(lines) + "\n")
    return manifest_path


class TestLoadManifest:
    def test_empty_manifest(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        entries = load_manifest(path)
        assert entries == []
        summary = summarize_manifest(entries)
        assert summary["total_files"] == 0
        assert summary["total_hours"] == 0

    def test_unknown_category(self, tmp_path):
        wav = tmp_path / "a.wav"
        write_wav(wav, AudioBuffer(np.zeros(100), 24000))
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"path": "a.wav", "category": "HQ9", "duration": 1.0, "sample_rate": 24000})
        )
        with pytest.raises(SchemaError, match="HQ9"):
            load_manifest(path)

    def test_missing_audio_file(self, tmp_path):
        path = tmp_path / "missing.jsonl"
        path.write_text(
            json.dumps({"path": "ghost.wav", "category": "HQ1", "duration": 1.0, "sample_rate": 24000})
        )
        with pytest.raises(MissingFile, match="ghost"):
            load_manifest(path)

    @pytest.mark.parametrize(
        "field,value,match",
        [("path", 5, "path must be a string"),
         ("duration", "nan", "duration"),
         ("duration", "inf", "duration"),
         ("sample_rate", 0, "sample_rate"),
         # int() and float() read these three as 1
         ("sample_rate", 1.5, "whole number, got 1.5"),
         ("sample_rate", True, "not booleans"),
         ("duration", True, "not booleans")],
    )
    def test_hostile_field_schema_error(self, tmp_path, field, value, match):
        write_wav(tmp_path / "a.wav", AudioBuffer(np.zeros(100), 24000))
        record = {"path": "a.wav", "category": "HQ1", "duration": 1.0, "sample_rate": 24000}
        record[field] = value
        path = tmp_path / "hostile.jsonl"
        path.write_text(json.dumps(record))
        with pytest.raises(SchemaError, match=match):
            load_manifest(path)

    def test_numeric_strings_and_whole_float_rates_accepted(self, tmp_path):
        write_wav(tmp_path / "a.wav", AudioBuffer(np.zeros(100), 24000))
        path = tmp_path / "numeric.jsonl"
        records = [
            {"path": "a.wav", "category": "HQ1", "duration": "1.5", "sample_rate": "24000"},
            {"path": "a.wav", "category": "HQ1", "duration": 1, "sample_rate": 24000.0},
        ]
        path.write_text("\n".join(json.dumps(r) for r in records))
        entries = load_manifest(path)
        assert [(e.duration, e.sample_rate) for e in entries] == [(1.5, 24000), (1.0, 24000)]
        assert all(type(e.sample_rate) is int for e in entries)

    def test_directory_entry_path_schema_error(self, tmp_path):
        (tmp_path / "clips").mkdir()
        path = tmp_path / "dir_entry.jsonl"
        path.write_text(
            json.dumps({"path": "clips", "category": "HQ1", "duration": 1.0, "sample_rate": 24000})
        )
        with pytest.raises(SchemaError, match="directory"):
            load_manifest(path)

    def test_directory_manifest_schema_error(self, tmp_path):
        with pytest.raises(SchemaError, match="cannot read manifest"):
            load_manifest(tmp_path)

    def test_non_utf8_manifest_schema_error(self, tmp_path):
        path = tmp_path / "binary.jsonl"
        path.write_bytes(b"\xff\xfe\x00not text\n")
        with pytest.raises(SchemaError, match="cannot read manifest"):
            load_manifest(path)

    def test_line_not_json_schema_error(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('# header\n{"path": "a.wav",\n')
        with pytest.raises(SchemaError, match=r"broken\.jsonl:2: invalid JSON"):
            load_manifest(path)

    @pytest.mark.parametrize(
        "line", ["[" * 100000, '{"duration": ' + "9" * 5000 + "}"], ids=["nested-too-deep", "int-too-long"]
    )
    def test_json_beyond_the_decoders_limits_schema_error(self, tmp_path, line):
        path = tmp_path / "deep.jsonl"
        path.write_text(line)
        with pytest.raises(SchemaError, match="invalid JSON"):
            load_manifest(path)

    def test_path_too_long_to_exist_missing_file(self, tmp_path):
        path = tmp_path / "long.jsonl"
        path.write_text(json.dumps({"path": "a" * 5000, "category": "HQ1", "duration": 1.0, "sample_rate": 24000}))
        with pytest.raises(MissingFile):
            load_manifest(path)

    def test_crlf_lines_and_numbers(self, tmp_path):
        write_wav(tmp_path / "a.wav", AudioBuffer(np.zeros(100), 24000))
        record = json.dumps({"path": "a.wav", "category": "HQ9", "duration": 1.0, "sample_rate": 24000})
        path = tmp_path / "crlf.jsonl"
        path.write_bytes(b"# comment\r\n\r\n" + record.encode() + b"\r\n")
        with pytest.raises(SchemaError, match=r"crlf\.jsonl:3: unknown category"):
            load_manifest(path)

    def test_six_category_summary(self, tmp_path):
        manifest = load_manifest(_write_manifest(tmp_path))
        summary = summarize_manifest(manifest)
        assert set(summary["categories"]) == {c.value for c in QualityCategory}
        # Counting oracle: tally by hand.
        counted = Counter(e.category.value for e in manifest)
        for name, stats in summary["categories"].items():
            assert stats["files"] == counted[name] == 2


class TestSampleBatch:
    def test_72_over_6_gives_12_each(self, tmp_path):
        manifest = load_manifest(_write_manifest(tmp_path))
        batch = sample_batch(manifest, BatchSpec(batch_size=72, seed=1))
        assert len(batch) == 72
        per_cat = Counter(e.entry.category for e in batch)
        assert all(count == 12 for count in per_cat.values())
        assert len(per_cat) == 6
        for excerpt in batch:
            assert len(excerpt.audio) == 9280
            assert excerpt.audio.sample_rate == 24000

    def test_batch_of_six(self, tmp_path):
        manifest = load_manifest(_write_manifest(tmp_path))
        batch = sample_batch(manifest, BatchSpec(batch_size=6, seed=2))
        assert sorted(e.entry.category.value for e in batch) == sorted(
            c.value for c in QualityCategory
        )

    def test_not_divisible(self, tmp_path):
        manifest = load_manifest(_write_manifest(tmp_path))
        with pytest.raises(NotDivisible):
            sample_batch(manifest, BatchSpec(batch_size=70, seed=0))

    def test_file_replaced_by_a_directory_wav_error(self, tmp_path):
        manifest = load_manifest(_write_manifest(tmp_path))
        for entry in manifest:
            entry.path.unlink()
            entry.path.mkdir()
        with pytest.raises(WavError, match="cannot read: Is a directory"):
            sample_batch(manifest, BatchSpec(batch_size=6, seed=0))

    def test_empty_manifest_rejected(self):
        with pytest.raises(EmptyCategory):
            sample_batch([], BatchSpec(batch_size=6, seed=0))

    def test_seeded_reproducibility_byte_exact(self, tmp_path):
        manifest = load_manifest(_write_manifest(tmp_path))
        spec = BatchSpec(batch_size=12, seed=9)
        a = sample_batch(manifest, spec, batch_index=3)
        b = sample_batch(manifest, spec, batch_index=3)
        for ea, eb in zip(a, b):
            assert ea.entry == eb.entry
            assert ea.audio.samples.tobytes() == eb.audio.samples.tobytes()

    def test_entry_choice_independent_of_load_audio(self, tmp_path):
        manifest = load_manifest(_write_manifest(tmp_path))
        spec = BatchSpec(batch_size=12, seed=4)
        with_audio = sample_batch(manifest, spec, batch_index=1, load_audio=True)
        without = sample_batch(manifest, spec, batch_index=1, load_audio=False)
        assert [e.entry for e in with_audio] == [e.entry for e in without]

    def test_duration_weighting(self, tmp_path):
        # One long and one short file per category: the long one (4x the
        # duration) should be picked about 4x as often.
        lines = []
        for category in QualityCategory:
            for name, dur in ((f"{category.value}_long.wav", 2.0), (f"{category.value}_short.wav", 0.5)):
                x = speech_like(dur, 24000, hash(name) % 1000)
                write_wav(tmp_path / name, AudioBuffer(x, 24000))
                lines.append(
                    json.dumps(
                        {"path": name, "category": category.value, "duration": dur, "sample_rate": 24000}
                    )
                )
        path = tmp_path / "weighted.jsonl"
        path.write_text("\n".join(lines))
        manifest = load_manifest(path)
        long_picks = 0
        total = 0
        for b in range(300):
            for excerpt in sample_batch(manifest, BatchSpec(batch_size=6, seed=5), b, load_audio=False):
                total += 1
                long_picks += excerpt.entry.path.name.endswith("long.wav")
        assert 0.72 < long_picks / total < 0.88  # expected 0.8

    def test_coverage(self, tmp_path):
        manifest = load_manifest(_write_manifest(tmp_path))
        seen = set()
        for b in range(1000):
            for excerpt in sample_batch(manifest, BatchSpec(batch_size=6, seed=6), b, load_audio=False):
                seen.add(excerpt.entry.path)
            if len(seen) == len(manifest):
                break
        assert len(seen) == len(manifest)

    def test_resamples_non_24k_sources(self, tmp_path):
        manifest = load_manifest(_write_manifest(tmp_path, rates=(16000, 24000)))
        batch = sample_batch(manifest, BatchSpec(batch_size=6, seed=7))
        for excerpt in batch:
            assert excerpt.audio.sample_rate == 24000
            assert len(excerpt.audio) == 9280


def _write_with_list_chunk(path, samples):
    """A 24 kHz PCM16 WAV whose data chunk follows a LIST chunk of odd length."""
    fmt = struct.pack("<HHIIHH", 1, 1, 24000, 48000, 2, 16)
    data = np.round(samples * 32767).astype("<i2").tobytes()
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    chunks += b"LIST" + struct.pack("<I", 3) + b"abc\0"  # three bytes and the pad byte
    chunks += b"data" + struct.pack("<I", len(data)) + data
    path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks)


def _one_category_manifest(tmp_path, files):
    """files: (name, samples, sample_rate, encoding, duration) -> manifest path, all HQ1."""
    lines = []
    for name, x, sr, encoding, duration in files:
        if encoding == "list":
            _write_with_list_chunk(tmp_path / name, x)
        else:
            write_wav(tmp_path / name, AudioBuffer(x, sr), encoding=encoding)
        lines.append(json.dumps({"path": name, "category": "HQ1", "duration": duration, "sample_rate": sr}))
    path = tmp_path / "one.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


def _whole_file_batch(manifest, spec, batch_index):
    """sample_batch's excerpts as each file read whole would give them."""
    picks = [e.entry for e in sample_batch(manifest, spec, batch_index, load_audio=False)]
    root = np.random.SeedSequence(entropy=spec.seed, spawn_key=(batch_index,))
    rng_offset = np.random.default_rng(root.spawn(2)[1])
    length, excerpts = spec.excerpt_samples, []
    for entry in picks:
        audio = read_wav(entry.path)
        if audio.sample_rate != 24000:
            audio = resample(audio, 24000)
        excerpts.append(_cut(audio, length, _draw_offset(len(audio), length, rng_offset)).samples)
    return picks, excerpts


class TestWindowedExcerpts:
    def test_windowed_excerpts_equal_whole_file_excerpts(self, tmp_path, monkeypatch):
        length = 3200
        files = [
            ("short.wav", speech_like(2000 / 24000, 24000, 1), 24000, "pcm16", 1.0),
            ("equal.wav", speech_like(length / 24000, 24000, 2), 24000, "pcm16", 1.0),
            ("long.wav", speech_like(0.5, 24000, 3), 24000, "pcm16", 1.0),
            ("listed.wav", speech_like(0.4, 24000, 4), 24000, "list", 1.0),
            ("float.wav", speech_like(0.5, 24000, 5), 24000, "float32", 1.0),
            ("slow.wav", speech_like(0.5, 16000, 6), 16000, "pcm16", 1.0),
        ]
        manifest = load_manifest(_one_category_manifest(tmp_path, files))
        spec = BatchSpec(batch_size=12, excerpt_samples=length, seed=3)
        whole, window = [], []
        monkeypatch.setattr(datapipe, "read_wav", lambda path: whole.append(path.name) or read_wav(path))
        read_window = datapipe._read_window
        monkeypatch.setattr(datapipe, "_read_window",
                            lambda path, *span: window.append(path.name) or read_window(path, *span))
        for batch_index in range(4):
            picks, expected = _whole_file_batch(manifest, spec, batch_index)
            for cpus in (1, 4):
                monkeypatch.setattr(_workers, "_cpu_count", lambda: cpus)
                batch = sample_batch(manifest, spec, batch_index)
                assert [e.entry for e in batch] == picks
                for excerpt, samples in zip(batch, expected):
                    assert excerpt.audio.sample_rate == 24000
                    assert excerpt.audio.samples.tobytes() == samples.tobytes()
        assert set(window) == {"long.wav", "listed.wav"}
        assert set(whole) == {"short.wav", "equal.wav", "float.wav", "slow.wav"}

    @staticmethod
    def _bad_batch_manifest(tmp_path):
        files = [(f"good{i}.wav", speech_like(0.5, 24000, 10 + i), 24000, "pcm16", 1.0) for i in range(4)]
        files += [("nan.wav", speech_like(0.5, 24000, 7), 24000, "float32", 1.0),
                  ("empty.wav", np.zeros(0), 24000, "pcm16", 1.0)]
        manifest = load_manifest(_one_category_manifest(tmp_path, files))
        with open(tmp_path / "nan.wav", "r+b") as fh:  # write_wav writes 44 header bytes
            fh.seek(44 + 4 * 100)
            fh.write(np.float32(np.nan).tobytes())
        return manifest

    def test_a_failing_batch_raises_its_first_failure_at_any_cpu_count(self, tmp_path, monkeypatch):
        manifest = self._bad_batch_manifest(tmp_path)
        errors = {"nan.wav": (InvalidInput, "non-finite values in audio"),
                  "empty.wav": (EmptyInput, "cannot cut an excerpt from empty audio")}
        spec = BatchSpec(batch_size=12, excerpt_samples=3200, seed=1)
        firsts = set()
        for batch_index in range(12):
            names = [e.entry.path.name for e in sample_batch(manifest, spec, batch_index, load_audio=False)]
            bad = [name for name in names if name in errors]
            if len(set(bad)) < 2:
                continue
            firsts.add(bad[0])
            for cpus in (1, 4):
                monkeypatch.setattr(_workers, "_cpu_count", lambda: cpus)
                with pytest.raises((InvalidInput, EmptyInput)) as caught:
                    sample_batch(manifest, spec, batch_index)
                assert (type(caught.value), str(caught.value)) == errors[bad[0]], cpus
        assert firsts == set(errors)  # each bad file comes first in some batch

    def test_one_bad_file_raises_what_reading_it_raises(self, tmp_path):
        manifest = [e for e in self._bad_batch_manifest(tmp_path) if e.path.name != "empty.wav"]
        with pytest.raises(InvalidInput, match="^non-finite values in audio$"):
            sample_batch(manifest, BatchSpec(batch_size=12, excerpt_samples=3200, seed=1))


def _seeded_excerpt(audio, length, seed):
    return _cut(audio, length, _draw_offset(len(audio), length, np.random.default_rng(seed)))


class TestExtractExcerpt:
    def test_exact_length_identity(self):
        x = AudioBuffer(speech_like(9280 / 24000, 24000, 3), 24000)
        assert len(x) == 9280
        for seed in (0, 1, 99):
            out = _seeded_excerpt(x, 9280, seed)
            assert np.array_equal(out.samples, x.samples)

    def test_uniform_start_offsets(self):
        # 24000-sample source, 9280 excerpt: start in [0, 14720], uniform.
        x = AudioBuffer(speech_like(1.0, 24000, 4), 24000)
        n_bins = 8
        bin_width = (24000 - 9280 + 1) / n_bins
        counts = np.zeros(n_bins, dtype=int)
        for seed in range(1000):
            out = _seeded_excerpt(x, 9280, seed)
            offset = _find_offset(x.samples, out.samples)
            assert 0 <= offset <= 14720
            counts[min(int(offset // bin_width), n_bins - 1)] += 1
        assert chisquare(counts).pvalue > 0.01

    def test_reflect_padding_short_source(self):
        x = AudioBuffer(speech_like(4000 / 24000, 24000, 5), 24000)
        assert len(x) == 4000
        out = _seeded_excerpt(x, 9280, 0)
        assert len(out) == 9280
        np.testing.assert_array_equal(out.samples[:4000], x.samples)
        # Reflection oracle: sample n past the end mirrors index -(n+2).
        np.testing.assert_allclose(out.samples[4000:4005], x.samples[-2:-7:-1])

    def test_one_sample_source_repeats_it(self):
        out = _seeded_excerpt(AudioBuffer(np.array([0.25]), 24000), 320, 0)
        assert np.array_equal(out.samples, np.full(320, 0.25))

    def test_empty_source_rejected(self):
        # numpy cannot reflect-pad an empty array; a 0-sample WAV is bad input.
        with pytest.raises(EmptyInput):
            _seeded_excerpt(AudioBuffer(np.zeros(0), 24000), 320, 0)


def _find_offset(haystack, needle):
    # Excerpts are contiguous slices; locate by matching the first samples.
    candidates = np.flatnonzero(np.isclose(haystack[: len(haystack) - len(needle) + 1], needle[0]))
    for c in candidates:
        if np.array_equal(haystack[c : c + len(needle)], needle):
            return int(c)
    raise AssertionError("excerpt not found in source")


class TestBatchSpec:
    def test_excerpt_must_be_hop_multiple(self):
        with pytest.raises(InvalidConfig):
            BatchSpec(batch_size=6, excerpt_samples=9120)  # 0.38 s is not a hop multiple

    @pytest.mark.parametrize("field, value", [("batch_size", 0), ("seed", -1)])
    def test_out_of_range_field(self, field, value):
        with pytest.raises(InvalidConfig, match=field):
            BatchSpec(**{field: value})
