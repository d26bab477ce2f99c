"""Property tests of the five parsers and the CLI's numeric flags.

On hostile bytes or text each parser raises only RvqLabError subclasses;
valid input roundtrips; and `rvqlab` exits 0 or 2, never with a traceback,
whatever a numeric flag holds.  The strategies lean toward the text parsers
and argv: byte-level mutation of the binary formats found nothing.  Sizes
stay small so each property runs its examples in seconds.
"""

import contextlib
import io
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvqlab.bitstream import HEADER_SIZE, unpack
from rvqlab.cli import main
from rvqlab.container import ModelContainer, from_bytes, save, to_bytes
from rvqlab.datapipe import QualityCategory, load_manifest
from rvqlab.dsp import AudioBuffer
from rvqlab.errors import RvqLabError
from rvqlab.evalstats import MushraRecord, load_mushra_records
from rvqlab.frontend import MIN_SOURCE_RATE, N_MELS, FrontendModel
from rvqlab.rvq import Codebook, RvqConfig, RvqModel
from rvqlab.wavio import read_wav, write_wav


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory with one short 24 kHz WAV, a tiny model, a stream, and score files."""
    root = tmp_path_factory.mktemp("fuzz")
    write_wav(root / "clip.wav", AudioBuffer(np.sin(np.arange(2400) / 7.0) * 0.3, 24000))
    save(_tiny_container(), root / "model.rvqm")
    assert main(["encode", "--model", str(root / "model.rvqm"), str(root / "clip.wav"),
                 "--stages=1", str(root / "clip.rvqs")]) == 0
    (root / "scores.csv").write_text("s1,a,reference,90\ns2,a,reference,95\ns1,a,codec,60\ns2,a,codec,70\n")
    (root / "empty.jsonl").write_text("")
    return root


def _tiny_container(metadata=None):
    """A hand-built D=2, K=2, one-stage model: valid, and ~3 KB of bytes."""
    basis = np.zeros((2, N_MELS))
    basis[0, 0] = basis[1, 1] = 1.0
    frontend = FrontendModel(np.zeros(N_MELS), basis, np.full(N_MELS, 1.0 / N_MELS), 3)
    stage = Codebook(np.array([[1.0], [-1.0]]), np.array([[1.0, 0.0]]), np.array([[0.5], [0.0]]))
    config = RvqConfig(n_stages=1, codebook_size=2, code_dim=1, latent_dim=2, seed=3)
    rvq = RvqModel(config, (stage,), training_stats=np.array([0.25]))
    return ModelContainer(frontend, rvq, metadata if metadata is not None else {"seed": "3"})


def _typed_errors_only(parse, *args):
    try:
        return parse(*args)
    except RvqLabError:
        return None


def _mutate(data: bytes, draw) -> bytes:
    """One to three edits: overwrite a 1/2/4/8-byte field, flip a byte, cut, or insert."""
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["field", "flip", "cut", "insert"]))
        pos = draw(st.integers(0, max(len(out) - 1, 0)))
        if op == "field":
            width = draw(st.sampled_from([1, 2, 4, 8]))
            out[pos : pos + width] = draw(st.binary(min_size=width, max_size=width))
        elif op == "flip" and out:
            out[pos] ^= 1 << draw(st.integers(0, 7))
        elif op == "cut":
            del out[pos : pos + draw(st.integers(1, 64))]
        else:
            out[pos:pos] = draw(st.binary(min_size=1, max_size=16))
    return bytes(out)


# --- read_wav ----------------------------------------------------------------

_U16 = st.one_of(st.sampled_from([0, 1, 2, 3, 8, 16, 24, 32, 0xFFFE]), st.integers(0, 0xFFFF))
_U32 = st.one_of(st.sampled_from([0, 1, 8000, 24000, 0xFFFFFFFF]), st.integers(0, 0xFFFFFFFF))


@st.composite
def _wav_bytes(draw):
    """A RIFF/WAVE file from drawn header fields and chunks, possibly cut short."""
    fmt = struct.pack(
        "<HHIIHH",
        draw(st.sampled_from([1, 3]) | _U16), draw(st.sampled_from([1, 2]) | _U16),
        draw(_U32), draw(_U32), draw(_U16), draw(st.sampled_from([16, 32]) | _U16),
    )
    chunks = draw(st.lists(
        st.tuples(st.sampled_from([b"fmt ", b"data", b"LIST", b"fmt\x00"]) | st.binary(min_size=4, max_size=4),
                  st.just(fmt) | st.binary(max_size=64), st.none() | _U32),
        min_size=1, max_size=4,
    ))
    body = b"".join(cid + struct.pack("<I", len(data) if size is None else size) + data
                    for cid, data, size in chunks)
    riff = b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body
    return riff[: draw(st.integers(0, len(riff)))] if draw(st.booleans()) else riff


@settings(max_examples=600)
@given(data=st.one_of(_wav_bytes(), st.binary(max_size=64)))
def test_read_wav_raises_only_typed_errors(workdir, data):
    path = workdir / "fuzz.wav"
    path.write_bytes(data)
    audio = _typed_errors_only(read_wav, path)
    assert audio is None or np.all(np.isfinite(audio.samples))


@settings(max_examples=500)
@given(
    samples=st.lists(st.floats(-1.0, 1.0, width=32), max_size=40),
    rate=st.integers(1, 0xFFFFFFFF // 4),
    encoding=st.sampled_from(["float32", "pcm16"]),
)
def test_wav_roundtrip(workdir, samples, rate, encoding):
    x = np.array(samples, dtype=np.float64)
    path = workdir / "roundtrip.wav"
    write_wav(path, AudioBuffer(x, rate), encoding=encoding)
    back = read_wav(path)
    expected = x if encoding == "float32" else np.round(x * 32767.0) / 32768.0
    assert back.sample_rate == rate and np.array_equal(back.samples, expected)


# --- container.from_bytes ----------------------------------------------------


@settings(max_examples=500)
@given(data=st.data(), mutate=st.booleans())
def test_from_bytes_raises_only_typed_errors(data, mutate):
    valid = to_bytes(_tiny_container())
    blob = _mutate(valid, data.draw) if mutate else valid[:6] + data.draw(st.binary(max_size=64))
    _typed_errors_only(from_bytes, blob)


_FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)


@settings(max_examples=500)
@given(
    mean=st.lists(_FINITE, min_size=N_MELS, max_size=N_MELS),
    seed=st.integers(0, (1 << 63) - 1),
    gain=_FINITE,
    metadata=st.dictionaries(st.text(max_size=8), st.text(max_size=8), max_size=4),
)
def test_container_roundtrip(mean, seed, gain, metadata):
    base = _tiny_container(metadata)
    frontend = FrontendModel(np.array(mean), base.frontend.basis, base.frontend.explained_variance, seed)
    stage = base.rvq.stages[0]
    stages = (Codebook(stage.entries, stage.in_proj, stage.out_proj * gain),)
    model = ModelContainer(frontend, RvqModel(base.rvq.config, stages, base.rvq.training_stats), metadata)
    data = to_bytes(model)
    back = from_bytes(data)
    assert to_bytes(back) == data
    assert back.frontend.seed == seed and back.metadata == metadata
    assert np.array_equal(back.frontend.mean, frontend.mean)
    assert np.array_equal(back.rvq.stages[0].out_proj, stages[0].out_proj)


# --- bitstream.unpack --------------------------------------------------------


@st.composite
def _stream_bytes(draw):
    """A .rvqs header from drawn fields (mostly near-valid) and a payload of about the right size."""
    k = draw(st.sampled_from([2, 16, 1024, 1 << 15]) | _U16)
    q = draw(st.integers(0, 4) | st.integers(0, 255))
    t = draw(st.integers(0, 6) | _U32)
    head = struct.pack(
        "<4sHIHHBI", draw(st.just(b"RVQS") | st.binary(min_size=4, max_size=4)),
        draw(st.just(1) | _U16), draw(st.just(24000) | _U32), draw(st.just(75) | _U16), k, q, t,
    )
    bits = max(k.bit_length() - 1, 1)
    size = min((t * q * bits + 7) // 8, 256)
    payload = draw(st.binary(min_size=size, max_size=size) | st.binary(max_size=32))
    return head + payload


@settings(max_examples=600)
@given(data=st.one_of(_stream_bytes(), st.binary(max_size=HEADER_SIZE + 8)))
def test_unpack_raises_only_typed_errors(data):
    _typed_errors_only(unpack, data)


# --- load_manifest -------------------------------------------------------------

_JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12) | st.sampled_from(["1.5", "24000", "nan", "-1", "", "1e999"])
)
_JSON = st.recursive(_JSON_SCALARS, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
    st.text(max_size=6), inner, max_size=3), max_leaves=6)
_PATHS = st.sampled_from(["clip.wav", "./clip.wav", ".", "..", "", "missing.wav", "clip.wav/x", "a" * 5000,
                          "/".join(["a" * 200] * 30), "clip\x00.wav"]) | st.text(max_size=20)
_FIELD_VALUES = {
    "path": _PATHS | _JSON,
    "category": st.sampled_from([c.value for c in QualityCategory]) | _JSON,
    "duration": st.floats(0.0, 10.0) | _JSON,
    "sample_rate": st.sampled_from([24000, 16000.0, 1]) | _JSON,
}


@st.composite
def _manifest_line(draw):
    kind = draw(st.sampled_from(["record", "record", "record", "json", "text", "nested", "digits"]))
    if kind == "record":
        record = {name: draw(value) for name, value in _FIELD_VALUES.items() if draw(st.integers(0, 9))}
        return json.dumps(record)
    if kind == "json":
        return json.dumps(draw(_JSON))
    if kind == "nested":
        return draw(st.sampled_from(["[", "{\"a\":"])) * draw(st.integers(1, 3000))
    if kind == "digits":
        return "{\"path\": \"clip.wav\", \"duration\": " + "9" * draw(st.integers(4000, 6000)) + "}"
    return draw(st.text(max_size=40))


@settings(max_examples=1500)
@given(lines=st.lists(_manifest_line(), max_size=4))
def test_load_manifest_raises_only_typed_errors(workdir, lines):
    path = workdir / "fuzz.jsonl"
    path.write_text("\n".join(lines))
    entries = _typed_errors_only(load_manifest, path) or []
    for entry in entries:
        assert entry.path.is_file() and math.isfinite(entry.duration) and entry.duration > 0
        assert entry.sample_rate >= MIN_SOURCE_RATE


@settings(max_examples=500)
@given(records=st.lists(
    st.tuples(st.sampled_from(list(QualityCategory)), st.floats(1e-6, 1e6), st.integers(MIN_SOURCE_RATE, 2**40)),
    max_size=5,
))
def test_manifest_roundtrip(workdir, records):
    path = workdir / "roundtrip.jsonl"
    path.write_text("\n".join(
        json.dumps({"path": "clip.wav", "category": c.value, "duration": d, "sample_rate": r}) for c, d, r in records
    ))
    entries = load_manifest(path)
    assert [(e.category, e.duration, e.sample_rate) for e in entries] == records
    assert all(e.path == workdir / "clip.wav" for e in entries)


# --- load_mushra_records -------------------------------------------------------

_SCORES = (
    st.floats().map(repr) | st.integers(-5, 105).map(str) | st.text(max_size=8)
    | st.sampled_from(["nan", "inf", "-inf", "1e999", "1_0", "١٠", "0x10", "", "100.0000001", "-0"])
    | st.integers(300, 5000).map(lambda n: "9" * n)
)
_LABELS = st.text(max_size=6) | st.sampled_from(["subject", "stimulus", "system", "#", "reference"])


@st.composite
def _score_line(draw):
    kind = draw(st.sampled_from(["record", "record", "record", "fields", "header", "text"]))
    if kind == "record":
        return ",".join([draw(_LABELS), draw(_LABELS), draw(_LABELS), draw(_SCORES)])
    if kind == "fields":
        return ",".join(draw(st.lists(_LABELS | _SCORES, max_size=6)))
    if kind == "header":
        return "subject,stimulus,system,score"
    return draw(st.text(max_size=30))


@settings(max_examples=1500)
@given(lines=st.lists(_score_line(), max_size=6), newline=st.sampled_from(["\n", "\r\n"]))
def test_load_mushra_records_raises_only_typed_errors(workdir, lines, newline):
    path = workdir / "fuzz.csv"
    path.write_text(newline.join(lines))
    for record in _typed_errors_only(load_mushra_records, path) or []:
        assert 0.0 <= record.score <= 100.0


_NAMES = st.from_regex(r"[A-Z0-9_]([A-Z0-9_ ]{0,5}[A-Z0-9_])?", fullmatch=True)


@settings(max_examples=500)
@given(records=st.lists(
    st.builds(MushraRecord, _NAMES, _NAMES, _NAMES, st.floats(0.0, 100.0)),
    max_size=6, unique_by=lambda r: (r.subject, r.stimulus, r.system),
))
def test_mushra_roundtrip(workdir, records):
    path = workdir / "roundtrip.csv"
    path.write_text("subject,stimulus,system,score\n" + "\n".join(
        f"{r.subject},{r.stimulus},{r.system},{r.score!r}" for r in records
    ))
    assert load_mushra_records(path) == records


# --- CLI numeric flags ---------------------------------------------------------

_FLAG_VALUES = (
    st.integers(-3, 6).map(str) | st.integers().map(str) | st.floats().map(repr) | st.text(max_size=6)
    | st.sampled_from(["", "nan", "inf", "-0", "1e999", "0x10", "1_0", "١", " 2 ", "4,", "9" * 5000])
)


def _cheap(value: str) -> bool:
    """False for a value that parses as an iteration count large enough to make a run slow."""
    try:
        return int(value) <= 4
    except ValueError:
        return True


@st.composite
def _argv(draw, root):
    command = draw(st.sampled_from(["train", "encode", "decode", "eval", "mushra"]))
    model = f"--model={root / 'model.rvqm'}"
    if command == "train":
        flags = ["--stages", "--codebook-size", "--latent-dim", "--code-dim", "--seed", "--batches",
                 "--batch-size", "--excerpt-samples", "--max-rvq-frames"]
        head = ["train", f"--manifest={root / 'empty.jsonl'}", f"--out={root / 'fuzz.rvqm'}"]
    elif command == "encode":
        flags, head = ["--stages"], ["encode", model, str(root / "clip.wav"), str(root / "fuzz.rvqs")]
    elif command == "decode":
        flags, head = ["--stages", "--gl-iterations"], ["decode", model, str(root / "clip.rvqs"),
                                                        str(root / "fuzz_out.wav")]
    elif command == "eval":
        flags, head = ["--q-list", "--gl-iterations"], ["eval", model, f"--test=t={root / 'empty.jsonl'}"]
    else:
        flags, head = ["--alpha"], ["mushra", str(root / "scores.csv")]
    chosen = draw(st.lists(st.sampled_from(flags), min_size=1, max_size=3, unique=True))
    values = [draw(_FLAG_VALUES.filter(_cheap) if flag == "--gl-iterations" else _FLAG_VALUES) for flag in chosen]
    return head + [f"{flag}={value}" for flag, value in zip(chosen, values)] + draw(st.sampled_from([[], ["--json"]]))


@settings(max_examples=1000)
@given(data=st.data())
def test_cli_numeric_flags_exit_0_or_2_without_traceback(workdir, data):
    argv = data.draw(_argv(workdir))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a value its type cannot parse
            code = exc.code
    err = err.getvalue()
    assert code in (0, 2), (argv, err)
    assert "Traceback" not in err
