import struct

import numpy as np
import pytest

from rvqlab.dsp import AudioBuffer
from rvqlab.errors import WavError
from rvqlab.wavio import _read_window, read_wav, write_wav

from signals import speech_like


def test_float32_roundtrip(tmp_path):
    x = speech_like(0.3, 24000, 1)
    path = tmp_path / "f32.wav"
    write_wav(path, AudioBuffer(x, 24000))
    back = read_wav(path)
    assert back.sample_rate == 24000
    np.testing.assert_array_equal(back.samples, x.astype(np.float32).astype(np.float64))


def test_pcm16_roundtrip(tmp_path):
    x = speech_like(0.2, 16000, 2)
    path = tmp_path / "p16.wav"
    write_wav(path, AudioBuffer(x, 16000), encoding="pcm16")
    back = read_wav(path)
    assert back.sample_rate == 16000
    assert len(back) == len(x)
    assert np.max(np.abs(back.samples - x)) < 1.0 / 32767 + 1e-9


def _hand_built(path, payload, channels=1, data_len=None):
    """Write a PCM16 WAV whose data chunk declares data_len (default: true) bytes."""
    fmt = struct.pack("<HHIIHH", 1, channels, 24000, 24000 * 2 * channels, 2 * channels, 16)
    declared = len(payload) if data_len is None else data_len
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt) + 8 + len(payload)) + b"WAVE")
        fh.write(b"fmt " + struct.pack("<I", len(fmt)) + fmt)
        fh.write(b"data" + struct.pack("<I", declared) + payload)
    return path


def test_rejects_stereo(tmp_path):
    payload = np.zeros(64, dtype="<i2").tobytes()
    path = _hand_built(tmp_path / "stereo.wav", payload, channels=2)
    with pytest.raises(WavError, match="channel"):
        read_wav(path)


def test_rejects_partial_sample_data_chunk(tmp_path):
    # 129 bytes of PCM16 is 64.5 samples; the 130th byte is the RIFF pad byte.
    path = _hand_built(tmp_path / "odd.wav", bytes(130), data_len=129)
    with pytest.raises(WavError, match="whole number"):
        read_wav(path)


def test_rejects_chunk_past_eof(tmp_path):
    payload = np.zeros(64, dtype="<i2").tobytes()
    path = _hand_built(tmp_path / "short.wav", payload, data_len=len(payload) + 100)
    with pytest.raises(WavError, match="declares"):
        read_wav(path)


def test_rejects_garbage(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"this is not audio at all")
    with pytest.raises(WavError):
        read_wav(path)


@pytest.mark.parametrize(
    "chunks, match",
    [
        ([(b"LIST", b"")], "missing fmt or data"),
        ([(b"fmt ", struct.pack("<HHIIHH", 1, 1, 24000, 72000, 3, 24)), (b"data", bytes(6))],
         "unsupported format"),
    ],
    ids=["no-fmt-or-data", "pcm24"],
)
def test_rejects_unsupported_layout(tmp_path, chunks, match):
    body = b"".join(cid + struct.pack("<I", len(data)) + data for cid, data in chunks)
    path = tmp_path / "odd.wav"
    path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
    with pytest.raises(WavError, match=match):
        read_wav(path)


def test_unknown_encoding_rejected(tmp_path):
    with pytest.raises(WavError, match="unknown encoding"):
        write_wav(tmp_path / "x.wav", AudioBuffer(np.zeros(4), 24000), encoding="pcm24")


def test_pcm16_clips_overrange(tmp_path):
    path = tmp_path / "hot.wav"
    write_wav(path, AudioBuffer(np.array([1.5, -2.0, 0.0]), 8000), encoding="pcm16")
    back = read_wav(path)
    assert back.samples[0] == pytest.approx(32767 / 32768, abs=1e-4)
    assert back.samples[1] == pytest.approx(-32767 / 32768, abs=1e-4)


@pytest.mark.parametrize("encoding", ["float32", "pcm16"])
def test_window_equals_the_slice_of_the_whole_file(tmp_path, encoding):
    path = tmp_path / "w.wav"
    write_wav(path, AudioBuffer(speech_like(0.1, 24000, 3), 24000), encoding=encoding)
    whole = read_wav(path).samples
    for start, count in [(0, 5), (17, 300), (len(whole) - 9, 9), (len(whole), 0)]:
        assert _read_window(path, start, count).samples.tobytes() == whole[start : start + count].tobytes()
    with pytest.raises(WavError, match="outside"):
        _read_window(path, len(whole) - 9, 10)
