import struct

import numpy as np
import pytest

from rvqlab import container as container_module
from rvqlab.container import ModelContainer, from_bytes, load, save, to_bytes
from rvqlab.dsp import AudioBuffer
from rvqlab.errors import CorruptModel, InvalidConfig, InvalidInput
from rvqlab.frontend import encode_latent, fit_frontend
from rvqlab.rvq import RvqConfig, train_rvq

from signals import speech_like


@pytest.fixture(scope="module")
def container():
    clips = [AudioBuffer(speech_like(2.0, 24000, 700 + i), 24000) for i in range(6)]
    frontend = fit_frontend(clips, latent_dim=16, seed=4)
    latents = np.vstack([encode_latent(frontend, c).frames for c in clips])
    config = RvqConfig(n_stages=3, codebook_size=32, code_dim=8, latent_dim=16, seed=4)
    rvq_model = train_rvq(latents, config)
    return ModelContainer(
        frontend=frontend,
        rvq=rvq_model,
        metadata={"corpus_hash": "deadbeef", "seed": "4", "created": "2026-08-08T00:00:00Z"},
    )


class TestRoundtrip:
    def test_save_load_encodes_identically(self, container, tmp_path):
        path = tmp_path / "model.rvqm"
        save(container, path)
        back = load(path)
        audio = AudioBuffer(speech_like(0.5, 24000, 900), 24000)
        a = encode_latent(container.frontend, audio).frames
        b = encode_latent(back.frontend, audio).frames
        assert np.array_equal(a, b)
        assert back.metadata == container.metadata
        for sa, sb in zip(container.rvq.stages, back.rvq.stages):
            assert np.array_equal(sa.entries, sb.entries)
            assert np.array_equal(sa.in_proj, sb.in_proj)
            assert np.array_equal(sa.out_proj, sb.out_proj)

    def test_byte_identical_reserialization(self, container):
        data = to_bytes(container)
        assert to_bytes(from_bytes(data)) == data

    def test_failed_serialisation_writes_nothing(self, container, tmp_path, monkeypatch):
        def fail(_):
            raise InvalidInput("cannot serialise")

        kept = tmp_path / "kept.rvqm"
        kept.write_bytes(b"old model")
        monkeypatch.setattr(container_module, "to_bytes", fail)
        for path in (tmp_path / "fresh.rvqm", kept):
            with pytest.raises(InvalidInput):
                save(container, path)
        assert not (tmp_path / "fresh.rvqm").exists()
        assert kept.read_bytes() == b"old model"


class TestCorruption:
    def test_truncated_file(self, container, tmp_path):
        data = to_bytes(container)
        for cut in (3, 5, len(data) // 2, len(data) - 1):
            with pytest.raises(CorruptModel):
                from_bytes(data[:cut])

    def test_bad_magic(self, container):
        data = bytearray(to_bytes(container))
        data[:4] = b"NOPE"
        with pytest.raises(CorruptModel, match="magic"):
            from_bytes(bytes(data))

    def test_version_mismatch_names_version(self, container):
        data = bytearray(to_bytes(container))
        data[4:6] = (99).to_bytes(2, "little")
        with pytest.raises(CorruptModel, match="99"):
            from_bytes(bytes(data))

    def test_trailing_garbage(self, container):
        with pytest.raises(CorruptModel):
            from_bytes(to_bytes(container) + b"extra")


# The codec's stored frontend settings, in header order around D.
_CODEC_SETTINGS = {
    "fft_size": 1024, "hop": 320, "sample_rate": 24000, "n_mels": 80,
    "f_min": 0.0, "f_max": 12000.0, "floor": 1e-5,
}


def _sections(data):
    """The three length-prefixed sections of a container's bytes."""
    pos, out = 6, []
    for _ in range(3):
        (length,) = struct.unpack_from("<I", data, pos)
        out.append(data[pos + 4 : pos + 4 + length])
        pos += 4 + length
    return out


def _join(sections):
    return b"RVQM" + struct.pack("<H", 1) + b"".join(struct.pack("<I", len(s)) + s for s in sections)


def _frontend_section(dim, **settings):
    """A well-formed frontend section whose header stores the given settings."""
    s = {**_CODEC_SETTINGS, **settings}
    n_mels = s["n_mels"]
    head = struct.pack(
        "<IIIHHdddq", s["fft_size"], s["hop"], s["sample_rate"], n_mels, dim,
        s["f_min"], s["f_max"], s["floor"], 4,
    )
    basis = np.eye(dim, n_mels)
    return head + np.zeros(n_mels).tobytes() + basis.tobytes() + np.full(n_mels, 1.0 / n_mels).tobytes()


class TestCodecGeometry:
    def test_forged_section_with_codec_settings_loads(self, container):
        _, rvq_section, metadata = _sections(to_bytes(container))
        back = from_bytes(_join([_frontend_section(16), rvq_section, metadata]))
        assert back.frontend.latent_dim == 16

    @pytest.mark.parametrize(
        "settings",
        [{"fft_size": 512, "n_mels": 40}, {"hop": 256}, {"sample_rate": 16000},
         {"f_min": 50.0}, {"f_max": 8000.0}, {"floor": 1e-6}],
    )
    def test_other_frontend_settings_are_corrupt(self, container, settings):
        _, rvq_section, metadata = _sections(to_bytes(container))
        with pytest.raises(CorruptModel, match="frontend settings"):
            from_bytes(_join([_frontend_section(16, **settings), rvq_section, metadata]))

    def test_other_rvq_frame_rate_is_corrupt(self, container):
        frontend, rvq_section, metadata = _sections(to_bytes(container))
        forged = rvq_section[:10] + struct.pack("<H", 50) + rvq_section[12:]  # u16 frame_rate
        with pytest.raises(CorruptModel, match="frame rate is 50"):
            from_bytes(_join([frontend, forged, metadata]))

    @pytest.mark.parametrize("index", [0, 1, 2], ids=["frontend", "rvq", "metadata"])
    def test_trailing_bytes_inside_section(self, container, index):
        sections = _sections(to_bytes(container))
        sections[index] += b"\x00"
        with pytest.raises(CorruptModel, match="trailing bytes"):
            from_bytes(_join(sections))

    @pytest.mark.parametrize(
        "index, forge",
        [
            (1, lambda rvq: rvq[:2] + struct.pack("<I", 3) + rvq[6:]),  # u32 K
            (2, lambda _: struct.pack("<II", 1, 1) + b"\xff" + struct.pack("<I", 0)),
            (0, lambda fe: fe[:40] + struct.pack("<q", -5) + fe[48:]),  # i64 seed
            (0, lambda fe: fe[:48] + struct.pack("<d", np.nan) + fe[56:]),  # mean[0]
        ],
        ids=["K-not-power-of-two", "non-utf8-key", "frontend-seed-negative", "frontend-mean-nan"],
    )
    def test_invalid_field_values_are_corrupt(self, container, index, forge):
        sections = _sections(to_bytes(container))
        sections[index] = forge(sections[index])
        with pytest.raises(CorruptModel, match="invalid model payload"):
            from_bytes(_join(sections))

    def test_frontend_and_rvq_latent_dims_must_agree(self, container):
        # A frontend of D=16 next to an RVQ trained on D=32 latents once
        # loaded and only failed at encode, as an InvalidInput.
        rng = np.random.default_rng(0)
        config = RvqConfig(n_stages=1, codebook_size=2, code_dim=8, latent_dim=32, seed=0)
        rvq32 = train_rvq(rng.standard_normal((40, 32)), config)
        frontend = container.frontend
        assert frontend.latent_dim == 16
        with pytest.raises(InvalidConfig, match="latent_dim 16 != rvq latent_dim 32"):
            ModelContainer(frontend=frontend, rvq=rvq32)
        sections = _sections(to_bytes(container))
        sections[1] = container_module._pack_rvq(rvq32)
        with pytest.raises(CorruptModel, match="latent_dim 16 != rvq latent_dim 32"):
            from_bytes(_join(sections))
