"""Binary model container.

Layout (all integers little-endian, weights IEEE-754 float64):

    magic     4s   = "RVQM"
    version   u16  = 1
    3 sections, each u32 length prefix + payload, in order:
      frontend: u32 fft_size, u32 hop, u32 sample_rate, u16 n_mels, u16 D,
                f64 f_min, f64 f_max, f64 floor, i64 seed,
                f64 mean[n_mels], f64 basis[D*n_mels], f64 explained[n_mels]
      rvq:      u16 Q, u32 K, u16 code_dim, u16 latent_dim, u16 frame_rate,
                i64 seed, f64 training_stats[Q],
                per stage: f64 in_proj[code_dim*D], f64 out_proj[D*code_dim],
                           f64 entries[K*code_dim]
      metadata: u32 count, then per item u32 key_len, key bytes,
                u32 value_len, value bytes (UTF-8)

The analysis fields hold the codec's one fixed geometry: 24 kHz, fft 1024,
hop 320, 80 mels over 0-12 kHz, log floor 1e-5, and 75 frames/s in the rvq
section.  A container storing any other value, or whose frontend D differs
from the rvq latent_dim, is rejected as CorruptModel.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import CorruptModel, InvalidConfig, InvalidInput, check_path
from .frontend import F_MAX, F_MIN, FFT_SIZE, FRAME_RATE, HOP, LOG_FLOOR, N_MELS, SAMPLE_RATE
from .frontend import FrontendModel
from .rvq import Codebook, RvqConfig, RvqModel

MAGIC = b"RVQM"
VERSION = 1
# (fft_size, hop, sample_rate, n_mels, f_min, f_max, floor): the frontend
# header around D, as every container stores it.
_SETTINGS = (FFT_SIZE, HOP, SAMPLE_RATE, N_MELS, F_MIN, F_MAX, LOG_FLOOR)


@dataclass(frozen=True)
class ModelContainer:
    frontend: FrontendModel
    rvq: RvqModel
    metadata: dict = field(default_factory=dict)  # str -> str, both UTF-8-encodable

    def __post_init__(self):
        dims = (self.frontend.latent_dim, self.rvq.config.latent_dim)
        if dims[0] != dims[1]:
            raise InvalidConfig(f"frontend latent_dim {dims[0]} != rvq latent_dim {dims[1]}")
        try:  # join takes str only, and encode takes no lone surrogate
            "".join(map("".join, self.metadata.items())).encode("utf-8")
        except (AttributeError, TypeError, UnicodeEncodeError):
            raise InvalidConfig("metadata must map str to UTF-8-encodable str") from None


class _Reader:
    def __init__(self, data: bytes, label: str):
        self.data = data
        self.pos = 0
        self.label = label

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CorruptModel(
                f"truncated {self.label}: needed {n} bytes at offset {self.pos}, "
                f"have {len(self.data) - self.pos}"
            )
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack("<" + fmt, self.take(struct.calcsize("<" + fmt)))

    def floats(self, count: int) -> np.ndarray:
        return np.frombuffer(self.take(8 * count), dtype="<f8").copy()


def _pack_frontend(model: FrontendModel) -> bytes:
    parts = [
        struct.pack("<IIIHHdddq", *_SETTINGS[:4], model.latent_dim, *_SETTINGS[4:], model.seed),
        model.mean.astype("<f8").tobytes(),
        model.basis.astype("<f8").tobytes(),
        model.explained_variance.astype("<f8").tobytes(),
    ]
    return b"".join(parts)


def _unpack_frontend(data: bytes) -> FrontendModel:
    r = _Reader(data, "frontend section")
    fft_size, hop, sample_rate, n_mels, dim, f_min, f_max, floor, seed = r.unpack("IIIHHdddq")
    settings = (fft_size, hop, sample_rate, n_mels, f_min, f_max, floor)
    if settings != _SETTINGS:
        raise CorruptModel(f"frontend settings {settings} differ from the codec's {_SETTINGS}")
    mean = r.floats(N_MELS)
    basis = r.floats(dim * N_MELS).reshape(dim, N_MELS)
    explained = r.floats(N_MELS)
    if r.pos != len(data):
        raise CorruptModel(f"frontend section has {len(data) - r.pos} trailing bytes")
    return FrontendModel(mean=mean, basis=basis, explained_variance=explained, seed=int(seed))


def _pack_rvq(model: RvqModel) -> bytes:
    cfg = model.config
    parts = [
        struct.pack(
            "<HIHHHq",
            cfg.n_stages,
            cfg.codebook_size,
            cfg.code_dim,
            cfg.latent_dim,
            FRAME_RATE,
            cfg.seed,
        ),
        model.training_stats.astype("<f8").tobytes(),
    ]
    for stage in model.stages:
        parts.append(stage.in_proj.astype("<f8").tobytes())
        parts.append(stage.out_proj.astype("<f8").tobytes())
        parts.append(stage.entries.astype("<f8").tobytes())
    return b"".join(parts)


def _unpack_rvq(data: bytes) -> RvqModel:
    r = _Reader(data, "rvq section")
    n_stages, codebook_size, code_dim, latent_dim, frame_rate, seed = r.unpack("HIHHHq")
    if frame_rate != FRAME_RATE:
        raise CorruptModel(f"rvq frame rate is {frame_rate}, the codec's is {FRAME_RATE}")
    config = RvqConfig(
        n_stages=n_stages,
        codebook_size=codebook_size,
        code_dim=code_dim,
        latent_dim=latent_dim,
        seed=int(seed),
    )
    stats = r.floats(n_stages)
    stages = []
    for _ in range(n_stages):
        in_proj = r.floats(code_dim * latent_dim).reshape(code_dim, latent_dim)
        out_proj = r.floats(latent_dim * code_dim).reshape(latent_dim, code_dim)
        entries = r.floats(codebook_size * code_dim).reshape(codebook_size, code_dim)
        stages.append(Codebook(entries, in_proj, out_proj))
    if r.pos != len(data):
        raise CorruptModel(f"rvq section has {len(data) - r.pos} trailing bytes")
    return RvqModel(config=config, stages=tuple(stages), training_stats=stats)


def _pack_metadata(metadata: dict) -> bytes:
    parts = [struct.pack("<I", len(metadata))]
    for key in sorted(metadata):
        kb = key.encode("utf-8")
        vb = metadata[key].encode("utf-8")
        parts.append(struct.pack("<I", len(kb)) + kb + struct.pack("<I", len(vb)) + vb)
    return b"".join(parts)


def _unpack_metadata(data: bytes) -> dict:
    r = _Reader(data, "metadata section")
    (count,) = r.unpack("I")
    out = {}
    for _ in range(count):
        (klen,) = r.unpack("I")
        key = r.take(klen).decode("utf-8")
        (vlen,) = r.unpack("I")
        out[key] = r.take(vlen).decode("utf-8")
    if r.pos != len(data):
        raise CorruptModel(f"metadata section has {len(data) - r.pos} trailing bytes")
    return out


def to_bytes(container: ModelContainer) -> bytes:
    sections = [
        _pack_frontend(container.frontend),
        _pack_rvq(container.rvq),
        _pack_metadata(container.metadata),
    ]
    out = [MAGIC, struct.pack("<H", VERSION)]
    for section in sections:
        out.append(struct.pack("<I", len(section)))
        out.append(section)
    return b"".join(out)


def from_bytes(data: bytes) -> ModelContainer:
    if not isinstance(data, (bytes, bytearray)):
        raise InvalidInput(f"a model container is bytes, got {type(data).__name__}")
    r = _Reader(data, "container")
    if r.take(4) != MAGIC:
        raise CorruptModel("bad magic: not a model container")
    (version,) = r.unpack("H")
    if version != VERSION:
        raise CorruptModel(f"unsupported container version {version}, expected {VERSION}")
    sections = []
    for _ in range(3):
        (length,) = r.unpack("I")
        sections.append(r.take(length))
    if r.pos != len(data):
        raise CorruptModel(f"container has {len(data) - r.pos} trailing bytes")
    try:
        return ModelContainer(
            _unpack_frontend(sections[0]), _unpack_rvq(sections[1]), _unpack_metadata(sections[2])
        )
    except CorruptModel:
        raise
    except Exception as exc:  # malformed field values surface as CorruptModel
        raise CorruptModel(f"invalid model payload: {exc}") from exc


def save(container: ModelContainer, path) -> None:
    data = to_bytes(container)  # before open: a failed serialisation leaves no file behind
    with open(check_path(path), "wb") as fh:
        fh.write(data)


def load(path) -> ModelContainer:
    with open(check_path(path), "rb") as fh:
        return from_bytes(fh.read())
