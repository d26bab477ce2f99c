import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvqlab.bitstream import HEADER_SIZE, pack, prefix, unpack
from rvqlab.errors import (
    CorruptPadding,
    InvalidInput,
    NotABitstream,
    RvqLabError,
    SampleRateMismatch,
    Truncated,
)
from rvqlab.rvq import TokenStream


_RATES_OFFSET = 6  # sample_rate u32 and frame_rate u16 follow magic[4] and version u16


def _stream(frames, k=1024):
    return TokenStream(np.asarray(frames, dtype=np.uint16), codebook_size=k)


class TestPack:
    def test_hand_bit_layout(self):
        # Codes [1023, 0, 512] at 10 bits: ten 1s, ten 0s, then 0000000001
        # LSB-first, zero-padded to 4 bytes.
        data = pack(_stream([[1023, 0, 512]]))
        assert data[:HEADER_SIZE] == struct.pack("<4sHIHHBI", b"RVQS", 1, 24000, 75, 1024, 3, 1)
        payload = data[HEADER_SIZE:]
        assert payload == bytes([0xFF, 0x03, 0x00, 0x20])

        # Independent bit-reader cross-check.
        bits = []
        for byte in payload:
            bits.extend((byte >> i) & 1 for i in range(8))
        codes = [sum(b << i for i, b in enumerate(bits[c * 10 : c * 10 + 10])) for c in range(3)]
        assert codes == [1023, 0, 512]

    def test_empty_stream_header_only(self):
        data = pack(_stream(np.zeros((0, 4), dtype=np.uint16)))
        assert len(data) == HEADER_SIZE

    def test_one_second_q4_is_375_payload_bytes(self):
        # 75 frames x 4 stages x 10 bits = 3000 bits = 375 bytes: 3000 bps at 1 s.
        rng = np.random.default_rng(0)
        data = pack(_stream(rng.integers(0, 1024, (75, 4))))
        assert len(data) - HEADER_SIZE == 375

    def test_size_formula(self):
        rng = np.random.default_rng(1)
        for t, q, k in ((3, 5, 16), (10, 1, 2), (7, 3, 1024), (1, 32, 4)):
            data = pack(_stream(rng.integers(0, k, (t, q)), k=k))
            bits = int(np.log2(k))
            assert len(data) == HEADER_SIZE + (t * q * bits + 7) // 8

    def test_index_overflow(self):
        tokens = _stream([[3]], k=1024)
        object.__setattr__(tokens, "codebook_size", 2)  # force inconsistency
        with pytest.raises(InvalidInput):
            pack(tokens)

    @pytest.mark.parametrize(
        "shape, k, message",
        [((2, 1), 65536, "codebook_size"), ((2, 256), 1024, "header holds")],
        ids=["K-u16", "q-u8"],
    )
    def test_header_field_overflow(self, shape, k, message):
        # K is a u16 and q a u8 in the header: wider values are typed errors,
        # K's from TokenStream and q's from pack.
        with pytest.raises(InvalidInput, match=message):
            pack(TokenStream(np.zeros(shape), k))


class TestUnpack:
    @settings(max_examples=60, deadline=None)
    @given(
        t=st.integers(0, 120),
        q=st.integers(1, 32),
        k_bits=st.integers(1, 12),
        seed=st.integers(0, 2**31),
    )
    def test_roundtrip(self, t, q, k_bits, seed):
        k = 1 << k_bits
        rng = np.random.default_rng(seed)
        tokens = _stream(rng.integers(0, k, (t, q)), k=k)
        back = unpack(pack(tokens))
        assert back.n_frames == t and back.n_stages == q and back.codebook_size == k
        assert np.array_equal(back.frames, tokens.frames)

    def test_thousand_random_streams_bit_exact(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            t = int(rng.integers(0, 501))
            q = int(rng.integers(1, 33))
            tokens = _stream(rng.integers(0, 1024, (t, q)))
            data = pack(tokens)
            back = unpack(data)
            assert np.array_equal(back.frames, tokens.frames)
            assert pack(back) == data

    def test_zero_stages_in_header(self):
        data = struct.pack("<4sHIHHBI", b"RVQS", 1, 24000, 75, 1024, 0, 1)
        with pytest.raises(NotABitstream, match="q=0"):
            unpack(data)

    def test_bad_magic(self):
        with pytest.raises(NotABitstream):
            unpack(b"JUNKxxxxxxxxxxxxxxxxxxx")

    def test_truncated_payload(self):
        data = pack(_stream([[1, 2], [3, 4]], k=16))
        with pytest.raises(Truncated) as err:
            unpack(data[:-1])
        assert err.value.expected == len(data)

    def test_nonzero_padding(self):
        data = bytearray(pack(_stream([[5]], k=16)))
        data[-1] |= 0x80  # set a padding bit above the 4 used bits
        with pytest.raises(CorruptPadding):
            unpack(bytes(data))

    def test_empty_payload_empty_tokens(self):
        data = pack(_stream(np.zeros((0, 3), dtype=np.uint16)))
        tokens = unpack(data)
        assert tokens.frames.shape == (0, 3)

    def test_single_bit_flips_never_crash(self):
        base = pack(_stream(np.arange(12, dtype=np.uint16).reshape(4, 3), k=16))
        for byte_idx in range(HEADER_SIZE, len(base)):
            for bit in range(8):
                mutated = bytearray(base)
                mutated[byte_idx] ^= 1 << bit
                try:
                    tokens = unpack(bytes(mutated))
                    assert not np.array_equal(
                        tokens.frames, np.arange(12, dtype=np.uint16).reshape(4, 3)
                    )
                except CorruptPadding:
                    pass

    def test_header_bit_flips_typed_errors_only(self):
        base = pack(_stream(np.arange(12, dtype=np.uint16).reshape(4, 3), k=16))
        rate_bytes = range(_RATES_OFFSET, _RATES_OFFSET + 6)
        for byte_idx in range(4, HEADER_SIZE):
            for bit in range(8):
                mutated = bytearray(base)
                mutated[byte_idx] ^= 1 << bit
                if byte_idx in rate_bytes:
                    with pytest.raises(SampleRateMismatch):
                        unpack(bytes(mutated))
                    continue
                try:
                    unpack(bytes(mutated))
                except RvqLabError:
                    pass

    @pytest.mark.parametrize("sample_rate, frame_rate", [(16000, 50), (16000, 75), (24000, 50)])
    def test_other_rates_rejected(self, sample_rate, frame_rate):
        data = bytearray(pack(_stream([[1, 2], [3, 4]], k=16)))
        struct.pack_into("<IH", data, _RATES_OFFSET, sample_rate, frame_rate)
        data = bytes(data)
        with pytest.raises(SampleRateMismatch, match=f"stream is {sample_rate} Hz at {frame_rate}"):
            unpack(data)
        with pytest.raises(SampleRateMismatch):
            prefix(data, 1)

    @settings(max_examples=200, deadline=None)
    @given(blob=st.binary(max_size=200))
    def test_fuzz_arbitrary_bytes_typed_errors_only(self, blob):
        try:
            unpack(blob)
        except RvqLabError:
            pass


class TestPrefix:
    def test_identity_prefix_byte_identical(self):
        rng = np.random.default_rng(5)
        data = pack(_stream(rng.integers(0, 1024, (20, 4))))
        assert prefix(data, 4) == data

    def test_prefix_drops_later_stages(self):
        rng = np.random.default_rng(6)
        tokens = _stream(rng.integers(0, 1024, (15, 4)))
        data = pack(tokens)
        two = unpack(prefix(data, 2))
        assert np.array_equal(two.frames, tokens.frames[:, :2])

    def test_prefix_bit_length(self):
        rng = np.random.default_rng(7)
        data = pack(_stream(rng.integers(0, 1024, (33, 4))))
        short = prefix(data, 1)
        assert len(short) == HEADER_SIZE + (33 * 10 + 7) // 8

    def test_prefix_too_long(self):
        data = pack(_stream([[1, 2]], k=16))
        with pytest.raises(InvalidInput):
            prefix(data, 3)
