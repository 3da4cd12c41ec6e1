"""Wire message serialization tests."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.preprocessing.payload import Payload, PayloadKind
from repro.rpc.messages import (
    REQUEST_HEADER_SIZE,
    RESPONSE_HEADER_SIZE,
    ChecksumError,
    FetchRequest,
    FetchResponse,
    ProtocolError,
    payload_checksum,
)


class TestFetchRequest:
    def test_round_trip(self):
        req = FetchRequest(sample_id=123, epoch=7, split=3)
        assert FetchRequest.from_bytes(req.to_bytes()) == req

    def test_wire_size_is_fixed(self):
        assert len(FetchRequest(0, 0, 0).to_bytes()) == REQUEST_HEADER_SIZE

    @given(
        sample_id=st.integers(0, 2**32 - 1),
        epoch=st.integers(0, 2**32 - 1),
        split=st.integers(0, 255),
    )
    @settings(max_examples=30, deadline=None)
    def test_round_trip_property(self, sample_id, epoch, split):
        req = FetchRequest(sample_id, epoch, split)
        assert FetchRequest.from_bytes(req.to_bytes()) == req

    def test_rejects_bad_magic(self):
        data = bytearray(FetchRequest(1, 1, 1).to_bytes())
        data[:4] = b"XXXX"
        with pytest.raises(ProtocolError):
            FetchRequest.from_bytes(bytes(data))

    def test_rejects_wrong_length(self):
        with pytest.raises(ProtocolError):
            FetchRequest.from_bytes(b"\x00" * 5)

    def test_validates_fields(self):
        with pytest.raises(ValueError):
            FetchRequest(-1, 0, 0)
        with pytest.raises(ValueError):
            FetchRequest(0, 0, 256)


class TestFetchResponse:
    def make_request(self):
        return FetchRequest(sample_id=9, epoch=2, split=2)

    def test_encoded_payload_round_trip(self):
        req = FetchRequest(9, 2, 0)
        payload = Payload.encoded(b"\x01\x02\x03", height=20, width=30)
        resp = FetchResponse.from_payload(req, payload, 20, 30)
        back = FetchResponse.from_bytes(resp.to_bytes())
        restored = back.to_payload()
        assert restored.kind is PayloadKind.ENCODED
        assert restored.data == b"\x01\x02\x03"
        assert restored.meta.height == 20

    def test_image_payload_round_trip(self, rng):
        array = rng.integers(0, 256, size=(8, 6, 3), dtype=np.uint8)
        resp = FetchResponse.from_payload(self.make_request(), Payload.image(array), 8, 6)
        restored = FetchResponse.from_bytes(resp.to_bytes()).to_payload()
        assert np.array_equal(restored.data, array)

    def test_tensor_payload_round_trip(self, rng):
        array = rng.uniform(size=(3, 5, 4)).astype(np.float32)
        req = FetchRequest(9, 2, 5)
        resp = FetchResponse.from_payload(req, Payload.tensor(array), 5, 4)
        restored = FetchResponse.from_bytes(resp.to_bytes()).to_payload()
        assert np.allclose(restored.data, array)
        assert restored.data.dtype == np.float32

    def test_wire_size_formula(self, rng):
        array = rng.integers(0, 256, size=(10, 10, 3), dtype=np.uint8)
        resp = FetchResponse.from_payload(self.make_request(), Payload.image(array), 10, 10)
        assert len(resp.to_bytes()) == RESPONSE_HEADER_SIZE + array.nbytes

    def test_truncated_response_rejected(self, rng):
        array = rng.integers(0, 256, size=(8, 8, 3), dtype=np.uint8)
        data = FetchResponse.from_payload(
            self.make_request(), Payload.image(array), 8, 8
        ).to_bytes()
        with pytest.raises(ProtocolError):
            FetchResponse.from_bytes(data[:-5])

    def test_bad_magic_rejected(self):
        with pytest.raises(ProtocolError):
            FetchResponse.from_bytes(b"ZZZZ" + b"\x00" * RESPONSE_HEADER_SIZE)

    def test_short_stream_rejected(self):
        with pytest.raises(ProtocolError):
            FetchResponse.from_bytes(b"\x00" * 4)

    def test_payload_size_mismatch_rejected(self, rng):
        array = rng.integers(0, 256, size=(4, 4, 3), dtype=np.uint8)
        resp = FetchResponse.from_payload(self.make_request(), Payload.image(array), 4, 4)
        # Corrupt the dims so the pixel count no longer matches the payload.
        import dataclasses

        bad = dataclasses.replace(resp, height=5)
        with pytest.raises(ProtocolError):
            bad.to_payload()


class TestChecksummedFrames:
    def make_response(self):
        payload = Payload.encoded(b"stable bytes", height=10, width=12)
        return FetchResponse.from_payload(FetchRequest(3, 1, 0), payload, 10, 12)

    def test_v2_frame_carries_the_payload_crc32(self):
        resp = self.make_response()
        wire = resp.to_bytes()
        assert wire[:4] == b"FR02"
        assert len(wire) == RESPONSE_HEADER_SIZE + len(resp.payload)
        assert FetchResponse.from_bytes(wire) == resp

    def test_flipped_payload_byte_raises_checksum_error(self):
        wire = bytearray(self.make_response().to_bytes())
        wire[RESPONSE_HEADER_SIZE + 3] ^= 0xFF
        with pytest.raises(ChecksumError):
            FetchResponse.from_bytes(bytes(wire))

    def test_checksum_error_is_a_protocol_error(self):
        assert issubclass(ChecksumError, ProtocolError)

    def test_fr01_frame_rejected(self):
        # The unchecksummed FR01 layout: FR02's header minus payload_crc32.
        resp = self.make_response()
        header = struct.pack("<4sIIBBIIII", b"FR01", 3, 1, 0, 0, 10, 12, 3, len(resp.payload))
        with pytest.raises(ProtocolError, match="magic"):
            FetchResponse.from_bytes(header + resp.payload)

    def test_payload_checksum_is_plain_crc32(self):
        import zlib

        assert payload_checksum(b"abc") == zlib.crc32(b"abc") & 0xFFFFFFFF

    @given(payload=st.binary(min_size=0, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_any_payload_round_trips_with_checksum(self, payload):
        resp = FetchResponse(
            sample_id=1,
            epoch=0,
            split=0,
            kind=PayloadKind.ENCODED,
            height=4,
            width=4,
            channels=3,
            payload=payload,
        )
        assert FetchResponse.from_bytes(resp.to_bytes()).payload == payload
