"""Wire messages: fetch requests carrying offload directives, and responses.

Binary layout (little endian):

Request:  magic 'FQ01' | sample_id u32 | epoch u32 | split u8
Response: magic 'FR02' | sample_id u32 | epoch u32 | split u8 | kind u8 |
          height u32 | width u32 | channels u32 | payload_len u32 |
          payload_crc32 u32 | payload

``kind`` is the :class:`~repro.preprocessing.payload.PayloadKind` of the
payload: encoded bytes for split 0, uint8 pixels after crop/flip, float32
tensors after ToTensor/Normalize.

A response whose payload fails its CRC32 raises :class:`ChecksumError`,
which the retry layer treats as transient -- the payload was damaged in
transit, not malformed by the sender -- so corrupted samples are re-fetched
instead of silently trained on.  Any other magic is a :class:`ProtocolError`.
"""

import dataclasses
import struct
import zlib

import numpy as np

from repro.preprocessing.payload import Payload, PayloadKind

_REQUEST = struct.Struct("<4sIIB")
_RESPONSE = struct.Struct("<4sIIBBIIIII")
_REQUEST_MAGIC = b"FQ01"
_RESPONSE_MAGIC = b"FR02"

REQUEST_HEADER_SIZE = _REQUEST.size
RESPONSE_HEADER_SIZE = _RESPONSE.size


def payload_checksum(payload: bytes) -> int:
    """The CRC32 a response carries for ``payload``."""
    return zlib.crc32(payload) & 0xFFFFFFFF

_KIND_CODES = {
    PayloadKind.ENCODED: 0,
    PayloadKind.IMAGE_U8: 1,
    PayloadKind.TENSOR_F32: 2,
}
_CODE_KINDS = {code: kind for kind, code in _KIND_CODES.items()}


class ProtocolError(Exception):
    """A message failed to parse or violated the protocol."""


class ChecksumError(ProtocolError):
    """A response's payload does not match its CRC32.

    Unlike other protocol errors this one is *transient* (the bytes were
    damaged on the wire); the retry layer re-fetches on it.
    """


@dataclasses.dataclass(frozen=True)
class FetchRequest:
    """Ask the storage server for a sample, offloading ops 1..split.

    split=0 requests the raw stored bytes (no offloading).
    """

    sample_id: int
    epoch: int
    split: int

    def __post_init__(self) -> None:
        if self.sample_id < 0:
            raise ValueError(f"sample_id must be >= 0, got {self.sample_id}")
        if self.epoch < 0:
            raise ValueError(f"epoch must be >= 0, got {self.epoch}")
        if not 0 <= self.split <= 255:
            raise ValueError(f"split must be in [0, 255], got {self.split}")

    def to_bytes(self) -> bytes:
        return _REQUEST.pack(_REQUEST_MAGIC, self.sample_id, self.epoch, self.split)

    @classmethod
    def from_bytes(cls, data: bytes) -> "FetchRequest":
        if len(data) != _REQUEST.size:
            raise ProtocolError(f"request is {len(data)} bytes, expected {_REQUEST.size}")
        magic, sample_id, epoch, split = _REQUEST.unpack(data)
        if magic != _REQUEST_MAGIC:
            raise ProtocolError(f"bad request magic {magic!r}")
        return cls(sample_id=sample_id, epoch=epoch, split=split)


@dataclasses.dataclass(frozen=True)
class FetchResponse:
    """A sample with ops 1..split already applied by the storage server."""

    sample_id: int
    epoch: int
    split: int
    kind: PayloadKind
    height: int
    width: int
    channels: int
    payload: bytes

    def to_bytes(self) -> bytes:
        """Serialize as a checksummed FR02 frame."""
        return (
            _RESPONSE.pack(
                _RESPONSE_MAGIC,
                self.sample_id,
                self.epoch,
                self.split,
                _KIND_CODES[self.kind],
                self.height,
                self.width,
                self.channels,
                len(self.payload),
                payload_checksum(self.payload),
            )
            + self.payload
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "FetchResponse":
        if len(data) < _RESPONSE.size:
            raise ProtocolError(f"response truncated at {len(data)} bytes")
        (magic, sample_id, epoch, split, kind_code, height, width, channels,
         payload_len, checksum) = _RESPONSE.unpack_from(data)
        if magic != _RESPONSE_MAGIC:
            raise ProtocolError(f"bad response magic {magic!r}")
        if kind_code not in _CODE_KINDS:
            raise ProtocolError(f"unknown payload kind code {kind_code}")
        payload = data[_RESPONSE.size :]
        if len(payload) != payload_len:
            raise ProtocolError(
                f"payload length mismatch: header says {payload_len}, got {len(payload)}"
            )
        if payload_checksum(payload) != checksum:
            raise ChecksumError(
                f"payload CRC32 {payload_checksum(payload):#010x} does not "
                f"match frame checksum {checksum:#010x}"
            )
        return cls(
            sample_id=sample_id,
            epoch=epoch,
            split=split,
            kind=_CODE_KINDS[kind_code],
            height=height,
            width=width,
            channels=channels,
            payload=payload,
        )

    @classmethod
    def from_payload(
        cls, request: FetchRequest, payload: Payload, raw_height: int, raw_width: int
    ) -> "FetchResponse":
        """Wrap a pipeline payload for the wire."""
        if payload.kind is PayloadKind.ENCODED:
            height, width, channels = raw_height, raw_width, 3
            body = bytes(payload.data)
        elif payload.kind is PayloadKind.IMAGE_U8:
            height, width, channels = payload.data.shape
            body = np.ascontiguousarray(payload.data).tobytes()
        else:
            channels, height, width = payload.data.shape
            body = np.ascontiguousarray(payload.data.astype("<f4")).tobytes()
        return cls(
            sample_id=request.sample_id,
            epoch=request.epoch,
            split=request.split,
            kind=payload.kind,
            height=height,
            width=width,
            channels=channels,
            payload=body,
        )

    def to_payload(self) -> Payload:
        """Reconstruct the pipeline payload on the client side."""
        if self.kind is PayloadKind.ENCODED:
            return Payload.encoded(self.payload, height=self.height, width=self.width)
        if self.kind is PayloadKind.IMAGE_U8:
            expected = self.height * self.width * self.channels
            if len(self.payload) != expected:
                raise ProtocolError(
                    f"image payload is {len(self.payload)} bytes, expected {expected}"
                )
            array = np.frombuffer(self.payload, dtype=np.uint8).reshape(
                self.height, self.width, self.channels
            )
            return Payload.image(array.copy())
        expected = self.height * self.width * self.channels * 4
        if len(self.payload) != expected:
            raise ProtocolError(
                f"tensor payload is {len(self.payload)} bytes, expected {expected}"
            )
        array = np.frombuffer(self.payload, dtype="<f4").reshape(
            self.channels, self.height, self.width
        )
        return Payload.tensor(array.astype(np.float32, copy=True))


#: Frame-type registry: wire magic -> frame class (RPC01 requires every
#: codec class to appear here, so generic tooling can decode any frame).
FRAME_TYPES = {
    _REQUEST_MAGIC: FetchRequest,
    _RESPONSE_MAGIC: FetchResponse,
}
