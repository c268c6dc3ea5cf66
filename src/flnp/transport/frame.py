"""Binary frame container for protocol messages.

Layout (all integers little-endian):

    magic   4 bytes  "FLNP"
    version u16      1
    type    u8       message type code
    length  u32      payload byte count
    payload length bytes
    crc     u32      CRC-32 of the payload

Decoding is total: every byte string yields a parsed frame or a
DecodeError with a stable `code`, never an unchecked exception.
"""

from __future__ import annotations

import struct
import zlib

FRAME_MAGIC = b"FLNP"
FRAME_VERSION = 1
MAX_PAYLOAD = 64 * 1024 * 1024  # bounds memory against malformed peers

_HEADER = struct.Struct("<4sHBI")
HEADER_SIZE = _HEADER.size  # 11
TRAILER_SIZE = 4


class DecodeError(Exception):
    """Typed decode failure; `code` is machine-readable."""

    def __init__(self, code: str, detail: str = "") -> None:
        super().__init__(f"{code}: {detail}" if detail else code)
        self.code = code
        self.detail = detail


def frame_buffers(msg_type: int, *chunks) -> list:
    """Frame whose payload is `chunks` (contiguous buffers) in order, as a list of buffers.

    The list is the header, the chunks themselves (not copies) and the CRC
    trailer; the CRC streams over the chunks.
    """
    length = 0
    crc = 0
    for chunk in chunks:
        length += memoryview(chunk).nbytes
        crc = zlib.crc32(chunk, crc)
    header = _HEADER.pack(FRAME_MAGIC, FRAME_VERSION, msg_type, length)
    return [header, *chunks, struct.pack("<I", crc & 0xFFFFFFFF)]


def build_frame(msg_type: int, *chunks) -> bytes:
    """`frame_buffers` joined into one bytes object."""
    return b"".join(frame_buffers(msg_type, *chunks))


def parse_header(data) -> tuple[int, int]:
    """Check the first HEADER_SIZE bytes of a frame; returns (msg_type, length)."""
    magic, version, msg_type, length = _HEADER.unpack_from(data)
    if magic != FRAME_MAGIC:
        raise DecodeError("bad_magic", repr(magic))
    if version != FRAME_VERSION:
        raise DecodeError("unsupported_version", str(version))
    if length > MAX_PAYLOAD:
        raise DecodeError("frame_too_large", f"payload of {length} bytes exceeds cap {MAX_PAYLOAD}")
    return msg_type, length


def parse_frame(data) -> tuple[int, memoryview]:
    """Parse one complete frame; returns (msg_type, payload view into `data`)."""
    if len(data) < HEADER_SIZE:
        raise DecodeError("truncated", f"{len(data)} bytes is below the {HEADER_SIZE}-byte header")
    msg_type, length = parse_header(data)
    total = HEADER_SIZE + length + TRAILER_SIZE
    if len(data) < total:
        raise DecodeError("truncated", f"need {total} bytes, have {len(data)}")
    if len(data) > total:
        raise DecodeError("trailing_data", f"{len(data) - total} bytes past the frame end")
    payload = memoryview(data)[HEADER_SIZE : HEADER_SIZE + length]
    (crc,) = struct.unpack_from("<I", data, HEADER_SIZE + length)
    if crc != (zlib.crc32(payload) & 0xFFFFFFFF):
        raise DecodeError("checksum_mismatch")
    return msg_type, payload
