"""Binary frame container for protocol messages.

Layout (all integers little-endian):

    magic   4 bytes  "FLNP"
    version u16      1
    type    u8       message type code
    length  u32      payload byte count
    payload length bytes
    crc     u32      CRC-32 of the payload

Decoding is total: every byte string yields a parsed frame or a
DecodeError with a stable `code`, never an unchecked exception. The
codec reads a payload whole, with `fill`, and checks its CRC before it
decodes a field.
"""

from __future__ import annotations

import struct
import zlib
from typing import Callable

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
    if len(data) < HEADER_SIZE:
        raise DecodeError("truncated", f"{len(data)} bytes is below the {HEADER_SIZE}-byte header")
    magic, version, msg_type, length = _HEADER.unpack_from(data)
    if magic != FRAME_MAGIC:
        raise DecodeError("bad_magic", repr(magic))
    if version != FRAME_VERSION:
        raise DecodeError("unsupported_version", str(version))
    if length > MAX_PAYLOAD:
        raise DecodeError("frame_too_large", f"payload of {length} bytes exceeds cap {MAX_PAYLOAD}")
    return msg_type, length


def fill(read_into: Callable[[memoryview], int], buffer) -> None:
    """Fill `buffer` from a byte source: `read_into(view)` reads into the front of `view`.

    `read_into` returns the count of bytes it read, at least one, or 0 at
    the source's end, which raises DecodeError("truncated").
    """
    view = memoryview(buffer)
    while view:
        n = read_into(view)
        if not n:
            raise DecodeError("truncated", "the source ended early")
        view = view[n:]
