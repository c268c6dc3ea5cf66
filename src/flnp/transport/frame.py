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

CRC-32 is affine over GF(2), so the CRC of a concatenation follows from
the CRCs of its parts and the length of the second (`crc32_combine`, a
port of zlib's `crc32_combine`, which Python's `zlib` does not offer).
The codec uses that to checksum each parameter set once and derive every
auth tag and frame trailer that covers it, so `frame_buffers` takes the
payload's CRC from its caller.
"""

from __future__ import annotations

import struct
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


_POLY = 0xEDB88320  # CRC-32's polynomial, bit-reflected: bit 31 holds x^0


def _multmodp(a: int, b: int) -> int:
    """a(x) * b(x) modulo the CRC-32 polynomial; `a` is not 0."""
    m = 1 << 31
    p = 0
    while True:
        if a & m:
            p ^= b
            if not a & (m - 1):
                return p
        m >>= 1
        b = (b >> 1) ^ _POLY if b & 1 else b >> 1


def _powers() -> tuple[int, ...]:
    """x^(2^k) modulo the polynomial for k = 0..31, each the square of the one before."""
    table = [1 << 30]  # x^1
    for _ in range(31):
        table.append(_multmodp(table[-1], table[-1]))
    return tuple(table)


_X2N = _powers()


def crc32_shift(crc: int, n: int) -> int:
    """What `crc`, the CRC-32 of A, contributes to the CRC-32 of A followed by n bytes.

    That is x^(8n) * crc modulo the polynomial, so
    `crc32(A + B) == crc32_shift(crc32(A), len(B)) ^ crc32(B)`.
    """
    p = 1 << 31  # x^0
    k = 3  # n bytes are 8n = n * 2^3 bits
    while n:
        if n & 1:
            p = _multmodp(_X2N[k & 31], p)
        n >>= 1
        k += 1
    return _multmodp(p, crc)


def crc32_combine(crc1: int, crc2: int, len2: int) -> int:
    """CRC-32 of A followed by B, from crc1 = CRC-32 of A, crc2 = CRC-32 of B and len2 = len(B)."""
    return crc32_shift(crc1, len2) ^ crc2


def frame_buffers(msg_type: int, chunks: list, crc: int) -> list:
    """Frame whose payload is `chunks` (contiguous buffers) in order, as a list of buffers.

    `crc` is the CRC-32 of the payload, which the caller knows. The list
    is the header, the chunks themselves (not copies) and the CRC trailer.
    """
    length = sum(memoryview(chunk).nbytes for chunk in chunks)
    header = _HEADER.pack(FRAME_MAGIC, FRAME_VERSION, msg_type, length)
    return [header, *chunks, struct.pack("<I", crc & 0xFFFFFFFF)]


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
