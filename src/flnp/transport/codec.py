"""Canonical binary encoding of protocol messages.

Encoding is deterministic: equal messages produce equal bytes (metric
maps are serialized in sorted key order). Parameter tensors travel as
32-bit IEEE-754 values, which are the values a parameter set holds, so a
decoded set equals the sent one bit for bit. Every message body ends with a
u32 auth tag; 0 means unsigned, otherwise it is CRC-32 over the session
key followed by the body bytes.

`BODY_LAYOUT` is the one statement of each body's fields in wire order;
the encoder and the decoder both walk it. A body is encoded as a list of
chunks: small fields are packed, and each tensor's values are its set's
own float32 array, referenced rather than copied. `encode_buffers` hands
the frame on as a list of buffers, so a TCP send joins nothing;
`encode_message` is that list joined. Decoding reads a payload whole
from its source (a socket, a file or bytes) into one buffer, checks its
CRC, and walks the same layout with a cursor over it; a parameter set
keeps that buffer, each tensor's values moved down to their slot.

A parameter set is checksummed once: its `wire_digest` is the CRC-32
and length of its encoding. The decoder derives it from the pass that
checks the frame's CRC, and any other set computes it on first use.
The CRC of a body is then its small fields' CRC combined with that
digest (`crc32_combine`), and the auth tag and the frame trailer are
combined from the body's CRC in turn, so neither signing, verifying
nor framing reads a tensor's values again.
"""

from __future__ import annotations

import io
import struct
import zlib
from typing import Callable

import numpy as np

from ..params import ParameterSet, mapped_buffer
from ..protocol.messages import (
    ErrorMsg,
    FlMessage,
    GlobalModel,
    Hello,
    LocalUpdate,
    Provisioned,
    RoundComplete,
    RoundPlan,
    Shutdown,
    with_tag,
)
from .frame import (
    HEADER_SIZE,
    TRAILER_SIZE,
    DecodeError,
    crc32_combine,
    crc32_shift,
    fill,
    frame_buffers,
    parse_header,
)

MSG_CODES: dict[type, int] = {
    Hello: 1,
    Provisioned: 2,
    GlobalModel: 3,
    LocalUpdate: 4,
    RoundComplete: 5,
    Shutdown: 6,
    ErrorMsg: 7,
}
_CODE_TO_TYPE = {v: k for k, v in MSG_CODES.items()}

# (field, encoding) pairs in wire order. An encoding is a name below or a
# dataclass, whose own entry is laid out in place. auth_tag is not a body
# field: it trails the body.
BODY_LAYOUT: dict[type, tuple[tuple[str, object], ...]] = {
    Hello: (("client_name", "str"), ("auth_token", "str")),
    Provisioned: (("client_id", "u32"), ("session_key", "blob"), ("round_plan", RoundPlan)),
    GlobalModel: (("round", "u32"), ("local_epochs", "u32"), ("lr", "f64"), ("params", "params")),
    LocalUpdate: (
        ("client_id", "u32"),
        ("round", "u32"),
        ("n_samples", "u64"),
        ("local_metrics", "metrics"),
        ("params", "params"),
    ),
    RoundComplete: (("round", "u32"), ("global_metrics", "metrics")),
    Shutdown: (("reason", "str"),),
    ErrorMsg: (("code", "str"), ("detail", "str")),
    RoundPlan: (("rounds", "u32"), ("local_epochs", "u32"), ("lr", "f64")),
}

# message types whose payload buffer becomes the buffer of the set they carry;
# the set is each one's last field, so its digest follows from the body's CRC
_CARRIES_SET = {msg_type for msg_type, layout in BODY_LAYOUT.items()
                if any(kind == "params" for _, kind in layout)}

_FIXED = {name: struct.Struct("<" + c) for name, c in
          (("u8", "B"), ("u16", "H"), ("u32", "I"), ("u64", "Q"), ("f64", "d"))}


def _put(chunks: list, kind, value) -> None:
    """Append `value` encoded as `kind` to `chunks`, tensors by reference."""
    if kind in _FIXED:
        chunks.append(_FIXED[kind].pack(value))
    elif kind in ("str", "blob"):
        b = value.encode("utf-8") if kind == "str" else value
        if len(b) > 0xFFFF:
            raise ValueError(f"{kind} of {len(b)} bytes exceeds the u16 length field")
        _put(chunks, "u16", len(b))
        chunks.append(b)
    elif kind == "metrics":
        _put(chunks, "u16", len(value))
        for name in sorted(value):
            _put(chunks, "str", name)
            _put(chunks, "f64", float(value[name]))
    elif kind == "params":
        _put(chunks, "u32", len(value))
        for name, values in value.items():
            _put(chunks, "str", name)
            # NumPy caps rank at 64, so the rank always fits its u8
            chunks += (struct.pack(f"<B{values.ndim}I", values.ndim, *values.shape), values)
    else:
        for name, sub in BODY_LAYOUT[kind]:
            _put(chunks, sub, getattr(value, name))


class _Reader:
    """A cursor that decodes `BODY_LAYOUT` encodings from a buffer.

    A tensor's values are moved down to their float32 slot of the same
    buffer, which the decoded parameter set keeps: slot i starts at or
    before its wire bytes and ends before tensor i+1's name, so the move
    overwrites nothing not yet read. Given `crc`, the CRC-32 of the whole
    buffer, a set that runs to the buffer's end gets its `wire_digest`.
    """

    def __init__(self, buffer, crc: int | None = None) -> None:
        self._buffer = memoryview(buffer)
        self._pos = 0
        self._crc = crc

    def take(self, n: int) -> memoryview:
        if self._pos + n > len(self._buffer):
            raise DecodeError("bad_payload", "field runs past the end of the body")
        self._pos += n
        return self._buffer[self._pos - n : self._pos]

    def _values_into(self, slot: np.ndarray) -> None:
        memoryview(slot.reshape(-1).view(np.uint8))[:] = self.take(slot.nbytes)

    def read(self, kind):
        if kind in _FIXED:
            return _FIXED[kind].unpack(self.take(_FIXED[kind].size))[0]
        if kind == "str":
            try:
                return str(self.take(self.read("u16")), "utf-8")
            except UnicodeDecodeError:
                raise DecodeError("bad_payload", "invalid UTF-8 in string field") from None
        if kind == "blob":
            return bytes(self.take(self.read("u16")))
        if kind == "metrics":
            return {self.read("str"): self.read("f64") for _ in range(self.read("u16"))}
        if kind == "params":
            return self._params()
        return kind(**{name: self.read(sub) for name, sub in BODY_LAYOUT[kind]})

    def _params(self) -> ParameterSet:
        start = self._pos
        head_crc = zlib.crc32(self._buffer[:start])  # before the first move overwrites those bytes
        count = self.read("u32")
        entries = ((self.read("str"), self._shape(), self._values_into) for _ in range(count))
        try:
            ps = ParameterSet.laid_out(self._buffer, entries)
        except ValueError as exc:
            raise DecodeError("bad_payload", str(exc)) from None
        if self._crc is not None and self._pos == len(self._buffer):
            # the set's bytes, as read, are its encoding: names are strict UTF-8,
            # shapes pack back to their bytes, and values move unchanged
            size = self._pos - start
            ps.wire_digest = (self._crc ^ crc32_shift(head_crc, size), size)
        return ps

    def _shape(self) -> tuple[int, ...]:
        return tuple(self.read("u32") for _ in range(self.read("u8")))

    def read_all(self, kind, what: str):
        """`kind` decoded from the whole buffer, with no bytes left over."""
        value = self.read(kind)
        if self._pos != len(self._buffer):
            raise DecodeError("bad_payload", f"unconsumed bytes after the {what}")
        return value


def _digest(chunks: list, crc: int = 0, size: int = 0) -> tuple[int, int]:
    """(CRC-32, byte count) of what (crc, size) covers followed by `chunks`."""
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
        size += memoryview(chunk).nbytes
    return crc, size


def _set_digest(ps: ParameterSet) -> tuple[int, int]:
    """The set's cached `wire_digest`, computed over its encoding on first use.

    Threads that race to compute it store the same value, so no lock is needed.
    """
    if ps.wire_digest is None:
        chunks: list = []
        _put(chunks, "params", ps)
        ps.wire_digest = _digest(chunks)
    return ps.wire_digest


def _body_digest(msg: FlMessage) -> tuple[int, int]:
    """(CRC-32, byte count) of the body: small fields encoded, a set's digest combined in."""
    if type(msg) not in MSG_CODES:
        raise TypeError(f"not a protocol message: {type(msg).__name__}")
    crc = size = 0
    for name, kind in BODY_LAYOUT[type(msg)]:
        if kind == "params":
            set_crc, set_size = _set_digest(getattr(msg, name))
            crc, size = crc32_combine(crc, set_crc, set_size), size + set_size
        else:
            chunks: list = []
            _put(chunks, kind, getattr(msg, name))
            crc, size = _digest(chunks, crc, size)
    return crc, size


def encode_buffers(msg: FlMessage) -> list:
    """The frame as a list of buffers: header, body chunks, auth tag, CRC trailer.

    Tensor values are the message's own arrays, so the list must be used
    before those arrays change. The trailer carries the body's CRC on
    over the tag.
    """
    body_crc, _ = _body_digest(msg)
    chunks: list = []
    _put(chunks, type(msg), msg)
    tag = struct.pack("<I", msg.auth_tag & 0xFFFFFFFF)
    return frame_buffers(MSG_CODES[type(msg)], [*chunks, tag], zlib.crc32(tag, body_crc))


def encode_message(msg: FlMessage) -> bytes:
    """Full frame bytes; deterministic per message value."""
    return b"".join(encode_buffers(msg))


def decode_message(data, read_into=None) -> FlMessage:
    """Exact inverse of encode_message; raises DecodeError on any defect.

    `data` is one whole frame, or, with `read_into` (see `fill`), just its
    header. The payload is read whole into one buffer, mapped if it
    carries a parameter set, which keeps it, and its CRC is checked before
    any field is decoded: a corrupted payload fails with
    `checksum_mismatch`, and a refused frame has been read to its end.
    That check's pass gives the body's CRC, from which a carried set's
    `wire_digest` follows.
    """
    if read_into is None:  # its size is checked before anything is read
        frame = memoryview(data).cast("B")
        size = HEADER_SIZE + parse_header(frame)[1] + TRAILER_SIZE
        if len(frame) != size:
            code = "truncated" if len(frame) < size else "trailing_data"
            raise DecodeError(code, f"{len(frame)} bytes for a frame of {size}")
        data, read_into = frame, io.BytesIO(frame[HEADER_SIZE:]).readinto
    code, length = parse_header(data)
    msg_type = _CODE_TO_TYPE.get(code)
    payload = mapped_buffer(length) if msg_type in _CARRIES_SET else bytearray(length)
    fill(read_into, payload)
    trailer = bytearray(TRAILER_SIZE)
    fill(read_into, trailer)
    body, tag_bytes = memoryview(payload)[:-4], memoryview(payload)[-4:]
    body_crc = zlib.crc32(body)
    if int.from_bytes(trailer, "little") != zlib.crc32(tag_bytes, body_crc):
        raise DecodeError("checksum_mismatch")
    if length < 4:
        raise DecodeError("bad_payload", "payload too short for the auth tag")
    if msg_type is None:
        raise DecodeError("unknown_type", str(code))
    msg = _Reader(body, body_crc).read_all(msg_type, "message body")
    tag = int.from_bytes(tag_bytes, "little")
    return with_tag(msg, tag) if tag else msg


def parameter_set_to_bytes(ps: ParameterSet) -> bytes:
    """Standalone wire encoding of a parameter set (values at float32)."""
    chunks: list = []
    _put(chunks, "params", ps)
    return b"".join(chunks)


def read_parameter_set(read_into: Callable[[memoryview], int], size: int) -> ParameterSet:
    """The parameter set encoded in the next `size` bytes that `read_into` reads (see `fill`)."""
    buffer = mapped_buffer(size)
    fill(read_into, buffer)
    return _Reader(buffer).read_all("params", "parameter set")


def compute_auth_tag(session_key: bytes, msg: FlMessage) -> int:
    """Keyed CRC-32 over the canonical body; simulated authentication.

    The CRC of key and body concatenated, combined from the key's CRC and
    the body's (`_body_digest`), so the set's values are not read again.
    """
    body_crc, body_size = _body_digest(msg)
    return crc32_combine(zlib.crc32(session_key), body_crc, body_size) or 1  # 0 is "unsigned"


def sign(msg: FlMessage, session_key: bytes) -> FlMessage:
    return with_tag(msg, compute_auth_tag(session_key, msg))


def verify_auth(msg: FlMessage, session_key: bytes) -> bool:
    return msg.auth_tag == compute_auth_tag(session_key, msg)
