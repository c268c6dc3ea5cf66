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
own float32 array, referenced rather than copied. Signing, verifying and
framing all stream over those chunks, and `encode_buffers` hands the
frame on as a list of buffers, so a TCP send joins nothing;
`encode_message` is that list joined.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np

from ..params import WIRE_DTYPE, ParameterSet
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
from .frame import DecodeError, frame_buffers, parse_frame

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
    """Decodes `BODY_LAYOUT` encodings; tensors are views of the buffer, not copies."""

    def __init__(self, data) -> None:
        self._data = memoryview(data)
        self._pos = 0

    def take(self, n: int) -> memoryview:
        if self._pos + n > len(self._data):
            raise DecodeError("bad_payload", "field runs past the end of the body")
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

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
        items: list[tuple[str, np.ndarray]] = []
        for _ in range(self.read("u32")):
            name = self.read("str")
            shape = tuple(self.read("u32") for _ in range(self.read("u8")))
            values = np.frombuffer(self.take(4 * math.prod(shape)), dtype=WIRE_DTYPE)
            items.append((name, values.reshape(shape)))
        try:
            return ParameterSet._adopt_wire(items)
        except ValueError as exc:
            raise DecodeError("bad_payload", str(exc)) from None

    def read_all(self, kind, what: str):
        """`kind` decoded from the whole buffer, with no bytes left over."""
        value = self.read(kind)
        if self._pos != len(self._data):
            raise DecodeError("bad_payload", f"unconsumed bytes after the {what}")
        return value


def _encode_body(msg: FlMessage) -> list:
    """The body as a list of buffers, in wire order."""
    if type(msg) not in MSG_CODES:
        raise TypeError(f"not a protocol message: {type(msg).__name__}")
    chunks: list = []
    _put(chunks, type(msg), msg)
    return chunks


def encode_buffers(msg: FlMessage) -> list:
    """The frame as a list of buffers: header, body chunks, auth tag, CRC trailer.

    Tensor values are the message's own arrays, so the list must be used
    before those arrays change.
    """
    tag = struct.pack("<I", msg.auth_tag & 0xFFFFFFFF)
    return frame_buffers(MSG_CODES[type(msg)], *_encode_body(msg), tag)


def encode_message(msg: FlMessage) -> bytes:
    """Full frame bytes; deterministic per message value."""
    return b"".join(encode_buffers(msg))


def decode_message(data) -> FlMessage:
    """Exact inverse of encode_message; raises DecodeError on any defect.

    Decoded parameter sets view `data` rather than copy it, so `data`
    must not be modified afterwards.
    """
    code, payload = parse_frame(data)
    if len(payload) < 4:
        raise DecodeError("bad_payload", "payload too short for the auth tag")
    msg_type = _CODE_TO_TYPE.get(code)
    if msg_type is None:
        raise DecodeError("unknown_type", str(code))
    msg = _Reader(payload[:-4]).read_all(msg_type, "message body")
    (tag,) = struct.unpack_from("<I", payload, len(payload) - 4)
    return with_tag(msg, tag) if tag else msg


def parameter_set_to_bytes(ps: ParameterSet) -> bytes:
    """Standalone wire encoding of a parameter set (values at float32)."""
    chunks: list = []
    _put(chunks, "params", ps)
    return b"".join(chunks)


def parameter_set_from_bytes(data) -> ParameterSet:
    return _Reader(data).read_all("params", "parameter set")


def compute_auth_tag(session_key: bytes, msg: FlMessage) -> int:
    """Keyed CRC-32 over the canonical body; simulated authentication.

    The CRC runs over the key and then over each body chunk, carrying its
    running value, which equals the CRC of key and body concatenated.
    """
    crc = zlib.crc32(session_key)
    for chunk in _encode_body(msg):
        crc = zlib.crc32(chunk, crc)
    return (crc & 0xFFFFFFFF) or 1  # 0 is reserved for "unsigned"


def sign(msg: FlMessage, session_key: bytes) -> FlMessage:
    return with_tag(msg, compute_auth_tag(session_key, msg))


def verify_auth(msg: FlMessage, session_key: bytes) -> bool:
    return msg.auth_tag == compute_auth_tag(session_key, msg)
