"""Canonical binary encoding of protocol messages.

Encoding is deterministic: equal messages produce equal bytes (metric
maps are serialized in sorted key order). Parameter tensors travel as
32-bit IEEE-754 values, which are the values a parameter set holds, so a
decoded set equals the sent one bit for bit. Every message body ends with a
u32 auth tag; 0 means unsigned, otherwise it is CRC-32 over the session
key followed by the body bytes.

A body is encoded as a list of chunks: small fields are packed, and each
tensor's values are its set's own float32 array, referenced rather than
copied. Signing, verifying and framing all stream over those chunks, so
no body is joined except once into the outgoing frame.
"""

from __future__ import annotations

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
from .frame import DEFAULT_MAX_PAYLOAD, DecodeError, build_frame, parse_frame

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


class _Writer:
    def __init__(self) -> None:
        self.chunks: list = []  # bytes and other contiguous buffers, in order

    def u8(self, v: int) -> None:
        self.chunks.append(struct.pack("<B", v))

    def u16(self, v: int) -> None:
        self.chunks.append(struct.pack("<H", v))

    def u32(self, v: int) -> None:
        self.chunks.append(struct.pack("<I", v))

    def u64(self, v: int) -> None:
        self.chunks.append(struct.pack("<Q", v))

    def f64(self, v: float) -> None:
        self.chunks.append(struct.pack("<d", v))

    def raw(self, b) -> None:
        """Append any contiguous buffer (bytes, memoryview, numpy array)."""
        self.chunks.append(b)

    def string(self, s: str) -> None:
        b = s.encode("utf-8")
        if len(b) > 0xFFFF:
            raise ValueError(f"string of {len(b)} bytes exceeds the u16 length field")
        self.u16(len(b))
        self.raw(b)

    def blob(self, b: bytes) -> None:
        if len(b) > 0xFFFF:
            raise ValueError("blob exceeds the u16 length field")
        self.u16(len(b))
        self.raw(b)

    def metrics(self, values: dict[str, float]) -> None:
        self.u16(len(values))
        for name in sorted(values):
            self.string(name)
            self.f64(float(values[name]))

    def getvalue(self) -> bytes:
        return b"".join(self.chunks)


class _Reader:
    """Reads fields from a buffer; bulk fields are zero-copy memoryviews."""

    def __init__(self, data) -> None:
        self._data = memoryview(data)
        self._pos = 0

    def take(self, n: int) -> memoryview:
        if n < 0 or self._pos + n > len(self._data):
            raise DecodeError("bad_payload", "field runs past the end of the body")
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def u8(self) -> int:
        return struct.unpack("<B", self.take(1))[0]

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.take(8))[0]

    def string(self) -> str:
        n = self.u16()
        try:
            return str(self.take(n), "utf-8")
        except UnicodeDecodeError:
            raise DecodeError("bad_payload", "invalid UTF-8 in string field") from None

    def blob(self) -> bytes:
        return bytes(self.take(self.u16()))

    def metrics(self) -> dict[str, float]:
        return {self.string(): self.f64() for _ in range(self.u16())}

    def done(self) -> bool:
        return self._pos == len(self._data)


def encode_parameter_set(w: _Writer, ps: ParameterSet) -> None:
    w.u32(len(ps))
    for name, values in ps.items():
        w.string(name)
        if values.ndim > 0xFF:
            raise ValueError("tensor rank exceeds the u8 field")
        w.u8(values.ndim)
        for dim in values.shape:
            w.u32(dim)
        w.raw(values)


def decode_parameter_set(r: _Reader) -> ParameterSet:
    """Set whose arrays are views of the received bytes, not copies."""
    count = r.u32()
    items: list[tuple[str, np.ndarray]] = []
    for _ in range(count):
        name = r.string()
        rank = r.u8()
        shape = tuple(r.u32() for _ in range(rank))
        n = 1
        for dim in shape:
            n *= dim
        items.append((name, np.frombuffer(r.take(4 * n), dtype=WIRE_DTYPE).reshape(shape)))
    try:
        return ParameterSet._adopt_wire(items)
    except ValueError as exc:
        raise DecodeError("bad_payload", str(exc)) from None


def _encode_body(msg: FlMessage) -> list:
    """The body as a list of buffers, in wire order."""
    w = _Writer()
    if isinstance(msg, Hello):
        w.string(msg.client_name)
        w.string(msg.auth_token)
    elif isinstance(msg, Provisioned):
        w.u32(msg.client_id)
        w.blob(msg.session_key)
        w.u32(msg.round_plan.rounds)
        w.u32(msg.round_plan.local_epochs)
        w.f64(msg.round_plan.lr)
    elif isinstance(msg, GlobalModel):
        w.u32(msg.round)
        w.u32(msg.local_epochs)
        w.f64(msg.lr)
        encode_parameter_set(w, msg.params)
    elif isinstance(msg, LocalUpdate):
        w.u32(msg.client_id)
        w.u32(msg.round)
        w.u64(msg.n_samples)
        w.metrics(msg.local_metrics)
        encode_parameter_set(w, msg.params)
    elif isinstance(msg, RoundComplete):
        w.u32(msg.round)
        w.metrics(msg.global_metrics)
    elif isinstance(msg, Shutdown):
        w.string(msg.reason)
    elif isinstance(msg, ErrorMsg):
        w.string(msg.code)
        w.string(msg.detail)
    else:
        raise TypeError(f"not a protocol message: {type(msg).__name__}")
    return w.chunks


def _decode_body(code: int, body) -> FlMessage:
    r = _Reader(body)
    cls = _CODE_TO_TYPE.get(code)
    if cls is None:
        raise DecodeError("unknown_type", str(code))
    if cls is Hello:
        msg: FlMessage = Hello(client_name=r.string(), auth_token=r.string())
    elif cls is Provisioned:
        msg = Provisioned(
            client_id=r.u32(),
            session_key=r.blob(),
            round_plan=RoundPlan(rounds=r.u32(), local_epochs=r.u32(), lr=r.f64()),
        )
    elif cls is GlobalModel:
        msg = GlobalModel(round=r.u32(), local_epochs=r.u32(), lr=r.f64(), params=decode_parameter_set(r))
    elif cls is LocalUpdate:
        msg = LocalUpdate(
            client_id=r.u32(),
            round=r.u32(),
            n_samples=r.u64(),
            local_metrics=r.metrics(),
            params=decode_parameter_set(r),
        )
    elif cls is RoundComplete:
        msg = RoundComplete(round=r.u32(), global_metrics=r.metrics())
    elif cls is Shutdown:
        msg = Shutdown(reason=r.string())
    else:
        msg = ErrorMsg(code=r.string(), detail=r.string())
    if not r.done():
        raise DecodeError("bad_payload", "unconsumed bytes after the message body")
    return msg


def encode_message(msg: FlMessage) -> bytes:
    """Full frame bytes; deterministic per message value."""
    tag = struct.pack("<I", msg.auth_tag & 0xFFFFFFFF)
    return build_frame(MSG_CODES[type(msg)], *_encode_body(msg), tag)


def decode_message(data, max_payload: int = DEFAULT_MAX_PAYLOAD) -> FlMessage:
    """Exact inverse of encode_message; raises DecodeError on any defect.

    Decoded parameter sets view `data` rather than copy it, so `data`
    must not be modified afterwards.
    """
    code, payload = parse_frame(data, max_payload=max_payload)
    if len(payload) < 4:
        raise DecodeError("bad_payload", "payload too short for the auth tag")
    msg = _decode_body(code, payload[:-4])
    (tag,) = struct.unpack_from("<I", payload, len(payload) - 4)
    return with_tag(msg, tag) if tag else msg


def parameter_set_to_bytes(ps: ParameterSet) -> bytes:
    """Standalone wire encoding of a parameter set (values at float32)."""
    w = _Writer()
    encode_parameter_set(w, ps)
    return w.getvalue()


def parameter_set_from_bytes(data) -> ParameterSet:
    r = _Reader(data)
    ps = decode_parameter_set(r)
    if not r.done():
        raise DecodeError("bad_payload", "unconsumed bytes after the parameter set")
    return ps


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
