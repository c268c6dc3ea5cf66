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
`encode_message` is that list joined. Decoding walks the same layout
with one `_Reader` over any byte source, a buffer, a socket or a file: it
writes each tensor's values once, straight into the parameter set it
builds, and streams the frame's CRC over the bytes as they arrive.
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
from .frame import HEADER_SIZE, TRAILER_SIZE, DecodeError, frame_buffers, parse_frame, parse_header

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


# Room for the longest small field (a string of 0xFFFF bytes), and for
# enough of a stream that a frame takes few reads: each read passes the
# interpreter lock to and from the threads that compute. The stage is a
# heap block, not a map: making and dropping a map releases the lock too.
STAGE_BYTES = 0x100000


class _Reader:
    """Decodes `BODY_LAYOUT` encodings from the next `size` bytes of a byte source.

    The source is a buffer, or a `read_into(views)` that reads at least
    one byte of a stream (a socket or a file) into a sequence of views,
    filling them in order, and returns the count. A buffer is staged
    whole. A stream's small fields go through one staging buffer that
    never reads past the `size` bytes; each tensor's values go straight
    into their slot of the parameter set being built, whose buffer is
    sized from the bytes left, and the read that completes a tensor
    brings what follows it into the stage. `crc` runs over the first
    `checked` bytes as they are decoded. No field may run past `limit`.
    """

    def __init__(self, source, size: int, checked: int = 0) -> None:
        self._size = self.limit = size
        self._checked = checked
        self.crc = 0
        self._start = self._pos = 0  # source offset of the stage; bytes of it consumed
        if callable(source):
            self._read_into = source
            self._stage = memoryview(bytearray(min(size, STAGE_BYTES)))
            self._end = 0  # bytes staged
        else:
            self._stage = memoryview(source).cast("B")
            self._end = len(self._stage)

    @property
    def offset(self) -> int:
        """Bytes consumed."""
        return self._start + self._pos

    def _fill(self, *views: memoryview) -> int:
        got = self._read_into(views)
        if not got:
            raise DecodeError("truncated", "the source ended early")
        return got

    def _claim(self, n: int) -> int:
        """The offset of the next `n` bytes, which must lie within `limit`."""
        if self.offset + n > self.limit:
            raise DecodeError("bad_payload", "field runs past the end of the body")
        return self.offset

    def _consumed(self, view: memoryview, at: int) -> None:
        self.crc = zlib.crc32(view[: max(0, self._checked - at)], self.crc)

    def take(self, n: int) -> memoryview:
        """The next `n` bytes, valid until the next read."""
        at = self._claim(n)
        if self._end - self._pos < n:
            kept = self._end - self._pos
            self._stage[:kept] = self._stage[self._pos : self._end]
            self._start, self._pos, self._end = self.offset, 0, kept
            room = min(len(self._stage), self._size - self._start)
            while self._end < n:
                self._end += self._fill(self._stage[self._end : room])
        self._pos += n
        out = self._stage[self._pos - n : self._pos]
        self._consumed(out, at)
        return out

    def skip_to(self, offset: int) -> None:
        while self.offset < offset:
            self.take(min(len(self._stage), offset - self.offset))

    def _values_into(self, slot: np.ndarray) -> None:
        """Fill `slot` with the next tensor's values: what is staged, then the rest from the source."""
        view = memoryview(slot.reshape(-1).view(np.uint8))
        at = self._claim(len(view))
        got = min(len(view), self._end - self._pos)
        view[:got] = self._stage[self._pos : self._pos + got]
        self._pos += got
        if got < len(view):
            self._start, self._pos = self.offset + len(view) - got, 0
            room = min(len(self._stage), self._size - self._start)
            while got < len(view):
                got += self._fill(view[got:], self._stage[:room])
            self._end = got - len(view)  # what followed the tensor
        self._consumed(view, at)

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
        count = self.read("u32")
        entries = ((self.read("str"), self._shape(), self._values_into) for _ in range(count))
        try:
            return ParameterSet.laid_out((self.limit - self.offset) // WIRE_DTYPE.itemsize, entries)
        except ValueError as exc:
            raise DecodeError("bad_payload", str(exc)) from None

    def _shape(self) -> tuple[int, ...]:
        return tuple(self.read("u32") for _ in range(self.read("u8")))

    def read_all(self, kind, what: str):
        """`kind` decoded from the bytes up to `limit`, with none left over."""
        value = self.read(kind)
        if self.offset != self.limit:
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


def decode_message(data, read_into=None) -> FlMessage:
    """Exact inverse of encode_message; raises DecodeError on any defect.

    `data` is a whole frame, or, with `read_into` (a `_Reader` stream),
    just its header, the rest to be read from that stream. The payload is
    read once, and its CRC is checked before a message is returned or a
    defect in its body is raised, so a corrupted payload always fails with
    `checksum_mismatch`. The message holds no reference to `data`: each
    parameter set is written into a buffer of its own as it is read.
    """
    if read_into is None:
        code, length = parse_frame(data)
        source = memoryview(data)[HEADER_SIZE:]
    else:
        code, length = parse_header(data)
        source = read_into
    reader = _Reader(source, length + TRAILER_SIZE, checked=length)
    try:
        msg, failure = _read_payload(reader, code, length), None
    except DecodeError as exc:
        msg, failure = None, exc
    reader.limit = length + TRAILER_SIZE
    reader.skip_to(length)
    if reader.read("u32") != reader.crc & 0xFFFFFFFF:
        raise DecodeError("checksum_mismatch")
    if failure is not None:
        raise failure
    return msg


def _read_payload(reader: _Reader, code: int, length: int) -> FlMessage:
    """The message of type `code` from a `length`-byte payload: its body, then its auth tag."""
    if length < 4:
        raise DecodeError("bad_payload", "payload too short for the auth tag")
    msg_type = _CODE_TO_TYPE.get(code)
    if msg_type is None:
        raise DecodeError("unknown_type", str(code))
    reader.limit = length - 4
    msg = reader.read_all(msg_type, "message body")
    reader.limit = length
    tag = reader.read("u32")
    return with_tag(msg, tag) if tag else msg


def parameter_set_to_bytes(ps: ParameterSet) -> bytes:
    """Standalone wire encoding of a parameter set (values at float32)."""
    chunks: list = []
    _put(chunks, "params", ps)
    return b"".join(chunks)


def parameter_set_from_bytes(data) -> ParameterSet:
    return read_parameter_set(data, memoryview(data).nbytes)


def read_parameter_set(source, size: int) -> ParameterSet:
    """The parameter set encoded in the next `size` bytes of a `_Reader` source."""
    return _Reader(source, size).read_all("params", "parameter set")


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
