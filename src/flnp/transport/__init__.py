from .frame import (
    DecodeError,
    FRAME_MAGIC,
    FRAME_VERSION,
    MAX_PAYLOAD,
)
from .codec import (
    compute_auth_tag,
    decode_message,
    encode_buffers,
    encode_message,
    sign,
    verify_auth,
)
from .tcp import TcpConnection, TcpServer, connect

__all__ = [
    "DecodeError",
    "FRAME_MAGIC",
    "FRAME_VERSION",
    "MAX_PAYLOAD",
    "compute_auth_tag",
    "decode_message",
    "encode_buffers",
    "encode_message",
    "sign",
    "verify_auth",
    "TcpConnection",
    "TcpServer",
    "connect",
]
