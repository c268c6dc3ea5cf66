"""Round protocol. The server and client state machines live in
`flnp.protocol.server` and `flnp.protocol.client`; they sign through the
transport codec, which imports `messages` from here, so this package
re-exports only the transport-free modules."""

from .messages import (
    ErrorMsg,
    FlMessage,
    GlobalModel,
    Hello,
    LocalUpdate,
    ProtocolError,
    Provisioned,
    RoundComplete,
    RoundPlan,
    Shutdown,
)
from .fedavg import aggregate

__all__ = [
    "ErrorMsg",
    "FlMessage",
    "GlobalModel",
    "Hello",
    "LocalUpdate",
    "Provisioned",
    "RoundComplete",
    "RoundPlan",
    "Shutdown",
    "ProtocolError",
    "aggregate",
]
