from .messages import (
    ErrorMsg,
    FlMessage,
    GlobalModel,
    Hello,
    LocalUpdate,
    Provisioned,
    RoundComplete,
    RoundPlan,
    Shutdown,
)
from .fedavg import ClientUpdate, ProtocolError, aggregate, top1_accuracy
from .server import FlServer, ServerConfig
from .client import ClientTrainConfig, FlClient

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
    "ClientUpdate",
    "ProtocolError",
    "aggregate",
    "top1_accuracy",
    "FlServer",
    "ServerConfig",
    "ClientTrainConfig",
    "FlClient",
]
