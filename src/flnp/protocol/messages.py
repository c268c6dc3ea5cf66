"""Protocol messages exchanged between server and clients.

Messages are immutable values. `auth_tag` is a keyed CRC-32 over the
encoded message body and the per-session key handed out at provisioning;
it simulates an authenticated channel and is not cryptography (see the
security note in the README). A tag of 0 means unsigned.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Union

from ..params import ParameterSet


@dataclass(frozen=True)
class RoundPlan:
    """What the server expects of each client per round."""

    rounds: int
    local_epochs: int
    lr: float


@dataclass(frozen=True)
class Hello:
    client_name: str
    auth_token: str
    auth_tag: int = 0


@dataclass(frozen=True)
class Provisioned:
    client_id: int
    session_key: bytes
    round_plan: RoundPlan
    auth_tag: int = 0


@dataclass(frozen=True)
class GlobalModel:
    round: int
    params: ParameterSet
    local_epochs: int
    lr: float
    auth_tag: int = 0


@dataclass(frozen=True)
class LocalUpdate:
    client_id: int
    round: int
    params: ParameterSet
    n_samples: int
    local_metrics: dict[str, float] = field(default_factory=dict)
    auth_tag: int = 0


@dataclass(frozen=True)
class RoundComplete:
    round: int
    global_metrics: dict[str, float] = field(default_factory=dict)
    auth_tag: int = 0


@dataclass(frozen=True)
class Shutdown:
    reason: str = ""
    auth_tag: int = 0


@dataclass(frozen=True)
class ErrorMsg:
    code: str
    detail: str = ""
    auth_tag: int = 0


class ProtocolError(RuntimeError):
    """A message violated the round protocol."""

    def __init__(self, code: str, detail: str = "") -> None:
        super().__init__(f"{code}: {detail}" if detail else code)
        self.code = code
        self.detail = detail


FlMessage = Union[
    Hello, Provisioned, GlobalModel, LocalUpdate, RoundComplete, Shutdown, ErrorMsg
]


def with_tag(msg: FlMessage, tag: int) -> FlMessage:
    return replace(msg, auth_tag=tag)
