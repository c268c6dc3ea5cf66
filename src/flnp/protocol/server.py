"""Server side of the round protocol as a transport-free state machine.

`handle(conn, msg)` consumes one inbound message and returns the list of
(conn, message) pairs to transmit; the caller owns delivery. All state
mutation happens inside handle, so the one session loop,
`flnp.experiment.federated.drive`, behaves identically whether the
in-process channel or TCP reader threads feed it.

Phases run awaiting_provision -> collecting -> done. A round's global
model goes out in the same `handle` call that completes provisioning or
aggregates the round before, so between calls the server is in one of
those three phases. Aggregation runs over client-id-sorted updates, so
results do not depend on arrival order, and its result is the one set
the server validates, distributes and keeps as the final parameters.
An update holding NaN or inf cannot be averaged safely, so it ends the
run with a `non_finite_update` ProtocolError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..params import ParameterSet
from ..rng import Rng
from ..transport.codec import sign, verify_auth
from .fedavg import ProtocolError, aggregate
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

Outgoing = list[tuple[int, FlMessage]]


@dataclass(frozen=True)
class ServerConfig:
    n_clients: int
    rounds: int
    local_epochs: int
    lr: float
    auth_token: str


@dataclass
class _ClientSlot:
    client_id: int
    name: str
    session_key: bytes


class FlServer:
    def __init__(
        self,
        init_params: ParameterSet,
        config: ServerConfig,
        session_rng: Rng,
        validate_fn: Optional[Callable[[ParameterSet], dict[str, float]]] = None,
    ) -> None:
        self.config = config
        self.global_params = init_params
        self.phase = "awaiting_provision"
        self.round = 0
        self.history: list[RoundComplete] = []
        self.client_metrics: list[dict[int, dict[str, float]]] = []  # per round
        self._session_rng = session_rng
        self._validate_fn = validate_fn
        self._slots: dict[int, _ClientSlot] = {}  # conn -> slot
        self._names: set[str] = set()
        self._pending: dict[int, LocalUpdate] = {}

    # -- driver surface ------------------------------------------------

    def handle(self, conn: int, msg: FlMessage) -> Outgoing:
        if isinstance(msg, Hello):
            return self._handle_hello(conn, msg)
        if isinstance(msg, LocalUpdate):
            return self._handle_update(conn, msg)
        if isinstance(msg, ErrorMsg):
            raise ProtocolError(msg.code, f"client error in round {self.round}: {msg.detail}")
        return [(conn, ErrorMsg("unexpected_message", type(msg).__name__))]

    def on_disconnect(self, conn: int) -> None:
        if self.phase == "done":
            return
        slot = self._slots.get(conn)
        who = f"client {slot.client_id}" if slot else f"connection {conn}"
        raise ProtocolError("client_disconnect", f"{who} lost in round {self.round}")

    # -- provisioning ----------------------------------------------------

    def _handle_hello(self, conn: int, msg: Hello) -> Outgoing:
        if self.phase != "awaiting_provision":
            return [(conn, ErrorMsg("capacity", "provisioning is closed"))]
        if msg.auth_token != self.config.auth_token:
            return [(conn, ErrorMsg("auth_failed", "bad provisioning token"))]
        if msg.client_name in self._names:
            return [(conn, ErrorMsg("duplicate_client", msg.client_name))]
        if len(self._slots) >= self.config.n_clients:
            return [(conn, ErrorMsg("capacity", f"{self.config.n_clients} clients already provisioned"))]

        client_id = len(self._slots)
        key = int(self._session_rng.uint64()).to_bytes(8, "little")
        self._slots[conn] = _ClientSlot(client_id=client_id, name=msg.client_name, session_key=key)
        self._names.add(msg.client_name)
        plan = RoundPlan(rounds=self.config.rounds, local_epochs=self.config.local_epochs, lr=self.config.lr)
        out: Outgoing = [(conn, Provisioned(client_id=client_id, session_key=key, round_plan=plan))]

        if len(self._slots) == self.config.n_clients:
            if self.config.rounds == 0:
                self.phase = "done"
                out += self._broadcast(Shutdown(reason="complete"))
            else:
                out += self._distribute_round(1)
        return out

    # -- round loop ------------------------------------------------------

    def _distribute_round(self, round_no: int) -> Outgoing:
        self.round = round_no
        self._pending.clear()
        out: Outgoing = []
        for conn, slot in sorted(self._slots.items(), key=lambda kv: kv[1].client_id):
            msg = GlobalModel(
                round=round_no,
                params=self.global_params,
                local_epochs=self.config.local_epochs,
                lr=self.config.lr,
            )
            out.append((conn, sign(msg, slot.session_key)))
        self.phase = "collecting"
        return out

    def _handle_update(self, conn: int, msg: LocalUpdate) -> Outgoing:
        slot = self._slots.get(conn)
        if slot is None:
            return [(conn, ErrorMsg("not_provisioned", "update before provisioning"))]
        if self.phase != "collecting":
            return [(conn, ErrorMsg("unexpected_message", f"update during {self.phase}"))]
        if not verify_auth(msg, slot.session_key):
            return [(conn, ErrorMsg("auth_failed", f"bad tag from client {slot.client_id}"))]
        if msg.round != self.round:
            return [(conn, ErrorMsg("round_mismatch", f"expected {self.round}, got {msg.round}"))]
        if msg.client_id != slot.client_id:
            return [(conn, ErrorMsg("client_id_mismatch", f"{msg.client_id} != {slot.client_id}"))]
        if msg.params.manifest() != self.global_params.manifest():
            return [(conn, ErrorMsg("manifest_mismatch", f"client {slot.client_id}"))]
        bad = next((name for name, arr in msg.params.items() if not np.isfinite(arr).all()), None)
        if bad is not None:
            raise ProtocolError(
                "non_finite_update",
                f"client {slot.client_id} sent NaN or inf in '{bad}' in round {self.round}",
            )

        self._pending[slot.client_id] = msg
        if len(self._pending) < self.config.n_clients:
            return []
        return self._finish_round()

    def _finish_round(self) -> Outgoing:
        updates = list(self._pending.values())
        self.global_params = aggregate(updates)
        self.client_metrics.append({u.client_id: dict(u.local_metrics) for u in updates})
        metrics = self._validate_fn(self.global_params) if self._validate_fn is not None else {}
        done = RoundComplete(round=self.round, global_metrics=metrics)
        self.history.append(done)
        out = self._broadcast(done)
        if self.round < self.config.rounds:
            out += self._distribute_round(self.round + 1)
        else:
            self.phase = "done"
            out += self._broadcast(Shutdown(reason="complete"))
        return out

    def _broadcast(self, msg: FlMessage) -> Outgoing:
        return [
            (conn, sign(msg, slot.session_key))
            for conn, slot in sorted(self._slots.items(), key=lambda kv: kv[1].client_id)
        ]
