"""Server side of the round protocol as a transport-free state machine.

`handle(conn, msg)` consumes one inbound message and returns the list of
(conn, message) pairs to transmit; `report()` then reports the round that
call completed, if any, and returns what to transmit after those. The
caller owns delivery. All state mutation happens inside these two calls,
so the one session loop, `flnp.experiment.federated.drive`, behaves
identically whether the in-process channel or TCP reader threads feed it.

Phases run awaiting_provision -> collecting -> done. A connection is
provisioned at most once, with the server's one `RoundPlan`, and every
global model carries that plan's epochs and learning rate. The `handle`
call that completes provisioning sends round 1's global model, and the
one that aggregates round r < R sends round r+1's, so the clients start a
round before the one before it is reported. Aggregation runs over
client-id-sorted updates, so results do not depend on arrival order.
`report()` then calls `on_round(round, params, updates)` once, with the
aggregate and the round's updates in client-id order, and sends the
metrics it returns as `RoundComplete`, followed by `Shutdown` after the
last round; the aggregate is the one set the server reports, distributes
and keeps as the final parameters. Round 0 is reported the same way, as
`on_round(0, init, [])` with no `RoundComplete`; a run of zero rounds
sends its `Shutdown` with the provisioning. An update holding NaN or inf
cannot be averaged safely, so it ends the run with a `non_finite_update`
ProtocolError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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


@dataclass
class _ClientSlot:
    client_id: int
    name: str
    session_key: bytes


class FlServer:
    """FedAvg server: `handle` each inbound message, deliver its replies, then `report()`."""

    def __init__(
        self,
        init_params: ParameterSet,
        n_clients: int,
        plan: RoundPlan,
        auth_token: str,
        session_rng: Rng,
        on_round: Callable[[int, ParameterSet, list[LocalUpdate]], dict[str, float]],
    ) -> None:
        self.n_clients = n_clients
        self.plan = plan
        self.global_params = init_params
        self.phase = "awaiting_provision"
        self.round = 0
        self._auth_token = auth_token
        self._session_rng = session_rng
        self._on_round = on_round
        self._slots: dict[int, _ClientSlot] = {}  # conn -> slot, in client-id order
        self._pending: dict[int, LocalUpdate] = {}  # client id -> this round's update
        self._unreported: tuple[int, ParameterSet, list[LocalUpdate]] | None = None

    # -- driver surface ------------------------------------------------

    def handle(self, conn: int, msg: FlMessage) -> Outgoing:
        if isinstance(msg, Hello):
            return self._handle_hello(conn, msg)
        if isinstance(msg, LocalUpdate):
            return self._handle_update(conn, msg)
        if isinstance(msg, ErrorMsg):
            raise ProtocolError(msg.code, f"client error in round {self.round}: {msg.detail}")
        return [(conn, ErrorMsg("unexpected_message", type(msg).__name__))]

    def report(self) -> Outgoing:
        """Run `on_round` for the round the last `handle` call completed, if any.

        Returns that round's `RoundComplete`, and `Shutdown` after the last
        round; round 0 sends nothing.
        """
        if self._unreported is None:
            return []
        rnd, params, updates = self._unreported
        self._unreported = None
        metrics = self._on_round(rnd, params, updates)
        if rnd == 0:
            return []
        out = self._broadcast(RoundComplete(round=rnd, global_metrics=metrics))
        if rnd == self.plan.rounds:
            out += self._next_round()
        return out

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
        if conn in self._slots:
            cid = self._slots[conn].client_id
            return [(conn, ErrorMsg("duplicate_client", f"connection {conn} is already client {cid}"))]
        if msg.auth_token != self._auth_token:
            return [(conn, ErrorMsg("auth_failed", "bad provisioning token"))]
        if any(slot.name == msg.client_name for slot in self._slots.values()):
            return [(conn, ErrorMsg("duplicate_client", msg.client_name))]

        client_id = len(self._slots)
        key = int(self._session_rng.uint64()).to_bytes(8, "little")
        self._slots[conn] = _ClientSlot(client_id=client_id, name=msg.client_name, session_key=key)
        out: Outgoing = [(conn, Provisioned(client_id=client_id, session_key=key, round_plan=self.plan))]

        if len(self._slots) == self.n_clients:
            self._unreported = (0, self.global_params, [])
            out += self._next_round()
        return out

    # -- round loop ------------------------------------------------------

    def _next_round(self) -> Outgoing:
        """Send the next round's global model, or shut down after the last round."""
        if self.round == self.plan.rounds:
            self.phase = "done"
            return self._broadcast(Shutdown(reason="complete"))
        self.round += 1
        self._pending.clear()
        self.phase = "collecting"
        return self._broadcast(GlobalModel(
            round=self.round,
            params=self.global_params,
            local_epochs=self.plan.local_epochs,
            lr=self.plan.lr,
        ))

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
        if len(self._pending) < self.n_clients:
            return []
        updates = [self._pending[cid] for cid in sorted(self._pending)]
        self.global_params = aggregate(updates)
        self._unreported = (self.round, self.global_params, updates)
        if self.round == self.plan.rounds:
            return []  # report() sends the last RoundComplete, then Shutdown
        return self._next_round()

    def _broadcast(self, msg: FlMessage) -> Outgoing:
        return [(conn, sign(msg, slot.session_key)) for conn, slot in self._slots.items()]
