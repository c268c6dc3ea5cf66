"""Server side of the round protocol as a transport-free state machine.

`handle(conn, msg)` consumes one inbound message and returns the list of
(conn, message) pairs to transmit. A round that call completed is
reported in three steps: `take_report()` hands out `on_round`'s
arguments once, `on_round` scores the round, and
`complete_report(round, metrics)` returns what to transmit for it. The
caller owns delivery. All state mutation happens inside `handle`,
`take_report` and `complete_report`, which the one session loop,
`flnp.experiment.federated.drive`, calls from its own thread, so it
behaves identically whether the in-process channel or TCP reader
threads feed it; `on_round` changes no server state and may run on
another thread.

Phases run awaiting_provision -> collecting -> done. A connection is
provisioned at most once, with the server's one `RoundPlan`, and every
global model carries that plan's epochs and learning rate. The `handle`
call that completes provisioning sends round 1's global model, and the
one that aggregates round r < R sends round r+1's, so the clients start a
round before the one before it is reported. Aggregation runs over
client-id-sorted updates, so results do not depend on arrival order, and
the server lets go of the updates as it aggregates them. While it
averages round r it keeps only the manifest of round r-1's model, not
the model itself, which FedAvg does not read; the caller may still be
validating that model. Each round's `on_round(round, params,
client_metrics)` gets the aggregate and each client's `(client_id,
local_metrics)` in client-id order, and the metrics it returns go out as
`RoundComplete`, followed by `Shutdown` after the last round; the
aggregate is the one set the server reports, distributes and keeps as
the final parameters. Round 0 is reported the same way, as
`on_round(0, init, [])` with no `RoundComplete`; a run of zero rounds
sends its `Shutdown` with the provisioning. An update holding NaN or inf
cannot be averaged safely, so it ends the run with a `non_finite_update`
ProtocolError, and a round whose updates all report 0 samples gives
FedAvg no weights, so it ends the run with `no_training_samples`;
`fedavg.aggregate` checks none of this. A client's `ErrorMsg` ends the
run with the client's code only if it is signed with the session key of
a provisioned connection; any other is refused as `not_provisioned` or
`auth_failed`, like an update, so no peer can end a run with a code of
its choosing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..params import ParameterSet
from ..rng import Rng
from ..transport.codec import sign, verify_auth
from .fedavg import CHUNK_VALUES, aggregate
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

Outgoing = list[tuple[int, FlMessage]]
ClientMetrics = list[tuple[int, dict[str, float]]]  # (client_id, local_metrics), by client id
Report = tuple[int, ParameterSet, ClientMetrics]  # on_round's arguments for one round


@dataclass
class _ClientSlot:
    client_id: int
    name: str
    session_key: bytes


class FlServer:
    """FedAvg server: `handle` each inbound message, deliver its replies, and report each round."""

    def __init__(
        self,
        init_params: ParameterSet,
        n_clients: int,
        plan: RoundPlan,
        auth_token: str,
        session_rng: Rng,
        on_round: Callable[[int, ParameterSet, ClientMetrics], dict[str, float]],
    ) -> None:
        self.n_clients = n_clients
        self.plan = plan
        self.global_params = init_params
        self._manifest = init_params.manifest()
        self.phase = "awaiting_provision"
        self.round = 0
        self._auth_token = auth_token
        self._session_rng = session_rng
        self.on_round = on_round
        self._slots: dict[int, _ClientSlot] = {}  # conn -> slot, in client-id order
        self._pending: dict[int, LocalUpdate] = {}  # client id -> this round's update
        self._unreported: Report | None = None

    # -- driver surface ------------------------------------------------

    def handle(self, conn: int, msg: FlMessage) -> Outgoing:
        if isinstance(msg, Hello):
            return self._handle_hello(conn, msg)
        if isinstance(msg, LocalUpdate):
            return self._handle_update(conn, msg)
        if isinstance(msg, ErrorMsg):
            return self._handle_error(conn, msg)
        return [(conn, ErrorMsg("unexpected_message", type(msg).__name__))]

    def take_report(self) -> Report | None:
        """The round the last `handle` call completed, as `on_round`'s arguments, once; else None."""
        due, self._unreported = self._unreported, None
        return due

    def complete_report(self, rnd: int, metrics: dict[str, float]) -> Outgoing:
        """What to send once `on_round` has returned `metrics` for round `rnd`.

        That round's `RoundComplete`, and `Shutdown` after the last round;
        round 0 sends nothing.
        """
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

    def _handle_error(self, conn: int, msg: ErrorMsg) -> Outgoing:
        """A provisioned client's signed error ends the run with its code; any other is refused."""
        slot = self._slots.get(conn)
        if slot is None:
            return [(conn, ErrorMsg("not_provisioned", f"error message from connection {conn}"))]
        if not verify_auth(msg, slot.session_key):
            return [(conn, ErrorMsg("auth_failed", f"bad tag on an error from client {slot.client_id}"))]
        raise ProtocolError(msg.code, f"client error in round {self.round}: {msg.detail}")

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
        if msg.params.manifest() != self._manifest:
            return [(conn, ErrorMsg("manifest_mismatch", f"client {slot.client_id}"))]
        bad = _first_non_finite(msg.params)
        if bad is not None:
            raise ProtocolError(
                "non_finite_update",
                f"client {slot.client_id} sent NaN or inf in '{bad}' in round {self.round}",
            )

        self._pending[slot.client_id] = msg
        if len(self._pending) < self.n_clients:
            return []
        updates = [self._pending[cid] for cid in sorted(self._pending)]
        if not any(u.n_samples for u in updates):
            raise ProtocolError("no_training_samples",
                                f"every update of round {self.round} reports 0 samples")
        self._pending.clear()
        self.global_params = None  # round r-1's model may go before round r's is built
        self.global_params = aggregate(updates)
        self._unreported = (self.round, self.global_params,
                            [(u.client_id, u.local_metrics) for u in updates])
        if self.round == self.plan.rounds:
            return []  # complete_report() sends the last RoundComplete, then Shutdown
        return self._next_round()

    def _broadcast(self, msg: FlMessage) -> Outgoing:
        return [(conn, sign(msg, slot.session_key)) for conn, slot in self._slots.items()]


def _first_non_finite(params: ParameterSet) -> str | None:
    """The name of the first tensor of `params` holding NaN or inf, else None."""
    values = params.flat
    for start in range(0, values.size, CHUNK_VALUES):
        finite = np.isfinite(values[start : start + CHUNK_VALUES])
        if not finite.all():
            bad = start + int(np.argmin(finite))  # the first value that is not finite
            end = 0
            for name, arr in params.items():
                end += arr.size
                if bad < end:
                    return name
    return None
