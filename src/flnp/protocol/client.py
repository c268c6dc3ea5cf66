"""Client side of the round protocol, and the one local-training path.

`LocalTrainer` is FedAvg's ClientUpdate on one shard of a `TrainPlan`:
trainer k holds out the trailing `holdout_frac` of `plan.shards[k]`, owns
the model, and trains each round with a fresh Adam from the
`Rng(batch_seed).split(trainer_id).split(round)` stream. Federated
clients, the centralized baseline (trainer 0 of a plan whose one shard is
the pooled data) and the standalone baseline (trainer k on shard k) all
train through it.

A client resolves its shard by the provisioned client id, so identity does
not depend on connection order. Every received global model is verified
against the session key and the local manifest before any weights load.
A federated client holds no weights between rounds: it drops its model
once the round's `LocalUpdate` is built, and each global model builds a
new one. `run_local` keeps its trainer's model from round to round.
"""

from __future__ import annotations

from typing import Optional

from ..models import build_model
from ..optim import Adam
from ..params import ParameterSet
from ..rng import Rng
from ..tensor import UsageError
from ..training import TrainPlan, evaluate, prepare_eval_batches, split_holdout, train_epochs
from ..transport.codec import sign, verify_auth
from .messages import (
    ErrorMsg,
    FlMessage,
    GlobalModel,
    Hello,
    LocalUpdate,
    ProtocolError,
    Provisioned,
    RoundComplete,
    Shutdown,
)

LOCAL_VAL_MASK_KEY = 0x4C56414C  # "LVAL"


class LocalTrainer:
    """Local rounds of one trainer on the shard its id resolves to."""

    def __init__(self, plan: TrainPlan, trainer_id: int) -> None:
        self.plan = plan
        self.trainer_id = trainer_id
        self.train_records, self.holdout = split_holdout(plan.shards[trainer_id], plan.holdout_frac)
        self.model = None

    def load(self, params: ParameterSet) -> None:
        """Build the model on first use, then load into it; UsageError on a manifest mismatch."""
        if self.model is None:
            self.model = build_model(self.plan.model_config, self.plan.mode, params)
        else:
            self.model.load_params(params)

    def train_round(self, round_no: int, epochs: int, lr: float) -> tuple[float, float]:
        """Train the loaded model; returns mean train loss and top-1 accuracy.

        A round of zero epochs trains nothing and builds no optimizer, and
        returns what `train_epochs` returns for zero epochs.
        """
        if epochs == 0:
            return 0.0, 0.0
        round_rng = Rng(self.plan.batch_seed).split(self.trainer_id).split(round_no)
        optimizer = Adam(self.model.params, lr=lr)
        return train_epochs(self.model, optimizer, self.train_records, self.plan, round_rng, epochs)

    def export(self) -> ParameterSet:
        """The model's parameters at wire precision."""
        return self.model.export_params()


class FlClient:
    """One site: trains each received global model and answers it with a signed `LocalUpdate`."""

    def __init__(self, name: str, auth_token: str, plan: TrainPlan) -> None:
        self.name = name
        self.auth_token = auth_token
        self.plan = plan
        self.client_id: Optional[int] = None
        self.session_key: bytes = b""
        self.done = False
        self.round_history: list[RoundComplete] = []
        self._trainer: Optional[LocalTrainer] = None
        self._val_batches: list = []

    def hello(self) -> Hello:
        return Hello(client_name=self.name, auth_token=self.auth_token)

    def handle(self, msg: FlMessage) -> list[FlMessage]:
        if isinstance(msg, Provisioned):
            return self._on_provisioned(msg)
        if isinstance(msg, GlobalModel):
            return self._on_global_model(msg)
        if isinstance(msg, RoundComplete):
            self.round_history.append(msg)
            return []
        if isinstance(msg, Shutdown):
            self.done = True
            return []
        if isinstance(msg, ErrorMsg):
            raise ProtocolError(msg.code, msg.detail)
        return [sign(ErrorMsg("unexpected_message", type(msg).__name__), self.session_key)]

    def _on_provisioned(self, msg: Provisioned) -> list[FlMessage]:
        self.client_id = msg.client_id
        self.session_key = msg.session_key
        self._trainer = LocalTrainer(self.plan, msg.client_id)
        mask_rng = Rng(self.plan.batch_seed).split(msg.client_id).split(LOCAL_VAL_MASK_KEY)
        self._val_batches = prepare_eval_batches(self._trainer.holdout, self.plan, mask_rng)
        return []

    def _on_global_model(self, msg: GlobalModel) -> list[FlMessage]:
        if self.client_id is None:
            raise ProtocolError("not_provisioned", "global model before provisioning")
        if not verify_auth(msg, self.session_key):
            raise ProtocolError("auth_failed", "global model failed tag verification")
        trainer = self._trainer
        try:
            trainer.load(msg.params)
        except UsageError as exc:
            return [sign(ErrorMsg("manifest_mismatch", str(exc)), self.session_key)]

        train_loss, train_top1 = trainer.train_round(msg.round, msg.local_epochs, msg.lr)
        val_loss, val_top1 = evaluate(trainer.model, self._val_batches)
        metrics = {
            "train_loss": train_loss,
            "train_top1_accuracy": train_top1,
            "val_loss": val_loss,
            "val_top1_accuracy": val_top1,
        }
        update = LocalUpdate(
            client_id=self.client_id,
            round=msg.round,
            params=trainer.export(),
            n_samples=len(trainer.train_records),
            local_metrics=metrics,
        )
        trainer.model = None  # no weights are held between rounds: the next global model builds one
        return [sign(update, self.session_key)]
