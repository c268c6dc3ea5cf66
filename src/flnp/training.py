"""Local-training and evaluation primitives.

A `TrainPlan` holds what one phase's local training reads besides the
round's epochs and learning rate: the model, the shards, the batch shape,
masking, the holdout share and the batch seed.
`flnp.protocol.client.LocalTrainer` is the one caller of `train_epochs`:
the federated client, the centralized baseline and the standalone
baseline all train through it with the same stream derivations, so a
one-client federated run and a centralized run with equal seeds produce
bit-identical parameters.

Randomness conventions (keys into the batch-seed stream):
    Rng(batch_seed).split(trainer_id).split(round_index).split(epoch)
drives shuffling (child key 0) and MLM masking (child key 1, then the
batch index); `trainer_id` is the client id, or 0 for the centralized
trainer. Validation batches are masked once per run from the dedicated
key `VALIDATION_MASK_KEY` so every round scores the same corrupted set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Batch, MaskedBatch, MaskingConfig, Record, Vocabulary, make_batches, mask_batch
from .models import LstmClassifier
from .models.base import ModelBase
from .models.config import ModelConfig
from .optim import Adam
from .rng import Rng
from .tensor import IGNORE_LABEL, Packing, Tensor, backward, masked_cross_entropy

VALIDATION_MASK_KEY = 0x56414C  # "VAL"


@dataclass(frozen=True)
class TrainPlan:
    """One phase's local-training inputs; trainer k trains on `shards[k]`."""

    model_config: ModelConfig
    mode: str  # "mlm" | "classify"
    vocab: Vocabulary
    shards: list[list[Record]]
    batch_size: int
    max_seq_len: int
    masking: MaskingConfig
    holdout_frac: float
    batch_seed: int


def split_holdout(records: list[Record], frac: float) -> tuple[list[Record], list[Record]]:
    """Deterministic train/holdout split: the trailing `frac` is held out."""
    n_hold = int(round(len(records) * frac))
    if n_hold == 0:
        return list(records), []
    return records[:-n_hold], records[-n_hold:]


def batch_loss(model: ModelBase, batch) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Loss tensor plus (logits, labels) arrays for accuracy accounting."""
    if isinstance(batch, MaskedBatch):
        hidden = model.forward(batch.input_ids, batch.attention_mask)
        logits = model.mlm_logits(hidden)
        labels = Packing(batch.attention_mask).pack(batch.labels)
        loss = masked_cross_entropy(logits, labels)
        scored = labels != IGNORE_LABEL
        return loss, logits.data[scored], labels[scored]
    if isinstance(model, LstmClassifier):
        logits = model.forward(batch.input_ids, batch.lengths)
    else:
        hidden = model.forward(batch.input_ids, batch.attention_mask)
        logits = model.classify_logits(hidden, batch.attention_mask)
    loss = masked_cross_entropy(logits, batch.labels)
    return loss, logits.data, batch.labels


def prepare_eval_batches(records: list[Record], plan: TrainPlan, mask_rng: Rng | None) -> list:
    """Deterministic evaluation batches; pre-masked once for MLM."""
    batches = make_batches(records, plan.vocab, plan.batch_size, plan.max_seq_len, rng=None)
    if plan.mode != "mlm":
        return batches
    assert mask_rng is not None
    return [mask_batch(b, plan.vocab, plan.masking, mask_rng.split(i)) for i, b in enumerate(batches)]


def count_correct(logits: np.ndarray, labels: np.ndarray) -> int:
    """Rows whose argmax equals the label; ties break toward the lower class."""
    return int((np.argmax(logits, axis=1) == labels).sum())


def evaluate(model: ModelBase, eval_batches: list) -> tuple[float, float]:
    """Forward-only mean loss and top-1 accuracy over prepared batches.

    The model's parameters stop requiring grad for the call, so no op
    records a tape; each gets its flag back afterwards, also on an error.
    The flags belong to this model alone, so other threads' models keep
    recording theirs.
    """
    params = list(model.params.values())
    flags = [t.requires_grad for t in params]
    for t in params:
        t.requires_grad = False
    try:
        total_loss = 0.0
        total_scored = 0
        total_correct = 0
        for batch in eval_batches:
            loss, logits, labels = batch_loss(model, batch)
            n = len(labels)
            if n:
                total_loss += loss.item() * n
                total_scored += n
                total_correct += count_correct(logits, labels)
    finally:
        for t, flag in zip(params, flags):
            t.requires_grad = flag
    if total_scored == 0:
        return 0.0, 0.0
    return total_loss / total_scored, total_correct / total_scored


def train_epochs(
    model: ModelBase,
    optimizer: Adam,
    train_records: list[Record],
    plan: TrainPlan,
    round_rng: Rng,
    epochs: int,
) -> tuple[float, float]:
    """Run `epochs` passes; returns mean batch loss and top-1 accuracy over everything scored."""
    losses: list[float] = []
    correct = 0
    scored = 0
    for epoch in range(epochs):
        epoch_rng = round_rng.split(epoch)
        batches = make_batches(
            train_records, plan.vocab, plan.batch_size, plan.max_seq_len, rng=epoch_rng.split(0)
        )
        mask_rng = epoch_rng.split(1)
        for bi, batch in enumerate(batches):
            if plan.mode == "mlm":
                batch = mask_batch(batch, plan.vocab, plan.masking, mask_rng.split(bi))
            loss, logits, labels = batch_loss(model, batch)
            backward(loss)
            optimizer.step()
            optimizer.zero_grad()
            losses.append(loss.item())
            if len(labels):
                correct += count_correct(logits, labels)
                scored += len(labels)
            del loss, logits  # else this step's tape stays alive through the next forward
    mean_loss = float(np.mean(losses)) if losses else 0.0
    top1 = correct / scored if scored else 0.0
    return mean_loss, top1
