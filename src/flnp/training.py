"""Local-training and evaluation primitives.

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
from .data.masking import IGNORE_LABEL
from .models import LstmClassifier
from .models.base import ModelBase
from .optim import Adam
from .rng import Rng
from .tensor import Tensor, backward, masked_cross_entropy, reshape

VALIDATION_MASK_KEY = 0x56414C  # "VAL"
HOLDOUT_FRACTION = 0.2


@dataclass(frozen=True)
class TrainSettings:
    phase: str  # "mlm" | "classify"
    batch_size: int
    max_seq_len: int
    masking: MaskingConfig = MaskingConfig()
    holdout_frac: float = HOLDOUT_FRACTION


def split_holdout(records: list[Record], frac: float = HOLDOUT_FRACTION) -> tuple[list[Record], list[Record]]:
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
        b, t, v = logits.shape
        flat_labels = batch.labels.reshape(-1)
        loss = masked_cross_entropy(reshape(logits, (b * t, v)), flat_labels, IGNORE_LABEL)
        scored = flat_labels != IGNORE_LABEL
        return loss, logits.data.reshape(b * t, v)[scored], flat_labels[scored]
    if isinstance(model, LstmClassifier):
        logits = model.forward(batch.input_ids, batch.lengths)
    else:
        hidden = model.forward(batch.input_ids, batch.attention_mask)
        logits = model.classify_logits(hidden, batch.attention_mask)
    loss = masked_cross_entropy(logits, batch.labels)
    return loss, logits.data, batch.labels


def prepare_eval_batches(
    records: list[Record],
    vocab: Vocabulary,
    settings: TrainSettings,
    mask_rng: Rng | None,
) -> list:
    """Deterministic evaluation batches; pre-masked once for MLM."""
    batches = make_batches(records, vocab, settings.batch_size, settings.max_seq_len, rng=None)
    if settings.phase != "mlm":
        return batches
    assert mask_rng is not None
    return [mask_batch(b, vocab, settings.masking, mask_rng.split(i)) for i, b in enumerate(batches)]


def count_correct(logits: np.ndarray, labels: np.ndarray) -> int:
    """Rows whose argmax equals the label; ties break toward the lower class."""
    return int((np.argmax(logits, axis=1) == labels).sum())


def evaluate(model: ModelBase, eval_batches: list) -> tuple[float, float]:
    """Forward-only mean loss and top-1 accuracy over prepared batches."""
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
        del loss, logits  # else this batch's tape stays alive through the next forward
    if total_scored == 0:
        return 0.0, 0.0
    return total_loss / total_scored, total_correct / total_scored


def train_epochs(
    model: ModelBase,
    optimizer: Adam,
    train_records: list[Record],
    vocab: Vocabulary,
    settings: TrainSettings,
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
            train_records, vocab, settings.batch_size, settings.max_seq_len,
            rng=epoch_rng.split(0),
        )
        mask_rng = epoch_rng.split(1)
        for bi, batch in enumerate(batches):
            if settings.phase == "mlm":
                batch = mask_batch(batch, vocab, settings.masking, mask_rng.split(bi))
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
