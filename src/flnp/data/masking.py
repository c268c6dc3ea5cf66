"""Per-token MLM corruption of batches.

Each eligible position (a real, non-reserved token) is independently
selected with probability `select_prob`. Selected positions are replaced
by the mask id with probability `mask_frac`, by a uniformly random
non-reserved token with `random_frac`, and otherwise (the remaining
1 - mask_frac - random_frac) kept unchanged.
Labels hold the original token id at every selected position (kept ones
included) and the ignore sentinel everywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..models.config import ConfigError
from ..rng import Rng
from ..tensor import IGNORE_LABEL
from .batching import Batch
from .vocab import MASK_ID, NUM_RESERVED, Vocabulary


@dataclass(frozen=True)
class MaskingConfig:
    select_prob: float = 0.15
    mask_frac: float = 0.8
    random_frac: float = 0.1
    ignore_value: ClassVar[int] = IGNORE_LABEL  # the label of every unselected position

    def __post_init__(self) -> None:
        if not 0.0 <= self.select_prob <= 1.0:
            raise ConfigError(f"select_prob must lie in [0, 1], got {self.select_prob}")
        for name in ("mask_frac", "random_frac"):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"{name} must be non-negative")
        total = self.mask_frac + self.random_frac
        if total > 1.0 + 1e-9:
            raise ConfigError(f"mask_frac + random_frac must not exceed 1, got {total}")


@dataclass(frozen=True)
class MaskedBatch:
    input_ids: np.ndarray  # [B, T] int64, corrupted
    labels: np.ndarray  # [B, T] int64, original id at selected positions else sentinel
    attention_mask: np.ndarray  # [B, T] float64, 1 on real tokens


def mask_batch(batch: Batch, vocab: Vocabulary, cfg: MaskingConfig, rng: Rng) -> MaskedBatch:
    ids = batch.input_ids
    attention = batch.attention_mask
    eligible = (attention > 0.0) & (ids >= NUM_RESERVED)

    select_u = rng.random(ids.shape)
    branch_u = rng.random(ids.shape)
    selected = eligible & (select_u < cfg.select_prob)

    n_real = vocab.size - NUM_RESERVED
    if cfg.random_frac > 0.0 and n_real < 1:
        raise ConfigError("random replacement needs at least one non-reserved token")
    random_ids = NUM_RESERVED + rng.integers(max(n_real, 1), size=ids.shape)

    out = ids.copy()
    to_mask = selected & (branch_u < cfg.mask_frac)
    to_random = selected & ~to_mask & (branch_u < cfg.mask_frac + cfg.random_frac)
    out[to_mask] = MASK_ID
    out[to_random] = random_ids[to_random]

    labels = np.where(selected, ids, np.int64(IGNORE_LABEL))
    return MaskedBatch(input_ids=out, labels=labels, attention_mask=attention)
