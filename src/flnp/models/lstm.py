"""Stacked unidirectional LSTM text classifier.

Standard gate equations per timestep, with the fused projection
gates = x @ wx + h @ wh + b split into (input, forget, cell, output)
chunks: i,f,o are sigmoid gates, the cell candidate is tanh, then
c = f*c + i*g and h = o*tanh(c), from a zero initial state.

Each layer is one `lstm_layer` tape node over the whole batch: the input
projection x @ wx of every timestep is hoisted out of the recurrence as
a single GEMM, and only h @ wh runs per step. Classification reads the
top layer's hidden state at each sequence's last valid timestep
(`last_step`) through one affine layer (no pooling).
"""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor, UsageError, embedding_lookup, last_step, linear, lstm_layer
from .base import ModelBase, ParamSpec
from .config import ModelConfig


def lstm_manifest(config: ModelConfig) -> list[ParamSpec]:
    d = config.d_model
    specs: list[ParamSpec] = [("emb.tok", (config.vocab_size, d), "embed")]
    for i in range(config.n_layers):
        specs += [
            (f"lstm.{i}.wx", (d, 4 * d), "weight"),
            (f"lstm.{i}.wh", (d, 4 * d), "weight"),
            (f"lstm.{i}.b", (4 * d,), "bias"),
        ]
    specs += [("cls.w", (d, config.n_classes), "weight"), ("cls.b", (config.n_classes,), "bias")]
    return specs


class LstmClassifier(ModelBase):
    @staticmethod
    def specs_for(config: ModelConfig) -> list[ParamSpec]:
        return lstm_manifest(config)

    def param_specs(self) -> list[ParamSpec]:
        return lstm_manifest(self.config)

    def forward(self, token_ids: np.ndarray, lengths: np.ndarray) -> Tensor:
        """Class logits [B, n_classes]."""
        cfg = self.config
        p = self.params
        ids = np.asarray(token_ids, dtype=np.int64)
        if ids.ndim != 2 or ids.shape[1] == 0:
            raise UsageError(f"token batch must be [B, T] with T >= 1, got shape {ids.shape}")
        lengths = np.asarray(lengths, dtype=np.int64)
        batch, seq = ids.shape
        if lengths.shape != (batch,) or lengths.min() < 1 or lengths.max() > seq:
            raise UsageError(f"lengths must lie in [1, {seq}] per row")

        x = embedding_lookup(p["emb.tok"], ids)
        for layer in range(cfg.n_layers):
            x = lstm_layer(x, p[f"lstm.{layer}.wx"], p[f"lstm.{layer}.wh"], p[f"lstm.{layer}.b"])
        return linear(last_step(x, lengths), p["cls.w"], p["cls.b"])

    def classify_logits(self, token_ids: np.ndarray, lengths: np.ndarray) -> Tensor:
        return self.forward(token_ids, lengths)
