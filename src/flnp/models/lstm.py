"""Stacked unidirectional LSTM text classifier.

Standard gate equations per timestep, with the fused projection
gates = x @ wx + h @ wh + b split into (input, forget, cell, output)
chunks: i,f,o are sigmoid gates, the cell candidate is tanh, then
c = f*c + i*g and h = o*tanh(c), from a zero initial state.

The batch runs packed, as cuDNN's variable-length RNNs and PyTorch's
`pack_padded_sequence` do: its rows are sorted by length, longest first,
and laid out time-major with only their real steps, so step t holds the
rows still running and padding is never embedded or computed on. Each
layer is one `lstm_layer` tape node over those packed steps: the input
projection x @ wx of every step is hoisted out of the recurrence as a
single GEMM, and only h @ wh runs per step. Classification reads the top
layer's hidden state at each row's last step, in the batch's own row
order (a row gather, `embedding_lookup`), through one affine layer (no
pooling).
"""

from __future__ import annotations

import numpy as np

from ..tensor import Packing, Tensor, UsageError, embedding_lookup, linear, lstm_layer
from .base import ModelBase, ParamSpec
from .config import N_CLASSES, ModelConfig


def lstm_manifest(config: ModelConfig) -> list[ParamSpec]:
    d = config.d_model
    specs: list[ParamSpec] = [("emb.tok", (config.vocab_size, d), "embed")]
    for i in range(config.n_layers):
        specs += [
            (f"lstm.{i}.wx", (d, 4 * d), "weight"),
            (f"lstm.{i}.wh", (d, 4 * d), "weight"),
            (f"lstm.{i}.b", (4 * d,), "bias"),
        ]
    specs += [("cls.w", (d, N_CLASSES), "weight"), ("cls.b", (N_CLASSES,), "bias")]
    return specs


class LstmClassifier(ModelBase):
    def forward(self, token_ids: np.ndarray, lengths: np.ndarray) -> Tensor:
        """Class logits [B, N_CLASSES]."""
        cfg = self.config
        p = self.params
        ids = np.asarray(token_ids, dtype=np.int64)
        if ids.ndim != 2 or ids.shape[1] == 0:
            raise UsageError(f"token batch must be [B, T] with T >= 1, got shape {ids.shape}")
        lengths = np.asarray(lengths, dtype=np.int64)
        batch, seq = ids.shape
        if lengths.shape != (batch,) or lengths.min() < 1 or lengths.max() > seq:
            raise UsageError(f"lengths must lie in [1, {seq}] per row")

        # longest row first (ties keep batch order); step t holds the rows longer than t
        order = np.argsort(-lengths, kind="stable")
        packing = Packing(np.arange(lengths.max())[:, None] < lengths[order])
        x = embedding_lookup(p["emb.tok"], ids[order[packing.pos_idx], packing.batch_idx])
        for layer in range(cfg.n_layers):
            x = lstm_layer(x, p[f"lstm.{layer}.wx"], p[f"lstm.{layer}.wh"], p[f"lstm.{layer}.b"],
                           packing)
        # batch row r is sorted row argsort(order)[r] of each step; read it at step lengths[r] - 1
        counts = packing.counts
        starts = np.cumsum(counts) - counts
        last = embedding_lookup(x, starts[lengths - 1] + np.argsort(order))
        return linear(last, p["cls.w"], p["cls.b"])
