"""Bidirectional transformer encoder with MLM and classification heads.

Layout per layer: multi-head self-attention (padding masked) -> residual
add + layer norm -> two-layer GELU feed-forward (inner width 4*d_model)
-> residual add + layer norm. Token and position embeddings are learned.
Heads are floor(d_model / n_heads) wide; their concatenation (which is
n_heads * d_head, not necessarily d_model) is projected back to d_model.

Classification mean-pools the hidden states of each sequence's real
tokens; the MLM head is an affine map of every real token's hidden state
to vocabulary logits, untied from the embedding.

The encoder computes in float32, its parameters' precision, on packed
rows: only the real tokens of the padded batch, gathered once from the
attention mask. Each sublayer is one tape node (`attention`, then
`linear` for the output projection, `add_layer_norm`, `linear_gelu`,
`linear`, `add_layer_norm`), and every forward and backward GEMM of the
projections and the feed-forward runs on the packed [N, d] rows. Only
`attention` scatters q/k/v into the padded [B, H, T, d_head] layout for
its score and context GEMMs. The encoder returns the packed rows, and
both heads and the loss take them as they are: the MLM head is one GEMM
over the N rows, and `mean_pool` averages each sequence's rows. The
attention weights of a padded query are uniform over the real keys of
its row. With float64 parameters the packed model matches a per-op
computation on the padded batch (`tests/transformer_oracle.py`).
"""

from __future__ import annotations

import numpy as np

from ..tensor import (
    Packing,
    Tensor,
    UsageError,
    add,
    add_layer_norm,
    attention,
    embedding_lookup,
    linear,
    linear_gelu,
    mean_pool,
)
from .base import ModelBase, ParamSpec
from .config import N_CLASSES, ModelConfig


def transformer_manifest(config: ModelConfig, mode: str) -> list[ParamSpec]:
    d = config.d_model
    width = config.n_heads * config.d_head
    specs: list[ParamSpec] = [
        ("emb.tok", (config.vocab_size, d), "embed"),
        ("emb.pos", (config.max_seq_len, d), "embed"),
    ]
    for i in range(config.n_layers):
        p = f"enc.{i}"
        specs += [
            (f"{p}.attn.wq", (d, width), "weight"),
            (f"{p}.attn.bq", (width,), "bias"),
            (f"{p}.attn.wk", (d, width), "weight"),
            (f"{p}.attn.bk", (width,), "bias"),
            (f"{p}.attn.wv", (d, width), "weight"),
            (f"{p}.attn.bv", (width,), "bias"),
            (f"{p}.attn.wo", (width, d), "weight"),
            (f"{p}.attn.bo", (d,), "bias"),
            (f"{p}.ln1.g", (d,), "gain"),
            (f"{p}.ln1.b", (d,), "bias"),
            (f"{p}.ffn.w1", (d, config.d_ffn), "weight"),
            (f"{p}.ffn.b1", (config.d_ffn,), "bias"),
            (f"{p}.ffn.w2", (config.d_ffn, d), "weight"),
            (f"{p}.ffn.b2", (d,), "bias"),
            (f"{p}.ln2.g", (d,), "gain"),
            (f"{p}.ln2.b", (d,), "bias"),
        ]
    if mode == "mlm":
        specs += [("mlm.w", (d, config.vocab_size), "weight"), ("mlm.b", (config.vocab_size,), "bias")]
    else:
        specs += [("cls.w", (d, N_CLASSES), "weight"), ("cls.b", (N_CLASSES,), "bias")]
    return specs


class TransformerModel(ModelBase):
    def forward(self, token_ids: np.ndarray, attention_mask: np.ndarray) -> Tensor:
        """Hidden states [N, d_model] of the N real tokens, in `Packing(attention_mask)`'s order."""
        cfg = self.config
        p = self.params
        ids = np.asarray(token_ids, dtype=np.int64)
        if ids.ndim != 2:
            raise UsageError(f"token batch must be 2-d, got shape {ids.shape}")
        batch, seq = ids.shape
        if seq == 0:
            raise UsageError("empty sequence batch")
        if seq > cfg.max_seq_len:
            raise UsageError(f"sequence length {seq} exceeds max_seq_len {cfg.max_seq_len}")
        mask = np.asarray(attention_mask)
        if mask.shape != (batch, seq):
            raise UsageError(f"attention mask shape {mask.shape} does not match batch {(batch, seq)}")

        packing = Packing(mask)
        h = add(embedding_lookup(p["emb.tok"], packing.pack(ids)),
                embedding_lookup(p["emb.pos"], packing.pos_idx))
        for i in range(cfg.n_layers):
            pre = f"enc.{i}"
            ctx, _ = attention(
                h, p[f"{pre}.attn.wq"], p[f"{pre}.attn.bq"], p[f"{pre}.attn.wk"], p[f"{pre}.attn.bk"],
                p[f"{pre}.attn.wv"], p[f"{pre}.attn.bv"], packing, cfg.n_heads,
            )
            out = linear(ctx, p[f"{pre}.attn.wo"], p[f"{pre}.attn.bo"])
            h = add_layer_norm(out, h, p[f"{pre}.ln1.g"], p[f"{pre}.ln1.b"])
            inner = linear_gelu(h, p[f"{pre}.ffn.w1"], p[f"{pre}.ffn.b1"])
            f = linear(inner, p[f"{pre}.ffn.w2"], p[f"{pre}.ffn.b2"])
            h = add_layer_norm(f, h, p[f"{pre}.ln2.g"], p[f"{pre}.ln2.b"])
        return h

    def mlm_logits(self, hidden: Tensor) -> Tensor:
        """Vocabulary logits [N, V] of the packed hidden states."""
        if self.mode != "mlm":
            raise UsageError(f"model is in mode '{self.mode}', not 'mlm'")
        return linear(hidden, self.params["mlm.w"], self.params["mlm.b"])

    def classify_logits(self, hidden: Tensor, attention_mask: np.ndarray) -> Tensor:
        """Class logits [B, N_CLASSES] from the mean of each sequence's packed hidden states."""
        if self.mode != "classify":
            raise UsageError(f"model is in mode '{self.mode}', not 'classify'")
        pooled = mean_pool(hidden, Packing(attention_mask))
        return linear(pooled, self.params["cls.w"], self.params["cls.b"])
