"""The transformer's forward pass built from per-op tensor nodes.

An oracle for the fused, packed-row graph of `TransformerModel.forward`
and its heads: the same layer equations over the padded [B, T, d]
layout, one node per matmul, bias add, reshape, transpose, softmax,
GELU, residual add and layer norm, with padded keys masked by an
additive -1e30 score. Hidden states at padded positions are computed,
not zeroed; the MLM head scores them too, and the classifier's pooling
multiplies them by the 0/1 mask.
"""

import math

import numpy as np

from flnp.tensor import (
    Tensor,
    add,
    embedding_lookup,
    gelu,
    layer_norm,
    matmul,
    mul,
    reduce_sum,
    reshape,
    softmax_rows,
    transpose,
)

NEG_BIG = 1.0e30


def _layer(model, i, h, mask_bias, batch, seq, scale):
    cfg = model.config
    p = model.params
    heads, dh = cfg.n_heads, cfg.d_head
    pre = f"enc.{i}"

    def split_heads(x):
        x = reshape(x, (batch, seq, heads, dh))
        return transpose(x, (0, 2, 1, 3))  # [B, H, T, dh]

    q = split_heads(add(matmul(h, p[f"{pre}.attn.wq"]), p[f"{pre}.attn.bq"]))
    k = split_heads(add(matmul(h, p[f"{pre}.attn.wk"]), p[f"{pre}.attn.bk"]))
    v = split_heads(add(matmul(h, p[f"{pre}.attn.wv"]), p[f"{pre}.attn.bv"]))

    scores = add(mul(matmul(q, transpose(k, (0, 1, 3, 2))), scale), mask_bias)
    attn = softmax_rows(scores)  # [B, H, T, T]
    ctx = matmul(attn, v)  # [B, H, T, dh]
    ctx = reshape(transpose(ctx, (0, 2, 1, 3)), (batch, seq, heads * dh))
    out = add(matmul(ctx, p[f"{pre}.attn.wo"]), p[f"{pre}.attn.bo"])

    h = layer_norm(add(h, out), p[f"{pre}.ln1.g"], p[f"{pre}.ln1.b"])
    inner = gelu(add(matmul(h, p[f"{pre}.ffn.w1"]), p[f"{pre}.ffn.b1"]))
    f = add(matmul(inner, p[f"{pre}.ffn.w2"]), p[f"{pre}.ffn.b2"])
    return layer_norm(add(h, f), p[f"{pre}.ln2.g"], p[f"{pre}.ln2.b"])


def per_op_forward(model, token_ids, attention_mask) -> Tensor:
    """Hidden states [B, T, d_model] of `model` through the per-op graph."""
    p = model.params
    ids = np.asarray(token_ids, dtype=np.int64)
    batch, seq = ids.shape
    mask = np.asarray(attention_mask, dtype=np.float64)
    positions = np.broadcast_to(np.arange(seq, dtype=np.int64), (batch, seq))
    h = add(embedding_lookup(p["emb.tok"], ids), embedding_lookup(p["emb.pos"], positions))
    # keys at padding get a huge negative additive score
    mask_bias = Tensor((mask - 1.0)[:, None, None, :] * NEG_BIG)
    scale = 1.0 / math.sqrt(model.config.d_head)
    for i in range(model.config.n_layers):
        h = _layer(model, i, h, mask_bias, batch, seq, scale)
    return h


def per_op_mlm_logits(model, hidden) -> Tensor:
    """Vocabulary logits [B * T, V] of every position of the padded hidden states."""
    p = model.params
    batch, seq, _ = hidden.shape
    logits = add(matmul(hidden, p["mlm.w"]), p["mlm.b"])
    return reshape(logits, (batch * seq, model.config.vocab_size))


def per_op_classify_logits(model, hidden, attention_mask) -> Tensor:
    """Class logits [B, n_classes] from the mask-weighted mean of the padded hidden states."""
    p = model.params
    mask = np.asarray(attention_mask, dtype=hidden.data.dtype)
    inv_count = 1.0 / np.maximum(mask.sum(axis=1), 1.0)
    pooled = mul(reduce_sum(mul(hidden, Tensor(mask[:, :, None])), axis=1), Tensor(inv_count[:, None]))
    return add(matmul(pooled, p["cls.w"]), p["cls.b"])
