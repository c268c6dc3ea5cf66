"""The LSTM classifier's forward pass unrolled into per-timestep tensor ops.

An oracle for the packed, fused `lstm_layer` graph: the same gate
equations, built from matmul, add, narrow, sigmoid, tanh and mul nodes
one timestep at a time over the padded batch in its own row order, with
the top hidden state latched on each row's last valid step by a 0/1
select.
"""

import numpy as np

from flnp.tensor import Tensor, add, embedding_lookup, matmul, mul, narrow, sigmoid, tanh


def unrolled_logits(model, token_ids, lengths) -> Tensor:
    """Class logits [B, n_classes] of `model` through the per-op graph."""
    p = model.params
    ids = np.asarray(token_ids, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    batch, seq = ids.shape
    d, n_layers = model.config.d_model, model.config.n_layers
    h = [Tensor(np.zeros((batch, d))) for _ in range(n_layers)]
    c = [Tensor(np.zeros((batch, d))) for _ in range(n_layers)]
    last = Tensor(np.zeros((batch, d)))

    for t in range(seq):
        x = embedding_lookup(p["emb.tok"], ids[:, t])
        for layer in range(n_layers):
            gates = add(
                add(matmul(x, p[f"lstm.{layer}.wx"]), matmul(h[layer], p[f"lstm.{layer}.wh"])),
                p[f"lstm.{layer}.b"],
            )
            gi = sigmoid(narrow(gates, 1, 0, d))
            gf = sigmoid(narrow(gates, 1, d, d))
            gc = tanh(narrow(gates, 1, 2 * d, d))
            go = sigmoid(narrow(gates, 1, 3 * d, d))
            c[layer] = add(mul(gf, c[layer]), mul(gi, gc))
            h[layer] = mul(go, tanh(c[layer]))
            x = h[layer]
        pick = (lengths - 1 == t).astype(np.float64)[:, None]
        if pick.any():
            last = add(mul(Tensor(pick), h[-1]), mul(Tensor(1.0 - pick), last))

    return add(matmul(last, p["cls.w"]), p["cls.b"])
