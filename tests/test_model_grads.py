"""Finite-difference checks through entire models.

Small configs keep the loop fast while covering every parameter role.
Every model here is widened to float64, so the checks and the oracle
comparisons keep their float64 tolerances.
"""

import numpy as np
import pytest

from flnp.models import ModelConfig, init_model, preset
from flnp.tensor import Packing, backward, masked_cross_entropy

from gradcheck import assert_grads_match, widen
from lstm_oracle import unrolled_logits
from transformer_oracle import per_op_classify_logits, per_op_forward, per_op_mlm_logits


def test_small_transformer_mlm_all_parameter_tensors():
    cfg = ModelConfig(kind="transformer", d_model=8, n_layers=2,
                      vocab_size=12, max_seq_len=5, n_heads=3)
    model = widen(init_model(cfg, seed=21, mode="mlm"))
    ids = np.array([[3, 4, 5, 0, 0], [3, 6, 7, 8, 0]])
    mask = np.array([[1, 1, 1, 0, 0], [1, 1, 1, 1, 0]], dtype=float)
    labels = Packing(mask).pack(np.array([[-1, 9, -1, -1, -1], [-1, -1, 4, 10, -1]]))

    def loss():
        return masked_cross_entropy(model.mlm_logits(model.forward(ids, mask)), labels)

    assert_grads_match(loss, model.params, n_coords=6, rtol=1e-4, seed=1)


def test_small_transformer_classify_head_and_pooling():
    cfg = ModelConfig(kind="transformer", d_model=6, n_layers=1,
                      vocab_size=10, max_seq_len=4, n_heads=2)
    model = widen(init_model(cfg, seed=8, mode="classify"))
    ids = np.array([[3, 4, 5, 0], [3, 6, 0, 0]])
    mask = np.array([[1, 1, 1, 0], [1, 1, 0, 0]], dtype=float)
    labels = np.array([0, 1])

    def loss():
        return masked_cross_entropy(
            model.classify_logits(model.forward(ids, mask), mask), labels
        )

    assert_grads_match(loss, model.params, n_coords=6, rtol=1e-4, seed=2)


def test_single_layer_lstm_all_parameter_tensors():
    cfg = ModelConfig(kind="lstm", d_model=6, n_layers=1, vocab_size=10, max_seq_len=6)
    model = widen(init_model(cfg, seed=5, mode="classify"))
    ids = np.array([[3, 4, 5, 6], [3, 7, 8, 0]])
    lens = np.array([4, 3])
    labels = np.array([1, 0])

    def loss():
        return masked_cross_entropy(model.forward(ids, lens), labels)

    assert_grads_match(loss, model.params, n_coords=8, rtol=1e-4, seed=3)


def test_stacked_lstm_gradients():
    cfg = ModelConfig(kind="lstm", d_model=4, n_layers=3, vocab_size=9, max_seq_len=5)
    model = widen(init_model(cfg, seed=6, mode="classify"))
    ids = np.array([[3, 4, 5], [3, 6, 7]])
    lens = np.array([3, 2])
    labels = np.array([0, 1])

    def loss():
        return masked_cross_entropy(model.forward(ids, lens), labels)

    assert_grads_match(loss, model.params, n_coords=5, rtol=1e-4, seed=4)


def _tape_size(root) -> int:
    seen, stack = {id(root)}, [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen and parent._parents:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def test_fused_lstm_matches_unrolled_ops_at_preset_shapes():
    cfg = preset("lstm", vocab_size=40, max_seq_len=16)
    rng = np.random.default_rng(7)
    ids = rng.integers(3, 40, size=(6, 16))
    lens = np.array([1, 16, 9, 4, 16, 12])
    labels = np.array([0, 1, 1, 0, 1, 0])

    def loss_and_grads(forward):
        model = widen(init_model(cfg, seed=17, mode="classify"))
        loss = masked_cross_entropy(forward(model), labels)
        backward(loss)
        return loss.item(), {name: t.grad for name, t in model.params.items()}, loss

    fused, fused_grads, root = loss_and_grads(lambda m: m.forward(ids, lens))
    oracle, oracle_grads, _ = loss_and_grads(lambda m: unrolled_logits(m, ids, lens))
    assert _tape_size(root) == cfg.n_layers + 4  # embedding, last_step, linear, loss
    assert abs(fused - oracle) <= 1e-12 * abs(oracle)
    for name, want in oracle_grads.items():
        got = fused_grads[name]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name


def _relative_error(got, want) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("mode", ["mlm", "classify"])
def test_fused_transformer_matches_per_op_oracle_at_preset_shapes(mode):
    seq = 16
    cfg = preset("bert_mini", vocab_size=40, max_seq_len=seq)
    rng = np.random.default_rng(11)
    ids = rng.integers(3, 40, size=(5, seq))
    lengths = np.array([1, seq, 9, 4, seq])
    mask = (np.arange(seq) < lengths[:, None]).astype(float)
    mask[1, [0, 6, 7]] = 0.0  # a row with holes in its mask
    if mode == "mlm":
        labels = np.where((rng.random(mask.shape) < 0.4) & (mask > 0), ids, -1)
    else:
        labels = np.array([0, 1, 1, 0, 1])

    def fused_loss(m):
        hidden = m.forward(ids, mask)
        if mode == "mlm":
            return masked_cross_entropy(m.mlm_logits(hidden), Packing(mask).pack(labels))
        return masked_cross_entropy(m.classify_logits(hidden, mask), labels)

    def oracle_loss(m):
        hidden = per_op_forward(m, ids, mask)
        if mode == "mlm":
            return masked_cross_entropy(per_op_mlm_logits(m, hidden), labels.reshape(-1))
        return masked_cross_entropy(per_op_classify_logits(m, hidden, mask), labels)

    def loss_and_grads(loss_fn):
        model = widen(init_model(cfg, seed=19, mode=mode))
        loss = loss_fn(model)
        backward(loss)
        return loss, {name: t.grad for name, t in model.params.items()}

    fused, fused_grads = loss_and_grads(fused_loss)
    oracle, oracle_grads = loss_and_grads(oracle_loss)
    assert fused.item() == oracle.item()
    # 3 embedding nodes and 6 per layer on packed rows, then the head and the loss:
    # the MLM head's linear, or mean_pool and the classifier's linear
    head = 2 if mode == "mlm" else 3
    assert _tape_size(fused) == 3 + 6 * cfg.n_layers + head
    for name, want in oracle_grads.items():
        got = fused_grads[name]
        if name.endswith(".attn.bk"):
            # shifting every score of a row alike leaves softmax unchanged, so
            # the exact gradient is 0 and both graphs return rounding noise
            dwk = fused_grads[name.replace(".bk", ".wk")]
            assert np.max(np.abs(got)) <= 1e-12 * np.max(np.abs(dwk)), name
        else:
            assert _relative_error(got, want) <= 1e-12, name
