import tracemalloc

import numpy as np
import pytest

from flnp.data import Batch, MaskedBatch, MaskingConfig, build_vocab
from flnp.models import init_model, preset
from flnp.optim import Adam
from flnp.rng import Rng
from flnp.tensor import (
    Packing,
    Tensor,
    UsageError,
    add,
    backward,
    masked_cross_entropy,
    mul,
    reduce_sum,
    sigmoid,
    tanh,
)
from flnp.training import TrainPlan, batch_loss, train_epochs

from test_models import _tape


def test_identity_derivative():
    x = Tensor(3.0, requires_grad=True)
    backward(x)
    assert x.grad == 1.0


def test_hand_derivative_xy_plus_x():
    x = Tensor(2.0, requires_grad=True)
    y = Tensor(3.0, requires_grad=True)
    z = add(mul(x, y), x)
    backward(z)
    assert x.grad == 4.0
    assert y.grad == 2.0


def test_non_scalar_root_rejected():
    with pytest.raises(UsageError):
        backward(Tensor(np.zeros(3), requires_grad=True))


def test_unreachable_tensor_untouched():
    x = Tensor(1.0, requires_grad=True)
    y = Tensor(1.0, requires_grad=True)
    backward(mul(x, Tensor(2.0)))
    assert x.grad == 2.0
    assert y.grad is None


def test_shared_subexpression_visited_once():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    h = tanh(x)
    z = reduce_sum(add(mul(h, h), h))  # h consumed three times
    backward(z)
    t = np.tanh(x.data)
    expected = (2 * t + 1.0) * (1 - t * t)
    assert np.allclose(x.grad, expected, atol=1e-12)


def test_grad_accumulates_across_backward_calls():
    x = Tensor(2.0, requires_grad=True)
    backward(mul(x, x))
    first = float(x.grad)
    backward(mul(x, x))
    assert float(x.grad) == pytest.approx(2 * first)


def test_deep_chain_does_not_hit_recursion_limit():
    x = Tensor(0.1, requires_grad=True)
    y = x
    for _ in range(5000):
        y = add(y, Tensor(0.0))
    backward(y)
    assert x.grad == 1.0


def test_constants_do_not_grow_the_tape():
    a = Tensor(1.0)
    b = Tensor(2.0)
    out = mul(a, b)
    assert not out.requires_grad
    assert out._parents == ()


def test_determinism_bitwise():
    def run():
        rng = np.random.default_rng(42)
        x = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        loss = reduce_sum(mul(sigmoid(x), tanh(x)))
        backward(loss)
        return loss.item(), x.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    assert np.array_equal(g1, g2)


def _mlm_step_loss(model, rng):
    ids = rng.integers(3, 40, size=(4, 12))
    mask = (np.arange(12) < np.array([12, 1, 7, 4])[:, None]).astype(float)
    labels = np.where((rng.random(mask.shape) < 0.3) & (mask > 0), ids, -1)
    return masked_cross_entropy(model.mlm_logits(model.forward(ids, mask)), Packing(mask).pack(labels))


def test_backward_consumes_the_tape_and_keeps_parameter_grads():
    model = init_model(preset("bert_mini", vocab_size=40, max_seq_len=12), seed=3, mode="mlm")
    loss = _mlm_step_loss(model, np.random.default_rng(4))
    backward(loss)
    nodes = [node for node in _tape(loss) if node._parents]
    assert len(nodes) > 1
    assert all(node.grad is None for node in nodes)
    assert all(t.grad is not None for t in model.params.values())


def test_second_backward_through_a_consumed_node_raises_and_changes_no_grad():
    model = init_model(preset("bert_mini", vocab_size=40, max_seq_len=12), seed=3, mode="mlm")
    loss = _mlm_step_loss(model, np.random.default_rng(4))
    backward(loss)
    grads = {name: t.grad.copy() for name, t in model.params.items()}
    with pytest.raises(UsageError, match="consumed"):
        backward(loss)
    with pytest.raises(UsageError, match="consumed"):
        backward(mul(loss, Tensor(np.float32(2.0))))  # a new root over the old tape
    for name, t in model.params.items():
        assert np.array_equal(t.grad, grads[name]), name


# the one node kind per sublayer a transformer training step records; `add`
# sums the token and position embeddings
TRANSFORMER_STEP_KINDS = {"embedding_lookup", "add", "attention", "linear", "add_layer_norm",
                          "linear_gelu", "masked_cross_entropy"}


@pytest.mark.parametrize("mode, head_kinds", [("mlm", set()), ("classify", {"mean_pool"})])
def test_a_transformer_training_step_records_only_fused_node_kinds(mode, head_kinds):
    model = init_model(preset("bert_mini", vocab_size=40, max_seq_len=12), seed=3, mode=mode)
    rng = np.random.default_rng(4)
    ids = rng.integers(3, 40, size=(4, 12))
    batch = Batch(input_ids=ids, lengths=np.array([12, 1, 7, 4]), labels=np.array([0, 1, 1, 0]))
    if mode == "mlm":
        mask = batch.attention_mask
        labels = np.where((rng.random(mask.shape) < 0.3) & (mask > 0), ids, -1)
        batch = MaskedBatch(input_ids=ids, labels=labels, attention_mask=mask)
    loss, _, _ = batch_loss(model, batch)
    kinds = {node._backward_fn.__qualname__.split(".")[0] for node in _tape(loss) if node._parents}
    assert kinds == TRANSFORMER_STEP_KINDS | head_kinds


def _train_peak_bytes(n_batches: int) -> int:
    """tracemalloc's peak over `n_batches` equal bert_mini MLM steps of `train_epochs`."""
    rng = np.random.default_rng(5)
    words = [f"w{i}" for i in range(30)]
    records = [(0, [words[j] for j in rng.integers(0, 30, size=32)]) for _ in range(16 * n_batches)]
    vocab = build_vocab((" ".join(toks) for _, toks in records), 100)
    model_cfg = preset("bert_mini", vocab_size=vocab.size, max_seq_len=32)
    plan = TrainPlan(model_config=model_cfg, mode="mlm", vocab=vocab, shards=[records],
                     batch_size=16, max_seq_len=32, masking=MaskingConfig(), holdout_frac=0.2,
                     batch_seed=6)
    model = init_model(model_cfg, seed=3, mode="mlm")
    optimizer = Adam(model.params, lr=1e-3)
    tracemalloc.start()
    try:
        train_epochs(model, optimizer, records, plan, Rng(6), epochs=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_training_step_does_not_hold_the_previous_steps_tape():
    one, two = _train_peak_bytes(1), _train_peak_bytes(2)
    assert two <= 1.2 * one, (one, two)
