import math

import numpy as np
import pytest

from flnp.data import MaskedBatch
from flnp.models import (
    LstmClassifier,
    ModelConfig,
    TransformerModel,
    build_model,
    init_model,
    lstm_manifest,
    preset,
    transformer_manifest,
)
from flnp.models.config import ConfigError
from flnp.optim import Adam
from flnp.params import ParameterSet
from flnp.tensor import (
    Packing,
    Tensor,
    UsageError,
    add,
    attention,
    backward,
    embedding_lookup,
    masked_cross_entropy,
    reshape,
)
from flnp.training import batch_loss

from gradcheck import widen
from lstm_oracle import unrolled_logits
from test_params import set_bytes, traced_peak


def tiny_transformer(mode="mlm", vocab=13, layers=2, d=8, heads=2, seq=6, seed=5):
    cfg = ModelConfig(kind="transformer", d_model=d, n_layers=layers,
                      vocab_size=vocab, max_seq_len=seq, n_heads=heads)
    return init_model(cfg, seed=seed, mode=mode)


class TestConfig:
    def test_presets_match_expected_dimensions(self):
        bert = preset("bert", vocab_size=100, max_seq_len=32)
        assert (bert.d_model, bert.n_heads, bert.n_layers) == (128, 6, 12)
        mini = preset("bert_mini", vocab_size=100, max_seq_len=32)
        assert (mini.d_model, mini.n_heads, mini.n_layers) == (50, 2, 6)
        lstm = preset("lstm", vocab_size=100, max_seq_len=32)
        assert (lstm.d_model, lstm.n_layers) == (128, 3)

    def test_bert_head_width_floors(self):
        bert = preset("bert", vocab_size=100, max_seq_len=32)
        assert bert.d_head == 21  # 128 // 6; heads concatenate to 126
        assert bert.n_heads * bert.d_head == 126

    def test_zero_head_width_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(kind="transformer", d_model=2, n_layers=1,
                        vocab_size=10, max_seq_len=4, n_heads=3)

    def test_lstm_cannot_do_mlm(self):
        cfg = preset("lstm", vocab_size=10, max_seq_len=4)
        with pytest.raises(ConfigError):
            init_model(cfg, seed=0, mode="mlm")


class TestInit:
    def test_same_seed_bit_identical(self):
        a = tiny_transformer(seed=9).export_params()
        b = tiny_transformer(seed=9).export_params()
        assert a == b

    def test_different_seed_differs(self):
        a = tiny_transformer(seed=1).export_params()
        b = tiny_transformer(seed=2).export_params()
        assert a != b

    def test_bert_mini_parameter_count_closed_form(self):
        vocab, seq = 211, 48
        cfg = preset("bert_mini", vocab_size=vocab, max_seq_len=seq)
        model = init_model(cfg, seed=0, mode="mlm")
        d, heads, layers = 50, 2, 6
        width = heads * (d // heads)
        per_layer = (
            3 * (d * width + width)      # q, k, v projections
            + width * d + d              # output projection
            + 2 * d                      # ln1
            + d * 4 * d + 4 * d          # ffn in
            + 4 * d * d + d              # ffn out
            + 2 * d                      # ln2
        )
        expected = vocab * d + seq * d + layers * per_layer + (d * vocab + vocab)
        assert sum(arr.size for _, arr in model.export_params().items()) == expected

    def test_bert_manifest_has_12_encoder_layers(self):
        cfg = preset("bert", vocab_size=50, max_seq_len=16)
        names = [n for n, _, _ in transformer_manifest(cfg, "mlm")]
        layer_ids = {n.split(".")[1] for n in names if n.startswith("enc.")}
        assert layer_ids == {str(i) for i in range(12)}

    def test_manifest_is_pure_function_of_config(self):
        cfg = preset("bert_mini", vocab_size=77, max_seq_len=24)
        a = transformer_manifest(cfg, "classify")
        b = transformer_manifest(cfg, "classify")
        assert a == b
        assert [n for n, _, _ in lstm_manifest(preset("lstm", 77, 24))] == [
            n for n, _, _ in lstm_manifest(preset("lstm", 77, 24))
        ]

    def test_embedding_and_weight_distributions(self):
        model = tiny_transformer(vocab=500, d=32, layers=1, heads=2, seed=3)
        emb = model.params["emb.tok"].data
        assert abs(emb.std() - 0.02) < 0.005
        w = model.params["enc.0.ffn.w1"].data
        bound = 1.0 / math.sqrt(32)
        assert np.abs(w).max() <= bound
        assert np.all(model.params["enc.0.ln1.g"].data == 1.0)
        assert np.all(model.params["enc.0.attn.bq"].data == 0.0)


class TestSaveLoad:
    def test_round_trip_bit_exact_logits(self):
        initialised = tiny_transformer(mode="classify", seed=4)
        exported = initialised.export_params()
        for name, t in initialised.params.items():
            assert np.array_equal(exported[name], t.data.astype(np.float32))
        # a model built from a set exports that set, and its clone computes the same logits
        model = build_model(initialised.config, "classify", exported)
        assert model.export_params() == exported
        ids = np.array([[3, 4, 5, 0], [3, 6, 0, 0]])
        mask = np.array([[1, 1, 1, 0], [1, 1, 0, 0]], dtype=float)
        logits = model.classify_logits(model.forward(ids, mask), mask).data
        clone = build_model(model.config, "classify", model.export_params())
        logits2 = clone.classify_logits(clone.forward(ids, mask), mask).data
        assert np.array_equal(logits, logits2)

    def test_a_model_computes_on_the_sets_own_arrays(self):
        built_from = tiny_transformer(mode="classify", seed=4).export_params()
        model = build_model(tiny_transformer(mode="classify").config, "classify", built_from)
        assert all(np.shares_memory(model.params[n].data, arr) for n, arr in built_from.items())
        assert model.export_params() is built_from
        loaded = tiny_transformer(mode="classify", seed=6).export_params()
        model.load_params(loaded)
        assert all(np.shares_memory(model.params[n].data, arr) for n, arr in loaded.items())
        assert model.export_params() is loaded

    def test_a_trained_model_exports_a_new_set(self):
        loaded = tiny_transformer(mode="classify", seed=4).export_params()
        model = build_model(tiny_transformer(mode="classify").config, "classify", loaded)
        moved = model.params["cls.b"]
        moved.data = moved.data + np.float32(1.0)  # as an optimizer step replaces an array
        exported = model.export_params()
        assert exported is not loaded
        assert np.array_equal(exported["cls.b"], loaded["cls.b"] + np.float32(1.0))
        assert all(np.array_equal(exported[n], loaded[n]) for n in loaded.names if n != "cls.b")

    def test_manifest_mismatch_rejected(self):
        model = tiny_transformer(mode="classify")
        wrong = ParameterSet([("nope", np.zeros(3))])
        with pytest.raises(UsageError):
            model.load_params(wrong)

    def test_manifest_mismatch_names_first_differing_tensor(self):
        model = tiny_transformer(mode="classify")
        renamed = ParameterSet(("enc.1.ln2.gx" if name == "enc.1.ln2.g" else name, arr)
                               for name, arr in model.export_params().items())
        n = len(model.manifest())
        at = [name for name, _ in model.manifest()].index("enc.1.ln2.g")
        with pytest.raises(UsageError) as err:
            model.load_params(renamed)
        assert str(err.value).endswith(
            f"at entry {at}: expected 'enc.1.ln2.g' (8,), "
            f"got 'enc.1.ln2.gx' (8,) ({n} vs {n} entries)"
        )

    def test_manifest_mismatch_names_missing_entry(self):
        model = tiny_transformer(mode="classify")
        short = ParameterSet(list(model.export_params().items())[:-1])
        last_name, last_shape = model.manifest()[-1]
        with pytest.raises(UsageError, match=f"expected '{last_name}' .*, got no entry"):
            model.load_params(short)


def _layer0_attention(model, ids, mask) -> np.ndarray:
    """The attention weights [B, H, T, T] of the model's first encoder layer."""
    p = model.params
    packing = Packing(mask)
    h = add(embedding_lookup(p["emb.tok"], packing.pack(ids)),
            embedding_lookup(p["emb.pos"], packing.pos_idx))
    _, weights = attention(h, *(p[f"enc.0.attn.{n}"] for n in ("wq", "bq", "wk", "bk", "wv", "bv")),
                           packing, model.config.n_heads)
    return weights


class TestTransformerForward:
    def test_attention_rows_sum_to_one_on_unpadded_keys(self):
        model = widen(tiny_transformer())
        ids = np.array([[3, 4, 5, 6, 0, 0]])
        mask = np.array([[1, 1, 1, 1, 0, 0]], dtype=float)
        sums = _layer0_attention(model, ids, mask).sum(axis=-1)
        assert np.abs(sums - 1.0).max() < 1e-12

    def test_padding_gets_zero_attention_weight(self):
        model = tiny_transformer()
        ids = np.array([[3, 4, 5, 6, 0, 0]])
        mask = np.array([[1, 1, 1, 1, 0, 0]], dtype=float)
        assert np.all(_layer0_attention(model, ids, mask)[..., 4:] == 0.0)

    def test_padded_token_values_never_change_unpadded_outputs(self):
        model = tiny_transformer(mode="classify")
        mask = np.array([[1, 1, 1, 0, 0, 0]], dtype=float)
        a = np.array([[3, 4, 5, 0, 0, 0]])
        b = np.array([[3, 4, 5, 9, 12, 7]])  # garbage under the padding
        ha = model.forward(a, mask).data
        hb = model.forward(b, mask).data
        assert np.array_equal(ha, hb)
        la = model.classify_logits(model.forward(a, mask), mask).data
        lb = model.classify_logits(model.forward(b, mask), mask).data
        assert np.array_equal(la, lb)

    def test_hidden_states_are_the_real_tokens_rows_in_packing_order(self):
        model = widen(tiny_transformer())
        ids = np.array([[3, 4, 5, 6, 0, 0], [3, 0, 7, 8, 9, 10]])
        mask = np.array([[1, 1, 1, 1, 0, 0], [1, 0, 1, 1, 1, 1]], dtype=float)
        hidden = model.forward(ids, mask).data
        assert hidden.shape == (9, model.config.d_model)
        alone = [model.forward(ids[i:i + 1], mask[i:i + 1]).data for i in range(2)]
        assert np.abs(hidden - np.concatenate(alone)).max() < 1e-12

    def test_sequence_longer_than_limit_rejected(self):
        model = tiny_transformer(seq=4)
        ids = np.zeros((1, 5), dtype=int)
        with pytest.raises(UsageError):
            model.forward(ids, np.ones((1, 5)))

    def test_hand_stepped_single_head_attention(self):
        # 1 layer, 1 head, d_model=2, T=2, no padding; independent numpy oracle
        cfg = ModelConfig(kind="transformer", d_model=2, n_layers=1,
                          vocab_size=6, max_seq_len=2, n_heads=1)
        model = widen(init_model(cfg, seed=11, mode="mlm"))
        p = {name: t.data for name, t in model.params.items()}
        ids = np.array([[3, 5]])
        mask = np.ones((1, 2))

        def ln(x, g, b, eps=1e-5):
            mu = x.mean(-1, keepdims=True)
            var = ((x - mu) ** 2).mean(-1, keepdims=True)
            return (x - mu) / np.sqrt(var + eps) * g + b

        h = p["emb.tok"][ids[0]] + p["emb.pos"][[0, 1]]
        q = h @ p["enc.0.attn.wq"] + p["enc.0.attn.bq"]
        k = h @ p["enc.0.attn.wk"] + p["enc.0.attn.bk"]
        v = h @ p["enc.0.attn.wv"] + p["enc.0.attn.bv"]
        scores = q @ k.T / math.sqrt(2.0)
        e = np.exp(scores - scores.max(-1, keepdims=True))
        attn = e / e.sum(-1, keepdims=True)
        ctx = attn @ v
        h1 = ln(h + (ctx @ p["enc.0.attn.wo"] + p["enc.0.attn.bo"]),
                p["enc.0.ln1.g"], p["enc.0.ln1.b"])
        inner = h1 @ p["enc.0.ffn.w1"] + p["enc.0.ffn.b1"]
        act = 0.5 * inner * (1.0 + np.vectorize(math.erf)(inner / math.sqrt(2.0)))
        h2 = ln(h1 + (act @ p["enc.0.ffn.w2"] + p["enc.0.ffn.b2"]),
                p["enc.0.ln2.g"], p["enc.0.ln2.b"])

        out = model.forward(ids, mask).data
        assert np.abs(out - h2).max() < 1e-10


class TestHeads:
    def test_zero_hidden_zero_bias_gives_uniform_rows(self):
        model = tiny_transformer()
        from flnp.tensor import softmax_rows

        hidden = Tensor(np.zeros((2, 3, model.config.d_model)))
        items = [(n, np.zeros_like(t.data) if n == "mlm.b" else t.data)
                 for n, t in model.params.items()]
        model.load_params(ParameterSet(items))
        probs = softmax_rows(model.mlm_logits(hidden)).data
        assert np.allclose(probs, 1.0 / model.config.vocab_size, atol=1e-12)

    def test_mlm_logits_shape(self):
        model = tiny_transformer()
        ids = np.array([[3, 4, 5], [3, 6, 0]])
        mask = np.array([[1, 1, 1], [1, 1, 0]], dtype=float)
        logits = model.mlm_logits(model.forward(ids, mask))
        assert logits.shape == (5, model.config.vocab_size)

    def test_all_ignored_labels_zero_loss(self):
        model = tiny_transformer()
        ids = np.array([[3, 4, 5]])
        mask = np.ones((1, 3))
        logits = model.mlm_logits(model.forward(ids, mask))
        loss = masked_cross_entropy(logits, np.array([-1, -1, -1]))
        assert loss.item() == 0.0

    def test_packed_mlm_loss_equals_the_padded_reshape_loss(self):
        model = init_model(preset("bert_mini", vocab_size=40, max_seq_len=12), seed=3, mode="mlm")
        rng = np.random.default_rng(8)
        ids = rng.integers(3, 40, size=(4, 12))
        mask = (np.arange(12) < np.array([12, 1, 7, 4])[:, None]).astype(float)
        mask[0, [2, 5]] = 0.0  # holes
        labels = np.where((rng.random(mask.shape) < 0.3) & (mask > 0), ids, -1)
        batch = MaskedBatch(input_ids=ids, labels=labels, attention_mask=mask)
        loss, scored_logits, scored_labels = batch_loss(model, batch)

        # the same logits rows scattered to [B, T, V], flattened and scored with every label
        packing = Packing(mask)
        logits = model.mlm_logits(model.forward(ids, mask))
        padded = reshape(Tensor(packing.pad(logits.data)), (mask.size, 40))
        flat = labels.reshape(-1)
        assert loss.item() == masked_cross_entropy(padded, flat).item()
        assert np.array_equal(scored_logits, padded.data[flat != -1])
        assert np.array_equal(scored_labels, flat[flat != -1])

    def test_pooling_single_valid_token(self):
        model = tiny_transformer(mode="classify")
        ids = np.array([[4, 0, 0]])
        mask = np.array([[1, 0, 0]], dtype=float)
        hidden = model.forward(ids, mask)
        pooled_logits = model.classify_logits(hidden, mask).data
        w = model.params["cls.w"].data
        b = model.params["cls.b"].data
        expected = hidden.data[0] @ w + b
        assert np.allclose(pooled_logits[0], expected, atol=1e-12)

    def test_duplicated_batch_rows_leave_logits_unchanged(self):
        model = tiny_transformer(mode="classify")
        ids = np.array([[3, 4, 5], [3, 6, 0]])
        mask = np.array([[1, 1, 1], [1, 1, 0]], dtype=float)
        single = model.classify_logits(model.forward(ids, mask), mask).data
        dup_ids = np.vstack([ids, ids])
        dup_mask = np.vstack([mask, mask])
        doubled = model.classify_logits(model.forward(dup_ids, dup_mask), dup_mask).data
        assert np.array_equal(doubled[:2], single)
        assert np.array_equal(doubled[2:], single)

    def test_random_model_is_at_chance_on_balanced_labels(self):
        from flnp.rng import Rng

        cfg = ModelConfig(kind="transformer", d_model=16, n_layers=1,
                          vocab_size=40, max_seq_len=8, n_heads=2)
        model = init_model(cfg, seed=77, mode="classify")
        rng = Rng(123)
        correct = 0
        n = 1000
        labels = np.array([i % 2 for i in range(n)])
        for start in range(0, n, 100):
            ids = 4 + rng.integers(36, size=(100, 8))
            mask = np.ones((100, 8))
            logits = model.classify_logits(model.forward(ids, mask), mask).data
            correct += int((np.argmax(logits, axis=1) == labels[start:start + 100]).sum())
        assert abs(correct / n - 0.5) <= 0.05


class TestLstm:
    def test_all_zero_weights_zero_logits(self):
        cfg = ModelConfig(kind="lstm", d_model=4, n_layers=3, vocab_size=9, max_seq_len=6)
        model = init_model(cfg, seed=0, mode="classify")
        zeros = ParameterSet([(n, np.zeros_like(t.data)) for n, t in model.params.items()])
        model.load_params(zeros)
        ids = np.array([[3, 4, 5], [3, 6, 7]])
        logits = model.forward(ids, np.array([3, 3])).data
        assert np.all(logits == 0.0)

    def test_batch_permutation_permutes_logits(self):
        cfg = ModelConfig(kind="lstm", d_model=5, n_layers=2, vocab_size=9, max_seq_len=6)
        model = init_model(cfg, seed=1, mode="classify")
        ids = np.array([[3, 4, 5, 6], [3, 7, 0, 0], [3, 8, 4, 0]])
        lens = np.array([4, 2, 3])
        base = model.forward(ids, lens).data
        perm = [2, 0, 1]
        permuted = model.forward(ids[perm], lens[perm]).data
        assert np.array_equal(permuted, base[perm])

    def test_empty_sequence_rejected(self):
        cfg = ModelConfig(kind="lstm", d_model=4, n_layers=1, vocab_size=9, max_seq_len=6)
        model = init_model(cfg, seed=0, mode="classify")
        with pytest.raises(UsageError):
            model.forward(np.zeros((2, 0), dtype=int), np.array([0, 0]))
        with pytest.raises(UsageError):
            model.forward(np.array([[3, 4]]), np.array([0]))

    def test_single_timestep_hand_gate_arithmetic(self):
        # 2-unit single-layer cell vs explicitly evaluated gate equations
        cfg = ModelConfig(kind="lstm", d_model=2, n_layers=1, vocab_size=5, max_seq_len=3)
        model = widen(init_model(cfg, seed=13, mode="classify"))
        p = {name: t.data for name, t in model.params.items()}
        token = 4
        x = p["emb.tok"][token]
        gates = x @ p["lstm.0.wx"] + np.zeros(2) @ p["lstm.0.wh"] + p["lstm.0.b"]

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        gi, gf, gc, go = gates[0:2], gates[2:4], gates[4:6], gates[6:8]
        c = sig(gi) * np.tanh(gc)  # forget gate sees c0 = 0
        h = sig(go) * np.tanh(c)
        expected = h @ p["cls.w"] + p["cls.b"]

        logits = model.forward(np.array([[token]]), np.array([1])).data[0]
        assert np.abs(logits - expected).max() < 1e-12

    def test_last_valid_timestep_selected(self):
        cfg = ModelConfig(kind="lstm", d_model=4, n_layers=2, vocab_size=9, max_seq_len=8)
        model = init_model(cfg, seed=3, mode="classify")
        # logits for a ragged row must equal the same row run without padding
        ids = np.array([[3, 4, 5, 0, 0]])
        short = np.array([[3, 4, 5]])
        padded = model.forward(ids, np.array([3])).data
        exact = model.forward(short, np.array([3])).data
        assert np.array_equal(padded, exact)

    def test_padding_width_reaches_neither_logits_nor_grads(self):
        # the packed layout holds real steps only, so wider padding and junk
        # tokens in it leave every bit of the logits and gradients alone
        cfg = ModelConfig(kind="lstm", d_model=6, n_layers=2, vocab_size=11, max_seq_len=16)
        rng = np.random.default_rng(4)
        lens = np.array([5, 9, 1, 9, 3])
        ids = np.where(np.arange(9) < lens[:, None], rng.integers(3, 11, size=(5, 9)), 0)
        wide = np.concatenate([ids, np.zeros((5, 7), dtype=ids.dtype)], axis=1)
        wide[np.arange(16) >= lens[:, None]] = rng.integers(3, 11, size=int((16 - lens).sum()))
        labels = np.array([0, 1, 1, 0, 1])

        def logits_and_grads(token_ids):
            model = init_model(cfg, seed=2, mode="classify")
            logits = model.forward(token_ids, lens)
            backward(masked_cross_entropy(logits, labels))
            return logits.data, {name: t.grad for name, t in model.params.items()}

        narrow_logits, narrow_grads = logits_and_grads(ids)
        wide_logits, wide_grads = logits_and_grads(wide)
        assert np.array_equal(narrow_logits, wide_logits)
        for name, grad in narrow_grads.items():
            assert np.array_equal(grad, wide_grads[name]), name

    @pytest.mark.parametrize("lens", [[3, 7, 1, 7, 3, 5], [1, 1], [7], [1]])
    def test_logits_come_back_in_the_batchs_row_order(self, lens):
        # unsorted rows, ties in length, lengths 1 and T, and B = 1 against
        # the unrolled per-timestep graph, which never reorders rows
        cfg = ModelConfig(kind="lstm", d_model=5, n_layers=2, vocab_size=12, max_seq_len=7)
        model = widen(init_model(cfg, seed=9, mode="classify"))
        lens = np.array(lens)
        ids = np.random.default_rng(len(lens)).integers(3, 12, size=(len(lens), 7))
        got = model.forward(ids, lens).data
        want = unrolled_logits(model, ids, lens).data
        assert got.shape == (len(lens), 2)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _tape(root) -> list:
    """Every tensor reachable from `root`, parameters included."""
    seen, stack = {id(root): root}, [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    return list(seen.values())


class TestComputeDtype:
    """A model computes in its parameters' float32: one float64 constant would
    promote every node downstream of it."""

    @pytest.mark.parametrize("kind, mode", [("bert_mini", "mlm"), ("bert_mini", "classify"),
                                            ("lstm", "classify")])
    def test_one_training_step_stays_float32(self, kind, mode):
        cfg = preset(kind, vocab_size=40, max_seq_len=12)
        model = init_model(cfg, seed=3, mode=mode)
        rng = np.random.default_rng(4)
        ids = rng.integers(3, 40, size=(4, 12))
        lengths = np.array([12, 1, 7, 4])
        mask = (np.arange(12) < lengths[:, None]).astype(float)
        if kind == "lstm":
            loss = masked_cross_entropy(model.forward(ids, lengths), np.array([0, 1, 1, 0]))
        elif mode == "mlm":
            logits = model.mlm_logits(model.forward(ids, mask))
            labels = np.where((rng.random(mask.shape) < 0.3) & (mask > 0), ids, -1)
            loss = masked_cross_entropy(logits, Packing(mask).pack(labels))
        else:
            loss = masked_cross_entropy(model.classify_logits(model.forward(ids, mask), mask),
                                        np.array([0, 1, 1, 0]))
        opt = Adam(model.params, lr=1e-3)
        backward(loss)
        opt.step()
        tape = _tape(loss)
        assert len(tape) > len(model.params)
        for node in tape:
            assert node.data.dtype == np.float32, node
            assert node.grad is None or node.grad.dtype == np.float32, node
        for _, tensor, m, v in opt._slots:
            assert tensor.data.dtype == m.dtype == v.dtype == np.float32


def test_bert_init_holds_under_a_quarter_of_its_set_outside_the_set():
    from flnp.models.base import init_array, init_params
    from flnp.rng import Rng

    cfg = preset("bert", 130, 64)
    ps, peak = traced_peak(lambda: init_params(cfg, 9, "mlm"))
    assert peak < set_bytes(ps) / 4
    rng = Rng(9)  # the same draws, each made whole and rounded
    assert ps == ParameterSet((name, init_array((name, shape, kind), rng).astype(np.float32))
                              for name, shape, kind in transformer_manifest(cfg, "mlm"))
