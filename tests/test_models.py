import math

import numpy as np
import pytest

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
from flnp.params import ParameterSet
from flnp.tensor import UsageError


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
        assert model.export_params().n_values() == expected

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


class TestTransformerForward:
    def test_attention_rows_sum_to_one_on_unpadded_keys(self):
        model = tiny_transformer()
        ids = np.array([[3, 4, 5, 6, 0, 0]])
        mask = np.array([[1, 1, 1, 1, 0, 0]], dtype=float)
        _, attns = model.forward(ids, mask, return_attention=True)
        for attn in attns:
            sums = attn.sum(axis=-1)
            assert np.abs(sums - 1.0).max() < 1e-12

    def test_padding_gets_zero_attention_weight(self):
        model = tiny_transformer()
        ids = np.array([[3, 4, 5, 6, 0, 0]])
        mask = np.array([[1, 1, 1, 1, 0, 0]], dtype=float)
        _, attns = model.forward(ids, mask, return_attention=True)
        for attn in attns:
            assert np.all(attn[..., 4:] == 0.0)

    def test_padded_token_values_never_change_unpadded_outputs(self):
        model = tiny_transformer(mode="classify")
        mask = np.array([[1, 1, 1, 0, 0, 0]], dtype=float)
        a = np.array([[3, 4, 5, 0, 0, 0]])
        b = np.array([[3, 4, 5, 9, 12, 7]])  # garbage under the padding
        ha = model.forward(a, mask).data
        hb = model.forward(b, mask).data
        assert np.array_equal(ha[:, :3], hb[:, :3])
        la = model.classify_logits(model.forward(a, mask), mask).data
        lb = model.classify_logits(model.forward(b, mask), mask).data
        assert np.array_equal(la, lb)

    def test_hidden_states_at_padding_are_exactly_zero(self):
        model = tiny_transformer()
        ids = np.array([[3, 4, 5, 6, 0, 0], [3, 0, 7, 8, 9, 10]])
        mask = np.array([[1, 1, 1, 1, 0, 0], [1, 0, 1, 1, 1, 1]], dtype=float)
        hidden = model.forward(ids, mask).data
        assert np.all(hidden[mask == 0] == 0.0)
        assert np.all(np.abs(hidden[mask == 1]).sum(axis=-1) > 0.0)

    def test_sequence_longer_than_limit_rejected(self):
        model = tiny_transformer(seq=4)
        ids = np.zeros((1, 5), dtype=int)
        with pytest.raises(UsageError):
            model.forward(ids, np.ones((1, 5)))

    def test_hand_stepped_single_head_attention(self):
        # 1 layer, 1 head, d_model=2, T=2, no padding; independent numpy oracle
        cfg = ModelConfig(kind="transformer", d_model=2, n_layers=1,
                          vocab_size=6, max_seq_len=2, n_heads=1)
        model = init_model(cfg, seed=11, mode="mlm")
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

        out = model.forward(ids, mask).data[0]
        assert np.abs(out - h2).max() < 1e-10


class TestHeads:
    def test_zero_hidden_zero_bias_gives_uniform_rows(self):
        model = tiny_transformer()
        from flnp.tensor import Tensor, softmax_rows

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
        assert logits.shape == (2, 3, model.config.vocab_size)

    def test_all_ignored_labels_zero_loss(self):
        from flnp.tensor import masked_cross_entropy, reshape

        model = tiny_transformer()
        ids = np.array([[3, 4, 5]])
        mask = np.ones((1, 3))
        logits = model.mlm_logits(model.forward(ids, mask))
        loss = masked_cross_entropy(reshape(logits, (3, model.config.vocab_size)),
                                    np.array([-1, -1, -1]))
        assert loss.item() == 0.0

    def test_pooling_single_valid_token(self):
        model = tiny_transformer(mode="classify")
        ids = np.array([[4, 0, 0]])
        mask = np.array([[1, 0, 0]], dtype=float)
        hidden = model.forward(ids, mask)
        pooled_logits = model.classify_logits(hidden, mask).data
        w = model.params["cls.w"].data
        b = model.params["cls.b"].data
        expected = hidden.data[0, 0] @ w + b
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
        model = init_model(cfg, seed=13, mode="classify")
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
