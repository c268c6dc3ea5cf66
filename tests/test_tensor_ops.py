import math
import warnings

import numpy as np
import pytest
from scipy.special import erf, expit

from flnp import tensor
from flnp.tensor import (
    Packing,
    ShapeError,
    Tensor,
    UsageError,
    add,
    add_layer_norm,
    attention,
    backward,
    embedding_lookup,
    gelu,
    layer_norm,
    linear,
    linear_gelu,
    lstm_layer,
    masked_cross_entropy,
    matmul,
    mean_pool,
    mul,
    narrow,
    reduce_mean,
    reduce_sum,
    reshape,
    sigmoid,
    softmax_rows,
    sub,
    tanh,
    transpose,
)

from gradcheck import assert_grads_match


def _lstm_weights(rng, d_in, d):
    return {
        "wx": Tensor(rng.normal(scale=0.5, size=(d_in, 4 * d)), requires_grad=True),
        "wh": Tensor(rng.normal(scale=0.5, size=(d, 4 * d)), requires_grad=True),
        "b": Tensor(rng.normal(scale=0.5, size=(4 * d,)), requires_grad=True),
    }


class TestMatmul:
    def test_identity(self):
        out = matmul(Tensor([[1.0, 0.0], [0.0, 1.0]]), Tensor([[5.0, 6.0], [7.0, 8.0]]))
        assert out.data.tolist() == [[5.0, 6.0], [7.0, 8.0]]

    def test_hand_dot_product(self):
        out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        assert_grads_match(
            lambda: reduce_sum(matmul(a, b)), {"a": a, "b": b}, n_coords=12, rtol=1e-6
        )

    def test_batched_gradient(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        assert_grads_match(
            lambda: reduce_sum(mul(matmul(a, w), matmul(a, w))),
            {"a": a, "w": w}, n_coords=15, rtol=1e-6,
        )


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert sigmoid(Tensor(0.0)).item() == 0.5

    def test_tanh_at_zero(self):
        assert tanh(Tensor(0.0)).item() == 0.0

    def test_gelu_gradient_at_fixed_points(self):
        x = Tensor(np.array([-2.0, -0.5, 0.0, 0.5, 2.0]), requires_grad=True)
        assert_grads_match(lambda: reduce_sum(gelu(x)), {"x": x}, n_coords=5, rtol=1e-5)

    @staticmethod
    def _gelu_and_derivative(x: np.ndarray):
        t = Tensor(x, requires_grad=True)
        out = gelu(t)
        backward(reduce_sum(out))
        return out.data, t.grad

    @staticmethod
    def _float64_reference(x: np.ndarray):
        x = x.astype(np.float64)
        cdf = 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
        return x * cdf, cdf + x * np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)

    def test_float32_gelu_is_within_5e_7_of_a_float64_reference(self):
        x = np.concatenate([np.linspace(-20.0, 20.0, 400_001).astype(np.float32),
                            np.float32([0.0, -0.0])])
        out, grad = self._gelu_and_derivative(x)
        want, dwant = self._float64_reference(x)
        assert out.dtype == grad.dtype == np.float32
        assert np.max(np.abs(out - want)) <= 5e-7
        assert np.max(np.abs(grad - dwant)) <= 2e-6
        assert np.array_equal(np.signbit(out[-2:]), [False, True])

    def test_float32_gelu_at_infinities_matches_the_reference(self):
        # -inf * Phi(-inf) is -inf * 0: NaN in IEEE arithmetic, for the reference too
        x = np.float32([np.inf, -np.inf])
        with np.errstate(invalid="ignore"):
            out, grad = self._gelu_and_derivative(x)
            want, dwant = self._float64_reference(x)
        np.testing.assert_array_equal(out, want)
        np.testing.assert_array_equal(grad, dwant)
        assert np.array_equal(tensor._normal_cdf(x)[0], [1.0, 0.0])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dtype, edge", [(np.float32, 20.0), (np.float64, 40.0)])
    def test_gelu_of_large_finite_inputs_does_not_overflow(self, dtype, edge):
        # from |x| = edge on, Phi is exactly 0 or 1 and so is the derivative
        big = np.array([1e20, -1e20, 3e38, -3e38, edge, -edge, edge + 5.0], dtype=dtype)
        phi = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0], dtype=dtype)
        x = Tensor(big[:, None], requires_grad=True)
        w = Tensor(np.ones((1, 1), dtype), requires_grad=True)
        b = Tensor(np.zeros(1, dtype), requires_grad=True)
        out = linear_gelu(x, w, b)
        backward(reduce_sum(out))
        assert np.array_equal(out.data[:, 0], big * phi)
        assert np.array_equal(np.signbit(out.data[:, 0]), [False, True, False, True, False, True, False])
        assert np.array_equal(x.grad[:, 0], phi)
        assert np.array_equal(gelu(Tensor(big)).data, out.data[:, 0])

    def test_add_sub_mul_gradients(self):
        rng = np.random.default_rng(2)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        assert_grads_match(
            lambda: reduce_sum(mul(add(a, b), sub(a, b))), {"a": a, "b": b},
            n_coords=12, rtol=1e-6,
        )

    def test_row_vector_broadcast(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        bias = Tensor(np.arange(4.0), requires_grad=True)
        out = add(a, bias)
        assert out.data.shape == (3, 4)
        backward(reduce_sum(out))
        assert bias.grad.tolist() == [3.0, 3.0, 3.0, 3.0]

    def test_incompatible_broadcast_raises(self):
        with pytest.raises(ShapeError):
            add(Tensor(np.zeros((3, 4))), Tensor(np.zeros((2, 4))))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_number_operand_takes_the_tensor_dtype(self, dtype):
        x = Tensor(np.array([1.0, 2.0], dtype=dtype), requires_grad=True)
        outs = {"mul(x, -1.0)": mul(x, -1.0), "mul(2, x)": mul(2, x), "sub(2, x)": sub(2, x),
                "add(x, 1)": add(x, 1), "mul(x, 0.5)": mul(x, 0.5), "reduce_mean(x)": reduce_mean(x)}
        assert {name: out.data.dtype for name, out in outs.items()} == dict.fromkeys(outs, dtype)
        backward(reduce_sum(mul(sub(2, x), 3)))
        assert x.grad.dtype == dtype and x.grad.tolist() == [-3.0, -3.0]

    def test_tanh_sigmoid_gradients(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        assert_grads_match(
            lambda: reduce_sum(mul(tanh(x), sigmoid(x))), {"x": x}, n_coords=10, rtol=1e-6
        )

    def test_float32_sigmoid_saturates_without_overflow(self):
        # exp(-x) overflows float32 below x = -88; the tanh form has no exp
        x = np.float32([-1e4, -100.0, -1.0, 0.0, 1.0, 100.0, 1e4])
        want = expit(x.astype(np.float64))
        d = x.size
        zero = Tensor(np.zeros((d, 4 * d), np.float32))
        # one LSTM step from zero state, input, forget and output gates at x and cell
        # candidate tanh(1e4) = 1: c = sigmoid(x) and h = sigmoid(x) * tanh(sigmoid(x))
        b = Tensor(np.concatenate([x, x, np.full(d, 1e4, np.float32), x]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            direct = sigmoid(Tensor(x)).data
            h = lstm_layer(Tensor(np.zeros((1, d), np.float32)), zero, zero, b,
                           Packing(np.ones((1, 1)))).data[0]
        assert direct.dtype == h.dtype == np.float32
        assert np.all(np.isfinite(direct)) and np.all(np.isfinite(h))
        assert np.max(np.abs(direct - want)) <= 1e-7
        assert np.max(np.abs(h - want * np.tanh(want))) <= 1e-7


class TestSoftmax:
    def test_uniform_row(self):
        out = softmax_rows(Tensor([[0.0, 0.0, 0.0, 0.0]]))
        assert np.allclose(out.data, 0.25, atol=1e-15)

    def test_large_values_do_not_overflow(self):
        out = softmax_rows(Tensor([[1000.0, 0.0]]))
        assert np.isfinite(out.data).all()
        assert out.data[0, 0] == pytest.approx(1.0)
        assert out.data[0, 1] == pytest.approx(0.0, abs=1e-300)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        out = softmax_rows(Tensor(rng.normal(size=(5, 7)) * 3))
        assert np.abs(out.data.sum(axis=-1) - 1.0).max() < 1e-12

    def test_gradient(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        coeff = Tensor(rng.normal(size=(3, 5)))
        assert_grads_match(
            lambda: reduce_sum(mul(softmax_rows(x), coeff)), {"x": x}, n_coords=12, rtol=1e-6
        )


class TestLayerNorm:
    def test_constant_row_maps_to_bias(self):
        gain = Tensor(np.ones(4))
        bias = Tensor(np.zeros(4))
        out = layer_norm(Tensor([[3.0, 3.0, 3.0, 3.0]]), gain, bias)
        assert np.allclose(out.data, 0.0)

    def test_normalizes_random_rows(self):
        rng = np.random.default_rng(6)
        out = layer_norm(
            Tensor(rng.normal(2.0, 3.0, size=(4, 64))), Tensor(np.ones(64)), Tensor(np.zeros(64))
        )
        assert np.abs(out.data.mean(axis=-1)).max() < 1e-10
        assert np.abs(out.data.var(axis=-1) - 1.0).max() < 1e-4  # eps shifts variance slightly

    def test_gradient(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
        g = Tensor(rng.normal(size=6), requires_grad=True)
        b = Tensor(rng.normal(size=6), requires_grad=True)
        coeff = Tensor(rng.normal(size=(3, 6)))
        assert_grads_match(
            lambda: reduce_sum(mul(layer_norm(x, g, b), coeff)),
            {"x": x, "gain": g, "bias": b}, n_coords=12, rtol=1e-5,
        )

    def test_gain_shape_checked(self):
        with pytest.raises(ShapeError):
            layer_norm(Tensor(np.zeros((2, 4))), Tensor(np.ones(3)), Tensor(np.zeros(4)))


class TestEmbeddingLookup:
    def test_single_row(self):
        table = Tensor(np.arange(12.0).reshape(4, 3))
        out = embedding_lookup(table, np.array([[0]]))
        assert out.data.tolist() == [[[0.0, 1.0, 2.0]]]

    def test_repeated_id_accumulates_gradient(self):
        table = Tensor(np.zeros((4, 2)), requires_grad=True)
        out = embedding_lookup(table, np.array([1, 1]))
        backward(reduce_sum(out))
        assert table.grad[1].tolist() == [2.0, 2.0]
        assert table.grad[0].tolist() == [0.0, 0.0]

    def test_out_of_range_id_names_value(self):
        with pytest.raises(IndexError, match="7"):
            embedding_lookup(Tensor(np.zeros((4, 2))), np.array([7]))

    def test_gradient(self):
        rng = np.random.default_rng(8)
        table = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        ids = np.array([[0, 2, 2], [4, 1, 0]])
        coeff = Tensor(rng.normal(size=(2, 3, 3)))
        assert_grads_match(
            lambda: reduce_sum(mul(embedding_lookup(table, ids), coeff)),
            {"table": table}, n_coords=15, rtol=1e-6,
        )


class TestMaskedCrossEntropy:
    def test_uniform_logits_single_label(self):
        loss = masked_cross_entropy(Tensor(np.zeros((1, 4))), np.array([2]))
        assert loss.item() == pytest.approx(math.log(4.0), rel=1e-12)

    def test_all_ignored_returns_zero_with_zero_grad(self):
        logits = Tensor(np.random.default_rng(0).normal(size=(3, 4)), requires_grad=True)
        loss = masked_cross_entropy(logits, np.array([-1, -1, -1]))
        assert loss.item() == 0.0
        backward(loss)
        assert np.all(logits.grad == 0.0)

    def test_label_out_of_range(self):
        with pytest.raises(IndexError, match="5"):
            masked_cross_entropy(Tensor(np.zeros((1, 4))), np.array([5]))

    def test_shift_invariance(self):
        rng = np.random.default_rng(9)
        logits = rng.normal(size=(4, 6))
        labels = np.array([0, -1, 3, 5])
        a = masked_cross_entropy(Tensor(logits), labels).item()
        b = masked_cross_entropy(Tensor(logits + 123.456), labels).item()
        assert a == pytest.approx(b, abs=1e-10)

    def test_gradient(self):
        rng = np.random.default_rng(10)
        logits = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        labels = np.array([1, -1, 4])
        assert_grads_match(
            lambda: masked_cross_entropy(logits, labels), {"logits": logits},
            n_coords=15, rtol=1e-5,
        )


class TestShapeOps:
    def test_reshape_transpose_narrow_gradients(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)

        def loss():
            y = transpose(reshape(x, (6, 4)), (1, 0))  # [4, 6]
            z = narrow(y, 1, 1, 3)
            return reduce_sum(mul(z, z))

        assert_grads_match(loss, {"x": x}, n_coords=15, rtol=1e-6)

    def test_reduce_mean(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = reduce_mean(x, axis=1)
        assert out.data.tolist() == [1.0, 4.0]
        backward(reduce_sum(out))
        assert np.allclose(x.grad, 1.0 / 3.0)


def _steps(lengths) -> Packing:
    """Time-major packing of rows sorted longest first: step t holds the rows longer than t."""
    lengths = np.asarray(lengths)
    return Packing(np.arange(lengths.max())[:, None] < lengths)


class TestLstmLayer:
    @staticmethod
    def _loss(x, w, probe, packing):
        # a fixed random probe weights every output, so no gradient cancels
        return reduce_sum(mul(lstm_layer(x, w["wx"], w["wh"], w["b"], packing), probe))

    @pytest.mark.parametrize("lengths, d_in, d", [([4, 3, 3, 1], 3, 5), ([1, 1, 1], 4, 2),
                                                  ([5, 2], 2, 3)])
    def test_gradient_over_ragged_steps(self, lengths, d_in, d):
        rng = np.random.default_rng(len(lengths))
        packing = _steps(lengths)
        x = Tensor(rng.normal(size=(packing.n_rows, d_in)), requires_grad=True)
        w = _lstm_weights(rng, d_in, d)
        probe = Tensor(rng.normal(size=(packing.n_rows, d)))
        assert_grads_match(lambda: self._loss(x, w, probe, packing), {"x": x, **w},
                           n_coords=12, rtol=1e-6)

    def test_input_without_grad(self):
        rng = np.random.default_rng(5)
        packing = _steps([3, 2])
        x = Tensor(rng.normal(size=(5, 4)))
        w = _lstm_weights(rng, 4, 3)
        probe = Tensor(rng.normal(size=(5, 3)))
        assert_grads_match(lambda: self._loss(x, w, probe, packing), w, n_coords=12, rtol=1e-6)
        assert x.grad is None

    def test_finished_rows_leave_the_others_alone(self):
        # each row computes as if it ran alone: a ragged batch gives its rows' own states
        rng = np.random.default_rng(8)
        w = _lstm_weights(rng, 3, 4)
        lengths = [4, 2, 1]
        packing = _steps(lengths)
        x = rng.normal(size=(packing.n_rows, 3))
        h = lstm_layer(Tensor(x), w["wx"], w["wh"], w["b"], packing).data
        for row, length in enumerate(lengths):
            steps = packing.batch_idx[packing.pos_idx == row]
            alone = lstm_layer(Tensor(x[packing.pos_idx == row]), w["wx"], w["wh"], w["b"],
                               _steps([length])).data
            assert steps.tolist() == list(range(length))
            np.testing.assert_allclose(h[packing.pos_idx == row], alone, rtol=1e-12, atol=1e-15)

    def test_weight_shapes_checked(self):
        w = _lstm_weights(np.random.default_rng(0), 3, 2)
        with pytest.raises(ShapeError, match=r"wx \(4, 8\)"):
            lstm_layer(Tensor(np.zeros((2, 4))), w["wx"], w["wh"], w["b"], _steps([2]))
        with pytest.raises(ShapeError, match="3 rows"):
            lstm_layer(Tensor(np.zeros((2, 3))), w["wx"], w["wh"], w["b"], _steps([2, 1]))

    @pytest.mark.parametrize("mask", [[[1, 1], [0, 1]], [[1, 0], [1, 1]], [[0, 1], [0, 1]]])
    def test_steps_must_be_shrinking_prefixes(self, mask):
        w = _lstm_weights(np.random.default_rng(0), 3, 2)
        packing = Packing(np.array(mask))
        with pytest.raises(UsageError, match="prefix"):
            lstm_layer(Tensor(np.zeros((packing.n_rows, 3))), w["wx"], w["wh"], w["b"], packing)


# a padded [3, 4] batch: lengths 1 and 4, and a row with a hole
PACK_MASK = np.array([[1, 0, 0, 0], [1, 1, 1, 1], [1, 0, 1, 1]], dtype=float)


def _params(rng, **shapes):
    return {name: Tensor(rng.normal(size=shape), requires_grad=True) for name, shape in shapes.items()}


class TestPacking:
    def test_pad_and_pack_round_trip(self):
        packing = Packing(PACK_MASK)
        assert packing.n_rows == 8
        assert packing.pos_idx.tolist() == [0, 0, 1, 2, 3, 0, 2, 3]
        rows = np.arange(16.0).reshape(8, 2)
        full = packing.pad(rows)
        assert full.shape == (3, 4, 2)
        assert np.all(full[PACK_MASK == 0] == 0.0)
        assert np.array_equal(packing.pack(full), rows)

    def test_row_count_checked(self):
        with pytest.raises(ShapeError, match="7 rows for a mask with 8 real tokens"):
            Packing(PACK_MASK).pad(np.zeros((7, 2)))


class TestLinear:
    @pytest.mark.parametrize("shape", [(5, 3), (2, 4, 3)])
    def test_gradient(self, shape):
        rng = np.random.default_rng(len(shape))
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        p = _params(rng, w=(3, 4), b=(4,))
        probe = Tensor(rng.normal(size=shape[:-1] + (4,)))
        assert_grads_match(lambda: reduce_sum(mul(linear(x, p["w"], p["b"]), probe)),
                           {"x": x, **p}, n_coords=12, rtol=1e-6)

    def test_packed_rows_equal_the_padded_batch(self):
        rng = np.random.default_rng(3)
        packing = Packing(PACK_MASK)
        x = rng.normal(size=(3, 4, 5))
        p = _params(rng, w=(5, 6), b=(6,))
        padded = add(matmul(Tensor(x), p["w"]), p["b"]).data
        packed = linear(Tensor(packing.pack(x)), p["w"], p["b"]).data
        assert np.array_equal(packed, packing.pack(padded))

    def test_input_without_grad(self):
        rng = np.random.default_rng(4)
        packing = Packing(PACK_MASK)
        x = Tensor(rng.normal(size=(8, 3)))
        p = _params(rng, w=(3, 2), b=(2,))
        probe = Tensor(rng.normal(size=(8, 2)))
        assert_grads_match(lambda: reduce_sum(mul(linear(x, p["w"], p["b"]), probe)),
                           p, n_coords=6, rtol=1e-6)
        assert x.grad is None

    def test_shapes_checked(self):
        with pytest.raises(ShapeError, match=r"input \(2, 3\), weight \(4, 2\)"):
            linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))), Tensor(np.zeros(2)))


class TestLinearGelu:
    def test_equals_gelu_of_linear(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(6, 3)))
        p = _params(rng, w=(3, 4), b=(4,))
        expected = gelu(add(matmul(x, p["w"]), p["b"])).data
        assert np.array_equal(linear_gelu(x, p["w"], p["b"]).data, expected)

    def test_float32_equals_gelu_of_linear(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(scale=3.0, size=(6, 3)).astype(np.float32))
        w, b = (Tensor(rng.normal(size=s).astype(np.float32)) for s in ((3, 4), (4,)))
        expected = gelu(add(matmul(x, w), b)).data
        out = linear_gelu(x, w, b).data
        assert out.dtype == np.float32 and np.array_equal(out, expected)

    def test_records_no_backward_without_grad(self):
        rng = np.random.default_rng(5)
        x, w, b = (Tensor(rng.normal(size=s).astype(np.float32)) for s in ((4, 3), (3, 2), (2,)))
        out = linear_gelu(x, w, b)
        assert out._backward_fn is None and out._parents == () and not out.requires_grad

    def test_backward_equals_the_recomputed_derivative_bit_for_bit(self):
        # the derivative kept from the forward, against the backward that recomputed
        # it from the same float32 pre-activation and cdf: d = (cdf + pre * pdf(pre)) * g
        rng = np.random.default_rng(11)
        x, w, b = (Tensor(rng.normal(scale=2.0, size=s).astype(np.float32), requires_grad=True)
                   for s in ((7, 5), (5, 6), (6,)))
        probe = Tensor(rng.normal(size=(7, 6)).astype(np.float32))
        out = linear_gelu(x, w, b)
        backward(reduce_sum(mul(out, probe)))
        pre = tensor._affine(x, w, b)
        cdf = tensor._normal_cdf(pre)[0]
        assert np.array_equal(out.data, pre * cdf)
        d = pre * pre
        d *= -0.5
        np.exp(d, out=d)
        d *= 1.0 / math.sqrt(2.0 * math.pi)
        d *= pre
        d += cdf
        d *= probe.data
        assert np.array_equal(x.grad, d @ w.data.T)
        assert np.array_equal(w.grad, x.data.T @ d)
        assert np.array_equal(b.grad, d.sum(axis=0))

    def test_gradient(self):
        rng = np.random.default_rng(6)
        packing = Packing(PACK_MASK)
        x = Tensor(rng.normal(size=(8, 3)), requires_grad=True)
        p = _params(rng, w=(3, 5), b=(5,))
        probe = Tensor(rng.normal(size=(8, 5)))
        assert_grads_match(lambda: reduce_sum(mul(linear_gelu(x, p["w"], p["b"]), probe)),
                           {"x": x, **p}, n_coords=12, rtol=1e-6)

    def test_input_without_grad(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(4, 3)))
        p = _params(rng, w=(3, 2), b=(2,))
        probe = Tensor(rng.normal(size=(4, 2)))
        assert_grads_match(lambda: reduce_sum(mul(linear_gelu(x, p["w"], p["b"]), probe)),
                           p, n_coords=6, rtol=1e-6)
        assert x.grad is None


class TestAddLayerNorm:
    def test_equals_layer_norm_of_sum(self):
        rng = np.random.default_rng(8)
        x, res = Tensor(rng.normal(size=(3, 6))), Tensor(rng.normal(size=(3, 6)))
        g, b = Tensor(rng.normal(size=6)), Tensor(rng.normal(size=6))
        assert np.array_equal(add_layer_norm(x, res, g, b).data, layer_norm(add(res, x), g, b).data)

    def test_gradient(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(2, 3, 6)), requires_grad=True)
        res = Tensor(rng.normal(size=(2, 3, 6)), requires_grad=True)
        p = _params(rng, gain=(6,), bias=(6,))
        probe = Tensor(rng.normal(size=(2, 3, 6)))
        assert_grads_match(
            lambda: reduce_sum(mul(add_layer_norm(x, res, p["gain"], p["bias"]), probe)),
            {"x": x, "residual": res, **p}, n_coords=12, rtol=1e-5,
        )

    def test_residual_without_grad(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        res = Tensor(rng.normal(size=(3, 4)))
        p = _params(rng, gain=(4,), bias=(4,))
        probe = Tensor(rng.normal(size=(3, 4)))
        assert_grads_match(
            lambda: reduce_sum(mul(add_layer_norm(x, res, p["gain"], p["bias"]), probe)),
            {"x": x, **p}, n_coords=12, rtol=1e-5,
        )
        assert res.grad is None

    def test_shapes_checked(self):
        with pytest.raises(ShapeError):
            add_layer_norm(Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 3))),
                           Tensor(np.ones(4)), Tensor(np.zeros(4)))


class TestAttention:
    @staticmethod
    def _weights(rng, d, width):
        return _params(rng, wq=(d, width), bq=(width,), wk=(d, width), bk=(width,),
                       wv=(d, width), bv=(width,))

    @staticmethod
    def _loss(x, w, packing, heads, probe):
        ctx, _ = attention(x, w["wq"], w["bq"], w["wk"], w["bk"], w["wv"], w["bv"], packing, heads)
        return reduce_sum(mul(ctx, probe))

    @pytest.mark.parametrize("heads", [1, 2])
    def test_gradient(self, heads):
        rng = np.random.default_rng(heads)
        packing = Packing(PACK_MASK)
        x = Tensor(rng.normal(size=(8, 3)), requires_grad=True)
        w = self._weights(rng, 3, 4)
        probe = Tensor(rng.normal(size=(8, 4)))
        # bk is left out: softmax ignores a shift shared by a row's scores
        checked = {"x": x, **{k: t for k, t in w.items() if k != "bk"}}
        assert_grads_match(lambda: self._loss(x, w, packing, heads, probe), checked,
                           n_coords=12, rtol=1e-6)
        assert np.abs(w["bk"].grad).max() <= 1e-12 * np.abs(w["wk"].grad).max()

    def test_input_without_grad(self):
        rng = np.random.default_rng(3)
        packing = Packing(PACK_MASK)
        x = Tensor(rng.normal(size=(8, 3)))
        w = self._weights(rng, 3, 2)
        probe = Tensor(rng.normal(size=(8, 2)))
        checked = {k: t for k, t in w.items() if k != "bk"}
        assert_grads_match(lambda: self._loss(x, w, packing, 1, probe), checked,
                           n_coords=6, rtol=1e-6)
        assert x.grad is None

    def test_weights_skip_padded_keys_and_are_uniform_for_padded_queries(self):
        rng = np.random.default_rng(4)
        packing = Packing(PACK_MASK)
        w = self._weights(rng, 3, 4)
        _, probs = attention(Tensor(rng.normal(size=(8, 3))), w["wq"], w["bq"], w["wk"], w["bk"],
                             w["wv"], w["bv"], packing, 2)
        assert probs.shape == (3, 2, 4, 4)
        keys = PACK_MASK[:, None, None, :]
        assert np.all(probs[np.broadcast_to(keys == 0, probs.shape)] == 0.0)
        assert np.abs(probs.sum(axis=-1) - 1.0).max() < 1e-12
        padded_queries = probs[2, :, 1]  # row 2's hole
        assert np.allclose(padded_queries, np.array([1, 0, 1, 1]) / 3.0, atol=1e-15)

    def test_width_must_split_into_heads(self):
        rng = np.random.default_rng(5)
        w = self._weights(rng, 3, 4)
        with pytest.raises(ShapeError):
            attention(Tensor(np.zeros((8, 3))), w["wq"], w["bq"], w["wk"], w["bk"],
                      w["wv"], w["bv"], Packing(PACK_MASK), 3)


HOLED_MASK = np.vstack([PACK_MASK, np.zeros((1, 4))])  # and a sequence with no real token


class TestMeanPool:
    def test_gradient_on_a_mask_with_holes(self):
        rng = np.random.default_rng(6)
        packing = Packing(HOLED_MASK)
        x = Tensor(rng.normal(size=(8, 2)), requires_grad=True)
        probe = Tensor(rng.normal(size=(4, 2)))
        assert_grads_match(lambda: reduce_sum(mul(mean_pool(mul(x, x), packing), probe)),
                           {"x": x}, n_coords=16, rtol=1e-6)
        pooled = mean_pool(x, packing).data
        assert np.allclose(pooled[2], x.data[5:8].mean(axis=0), rtol=1e-15)
        assert np.all(pooled[3] == 0.0)  # a sequence with no real token
        with pytest.raises(ShapeError):
            mean_pool(Tensor(np.zeros((8, 2, 1))), packing)

    def test_bit_equal_to_broadcast_pooling_over_the_padded_rows(self):
        rng = np.random.default_rng(7)
        packing = Packing(HOLED_MASK)
        rows = rng.normal(size=(8, 5)).astype(np.float32)
        probe = Tensor(rng.normal(size=(4, 5)).astype(np.float32))
        x = Tensor(rows, requires_grad=True)
        backward(reduce_sum(mul(mean_pool(x, packing), probe)))

        # the scatter to [B, T, d], a mask multiply, a sum over T and a multiply by 1/count
        padded = Tensor(packing.pad(rows), requires_grad=True)
        mask = HOLED_MASK.astype(np.float32)
        inv_count = 1.0 / np.maximum(mask.sum(axis=1), 1.0)
        pooled = mul(reduce_sum(mul(padded, Tensor(mask[:, :, None])), axis=1),
                     Tensor(inv_count[:, None]))
        backward(reduce_sum(mul(pooled, probe)))

        assert np.array_equal(mean_pool(x, packing).data, pooled.data)
        assert np.array_equal(x.grad, packing.pack(padded.grad))
