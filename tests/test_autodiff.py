import numpy as np
import pytest

from flnp.tensor import (
    Tensor,
    UsageError,
    add,
    backward,
    mul,
    reduce_sum,
    sigmoid,
    tanh,
)


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
