import numpy as np
import pytest

from flnp.optim import Adam
from flnp.tensor import Tensor, backward, mul


def test_first_step_moves_by_lr_sign():
    # with bias correction, step one reduces to lr * g / (|g| + eps')
    w = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
    w.grad = np.array([0.3, -0.7, 2.0])
    opt = Adam({"w": w}, lr=0.05)
    before = w.data.copy()
    opt.step()
    moved = w.data - before
    assert np.allclose(moved, -0.05 * np.sign([0.3, -0.7, 2.0]), atol=1e-6)


def test_zero_gradient_leaves_parameters_t_increments():
    w = Tensor(np.ones(4), requires_grad=True)
    w.grad = np.zeros(4)
    opt = Adam({"w": w}, lr=0.1)
    opt.step()
    assert opt.t == 1
    assert np.array_equal(w.data, np.ones(4))


def test_missing_gradient_skipped():
    w = Tensor(np.ones(2), requires_grad=True)
    opt = Adam({"w": w}, lr=1e-2)
    opt.step()
    assert opt.t == 1
    assert np.array_equal(w.data, np.ones(2))


def test_three_steps_match_hand_recurrence():
    # independent oracle: scalar Adam recurrence stepped with plain floats,
    # at the published betas and eps (Kingma & Ba, arXiv 1412.6980)
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    w_ref, m, v = 1.0, 0.0, 0.0
    trajectory = []
    for t in range(1, 4):
        g = 2.0 * w_ref  # d/dw of w^2
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1**t)
        vhat = v / (1 - b2**t)
        w_ref = w_ref - lr * mhat / (vhat**0.5 + eps)
        trajectory.append(w_ref)

    w = Tensor(1.0, requires_grad=True)
    opt = Adam({"w": w}, lr=lr)
    seen = []
    for _ in range(3):
        backward(mul(w, w))
        opt.step()
        opt.zero_grad()
        seen.append(float(w.data))
    assert seen == pytest.approx(trajectory, abs=1e-12)


def test_hyperparameter_validation():
    w = Tensor(1.0, requires_grad=True)
    with pytest.raises(ValueError):
        Adam({"w": w}, lr=0.0)
    with pytest.raises(ValueError):
        Adam({"w": w}, lr=-1.0)


def test_deterministic_trajectory():
    from flnp.tensor import add, reduce_sum

    def run():
        w = Tensor(np.array([0.5, -0.25]), requires_grad=True)
        opt = Adam({"w": w}, lr=0.03)
        for _ in range(5):
            backward(reduce_sum(add(mul(w, w), mul(w, Tensor(0.1)))))
            opt.step()
            opt.zero_grad()
        return w.data.copy()

    assert np.array_equal(run(), run())
