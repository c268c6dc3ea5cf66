"""Central finite-difference gradient oracle.

Independent of the autodiff path: it only re-runs forward evaluations.
Comparison uses the mixed criterion |fd - analytic| <= rtol * max(|fd|,
|analytic|) + atol; the absolute term absorbs FD roundoff (~1e-10 for
O(1) losses at h=1e-6) on near-zero gradient coordinates. Models compute
in their parameters' precision, float32, so `widen` gives a model float64
parameters before it is checked at these tolerances.
"""

from __future__ import annotations

import numpy as np

FD_STEP = 1e-6
FD_ATOL = 1e-8


def widen(model):
    """`model`, with float64 copies of its parameters: every op then computes in float64."""
    for t in model.params.values():
        t.data = t.data.astype(np.float64)
    return model


def central_difference(loss_fn, array: np.ndarray, index, h: float = FD_STEP) -> float:
    orig = array[index]
    array[index] = orig + h
    up = loss_fn()
    array[index] = orig - h
    down = loss_fn()
    array[index] = orig
    return (up - down) / (2.0 * h)


def sample_indices(shape, n, rng: np.random.Generator):
    total = int(np.prod(shape))
    count = min(n, total)
    flat = rng.choice(total, size=count, replace=False)
    return [np.unravel_index(i, shape) for i in flat]


def max_mismatch(loss_fn, array: np.ndarray, analytic: np.ndarray, n_coords: int,
                 rng: np.random.Generator, rtol: float, atol: float = FD_ATOL,
                 h: float = FD_STEP) -> float:
    """Worst excess over the mixed tolerance; <= 0 means every coord passed."""
    worst = -np.inf
    for idx in sample_indices(array.shape, n_coords, rng):
        fd = central_difference(loss_fn, array, idx, h=h)
        an = float(analytic[idx])
        excess = abs(fd - an) - (rtol * max(abs(fd), abs(an)) + atol)
        worst = max(worst, excess)
    return worst


def assert_grads_match(loss_fn, tensors: dict, n_coords: int, rtol: float,
                       atol: float = FD_ATOL, seed: int = 0) -> None:
    """Backward once, then FD-check sampled coordinates of every tensor.

    `loss_fn` must rebuild the graph from the tensors' current data.
    """
    from flnp.tensor import backward

    for t in tensors.values():
        t.grad = None
    loss = loss_fn()
    backward(loss)
    rng = np.random.default_rng(seed)
    scalar_loss = lambda: loss_fn().item()
    for name, t in tensors.items():
        assert t.grad is not None, f"{name}: no gradient reached this tensor"
        excess = max_mismatch(scalar_loss, t.data, t.grad, n_coords, rng, rtol, atol)
        assert excess <= 0.0, f"{name}: finite differences disagree (excess {excess:.3e})"
