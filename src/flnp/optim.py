"""Adam optimizer over named parameter tensors."""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .tensor import ShapeError, Tensor

# the published defaults (Kingma & Ba, arXiv 1412.6980)
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Bias-corrected Adam with BETA1, BETA2 and EPS. Updates are deterministic given gradients.

    First and second moment buffers are kept per parameter; `t` counts
    completed steps.
    """

    def __init__(self, params: Mapping[str, Tensor], lr: float) -> None:
        if not lr > 0.0:  # NaN too
            raise ValueError(f"lr must be positive, got {lr}")
        self._slots = [
            (name, t, np.zeros_like(t.data), np.zeros_like(t.data)) for name, t in params.items()
        ]
        self.lr = lr
        self.t = 0

    def zero_grad(self) -> None:
        for _, tensor, _, _ in self._slots:
            tensor.grad = None

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        for name, tensor, m, v in self._slots:
            g = tensor.grad
            if g is None:
                continue
            if g.shape != tensor.data.shape:
                raise ShapeError(
                    f"gradient shape {g.shape} does not match parameter '{name}' {tensor.data.shape}"
                )
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            mhat = m / bc1
            vhat = v / bc2
            tensor.data = tensor.data - self.lr * mhat / (np.sqrt(vhat) + EPS)
