"""Dense tensors with tape-based reverse-mode autodiff: float32 compute, packed GEMMs.

Every operation computes its result eagerly with numpy and, when any
input participates in gradients, records a backward closure plus the
parent links on the output. ``backward(root)`` walks the recorded tape
in reverse topological order and accumulates ``grad`` arrays onto the
reachable tensors that require them. Graphs are rebuilt per batch.

Compute is float32, the parameters' and the wire's precision: each op
allocates in its inputs' dtype (float64 inputs, as in the gradient
checks, compute in float64), and a plain Python number operand takes
the dtype of the tensor beside it. The exact (erf) GELU takes its normal
cdf from a numpy-only fit in float32 (Abramowitz & Stegun 7.1.26, erf
within 1.5e-7), and from scipy's erf in float64, which alone imports
scipy. Binary elementwise ops follow numpy broadcasting (gradients are
summed back over broadcast axes).
Incompatible shapes raise :class:`ShapeError` naming both operands.

Besides the per-op kernels, fused ops record one node for a whole
sublayer and write its backward by hand: `lstm_layer` for the LSTM,
whose recurrence and GEMMs run on packed steps (the real steps of
length-sorted rows, time-major, see :class:`Packing`); `linear`,
`linear_gelu`, `add_layer_norm` and `attention` for the transformer,
whose row-wise work and forward GEMMs run on packed rows (the real
tokens of a padded batch), and `scatter_rows`, which puts packed rows
back into the padded layout.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

_SQRT_2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# Abramowitz & Stegun 7.1.26: erfc(z) = t*(a1 + t*(a2 + ... + t*a5)) * exp(-z*z) + eps,
# t = 1 / (1 + p*z), z >= 0, |eps| <= 1.5e-7
_AS_P_OVER_SQRT_2 = 0.3275911 / _SQRT_2
_AS_A = (1.061405429, -1.453152027, 1.421413741, -0.284496736, 0.254829592)  # a5 .. a1
# |x| is clamped here before squaring: exp(-x*x/2) is exactly 0 beyond 38.6 in float64
# (beyond 14.4 in float32), so the clamp moves no bit and x*x cannot overflow
_GELU_CLAMP = 40.0

LAYER_NORM_EPS = 1e-5
IGNORE_LABEL = -1  # a label that masked_cross_entropy does not score

class ShapeError(ValueError):
    """Operand dimensions do not agree."""


class UsageError(ValueError):
    """An operation was called outside its contract."""


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False) -> None:
        data = np.asarray(data)
        # floating data keeps its precision; anything else becomes float64
        self.data = data if data.dtype.kind == "f" else data.astype(np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Optional[Callable[[np.ndarray], None]] = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return mul(self, -1.0)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _operands(a, b) -> tuple[Tensor, Tensor]:
    """Both operands as tensors; a plain Python number takes the other's dtype."""
    if isinstance(a, Tensor) and type(b) in (int, float):
        return a, Tensor(np.asarray(b, dtype=a.data.dtype))
    if isinstance(b, Tensor) and type(a) in (int, float):
        return Tensor(np.asarray(a, dtype=b.data.dtype)), b
    return as_tensor(a), as_tensor(b)


def _result(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward_fn = backward_fn
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward_fn = None
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    # never mutate in place: closures may hand the same array to two parents
    t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to `shape`."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _broadcast_data(a: Tensor, b: Tensor, op: str) -> None:
    try:
        np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.data.shape} and {b.data.shape} do not broadcast") from None


def add(a, b) -> Tensor:
    a, b = _operands(a, b)
    _broadcast_data(a, b, "add")
    data = a.data + b.data

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.data.shape))

    return _result(data, (a, b), bwd)


def sub(a, b) -> Tensor:
    a, b = _operands(a, b)
    _broadcast_data(a, b, "sub")
    data = a.data - b.data

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, -_unbroadcast(g, b.data.shape))

    return _result(data, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)
    _broadcast_data(a, b, "mul")
    data = a.data * b.data

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _result(data, (a, b), bwd)


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out = np.tanh(a.data)

    def bwd(g):
        _accumulate(a, g * (1.0 - out * out))

    return _result(out, (a,), bwd)


def _sigmoid_(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid in place, as 0.5 * tanh(0.5 * x) + 0.5: no exp to overflow."""
    x *= 0.5
    np.tanh(x, out=x)
    x *= 0.5
    x += 0.5
    return x


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out = _sigmoid_(a.data.copy())

    def bwd(g):
        _accumulate(a, g * out * (1.0 - out))

    return _result(out, (a,), bwd)


def _normal_cdf(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Phi(x) and exp(-x*x/2), the normal cdf and its pdf's exponential, as fresh arrays.

    Float32 takes Phi(x) = 0.5 + copysign(0.5 - 0.5*erfc(|x|/sqrt 2), x) from
    the A&S fit, whose exp(-z*z) is the pdf's exp(-x*x/2). Against float64
    scipy on [-20, 20], Phi is within 3.1e-7 and x * Phi(x) within 4.7e-7
    (scipy's float32 erf: 4.5e-7). Other dtypes use scipy's erf.
    """
    if x.dtype != np.float32:
        from scipy.special import erf

        cdf = x / _SQRT_2
        erf(cdf, out=cdf)
        cdf += 1.0
        cdf *= 0.5
        return cdf, _exp_half_square(x, np.empty_like(x))
    t = np.abs(x)
    t *= _AS_P_OVER_SQRT_2
    t += 1.0
    np.reciprocal(t, out=t)
    cdf = t * _AS_A[0]
    for a in _AS_A[1:]:
        cdf += a
        cdf *= t
    e = _exp_half_square(x, t)
    cdf *= e
    cdf *= -0.5
    cdf += 0.5
    np.copysign(cdf, x, out=cdf)
    cdf += 0.5
    return cdf, e


def _exp_half_square(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """exp(-x*x/2) into `out`, with |x| clamped at _GELU_CLAMP."""
    np.clip(x, -_GELU_CLAMP, _GELU_CLAMP, out=out)
    out *= out
    out *= -0.5
    return np.exp(out, out=out)


def _gelu_(x: np.ndarray, grad: bool) -> Optional[np.ndarray]:
    """x * Phi(x) in place; with `grad`, returns d gelu = Phi(x) + x * pdf(x)."""
    cdf, d = _normal_cdf(x)
    if grad:
        d *= _INV_SQRT_2PI
        d *= x
        d += cdf
    x *= cdf
    return d if grad else None


def gelu(a) -> Tensor:
    """Exact (erf-based) GELU, x * Phi(x)."""
    a = as_tensor(a)
    out = a.data.copy()
    d = _gelu_(out, a.requires_grad)

    def bwd(g):
        _accumulate(a, g * d)

    return _result(out, (a,), bwd)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2 or a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul: shapes {a.data.shape} and {b.data.shape} do not agree")
    try:
        data = np.matmul(a.data, b.data)
    except ValueError:
        raise ShapeError(f"matmul: shapes {a.data.shape} and {b.data.shape} do not agree") from None

    def bwd(g):
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            _accumulate(a, _unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            _accumulate(b, _unbroadcast(gb, b.data.shape))

    return _result(data, (a, b), bwd)


def softmax_rows(a) -> Tensor:
    """Softmax over the last axis, max-shifted for stability."""
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        inner = (g * out).sum(axis=-1, keepdims=True)
        _accumulate(a, out * (g - inner))

    return _result(out, (a,), bwd)


def layer_norm(a, gain, bias) -> Tensor:
    """Normalize the last axis to mean 0 / variance 1, then scale and shift."""
    a, gain, bias = as_tensor(a), as_tensor(gain), as_tensor(bias)
    n = a.data.shape[-1]
    if gain.data.shape != (n,) or bias.data.shape != (n,):
        raise ShapeError(
            f"layer_norm: gain {gain.data.shape} / bias {bias.data.shape} must be ({n},)"
        )
    mu = a.data.mean(axis=-1, keepdims=True)
    centered = a.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = centered * inv
    data = xhat * gain.data + bias.data

    def bwd(g):
        if gain.requires_grad:
            _accumulate(gain, (g * xhat).reshape(-1, n).sum(axis=0))
        if bias.requires_grad:
            _accumulate(bias, g.reshape(-1, n).sum(axis=0))
        if a.requires_grad:
            dxhat = g * gain.data
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
            _accumulate(a, inv * (dxhat - m1 - xhat * m2))

    return _result(data, (a, gain, bias), bwd)


def embedding_lookup(table, ids) -> Tensor:
    """Gather rows of `table` by integer ids; backward scatter-adds."""
    table = as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)
    vocab = table.data.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= vocab):
        bad = ids[(ids < 0) | (ids >= vocab)].flat[0]
        raise IndexError(f"embedding id {int(bad)} out of range [0, {vocab})")
    data = table.data[ids]

    def bwd(g):
        buf = np.zeros_like(table.data)
        np.add.at(buf, ids, g)
        _accumulate(table, buf)

    return _result(data, (table,), bwd)


def masked_cross_entropy(logits, labels) -> Tensor:
    """Mean negative log-softmax over positions whose label != IGNORE_LABEL.

    Returns a 0 scalar with zero gradient when every position is ignored.
    """
    logits = as_tensor(logits)
    if logits.ndim != 2:
        raise ShapeError(f"masked_cross_entropy expects 2-d logits, got {logits.data.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    n, vocab = logits.data.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} does not match logits rows {n}")
    valid = labels != IGNORE_LABEL
    picked = labels[valid]
    if picked.size and (picked.min() < 0 or picked.max() >= vocab):
        bad = picked[(picked < 0) | (picked >= vocab)][0]
        raise IndexError(f"label {int(bad)} out of range [0, {vocab})")
    k = int(valid.sum())

    if k == 0:
        def bwd_empty(g):
            _accumulate(logits, np.zeros_like(logits.data))

        return _result(logits.data.dtype.type(0.0), (logits,), bwd_empty)

    rows = logits.data[valid]
    m = rows.max(axis=1, keepdims=True)
    shifted = rows - m
    lse = np.log(np.exp(shifted).sum(axis=1)) + m[:, 0]
    loss = float((lse - rows[np.arange(k), picked]).sum() / k)

    def bwd(g):
        p = np.exp(shifted)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(k), picked] -= 1.0
        buf = np.zeros_like(logits.data)
        buf[valid] = p * (float(g) / k)
        _accumulate(logits, buf)

    return _result(logits.data.dtype.type(loss), (logits,), bwd)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    data = a.data.reshape(shape)

    def bwd(g):
        _accumulate(a, g.reshape(a.data.shape))

    return _result(data, (a,), bwd)


def transpose(a, axes: tuple[int, ...]) -> Tensor:
    a = as_tensor(a)
    data = np.transpose(a.data, axes)
    inverse = tuple(np.argsort(axes))

    def bwd(g):
        _accumulate(a, np.transpose(g, inverse))

    return _result(data, (a,), bwd)


def narrow(a, axis: int, start: int, size: int) -> Tensor:
    """Contiguous slice [start, start+size) along one axis."""
    a = as_tensor(a)
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, start + size)
    idx = tuple(idx)
    data = a.data[idx]

    def bwd(g):
        buf = np.zeros_like(a.data)
        buf[idx] = g
        _accumulate(a, buf)

    return _result(data, (a,), bwd)


class Packing:
    """Where the real tokens of a padded [B, T] batch sit, in row-major order.

    Packed rows are an [N, ...] array holding only the N real tokens of a
    0/1 attention mask; `pad` scatters them into a zero [B, T, ...] array
    of their dtype and `pack` gathers them back out of one. The LSTM packs
    over a time-major [T, B] mask instead, so `batch_idx` is then the step
    and `pos_idx` the row.
    """

    __slots__ = ("shape", "batch_idx", "pos_idx", "real")

    def __init__(self, mask) -> None:
        mask = np.asarray(mask)
        if mask.ndim != 2:
            raise ShapeError(f"packing: mask must be [B, T], got {mask.shape}")
        self.shape = mask.shape
        self.batch_idx, self.pos_idx = np.divmod(np.flatnonzero(mask.reshape(-1)), mask.shape[1])
        self.real = mask != 0  # [B, T] bool

    @property
    def n_rows(self) -> int:
        return self.batch_idx.size

    @property
    def counts(self) -> np.ndarray:
        """Real tokens per row of the mask: per step, for a time-major one."""
        return np.count_nonzero(self.real, axis=1)

    def pad(self, rows: np.ndarray) -> np.ndarray:
        if rows.shape[0] != self.n_rows:
            raise ShapeError(f"packing: {rows.shape[0]} rows for a mask with {self.n_rows} real tokens")
        out = np.zeros(self.shape + rows.shape[1:], dtype=rows.dtype)
        out[self.batch_idx, self.pos_idx] = rows
        return out

    def pack(self, full: np.ndarray) -> np.ndarray:
        return full[self.batch_idx, self.pos_idx]


def lstm_layer(x, wx, wh, b, packing: Packing) -> Tensor:
    """One unidirectional LSTM layer over packed steps: x [N, d_in] -> h [N, d].

    `packing` is over the time-major [T, B] mask of a batch whose rows are
    sorted by length, longest first, so step t holds the first n_t rows;
    x holds the N real steps in that order (step t's rows start at
    n_0 + ... + n_{t-1}). Step t runs on its n_t rows from a zero initial
    state. Gate columns are (input, forget, cell, output), so per step
    gates = x_t @ wx + h_{t-1}[:n_t] @ wh + b, c = f*c + i*g, h = o*tanh(c).
    The input projections of all steps are one GEMM over the N rows; the
    recurrence then does one h @ wh per step. The sigmoid gates' columns
    of wx, wh and b are halved, which is exact, so the four activations
    are one tanh over the [n_t, 4d] block, one multiply and one add
    (sigmoid(z) = 0.5 * tanh(z / 2) + 0.5). Backward runs BPTT in reverse
    with one dgates @ wh.T per step, whose n_{t+1} rows add into the first
    rows of step t, and forms dx, d wx, d wh and d b over the N rows.
    """
    x, wx, wh, b = as_tensor(x), as_tensor(wx), as_tensor(wh), as_tensor(b)
    if x.ndim != 2 or x.data.shape[0] != packing.n_rows:
        raise ShapeError(
            f"lstm_layer: input must be the packing's {packing.n_rows} rows [N, d_in], got {x.data.shape}"
        )
    d_in = x.data.shape[1]
    d = wh.data.shape[0]
    if wx.data.shape != (d_in, 4 * d) or wh.data.shape != (d, 4 * d) or b.data.shape != (4 * d,):
        raise ShapeError(
            f"lstm_layer: input {x.data.shape} needs wx ({d_in}, {4 * d}), wh ({d}, {4 * d}) "
            f"and b ({4 * d},); got {wx.data.shape}, {wh.data.shape}, {b.data.shape}"
        )
    counts = packing.counts
    if np.any(counts[1:] > counts[:-1]) or not np.array_equal(
        packing.real, np.arange(packing.shape[1]) < counts[:, None]
    ):
        raise UsageError("lstm_layer: each step must hold a prefix of the step before's rows")
    spans = list(zip((np.cumsum(counts) - counts).tolist(), counts.tolist()))  # (start, n_t)
    half = np.where(np.arange(4 * d) // d == 2, 1.0, 0.5).astype(wh.data.dtype)
    shift = 1.0 - half
    wh_half = wh.data * half
    b_half = b.data * half
    # gate pre-activations, overwritten in place by the activations
    acts = x.data @ (wx.data * half)
    cs = np.empty((acts.shape[0], d), dtype=acts.dtype)
    tanh_cs = np.empty_like(cs)
    hs = np.empty_like(cs)
    for t, (lo, n) in enumerate(spans):
        a = acts[lo:lo + n]
        if t:
            a += hs[prev:prev + n] @ wh_half
        a += b_half
        np.tanh(a, out=a)
        a *= half
        a += shift
        c = np.multiply(a[:, :d], a[:, 2 * d:3 * d], out=cs[lo:lo + n])
        if t:
            c += a[:, d:2 * d] * cs[prev:prev + n]
        np.multiply(a[:, 3 * d:], np.tanh(c, out=tanh_cs[lo:lo + n]), out=hs[lo:lo + n])
        prev = lo

    def bwd(g):
        dgates = np.empty_like(acts)
        wh_t = np.ascontiguousarray(wh.data.T)
        dh_rec = dc_rec = None  # gradient reaching step t from step t+1, n_{t+1} rows
        for t in reversed(range(len(spans))):
            lo, n = spans[t]
            a, tc = acts[lo:lo + n], tanh_cs[lo:lo + n]
            i, f, cell, o = a[:, :d], a[:, d:2 * d], a[:, 2 * d:3 * d], a[:, 3 * d:]
            dh = g[lo:lo + n]
            if dh_rec is not None:
                dh = dh.copy()
                dh[:len(dh_rec)] += dh_rec
            dc = dh * o * (1.0 - tc * tc)
            if dc_rec is not None:
                dc[:len(dc_rec)] += dc_rec
            dg = dgates[lo:lo + n]
            c_prev = cs[spans[t - 1][0]:spans[t - 1][0] + n] if t else 0.0
            dg[:, :d] = dc * cell * i * (1.0 - i)
            dg[:, d:2 * d] = dc * c_prev * f * (1.0 - f)
            dg[:, 2 * d:3 * d] = dc * i * (1.0 - cell * cell)
            dg[:, 3 * d:] = dh * tc * o * (1.0 - o)
            if t:
                dh_rec = dg @ wh_t
                dc_rec = dc * f
        if x.requires_grad:
            _accumulate(x, dgates @ wx.data.T)
        if wx.requires_grad:
            _accumulate(wx, x.data.T @ dgates)
        if wh.requires_grad:
            # step t's row j follows step t-1's row j, n_{t-1} rows back
            prev_rows = np.arange(counts[0], len(acts)) - np.repeat(counts[:-1], counts[1:])
            _accumulate(wh, hs[prev_rows].T @ dgates[counts[0]:])
        if b.requires_grad:
            _accumulate(b, dgates.sum(axis=0))

    return _result(hs, (x, wx, wh, b), bwd)


def _check_linear(op: str, x: Tensor, w: Tensor, b: Tensor) -> None:
    if x.ndim < 1 or w.ndim != 2 or x.data.shape[-1] != w.data.shape[0] or b.data.shape != w.data.shape[1:]:
        raise ShapeError(
            f"{op}: input {x.data.shape}, weight {w.data.shape} and bias {b.data.shape} do not agree"
        )


def _affine(x: Tensor, w: Tensor, b: Tensor) -> np.ndarray:
    """x @ w + b as one GEMM over the rows of x's leading axes, bias added in place.

    Float32 compute, packed GEMMs: the transformer passes packed rows, so
    its forward GEMMs run on the real tokens only, in float32.
    """
    out = x.data.reshape(-1, w.data.shape[0]) @ w.data
    out += b.data
    return out.reshape(x.data.shape[:-1] + w.data.shape[1:])


def _affine_backward(x: Tensor, w: Tensor, b: Tensor, g: np.ndarray) -> None:
    """Gradients of x @ w + b: dx and d w one GEMM each over all rows, d b one sum."""
    rows = g.reshape(-1, g.shape[-1])
    if x.requires_grad:
        _accumulate(x, (rows @ w.data.T).reshape(x.data.shape))
    if w.requires_grad:
        _accumulate(w, x.data.reshape(rows.shape[0], -1).T @ rows)
    if b.requires_grad:
        _accumulate(b, rows.sum(axis=0))


def linear(x, w, b) -> Tensor:
    """Affine map of the last axis: x [..., d_in] @ w [d_in, d_out] + b [d_out].

    The leading axes of x are flattened into the rows of one GEMM.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    _check_linear("linear", x, w, b)
    out = _affine(x, w, b)

    def bwd(g):
        _affine_backward(x, w, b, g)

    return _result(out, (x, w, b), bwd)


def linear_gelu(x, w, b) -> Tensor:
    """gelu(linear(x, w, b)) as one node, with the same erf GELU as `gelu`.

    The forward keeps the GELU's derivative at the pre-activation, one
    [rows, d_out] array, so the backward is one multiply and the affine
    backward. With no input requiring grad it keeps nothing.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    _check_linear("linear_gelu", x, w, b)
    out = _affine(x, w, b)
    d = _gelu_(out, x.requires_grad or w.requires_grad or b.requires_grad)

    def bwd(g):
        # the tape runs each step once, so the saved derivative can take the product
        _affine_backward(x, w, b, np.multiply(d, g, out=d))

    return _result(out, (x, w, b), bwd)


def add_layer_norm(x, residual, gain, bias) -> Tensor:
    """layer_norm(residual + x, gain, bias) as one node."""
    x, residual, gain, bias = as_tensor(x), as_tensor(residual), as_tensor(gain), as_tensor(bias)
    n = x.data.shape[-1]
    if residual.data.shape != x.data.shape:
        raise ShapeError(f"add_layer_norm: shapes {x.data.shape} and {residual.data.shape} differ")
    if gain.data.shape != (n,) or bias.data.shape != (n,):
        raise ShapeError(
            f"add_layer_norm: gain {gain.data.shape} / bias {bias.data.shape} must be ({n},)"
        )
    xhat = residual.data + x.data
    xhat -= xhat.mean(axis=-1, keepdims=True)
    var = (xhat * xhat).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat *= inv
    out = xhat * gain.data
    out += bias.data

    def bwd(g):
        rows = g.reshape(-1, n)
        if gain.requires_grad:
            _accumulate(gain, (rows * xhat.reshape(-1, n)).sum(axis=0))
        if bias.requires_grad:
            _accumulate(bias, rows.sum(axis=0))
        if x.requires_grad or residual.requires_grad:
            d = g * gain.data
            m2 = (d * xhat).mean(axis=-1, keepdims=True)
            d -= d.mean(axis=-1, keepdims=True)
            d -= xhat * m2
            d *= inv
            _accumulate(x, d)
            _accumulate(residual, d)

    return _result(out, (x, residual, gain, bias), bwd)


_MASK_BIG = 1.0e30  # taken off a padded key's score; exp underflows to exactly 0


def attention(x, wq, bq, wk, bk, wv, bv, packing: Packing, heads: int):
    """Multi-head self-attention over packed rows; returns (context, weights).

    x [N, d] holds the packed real tokens of a padded batch. The q/k/v
    projections are GEMMs over those rows; only q, k and v are scattered
    into the padded layout, zero at padding, and viewed as
    [B, heads, T, d_head] for the batched score and context GEMMs. Scores
    are scaled by 1/sqrt(d_head), and 1e30 is taken off each padded key's
    score. The context [N, heads * d_head] is gathered back to the packed
    rows. `weights` is the softmax [B, heads, T, T]; a padded query has
    q = 0, so its row is uniform over the real keys. Backward keeps only
    the softmax output and q, k, v; its projection gradients are GEMMs
    over the packed rows.
    """
    x, wq, bq, wk, bk, wv, bv = (as_tensor(t) for t in (x, wq, bq, wk, bk, wv, bv))
    for w, b in ((wq, bq), (wk, bk), (wv, bv)):
        _check_linear("attention", x, w, b)
        if w.data.shape != wq.data.shape:
            raise ShapeError(f"attention: projections {wq.data.shape} and {w.data.shape} differ")
    width = wq.data.shape[1]
    if x.ndim != 2 or heads < 1 or width % heads:
        raise ShapeError(f"attention: input {x.data.shape} and width {width} for {heads} heads")
    batch, seq = packing.shape
    dh = width // heads
    scale = 1.0 / math.sqrt(dh)

    def project(w: Tensor, b: Tensor) -> np.ndarray:
        full = packing.pad(_affine(x, w, b))
        return full.reshape(batch, seq, heads, dh).transpose(0, 2, 1, 3)  # [B, H, T, dh]

    def merge_heads(full: np.ndarray) -> np.ndarray:
        return packing.pack(full.transpose(0, 2, 1, 3)).reshape(-1, width)

    q, k, v = project(wq, bq), project(wk, bk), project(wv, bv)
    probs = q @ k.transpose(0, 1, 3, 2)
    probs *= scale
    probs += np.where(packing.real, 0.0, -_MASK_BIG).astype(probs.dtype)[:, None, None, :]
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    ctx = merge_heads(probs @ v)

    def bwd(g):
        gctx = packing.pad(g.reshape(-1, heads, dh)).transpose(0, 2, 1, 3)
        dscores = gctx @ v.transpose(0, 1, 3, 2)
        dscores -= (dscores * probs).sum(axis=-1, keepdims=True)
        dscores *= probs
        dscores *= scale
        _affine_backward(x, wq, bq, merge_heads(dscores @ k))
        _affine_backward(x, wk, bk, merge_heads(dscores.transpose(0, 1, 3, 2) @ q))
        _affine_backward(x, wv, bv, merge_heads(probs.transpose(0, 1, 3, 2) @ gctx))

    return _result(ctx, (x, wq, bq, wk, bk, wv, bv), bwd), probs


def scatter_rows(x, packing: Packing) -> Tensor:
    """Packed rows x [N, d] back to the padded [B, T, d]; zeros at padding."""
    x = as_tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"scatter_rows: rows must be [N, d], got {x.data.shape}")
    out = packing.pad(x.data)

    def bwd(g):
        _accumulate(x, packing.pack(g))

    return _result(out, (x,), bwd)


def reduce_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is None:
            _accumulate(a, np.broadcast_to(g, a.data.shape).copy())
            return
        if not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            g = np.expand_dims(g, axes)
        _accumulate(a, np.broadcast_to(g, a.data.shape).copy())

    return _result(data, (a,), bwd)


def reduce_mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    count = a.data.size if axis is None else np.prod(
        [a.data.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))]
    )
    out = reduce_sum(a, axis=axis, keepdims=keepdims)
    return mul(out, 1.0 / float(count))


def _consumed(grad: np.ndarray) -> None:
    """Stands in for the backward step of a node that a backward has run."""


def backward(root: Tensor) -> None:
    """Reverse-accumulate gradients from a scalar root over its tape.

    The tape is consumed as it is walked: once a non-leaf node's step has
    run, its gradient and its step's saved operands are freed, so only the
    leaves (the parameters) keep gradients. A second backward through a
    consumed node raises `UsageError`.
    """
    if root.data.size != 1:
        raise UsageError(f"backward root must be scalar, got shape {root.data.shape}")
    # iterative postorder: long LSTM chains overflow Python recursion
    order: list[Tensor] = []
    seen: set[int] = {id(root)}
    stack = [(root, iter(root._parents))]
    while stack:
        node, it = stack[-1]
        advanced = False
        for parent in it:
            if id(parent) not in seen and parent._parents:
                seen.add(id(parent))
                stack.append((parent, iter(parent._parents)))
                advanced = True
                break
        if not advanced:
            order.append(node)
            stack.pop()

    if any(node._backward_fn is _consumed for node in order):
        raise UsageError("backward through a tape that an earlier backward consumed")
    root.grad = np.ones_like(root.data) if root.grad is None else root.grad + np.ones_like(root.data)
    for node in reversed(order):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)
        if node._parents:
            # consumed: free the node's gradient and the operands its step saved
            node.grad = None
            node._backward_fn = _consumed
