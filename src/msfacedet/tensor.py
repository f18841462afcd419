"""Dense float64 tensors and the differentiable layer primitives.

Everything runs at double precision.  Layers follow a functional style:
``<op>(...)`` returns ``(out, cache)`` and ``<op>_backward(dout, cache, ...)``
returns the gradient w.r.t. the input while accumulating parameter gradients
in place (``param.grad += ...``), so parameters shared between branches pick
up contributions from every use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class Tensor:
    """A float64 array plus optional same-shape gradient storage."""

    __slots__ = ("data", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data) if requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    def ensure_grad(self) -> np.ndarray:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        elif self.grad.shape != self.data.shape:
            raise ShapeError(
                f"grad shape {self.grad.shape} does not match data shape {self.data.shape}"
            )
        return self.grad

    def zero_grad(self):
        if self.grad is not None:
            self.grad.fill(0.0)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={'yes' if self.grad is not None else 'no'})"


@dataclass
class ConvParams:
    """Weights for a 2-D convolution: weight (outC, inC, kH, kW), bias (outC,)."""

    weight: Tensor
    bias: Tensor
    pad: int = 0


@dataclass
class LinearParams:
    """Weights for an affine map: weight (D, M), bias (M,)."""

    weight: Tensor
    bias: Tensor


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def make_conv(rng, out_c, in_c, k) -> ConvParams:
    """Fresh conv parameters with variance-preserving init, zero bias and
    pad (k - 1) // 2, which keeps the input size for odd k."""
    fan_in = in_c * k * k
    fan_out = out_c * k * k
    w = glorot_uniform(rng, (out_c, in_c, k, k), fan_in, fan_out)
    return ConvParams(
        weight=Tensor(w, requires_grad=True),
        bias=Tensor(np.zeros(out_c), requires_grad=True),
        pad=(k - 1) // 2,
    )


def make_linear(rng, d, m) -> LinearParams:
    w = glorot_uniform(rng, (d, m), d, m)
    return LinearParams(
        weight=Tensor(w, requires_grad=True),
        bias=Tensor(np.zeros(m), requires_grad=True),
    )


# ---------------------------------------------------------------------------
# convolution


def conv2d(x: np.ndarray, p: ConvParams):
    """Stride-1 2-D convolution on NCHW input via window gather + matmul.

    Output spatial size is H + 2*pad - kH + 1 per axis.
    The im2col columns are channel-major, ``(C*kH*kW, N*Ho*Wo)``, so each
    gathered run is an output row rather than a kW-long kernel row, and the
    output is ``W @ cols + b`` laid out ``(outC, N, Ho, Wo)`` and returned as
    an NCHW view; for N == 1 it is C-contiguous.
    """
    n, c, h, w = x.shape
    out_c, in_c, kh, kw = p.weight.data.shape
    if c != in_c:
        raise ShapeError(f"conv2d: input has {c} channels {x.shape} but kernel expects {in_c} {p.weight.data.shape}")
    if h + 2 * p.pad < kh or w + 2 * p.pad < kw:
        raise ShapeError(f"conv2d: padded input {x.shape} smaller than kernel {p.weight.data.shape}")
    xp = np.pad(x, ((0, 0), (0, 0), (p.pad, p.pad), (p.pad, p.pad))) if p.pad else x
    ho, wo = h + 2 * p.pad - kh + 1, w + 2 * p.pad - kw + 1
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))
    cols = np.ascontiguousarray(win.transpose(1, 4, 5, 0, 2, 3)).reshape(c * kh * kw, n * ho * wo)
    wmat = p.weight.data.reshape(out_c, -1)
    out = (wmat @ cols + p.bias.data[:, None]).reshape(out_c, n, ho, wo).transpose(1, 0, 2, 3)
    cache = (cols, x.shape, p)
    return out, cache


def conv2d_backward(dout: np.ndarray, cache) -> np.ndarray:
    """Mirror of :func:`conv2d` on its channel-major columns.

    With ``dmat`` the ``(outC, N*Ho*Wo)`` output gradient, dW = dmat @ cols.T,
    db = dmat.sum(axis=1) and dcols = W.T @ dmat; col2im adds each kernel
    offset's contiguous (N, Ho, Wo) planes into a channel-major padded
    gradient, returned as an NCHW view.
    """
    cols, x_shape, p = cache
    n, c, h, w = x_shape
    out_c, _, kh, kw = p.weight.data.shape
    _, _, ho, wo = dout.shape
    dmat = dout.transpose(1, 0, 2, 3).reshape(out_c, -1)
    wmat = p.weight.data.reshape(out_c, -1)
    p.bias.ensure_grad()[...] += dmat.sum(axis=1)
    p.weight.ensure_grad()[...] += (dmat @ cols.T).reshape(p.weight.data.shape)
    dc = (wmat.T @ dmat).reshape(c, kh, kw, n, ho, wo)
    dxp = np.zeros((c, n, h + 2 * p.pad, w + 2 * p.pad))
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i : i + ho, j : j + wo] += dc[:, i, j]
    return dxp[:, :, p.pad : p.pad + h, p.pad : p.pad + w].transpose(1, 0, 2, 3)


# ---------------------------------------------------------------------------
# pooling


def maxpool2d(x: np.ndarray, k: int):
    """Non-overlapping k x k max pooling (window == stride) by in-place
    ``np.maximum`` over k*k strided views; trailing rows and columns that
    fill no window are dropped.  The cache holds ``x``: the gradient routing
    (ties to the lowest linear index) is built only by the backward."""
    n, c, h, w = x.shape
    if k > h or k > w:
        raise ShapeError(f"maxpool2d: window {k} exceeds input extent {x.shape}")
    ho, wo = h // k, w // k
    out = x[:, :, : ho * k : k, : wo * k : k].copy()
    for i, j in list(np.ndindex(k, k))[1:]:
        np.maximum(out, x[:, :, i : ho * k : k, j : wo * k : k], out=out)
    return out, (x, k)


def maxpool2d_backward(dout: np.ndarray, cache) -> np.ndarray:
    x, k = cache
    n, c, h, w = x.shape
    ho, wo = h // k, w // k
    wins = x[:, :, : ho * k, : wo * k].reshape(n, c, ho, k, wo, k).transpose(0, 1, 2, 4, 3, 5)
    arg = wins.reshape(n, c, ho, wo, k * k).argmax(axis=-1)
    # flat index into (h, w) of each winner, row * w + col
    flat = (np.arange(ho)[:, None] * k + arg // k) * w + np.arange(wo) * k + arg % k
    lin = flat.reshape(n * c, -1) + (np.arange(n * c) * (h * w))[:, None]
    return np.bincount(lin.ravel(), weights=dout.ravel(), minlength=n * c * h * w).reshape(x.shape)


# ---------------------------------------------------------------------------
# elementwise / dense


def relu(x: np.ndarray):
    return np.maximum(x, 0.0), (x > 0.0)


def relu_backward(dout: np.ndarray, cache) -> np.ndarray:
    return dout * cache


def fully_connected(x: np.ndarray, p: LinearParams):
    """Affine map on (N, D) input with (D, M) weights."""
    if x.ndim != 2 or x.shape[1] != p.weight.data.shape[0]:
        raise ShapeError(
            f"fully_connected: input {x.shape} incompatible with weights {p.weight.data.shape}"
        )
    return x @ p.weight.data + p.bias.data, (x, p)


def fully_connected_backward(dout: np.ndarray, cache) -> np.ndarray:
    x, p = cache
    p.weight.ensure_grad()[...] += x.T @ dout
    p.bias.ensure_grad()[...] += dout.sum(axis=0)
    return dout @ p.weight.data.T


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean negative log-likelihood over rows; max-subtraction stabilized.

    Returns (loss, probs, cache); the gradient w.r.t. logits is
    (probs - onehot) / N.
    """
    n, k = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ShapeError(f"softmax_cross_entropy: labels {labels.shape} for logits {logits.shape}")
    if n and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"softmax_cross_entropy: label out of range [0, {k})")
    probs = softmax(logits)
    loss = float(-np.log(np.maximum(probs[np.arange(n), labels], 1e-300)).mean()) if n else 0.0
    return loss, probs, (probs, labels)


def softmax_cross_entropy_backward(cache) -> np.ndarray:
    probs, labels = cache
    n = probs.shape[0]
    d = probs.copy()
    d[np.arange(n), labels] -= 1.0
    return d / n


def smooth_l1(pred: np.ndarray, target: np.ndarray, mask: np.ndarray):
    """Sum over masked elements of the quadratic-then-linear penalty.

    f(d) = 0.5 d^2 for |d| < 1, |d| - 0.5 otherwise, with d = pred - target.
    """
    if pred.shape != target.shape or pred.shape != mask.shape:
        raise ShapeError(
            f"smooth_l1: shapes differ pred={pred.shape} target={target.shape} mask={mask.shape}"
        )
    d = pred - target
    a = np.abs(d)
    per = np.where(a < 1.0, 0.5 * d * d, a - 0.5)
    loss = float((per * mask).sum())
    grad = np.where(a < 1.0, d, np.sign(d)) * mask
    return loss, grad
