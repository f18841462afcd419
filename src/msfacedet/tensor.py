"""Dense tensors and the differentiable layer primitives.

A parameter is a float64 :class:`Tensor`, whose same-shape ``grad`` is
created, zero, on its first use, so a model that only runs forwards never
allocates it; each layer's weight and bias form one :class:`Params`.  Every
forward computes in its input's dtype and reads each parameter as
``param.data.astype(x.dtype, copy=False)``, which is the parameter array
itself for float64 input: training, gradient checks and checkpoints run in
float64, and ``MultiScaleDetector.detect`` runs the same forwards in float32.
The backwards are float64 only.  Layers follow a functional style:
``<op>(...)`` returns ``(out, cache)``, and the cache holds references to
arrays the forward already had, never copies: ``conv2d``, ``maxpool2d`` and
``fully_connected`` hold their input and ``relu`` its output.  A conv's input
is the previous ``relu``'s output, which is also a pool's input, so the
backbone holds each activation once, and no caller may write into an input
or an activation before its backward.  No layer in this package does: each
allocates its output.
``<op>_backward(dout, cache, ...)`` returns the gradient w.r.t. the input
while accumulating parameter gradients in place (``param.grad += ...``), so
parameters shared between branches pick up contributions from every use.

``conv2d`` is an im2col GEMM that never builds its columns at full size: it
copies them out of one read-only window view, built from the zero-padded
input's strides, and multiplies them in bands of output rows of about 1 MiB
(``_BAND_BYTES``), so each band is still in L2 when the GEMM reads it.  On
the BLAS kernels that ``conv2d``'s docstring lists, the bands give the bits
of the full-column product; on others they may differ from it by roundoff.
``conv2d_backward`` gathers the whole columns once, because dW needs all of
them to keep its summation order.

``maxpool2d`` caches its input and window size, not the argmax, so the
forward that ``detect`` runs builds no routing that only training reads.
``maxpool2d_backward`` takes each window's max again from the k*k strided
views of the input and visits the views in row-major order, routing the
window's gradient to the first element equal to the max (its first NaN, if
it holds one), the element ``np.argmax`` picks.  Each view of the gradient
is written once, as whole strided planes, with no index array or scatter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class Tensor:
    """A float64 array and its same-shape gradient, zero until a backward adds into it.

    The gradient is created, zero, on the first read of ``grad``, and every
    later read returns that array, so a model that only runs forwards never
    allocates it.  Forwards read ``data`` in their input's dtype; it is never
    stored in another, so an in-place update or a checkpoint load reaches
    every read."""

    __slots__ = ("data", "_grad")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self._grad = None

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.data)
        return self._grad

    @grad.setter
    def grad(self, value: np.ndarray):
        # ``t.grad += x`` adds in place and then assigns the same array back
        self._grad = value


@dataclass
class Params:
    """Weight and bias of one layer: a conv weight (outC, inC, kH, kW) with
    bias (outC,), or an affine weight (D, M) with bias (M,)."""

    weight: Tensor
    bias: Tensor


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def make_conv(rng, out_c, in_c, k) -> Params:
    """Fresh conv parameters with variance-preserving init and zero bias."""
    fan_in = in_c * k * k
    fan_out = out_c * k * k
    w = glorot_uniform(rng, (out_c, in_c, k, k), fan_in, fan_out)
    return Params(Tensor(w), Tensor(np.zeros(out_c)))


def make_linear(rng, d, m) -> Params:
    w = glorot_uniform(rng, (d, m), d, m)
    return Params(Tensor(w), Tensor(np.zeros(m)))


# ---------------------------------------------------------------------------
# convolution


# Bytes of im2col columns that conv2d gathers per GEMM band, so that a band
# is still in L2 (2 MiB per core on the machine measured) when the GEMM reads
# it.  A 256 px float32 detect timed in-process (2-core VM, OpenBLAS 0.3.31 on
# one thread, 25 alternating rounds) read a median of 28.4 ms per image with
# full-size columns and 23.7 / 24.7 / 23.6 / 26.3 ms with 256 KiB / 512 KiB /
# 1 MiB / 2 MiB bands.  With OpenBLAS's SkylakeX kernels, narrow bands would
# change bits: a GEMM of 16 or fewer columns takes the small-matrix kernel,
# which sums in another order.  At 1 MiB every band of a split layer with
# C*k*k <= 576 spans over 100 columns.  The Haswell float32 GEMM changes bits
# at any split (see conv2d).
_BAND_BYTES = 1 << 20


def _pad(x: np.ndarray, pad: int) -> np.ndarray:
    """Fresh C-contiguous copy of NCHW ``x`` with ``pad`` zeros on every side."""
    xp = np.zeros(x.shape[:2] + (x.shape[2] + 2 * pad, x.shape[3] + 2 * pad), x.dtype)  # np.pad: 7x the time
    xp[:, :, pad : xp.shape[2] - pad, pad : xp.shape[3] - pad] = x
    return xp


def _windows(xp: np.ndarray, k: int) -> np.ndarray:
    """Channel-major ``(C, k, k, N, H, W)`` read-only view of the k x k windows
    of the C-contiguous padded input, built from its strides: a copy of any
    run of its output rows, flattened to ``(C*k*k, N*rows*W)``, is those
    rows' im2col columns."""
    n, c, hp, wp = xp.shape
    sn, sc, sh, sw = xp.strides
    win = np.ndarray((c, k, k, n, hp - k + 1, wp - k + 1), xp.dtype, xp, 0, (sc, sh, sw, sn, sh, sw))
    win.flags.writeable = False
    return win


def _columns(xp: np.ndarray, k: int) -> np.ndarray:
    """Fresh, writable im2col columns (C*k*k, N*H*W) of the whole input: each run is an output row."""
    return _windows(xp, k).copy().reshape(xp.shape[1] * k * k, -1)


def conv2d(x: np.ndarray, p: Params):
    """Stride-1 2-D convolution of NCHW input with a square k x k kernel of
    odd k: ``W @ _columns(xp) + b``, computed in bands of output rows.

    The input is zero-padded by (k - 1) // 2 on every side, so the output
    keeps its size.  The output is laid out ``(outC, N, H, W)`` and returned
    as an NCHW view, C-contiguous for N == 1.  The cache holds the input
    ``x`` itself, not a copy: the zero-padded ``xp`` (:func:`_pad`) lives
    only while the forward runs, and the backward pads ``x`` again.

    The full columns never exist.  The output rows are cut into
    ``C*k*k*H*W*itemsize // _BAND_BYTES`` bands (at least 1, at most H) whose
    heights differ by at most one row; one reused buffer takes each band's
    columns in turn, and the GEMM and the bias write that band's rows of the
    output while its columns are still in cache.  Each output element is the
    same dot product as on the full columns; whether the GEMM sums it in the
    same order depends on the BLAS kernel.  On OpenBLAS 0.3.31 the bits are
    those of ``W @ _columns(xp) + b`` on every backbone and proposal-head
    layer at 128 px float64 and 256 px float32 with the SkylakeX and
    Sandybridge kernels, and in float64 with Haswell.  Haswell's float32 GEMM
    differs on every split layer at 256 px, by up to 6e-7 of the largest
    output.  A band's output rows are contiguous per channel only for one
    image, so a batch is one band.
    """
    n, c, h, w = x.shape
    out_c, in_c, k, kw = p.weight.data.shape
    if c != in_c:
        raise ShapeError(f"conv2d: input has {c} channels {x.shape} but kernel expects {in_c} {p.weight.data.shape}")
    if k != kw or k % 2 == 0:
        raise ShapeError(f"conv2d: kernel {p.weight.data.shape} is not square with an odd size")
    pad = (k - 1) // 2
    if h + 2 * pad < k or w + 2 * pad < k:
        raise ShapeError(f"conv2d: padded input {x.shape} smaller than kernel {p.weight.data.shape}")
    win = _windows(_pad(x, pad), k)
    ckk = c * k * k
    bands = min(h, max(1, ckk * h * w * x.itemsize // _BAND_BYTES)) if n == 1 else 1
    edges = [i * h // bands for i in range(bands + 1)]
    buf = np.empty(ckk * n * -(-h // bands) * w, x.dtype)
    wmat = p.weight.data.astype(x.dtype, copy=False).reshape(out_c, ckk)
    bias = p.bias.data.astype(x.dtype, copy=False)[:, None]
    out = np.empty((out_c, n, h, w), x.dtype)
    for y0, y1 in zip(edges, edges[1:]):
        band = buf[: ckk * n * (y1 - y0) * w].reshape(c, k, k, n, y1 - y0, w)
        np.copyto(band, win[..., y0:y1, :])
        o = out[:, :, y0:y1].reshape(out_c, -1)
        np.matmul(wmat, band.reshape(ckk, -1), out=o)
        o += bias
    return out.transpose(1, 0, 2, 3), (x, p)


def conv2d_backward(dout: np.ndarray, cache) -> np.ndarray:
    """Mirror of :func:`conv2d` on columns rebuilt from the cached input,
    padded again by :func:`_pad` as the forward padded it.

    With ``dmat`` the ``(outC, N*H*W)`` output gradient, dW = dmat @ cols.T,
    db = dmat.sum(axis=1) and dcols = W.T @ dmat, written into the columns'
    buffer.  col2im adds each kernel offset (i, j)'s (C, N, H*W) planes as one
    span at i*W + j of zero-started (C, N, pad + (H + 2*pad)*W + pad) rows,
    after zeroing the columns that would wrap past a row edge: a sum that
    starts at +0.0 is never -0.0, so an added zero changes none of its bits.
    """
    x, p = cache
    n, c, h, w = x.shape
    out_c, _, k, _ = p.weight.data.shape
    pad = (k - 1) // 2
    dmat = dout.transpose(1, 0, 2, 3).reshape(out_c, -1)
    cols = _columns(_pad(x, pad), k)
    p.bias.grad += dmat.sum(axis=1)
    p.weight.grad += (dmat @ cols.T).reshape(p.weight.data.shape)
    dc = np.matmul(p.weight.data.reshape(out_c, -1).T, dmat, out=cols).reshape(c, k, k, n, h, w)
    dxp = np.zeros((c, n, (h + 2 * pad) * w + 2 * pad))
    for i, j in np.ndindex(k, k):
        plane = dc[:, i, j]
        plane[..., : max(pad - j, 0)] = plane[..., w - max(j - pad, 0) :] = 0.0
        dxp[:, :, i * w + j : i * w + j + h * w] += plane.reshape(c, n, h * w)
    o = pad * (w + 1)
    return dxp[:, :, o : o + h * w].reshape(c, n, h, w).transpose(1, 0, 2, 3)


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
    """Route each window's gradient to its first maximum; zero elsewhere.

    The window max is taken again from the k*k strided views of the cached
    input, as the forward took it.  The views are then visited in row-major
    offset order, and each window's gradient goes to the first element equal
    to its max, or, in a window holding a NaN, to its first NaN: the element
    ``np.argmax`` picks.  Ties, -0.0 against +0.0 included, go to the lowest
    linear index.  A routed value is ``dout + 0.0``, which turns -0.0 into
    +0.0 as a sum started from +0.0 would.  Each offset's view of the
    gradient takes the bits of that value times a 0/1 mask, an integer
    multiply that gives the value itself or +0.0 without a branch per element.
    """
    x, k = cache
    ho, wo = x.shape[2] // k, x.shape[3] // k
    offsets = list(np.ndindex(k, k))
    views = [x[:, :, i : ho * k : k, j : wo * k : k] for i, j in offsets]
    peak = views[0].copy()
    for v in views[1:]:
        np.maximum(peak, v, out=peak)
    nan = np.isnan(peak).any()
    bits = np.add(dout, 0.0, dtype=np.float64).view(np.uint64)
    dx = np.zeros(x.shape)
    dx_bits = dx.view(np.uint64)
    free = np.ones(peak.shape, bool)  # windows not routed yet
    hit = np.empty(peak.shape, bool)
    for (i, j), v in zip(offsets, views):
        np.equal(v, peak, out=hit)
        if nan:
            hit |= np.isnan(v)
        hit &= free
        free ^= hit
        np.multiply(bits, hit, out=dx_bits[:, :, i : ho * k : k, j : wo * k : k])
    return dx


# ---------------------------------------------------------------------------
# elementwise / dense


def relu(x: np.ndarray):
    """``max(x, 0)``, NaN kept.  The cache is the output itself, which the
    backward compares with 0, so the forward builds no mask."""
    out = np.maximum(x, 0.0)
    return out, out


def relu_backward(dout: np.ndarray, cache) -> np.ndarray:
    """``dout`` times ``out > 0.0`` for the cached output ``out``.  That mask
    is ``x > 0.0`` for every input x: where x is not above 0, ``out`` is a
    zero or, for a NaN, NaN.  So the product has the bits of ``dout`` times
    the input's mask, its ``-0.0`` and NaN products included."""
    return dout * (cache > 0.0)


def fully_connected(x: np.ndarray, p: Params):
    """Affine map on (N, D) input with (D, M) weights."""
    if x.ndim != 2 or x.shape[1] != p.weight.data.shape[0]:
        raise ShapeError(
            f"fully_connected: input {x.shape} incompatible with weights {p.weight.data.shape}"
        )
    w, b = (t.data.astype(x.dtype, copy=False) for t in (p.weight, p.bias))
    return x @ w + b, (x, p)


def fully_connected_backward(dout: np.ndarray, cache) -> np.ndarray:
    x, p = cache
    p.weight.grad += x.T @ dout
    p.bias.grad += dout.sum(axis=0)
    return dout @ p.weight.data.T


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean negative log-likelihood over rows; max-subtraction stabilized.

    Returns (loss, cache); the gradient w.r.t. logits is (probs - onehot) / N,
    with ``probs`` the softmax of the logits, which the cache holds.
    """
    n, k = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ShapeError(f"softmax_cross_entropy: labels {labels.shape} for logits {logits.shape}")
    if n and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"softmax_cross_entropy: label out of range [0, {k})")
    probs = softmax(logits)
    loss = float(-np.log(np.maximum(probs[np.arange(n), labels], 1e-300)).mean()) if n else 0.0
    return loss, (probs, labels)


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
