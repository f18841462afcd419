"""Multi-scale feature fusion.

Three backbone taps, a ``{name: (N, C, H, W) map}`` dict with each stride
declared once in :data:`TAP_STRIDES`, are made comparable in one fusion
step, ``concat_shrink``: each tap is L2-normalized along the channel axis
and scaled by a learnable per-channel gamma (a :class:`Tensor`, so its
grad is always present), then the taps are concatenated in dict order and
shrunk by a shared 1x1 convolution.  Both branches bring the taps to a
common grid with one spatial synchronization, ROI max pooling
(:func:`roi_pool`, Fast R-CNN's, arXiv 1504.08083): the per-region branch
pools its proposals into p x p bins, and the dense branch pools the
stride-16 grid cells, one bin each, which is a non-overlapping max pool
by each tap's stride ratio.  The single-tap ablation runs the same code
over the stride-16 tap alone, without a norm.

Overlapping ROIs share most bin rectangles, so :func:`roi_pool` pools each
distinct rectangle of the stack once, per bucket of equal shape, into a
``(C, U)`` table with an ``(R, p*p)`` index from each bin to its column.
The fusion step takes those tables and indices: it norms only the table
columns, and one ``np.take`` per part fills one ``(sum C, R*p*p)``
matrix, so the shrink is one matmul.  Max pooling builds its gradient
routing only in the backward pass, from the input and gather geometry its
cache holds.  The forwards keep their input's dtype (float32 in
``detect``, float64 in training) and read gamma and the shrink in it; the
backwards are float64.
"""

from __future__ import annotations

import math

import numpy as np

from .boxes import project_roi

# conv2d, conv2d_backward and maxpool2d are not called here, but
# benchmark/tracer.py wraps them at this module's names
from .tensor import Params, ShapeError, Tensor, conv2d, conv2d_backward, maxpool2d  # noqa: F401

TAP_STRIDES = {"tap3": 4, "tap4": 8, "tap5": 16}
TAP_ORDER = tuple(TAP_STRIDES)
L2NORM_EPS = 1e-10


def make_l2norm(channels: int, gamma_init: float) -> Tensor:
    """The learnable per-channel gamma of one tap's norm."""
    return Tensor(np.full(channels, gamma_init))


def l2norm_scale(x: np.ndarray, gamma: Tensor):
    """Normalize every channel vector of a (C, N, HW) part to unit L2 norm,
    then scale by gamma.

    At each (n, hw) the C-vector v becomes gamma * v / sqrt(|v|^2 + eps^2),
    so activation magnitude differences between feature maps are removed
    before fusion and gamma alone sets the contribution of each channel.
    The channel sum runs over the outer axis, so it adds channels in order.
    """
    c = x.shape[0]
    g = gamma.data.astype(x.dtype, copy=False)
    if g.shape != (c,):
        raise ShapeError(f"l2norm_scale: gamma {g.shape} for {c}-channel input {x.shape}")
    y = x * x
    s = np.sqrt(y.sum(axis=0) + L2NORM_EPS * L2NORM_EPS)
    np.divide(x, s, out=y)
    return np.multiply(y, g[:, None, None], out=y), (x, s, gamma)


def l2norm_scale_backward(dout: np.ndarray, cache) -> np.ndarray:
    x, s, gamma = cache
    # sum each (c, n) plane, then the planes in n order
    planes = (dout * (x / s)).sum(axis=2)
    gamma.grad += np.ascontiguousarray(planes.T).sum(axis=0)
    gd = dout * gamma.data[:, None, None]
    dot = (gd * x).sum(axis=0)
    return gd / s - x * (dot / (s * s * s))


def concat_shrink(tables, names, norms, shrink: Params, index):
    """The fusion step on pooled parts, which it only reads: norm each named
    part that has a norm in ``norms``, stack the parts along channels in the
    given order, then apply the 1x1 shrink -> (outC, N, HW).  A part is a
    (C_i, U_i) table of distinct columns that its (N, HW) index expands: the
    norm runs once per table column, and one ``np.take`` fills the part's
    rows of the shrink input."""
    shapes = [(len(t), *ix.shape) for t, ix in zip(tables, index)]
    if len({sh[1:] for sh in shapes}) != 1:
        desc = ", ".join(f"{n}={sh[1:]}" for n, sh in zip(names, shapes))
        raise ShapeError(f"concat_shrink: spatial sizes differ: {desc}")
    dtype = np.result_type(*tables)
    w = shrink.weight.data
    wmat = w.astype(dtype, copy=False).reshape(w.shape[0], -1)
    z = np.empty((sum(sh[0] for sh in shapes), math.prod(shapes[0][1:])), dtype=dtype)  # (sum C, N*HW)
    if wmat.shape[1] != z.shape[0]:
        raise ShapeError(f"concat_shrink: {z.shape[0]} channels for shrink weight {w.shape}")
    norm_caches = []
    for name, x, ix, rows in zip(names, tables, index, _row_blocks(z, shapes)):
        nc = None
        if name in norms:
            x, nc = l2norm_scale(x[:, None], norms[name])
        # mode="clip" writes straight into rows; "raise" would buffer the whole part
        np.take(x.reshape(len(x), -1), ix, axis=1, out=rows, mode="clip")
        norm_caches.append(nc)
    out = wmat @ z
    out += shrink.bias.data.astype(dtype, copy=False)[:, None]
    return out.reshape(len(out), *shapes[0][1:]), (z, shapes, norm_caches, index, shrink)


def concat_shrink_backward(dout: np.ndarray, cache):
    """Gradient of each part, expanded to (C_i, N, HW), from a channel-major
    (outC, N, ...) output gradient, through the shrink and the part's norm;
    the norm backward runs on its table columns expanded through the index."""
    z, shapes, norm_caches, index, shrink = cache
    w = shrink.weight.data
    dmat = dout.reshape(w.shape[0], -1)
    shrink.bias.grad += dmat.sum(axis=1)
    shrink.weight.grad += (dmat @ z.T).reshape(w.shape)
    dz = w.reshape(w.shape[0], -1).T @ dmat
    grads = []
    for d, nc, ix in zip(_row_blocks(dz, shapes), norm_caches, index):
        if nc is not None:  # np.take keeps x C-contiguous, so its sums add in the part's order
            x, s, gamma = nc
            nc = np.take(x[:, 0], ix, axis=1), np.take(s[0], ix), gamma
        grads.append(d if nc is None else l2norm_scale_backward(d, nc))
    return grads


def _row_blocks(mat: np.ndarray, shapes):
    """Consecutive row blocks of a (sum C, N*HW) matrix as (C, N, HW) views."""
    return [b.reshape(sh) for b, sh in zip(np.split(mat, np.cumsum([sh[0] for sh in shapes])[:-1]), shapes)]


def _bins(lo: np.ndarray, extent: np.ndarray, p: int):
    """First cell and cell count of the p bins of segments [lo, lo + extent)
    along one axis, each shaped like ``lo`` plus a bin axis.  Bin i spans the
    cells from edge i to edge i + 1, edge i = floor(i * extent / p + 0.5) in
    exact integers; an empty bin takes the nearest non-empty one, ties to the
    lower index.  The rule runs once per extent up to the largest."""
    e = np.arange(1, extent.max(initial=0) + 1)[:, None]
    edges = (2 * np.arange(p + 1) * e + p) // (2 * p)  # (largest extent, p + 1)
    count = np.diff(edges, axis=1)
    i = np.arange(p)
    below = np.maximum.accumulate(np.where(count > 0, i, -p), axis=1)
    above = np.minimum.accumulate(np.where(count > 0, i, 2 * p)[:, ::-1], axis=1)[:, ::-1]
    src = np.where(i - below <= above - i, below, above)
    return lo[..., None] + edges[e - 1, src][extent - 1], count[e - 1, src][extent - 1]


def roi_pool(fmap: np.ndarray, rois: np.ndarray, stride: int, p: int):
    """Max-pool an (R, 4) stack of image-space ROIs at its distinct bin rectangles.

    Each ROI is projected onto the feature grid of one (C, H, W) map (at
    least one cell per side) and split into p x p bins by :func:`_bins`
    along each axis.  A bin is a rectangle of cells (first cell, rows,
    columns), and each distinct rectangle is pooled once, bucketed by exact
    shape (ny, nx): candidate k of every member is its row k // nx and
    column k % nx, with no padded candidates.  Per bucket, one gather per
    candidate feeds one ``np.fmax``, which skips NaN, and a NaN first
    candidate is put back: the values of a strict-greater scan keeping the
    first max.  Returns ``(table, index), cache``: the (C, U) maxima of the U
    distinct rectangles and the (R, p*p) column of each bin in ``table``, so
    ``np.take(table, index, axis=1)`` is the (C, R, p*p) pooled stack.  The
    cache holds the (C, H*W) map, ``table``, each bucket's columns and (L, m)
    candidate cells, and ``index``.  The backward routes by matching
    ``table``: nothing may write into it first.
    """
    c, h, w = fmap.shape
    x1, y1, x2, y2 = project_roi(rois, stride)
    size = np.array([[h], [w]])
    lo = np.clip(np.stack([y1, x1]), 0, size - 1)  # (2, R): rows, then columns
    hi = np.maximum(np.minimum(np.stack([y2, x2]), size), lo + 1)
    (y0, x0), (ny, nx) = _bins(lo, hi - lo, p)
    # key each (R, p, p) bin by shape, then first cell, so that a shape's rectangles are one run of sorted keys
    key = (ny[:, :, None] * (w + 1) + nx[:, None, :]) * (h * w) + y0[:, :, None] * w + x0[:, None, :]
    keys, index = np.unique(key, return_inverse=True)
    shape, first = np.divmod(keys, h * w)
    cells = fmap.reshape(c, h * w)
    table = np.empty((c, len(keys)), dtype=fmap.dtype)
    starts = np.flatnonzero(np.diff(shape, prepend=-1)).tolist()
    buckets = []
    for a, b in zip(starts, starts[1:] + [len(keys)]):
        rows, cols = divmod(int(shape[a]), w + 1)
        k = np.arange(rows * cols)
        idx = first[a:b] + ((k // cols) * w + k % cols)[:, None]  # (L, m): candidate k of each member
        head = np.take(cells, idx[0], axis=1)  # (c, m)
        best = head.copy()
        for cand in idx[1:]:
            np.fmax(best, np.take(cells, cand, axis=1), out=best)
        np.copyto(best, head, where=np.isnan(head))
        table[:, a:b] = best
        buckets.append((slice(a, b), idx))
    index = index.reshape(len(rois), p * p)
    return (table, index), (cells, table, buckets, index, fmap.shape)


def roi_pool_backward(dout: np.ndarray, cache) -> np.ndarray:
    """Gradient of the (C, H, W) map from a (C, R, p*p) pooled-gradient stack.

    Each distinct rectangle routes once: a reverse scan over its candidates
    keeps the first cell in row-major order equal to the cached, unmodified
    ``table`` column, or candidate 0 when none is (a NaN max): the cell the
    strict-greater scan kept.  ``index`` expands the routing to every bin,
    and one ``np.bincount`` sums each position's contributions in (R, p*p)
    order per channel, as ``np.add.at`` does on an (R, C, p*p) stack into a
    zero map, so the two agree bit for bit.
    """
    cells, table, buckets, index, shape = cache
    c, hw = cells.shape
    src = np.empty(table.shape, dtype=np.int64)
    for sl, idx in buckets:
        arg, best = src[:, sl], table[:, sl]
        arg[...] = idx[0]
        for cand in idx[::-1]:
            np.copyto(arg, cand, where=np.take(cells, cand, axis=1) == best)
    lin = np.take(src, index, axis=1) + (np.arange(c) * hw)[:, None, None]
    return np.bincount(lin.ravel(), weights=dout.ravel(), minlength=c * hw).reshape(shape)


def ms_roi_pool_batch(taps: dict, rois: np.ndarray, norms, shrink: Params, p: int):
    """Fixed-size fused descriptors (R, shrink_out, p, p) for an (R, 4) ROI stack.

    Each tap of the ``{name: (1, C, H, W) map}`` dict pools the whole stack
    at its stride to a (C_i, U_i) table of distinct rectangles and an (R, p*p)
    index into it, then the pooled taps go through the fusion step in dict
    order, so the output shape does not depend on ROI size.
    """
    names = list(taps)
    pooled, pool_caches = zip(*[roi_pool(taps[name][0], rois, TAP_STRIDES[name], p) for name in names])
    tables, index = zip(*pooled)
    out, fuse_cache = concat_shrink(tables, names, norms, shrink, index)
    return out.reshape(len(out), len(rois), p, p).transpose(1, 0, 2, 3), (names, pool_caches, fuse_cache)


def ms_roi_pool_batch_backward(dout: np.ndarray, cache) -> dict:
    """Backprop through the fusion step and pooling: the ``{name: (1, C, H, W)
    grad}`` of each pooled tap, in the forward's tap order."""
    names, pool_caches, fuse_cache = cache
    dparts = concat_shrink_backward(dout.transpose(1, 0, 2, 3), fuse_cache)
    return {name: roi_pool_backward(dpart, pc)[None] for name, pc, dpart in zip(names, pool_caches, dparts)}
