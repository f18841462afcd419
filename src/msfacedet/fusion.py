"""Multi-scale feature fusion.

Three backbone taps, a ``{name: (1, C, H, W) map}`` dict with each stride
declared once in :data:`TAP_STRIDES`, are made comparable in one fusion
step, ``concat_shrink``: each tap is L2-normalized along the channel axis
and scaled by a learnable per-channel gamma (a :class:`Tensor`, so its
grad is always present), then the taps are concatenated in dict order and
shrunk by a shared 1x1 convolution.  Both branches reach the fusion step
through :func:`ms_roi_pool_batch`, whose one spatial synchronization is
ROI max pooling (:func:`roi_pool`, Fast R-CNN's, arXiv 1504.08083): the
per-region branch pools its proposals into p x p bins, and the dense
branch pools the stride-16 grid cells, one bin each, which is a
non-overlapping max pool by each tap's stride ratio.  The single-tap
ablation runs the same code over the stride-16 tap alone, without a norm.

Overlapping ROIs share most bin rectangles, so :func:`roi_pool` pools each
distinct rectangle of the stack once, per bucket of equal shape, into a
``(C, U)`` table with an ``(R, p*p)`` index from each bin to its column.
A branch pools all its taps in one call, keyed tap-major for one
``np.unique``; each tap's table keeps the column order of pooling it alone.
The fusion step works on those columns: the shrink is linear, so each
normed table goes through its block of the shrink before the index
expands it.  The expansion gathers whole rows of the transposed
``(U, outC)`` projection, one per position, into a ``(positions, outC)``
sum, and the shrink bias is added once per column of the first table
rather than once per position.  Neither changes a bit of the sum: a
gather copies values, and IEEE addition commutes.  The backward sums each
column's gradient with one ``np.bincount`` and hands
:func:`roi_pool_backward` a ``(C, U)`` table gradient.  Max pooling
builds its gradient routing only in the backward pass, from the input and
gather geometry its cache holds.  The forwards keep their input's dtype
(float32 in ``detect``, float64 in training) and read gamma and the
shrink in it; the backwards are float64.
"""

from __future__ import annotations

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
    """Normalize every column of a (C, U) table to unit L2 norm, then scale
    by gamma.

    Each C-vector v becomes gamma * v / sqrt(|v|^2 + eps^2), so activation
    magnitude differences between feature maps are removed before fusion
    and gamma alone sets the contribution of each channel.  The channel sum
    runs over the outer axis, so it adds channels in order.
    """
    c = x.shape[0]
    g = gamma.data.astype(x.dtype, copy=False)
    if g.shape != (c,):
        raise ShapeError(f"l2norm_scale: gamma {g.shape} for {c}-channel input {x.shape}")
    y = x * x
    s = np.sqrt(y.sum(axis=0) + L2NORM_EPS * L2NORM_EPS)
    np.divide(x, s, out=y)
    return np.multiply(y, g[:, None], out=y), (x, s, gamma)


def l2norm_scale_backward(dout: np.ndarray, cache) -> np.ndarray:
    x, s, gamma = cache
    gamma.grad += (dout * (x / s)).sum(axis=1)
    gd = dout * gamma.data[:, None]
    dot = (gd * x).sum(axis=0)
    return gd / s - x * (dot / (s * s * s))


def concat_shrink(tables, names, norms, shrink: Params, index):
    """The fusion step on pooled parts, which it only reads -> (outC, N, HW):
    norm each named part that has a norm in ``norms``, stack the parts along
    channels in the given order, then apply the 1x1 shrink.  A part is a
    (C_t, U_t) table of distinct columns and an (N, HW) index into it.  The
    shrink is linear, so it projects each normed table by its column block
    W_t first, then gathers one outC-row of ``(W_t @ n_t).T`` per position
    into an (N*HW, outC) sum in tap order, returned transposed.  The bias
    is added to the first part's (U_t, outC) projection before its gather,
    once per table column.  Both keep the bits of adding each part's
    element gather ``np.take(W_t @ n_t, index_t, axis=1)`` to the bias in
    tap order: a gather copies values exactly, and IEEE addition commutes,
    so ``g + b`` has the bits of ``b + g``."""
    if len({ix.shape for ix in index}) != 1:
        desc = ", ".join(f"{n}={ix.shape}" for n, ix in zip(names, index))
        raise ShapeError(f"concat_shrink: spatial sizes differ: {desc}")
    dtype = np.result_type(*tables)
    w = shrink.weight.data
    wmat = w.astype(dtype, copy=False).reshape(w.shape[0], -1)
    channels = np.cumsum([len(t) for t in tables])
    if wmat.shape[1] != channels[-1]:
        raise ShapeError(f"concat_shrink: {channels[-1]} channels for shrink weight {w.shape}")
    bias = shrink.bias.data.astype(dtype, copy=False)
    out = np.empty((index[0].size, len(wmat)), dtype=dtype)
    gathered = np.empty_like(out)
    parts = []
    for name, x, ix, wt in zip(names, tables, index, np.split(wmat, channels[:-1], axis=1)):
        x, nc = l2norm_scale(x, norms[name]) if name in norms else (x, None)
        proj = (wt @ x).T if parts else (wt @ x).T + bias
        # mode="clip" writes straight into the target; "raise" would buffer the whole part
        np.take(proj, ix.ravel(), axis=0, out=gathered if parts else out, mode="clip")
        if parts:
            out += gathered
        parts.append((x, nc, ix, wt))
    return out.T.reshape(len(wmat), *index[0].shape), (parts, shrink)


def concat_shrink_backward(dout: np.ndarray, cache):
    """The (C_t, U_t) table gradient of each part from a channel-major
    (outC, N, ...) output gradient: one ``np.bincount`` sums each table
    column's positions, then the part's shrink block and norm run per column."""
    parts, shrink = cache
    dmat = dout.reshape(len(shrink.bias.data), -1)
    shrink.bias.grad += dmat.sum(axis=1)
    rows = np.arange(len(dmat))[:, None]
    grads, dws = [], []
    for x, nc, ix, wt in parts:
        u = x.shape[1]
        dp = np.bincount((rows * u + ix.ravel()).ravel(), dmat.ravel(), len(dmat) * u).reshape(len(dmat), u)
        dws.append(dp @ x.T)
        dn = wt.T @ dp
        grads.append(dn if nc is None else l2norm_scale_backward(dn, nc))
    shrink.weight.grad += np.concatenate(dws, axis=1).reshape(shrink.weight.grad.shape)
    return grads


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


def roi_pool(maps, rois: np.ndarray, strides, p: int):
    """Max-pool an (R, 4) stack of image-space ROIs at its distinct bin
    rectangles on every (C, H, W) map of ``maps``, map t at ``strides[t]``.

    Each ROI is projected onto each map's feature grid (at least one cell
    per side) and split into p x p bins by :func:`_bins` along each axis.  A
    bin is a rectangle of cells (first cell, rows, columns), keyed by map,
    then shape, then first cell: map t's keys start after the (h+1)(w+1)*h*w
    keys of each map before it, so one ``np.unique`` gives each map the
    columns, in order, of pooling it alone.  Each distinct rectangle is
    pooled once, bucketed by exact shape (ny, nx): candidate k of every
    member is its row k // nx and column k % nx, with no padded candidates.
    Per bucket, one gather per candidate feeds one ``np.fmax``, which skips
    NaN, and a NaN first candidate is put back: the values of a
    strict-greater scan keeping the first max, but for the sign of a tied
    zero.  Returns ``(table, index), cache`` per map: the (C, U) maxima of
    its U distinct rectangles and the (R, p*p) column of each bin in
    ``table``, so ``np.take(table, index, axis=1)`` is the (C, R, p*p)
    pooled stack.  The cache holds the (C, H*W) map, ``table`` and each
    bucket's columns and (L, m) candidate cells.  The backward routes by
    matching ``table``: nothing may write into it first.
    """
    hw = np.array([fmap.shape[1:] for fmap in maps]).T[:, :, None]  # (2, T, 1)
    x1, y1, x2, y2 = project_roi(rois, np.asarray(strides)[:, None])  # each (T, R)
    lo = np.clip(np.stack([y1, x1]), 0, hw - 1)  # (2, T, R): rows, then columns
    hi = np.maximum(np.minimum(np.stack([y2, x2]), hw), lo + 1)
    (y0, x0), (ny, nx) = _bins(lo, hi - lo, p)
    h, w = hw[..., None, None]  # each (T, 1, 1, 1)
    offsets = np.concatenate([[0], np.cumsum((h + 1) * (w + 1) * h * w)])
    # key each (T, R, p, p) bin by map, then shape, then first cell, so that a shape's rectangles are one run
    key = (ny[..., :, None] * (w + 1) + nx[..., None, :]) * (h * w) + y0[..., :, None] * w + x0[..., None, :]
    keys, inverse = np.unique(key + offsets[:-1].reshape(h.shape), return_inverse=True)
    bounds = np.searchsorted(keys, offsets).tolist()
    pooled = []
    inverse = inverse.reshape(len(maps), len(rois), p * p)
    for fmap, offset, begin, end, map_index in zip(maps, offsets.tolist(), bounds, bounds[1:], inverse):
        c, h, w = fmap.shape
        shape, first = np.divmod(keys[begin:end] - offset, h * w)
        cells = fmap.reshape(c, h * w)
        table = np.empty((c, len(shape)), dtype=fmap.dtype)
        starts = np.flatnonzero(np.diff(shape, prepend=-1)).tolist()
        buckets = []
        for a, b in zip(starts, starts[1:] + [len(shape)]):
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
        pooled.append(((table, map_index - begin), (cells, table, buckets, fmap.shape)))
    return pooled


def roi_pool_backward(dtable: np.ndarray, cache) -> np.ndarray:
    """Gradient of the (C, H, W) map from the (C, U) gradient of ``table``.

    Each distinct rectangle routes once: a reverse scan over its candidates
    keeps the first cell in row-major order equal to the cached, unmodified
    ``table`` column, or candidate 0 when none is (a NaN max): the cell the
    strict-greater scan kept.  One ``np.bincount`` sums each position's
    contributions in column order per channel.
    """
    cells, table, buckets, shape = cache
    c, hw = cells.shape
    src = np.empty(table.shape, dtype=np.int64)
    for sl, idx in buckets:
        arg, best = src[:, sl], table[:, sl]
        arg[...] = idx[0]
        for cand in idx[::-1]:
            np.copyto(arg, cand, where=np.take(cells, cand, axis=1) == best)
    lin = src + (np.arange(c) * hw)[:, None]
    return np.bincount(lin.ravel(), weights=dtable.ravel(), minlength=c * hw).reshape(shape)


def ms_roi_pool_batch(taps: dict, rois: np.ndarray, norms, shrink: Params, p: int):
    """Fixed-size fused descriptors (R, shrink_out, p, p) for an (R, 4) ROI stack.

    One :func:`roi_pool` call pools the whole stack on every tap of the
    ``{name: (1, C, H, W) map}`` dict at its stride, each to a (C_i, U_i)
    table of distinct rectangles and an (R, p*p) index into it, then the
    pooled taps go through the fusion step in dict order, so the output
    shape does not depend on ROI size.
    """
    names = list(taps)
    maps = [taps[name][0] for name in names]
    pooled, pool_caches = zip(*roi_pool(maps, rois, [TAP_STRIDES[name] for name in names], p))
    tables, index = zip(*pooled)
    out, fuse_cache = concat_shrink(tables, names, norms, shrink, index)
    return out.reshape(len(out), len(rois), p, p).transpose(1, 0, 2, 3), (names, pool_caches, fuse_cache)


def ms_roi_pool_batch_backward(dout: np.ndarray, cache) -> dict:
    """Backprop through the fusion step and pooling: the ``{name: (1, C, H, W)
    grad}`` of each pooled tap, in the forward's tap order."""
    names, pool_caches, fuse_cache = cache
    dtables = concat_shrink_backward(dout.transpose(1, 0, 2, 3), fuse_cache)
    return {name: roi_pool_backward(dtable, pc)[None] for name, pc, dtable in zip(names, pool_caches, dtables)}
