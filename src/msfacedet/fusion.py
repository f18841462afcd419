"""Multi-scale feature fusion.

Three backbone taps with different strides are made comparable in one
fusion step, ``concat_shrink``: each tap is L2-normalized along the
channel axis and scaled by a learnable per-channel gamma, then the taps
are concatenated in a fixed order and shrunk by a shared 1x1 convolution.
Both branches run that step after their own spatial synchronization:
downsample pooling for the dense branch, ROI pooling for the per-region
branch.  The single-tap ablation runs the same code over the stride-16
tap alone, without a norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boxes import project_roi
from .tensor import (
    ConvParams,
    ShapeError,
    Tensor,
    conv2d,
    conv2d_backward,
    maxpool2d,
    maxpool2d_backward,
)

TAP_ORDER = ("tap3", "tap4", "tap5")
L2NORM_EPS = 1e-10


@dataclass
class FeatureTap:
    """One backbone stage output together with its cumulative stride."""

    name: str
    map: np.ndarray  # (N, C, H, W)
    stride: int


def make_l2norm(channels: int, gamma_init: float = 10.0) -> Tensor:
    """The learnable per-channel gamma of one tap's norm."""
    return Tensor(np.full(channels, gamma_init), requires_grad=True)


def l2norm_scale(x: np.ndarray, gamma: Tensor):
    """Normalize every channel vector to unit L2 norm, then scale by gamma.

    At each (n, h, w) the C-vector v becomes gamma * v / sqrt(|v|^2 + eps^2),
    so activation magnitude differences between feature maps are removed
    before fusion and gamma alone sets the contribution of each channel.
    """
    c = x.shape[1]
    g = gamma.data
    if g.shape != (c,):
        raise ShapeError(f"l2norm_scale: gamma {g.shape} for {c}-channel input {x.shape}")
    s = np.sqrt((x * x).sum(axis=1, keepdims=True) + L2NORM_EPS * L2NORM_EPS)
    xn = x / s
    y = g[None, :, None, None] * xn
    return y, (x, s, xn, gamma)


def l2norm_scale_backward(dout: np.ndarray, cache) -> np.ndarray:
    x, s, xn, gamma = cache
    g = gamma.data
    gamma.ensure_grad()[...] += (dout * xn).sum(axis=(0, 2, 3))
    gd = dout * g[None, :, None, None]
    dot = (gd * x).sum(axis=1, keepdims=True)
    return gd / s - x * (dot / (s * s * s))


def sync_downsample(tap: FeatureTap, target_stride: int):
    """Max-pool a tap down to the spatial grid of ``target_stride``.

    The pooling window equals the stride ratio; a ratio of 1 is the identity.
    """
    if target_stride % tap.stride:
        raise ShapeError(
            f"sync_downsample: target stride {target_stride} not a multiple of "
            f"{tap.name} stride {tap.stride}"
        )
    ratio = target_stride // tap.stride
    if ratio == 1:
        return tap.map, None
    return maxpool2d(tap.map, ratio, ratio)


def sync_downsample_backward(dout: np.ndarray, cache) -> np.ndarray:
    if cache is None:
        return dout
    return maxpool2d_backward(dout, cache)


def concat_shrink(parts, names, norms, shrink: ConvParams):
    """The fusion step: norm each named part that has a norm in ``norms``,
    concatenate along channels in the given order, then 1x1-convolve."""
    hw = {m.shape[2:] for m in parts}
    if len(hw) != 1:
        sizes = ", ".join(f"{n}={m.shape[2:]}" for n, m in zip(names, parts))
        raise ShapeError(f"concat_shrink: spatial sizes differ: {sizes}")
    normed, norm_caches = [], []
    for name, x in zip(names, parts):
        nc = None
        if name in norms:
            x, nc = l2norm_scale(x, norms[name])
        normed.append(x)
        norm_caches.append(nc)
    out, conv_cache = conv2d(np.concatenate(normed, axis=1), shrink)
    splits = [m.shape[1] for m in parts]
    return out, (conv_cache, norm_caches, splits)


def concat_shrink_backward(dout: np.ndarray, cache):
    """Gradient of each part, through the shrink and the part's norm."""
    conv_cache, norm_caches, splits = cache
    dz = conv2d_backward(dout, conv_cache)
    dparts = np.split(dz, np.cumsum(splits)[:-1], axis=1)
    return [d if nc is None else l2norm_scale_backward(d, nc) for d, nc in zip(dparts, norm_caches)]


def _partition(extent: int, p: int):
    """Split [0, extent) into p near-equal segments; empty segments borrow
    the nearest nonempty one (ties toward the lower index)."""
    edges = [int(np.floor(i * extent / p + 0.5)) for i in range(p + 1)]
    segs = [(edges[i], edges[i + 1]) for i in range(p)]
    nonempty = [i for i, (lo, hi) in enumerate(segs) if hi > lo]
    return [
        segs[i] if segs[i][1] > segs[i][0] else segs[min(nonempty, key=lambda q: (abs(q - i), q))]
        for i in range(p)
    ]


def _axis_gather(segs):
    """Index matrix (p, maxlen) over one axis, -1 padded past each segment."""
    p = len(segs)
    maxlen = max(hi - lo for lo, hi in segs)
    idx = np.full((p, maxlen), -1, dtype=np.int64)
    for i, (lo, hi) in enumerate(segs):
        idx[i, : hi - lo] = np.arange(lo, hi)
    return idx


_GATHER_CACHE: dict = {}


def _cell_gather(h_ext: int, w_ext: int, map_w: int, p: int):
    """Cached per-cell candidate offsets for one projected-rect shape.

    Returns (rel, valid): flat index offsets relative to the rect origin and
    the padding mask, both shaped (p*p, L).
    """
    key = (h_ext, w_ext, map_w, p)
    hit = _GATHER_CACHE.get(key)
    if hit is not None:
        return hit
    rows = _axis_gather(_partition(h_ext, p))
    cols = _axis_gather(_partition(w_ext, p))
    valid = (rows[:, None, :, None] >= 0) & (cols[None, :, None, :] >= 0)
    rel = rows[:, None, :, None] * map_w + cols[None, :, None, :]
    rel = np.where(valid, rel, 0).reshape(p * p, -1)
    valid = valid.reshape(p * p, -1)
    hit = (rel, valid)
    _GATHER_CACHE[key] = hit
    return hit


def roi_pool(fmap: np.ndarray, roi: np.ndarray, stride: int, p: int):
    """Max-pool an image-space ROI into a fixed (C, p, p) grid.

    The ROI is projected onto the feature grid (at least one cell per side),
    partitioned into p x p near-equal cells, and each cell takes the
    channel-wise max.  Returns (out, argmax) where argmax holds flat (h*w)
    source indices for gradient routing.
    """
    c, h, w = fmap.shape
    x1, y1, x2, y2 = project_roi(roi, stride)
    x1 = min(max(x1, 0), w - 1)
    y1 = min(max(y1, 0), h - 1)
    x2 = max(min(x2, w), x1 + 1)
    y2 = max(min(y2, h), y1 + 1)
    rel, valid = _cell_gather(y2 - y1, x2 - x1, w, p)
    flat = rel + (y1 * w + x1)
    vals = fmap.reshape(c, h * w)[:, flat]  # (c, p*p, L)
    if not valid.all():
        vals = np.where(valid[None], vals, -np.inf)
    a = vals.argmax(axis=2)
    out = np.take_along_axis(vals, a[..., None], axis=2)[..., 0].reshape(c, p, p)
    argmax = flat[np.arange(p * p)[None, :], a]
    return out, argmax.reshape(c, p, p)


def roi_pool_backward(dout: np.ndarray, argmax: np.ndarray, dmap: np.ndarray):
    """Scatter-add an (R, C, p, p) pooled-gradient stack back to the argmax
    source positions of one (C, H, W) map."""
    r, c = dout.shape[0], dout.shape[1]
    flat = dmap.reshape(c, -1)
    idx = argmax.reshape(r, c, -1)
    np.add.at(flat, (np.arange(c)[None, :, None], idx), dout.reshape(r, c, -1))


def ms_roi_pool_batch(taps, rois: np.ndarray, norms, shrink: ConvParams, p: int):
    """Fixed-size fused descriptors (R, shrink_out, p, p) for an (R, 4) ROI stack.

    Each tap is ROI-pooled at its own stride to (C_i, p, p), then the pooled
    taps go through the fusion step, so the output shape does not depend on
    ROI size.
    """
    r = rois.shape[0]
    pooled, argmaxes = [], []
    for tap in taps:
        c = tap.map.shape[1]
        po = np.empty((r, c, p, p))
        am = np.empty((r, c, p, p), dtype=np.int64)
        fmap = tap.map[0]
        for i in range(r):
            po[i], am[i] = roi_pool(fmap, rois[i], tap.stride, p)
        pooled.append(po)
        argmaxes.append(am)
    out, fuse_cache = concat_shrink(pooled, [t.name for t in taps], norms, shrink)
    return out, (taps, argmaxes, fuse_cache)


def ms_roi_pool_batch_backward(dout: np.ndarray, cache, tap_grads: dict):
    """Backprop through the fusion step and pooling; adds into ``tap_grads``."""
    taps, argmaxes, fuse_cache = cache
    for tap, am, dpart in zip(taps, argmaxes, concat_shrink_backward(dout, fuse_cache)):
        roi_pool_backward(dpart, am, tap_grads[tap.name][0])
