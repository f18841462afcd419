"""Multi-scale feature fusion.

Three backbone taps, a ``{name: (N, C, H, W) map}`` dict with each stride
declared once in :data:`TAP_STRIDES`, are made comparable in one fusion
step, ``concat_shrink``: each tap is L2-normalized along the channel axis
and scaled by a learnable per-channel gamma (a :class:`Tensor`, so its
grad is always present), then the taps are concatenated in dict order and
shrunk by a shared 1x1 convolution.  Both branches run that step after
their own spatial synchronization: downsample pooling for the dense
branch, ROI pooling for the per-region branch.  The single-tap ablation
runs the same code over the stride-16 tap alone, without a norm.

The fusion step takes channel-major parts ``(C, N, HW)``: a dense
``(1, C, H, W)`` tap reshapes to that for free and :func:`roi_pool` writes
``(C, R, p*p)``.  The normed parts fill one ``(sum C, N*HW)`` matrix, so the
shrink is one matmul.  Max pooling builds its gradient routing only in the
backward pass, from the input and gather geometry its cache holds.
"""

from __future__ import annotations

import numpy as np

from .boxes import project_roi

# conv2d and conv2d_backward are not called here, but benchmark/tracer.py
# wraps them at this module's names
from .tensor import (  # noqa: F401
    Params,
    ShapeError,
    Tensor,
    conv2d,
    conv2d_backward,
    maxpool2d,
    maxpool2d_backward,
)

TAP_STRIDES = {"tap3": 4, "tap4": 8, "tap5": 16}
TAP_ORDER = tuple(TAP_STRIDES)
L2NORM_EPS = 1e-10


def make_l2norm(channels: int, gamma_init: float) -> Tensor:
    """The learnable per-channel gamma of one tap's norm."""
    return Tensor(np.full(channels, gamma_init))


def l2norm_scale(x: np.ndarray, gamma: Tensor, out: np.ndarray | None = None):
    """Normalize every channel vector of a (C, N, HW) part to unit L2 norm,
    then scale by gamma, into ``out`` (also the scratch space) when given.

    At each (n, hw) the C-vector v becomes gamma * v / sqrt(|v|^2 + eps^2),
    so activation magnitude differences between feature maps are removed
    before fusion and gamma alone sets the contribution of each channel.
    The channel sum runs over the outer axis, so it adds channels in order.
    """
    c = x.shape[0]
    g = gamma.data
    if g.shape != (c,):
        raise ShapeError(f"l2norm_scale: gamma {g.shape} for {c}-channel input {x.shape}")
    y = np.multiply(x, x, out=out)
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


def sync_downsample(name: str, fmap: np.ndarray):
    """Max-pool the (N, C, H, W) map of tap ``name`` down to the tap5 grid.

    The pooling window equals the stride ratio; a ratio of 1 is the identity.
    """
    ratio = TAP_STRIDES["tap5"] // TAP_STRIDES[name]
    if ratio == 1:
        return fmap, None
    return maxpool2d(fmap, ratio)


def sync_downsample_backward(dout: np.ndarray, cache) -> np.ndarray:
    if cache is None:
        return dout
    return maxpool2d_backward(dout, cache)


def concat_shrink(parts, names, norms, shrink: Params):
    """The fusion step on channel-major (C_i, N, HW) parts, which it only
    reads: norm each named part that has a norm in ``norms``, stack the parts
    along channels in the given order, then apply the 1x1 shrink -> (outC, N, HW)."""
    sizes = {m.shape[1:] for m in parts}
    if len(sizes) != 1:
        desc = ", ".join(f"{n}={m.shape[1:]}" for n, m in zip(names, parts))
        raise ShapeError(f"concat_shrink: spatial sizes differ: {desc}")
    w = shrink.weight.data
    wmat = w.reshape(w.shape[0], -1)
    shapes = [m.shape for m in parts]
    z = np.empty((sum(sh[0] for sh in shapes), parts[0][0].size))  # (sum C, N*HW)
    if wmat.shape[1] != z.shape[0]:
        raise ShapeError(f"concat_shrink: {z.shape[0]} channels for shrink weight {w.shape}")
    norm_caches = []
    for name, x, rows in zip(names, parts, _row_blocks(z, shapes)):
        nc = None
        if name in norms:
            _, nc = l2norm_scale(x, norms[name], out=rows)
        else:
            rows[...] = x
        norm_caches.append(nc)
    out = wmat @ z
    out += shrink.bias.data[:, None]
    return out.reshape(len(out), *shapes[0][1:]), (z, shapes, norm_caches, shrink)


def concat_shrink_backward(dout: np.ndarray, cache):
    """Gradient of each (C_i, N, HW) part from a channel-major (outC, N, ...)
    output gradient, through the shrink and the part's norm."""
    z, shapes, norm_caches, shrink = cache
    w = shrink.weight.data
    dmat = dout.reshape(w.shape[0], -1)
    shrink.bias.grad += dmat.sum(axis=1)
    shrink.weight.grad += (dmat @ z.T).reshape(w.shape)
    dz = w.reshape(w.shape[0], -1).T @ dmat
    return [d if nc is None else l2norm_scale_backward(d, nc) for d, nc in zip(_row_blocks(dz, shapes), norm_caches)]


def _row_blocks(mat: np.ndarray, shapes):
    """Consecutive row blocks of a (sum C, N*HW) matrix as (C, N, HW) views."""
    return [b.reshape(sh) for b, sh in zip(np.split(mat, np.cumsum([sh[0] for sh in shapes])[:-1]), shapes)]


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

    Returns flat index offsets relative to the rect origin, shaped (p*p, L)
    in row-major cell and candidate order.  A cell with fewer than L
    candidates is padded with copies of its own first offset: a copy can
    never come before the cell's first maximum, so it needs no mask.
    """
    key = (h_ext, w_ext, map_w, p)
    rel = _GATHER_CACHE.get(key)
    if rel is not None:
        return rel
    rows = _axis_gather(_partition(h_ext, p))
    cols = _axis_gather(_partition(w_ext, p))
    valid = (rows[:, None, :, None] >= 0) & (cols[None, :, None, :] >= 0)
    rel = (rows[:, None, :, None] * map_w + cols[None, :, None, :]).reshape(p * p, -1)
    rel = np.where(valid.reshape(p * p, -1), rel, rel[:, :1])
    _GATHER_CACHE[key] = rel
    return rel


def roi_pool(fmap: np.ndarray, rois: np.ndarray, stride: int, p: int):
    """Max-pool an (R, 4) stack of image-space ROIs into a (C, R, p*p) stack.

    Each ROI is projected onto the feature grid of one (C, H, W) map (at
    least one cell per side) and partitioned into p x p near-equal cells.
    Per bucket of ROIs with equal padded cell length L, one gather per
    candidate feeds one ``np.fmax``, which skips NaN, and a NaN first
    candidate is put back: the values of a strict-greater scan keeping the
    first max.  Returns (out, cache); the cache holds a channels-last copy
    of the map, ``out`` itself, each bucket's candidate indices and the map
    shape.  The backward routes by matching ``out``: nothing may write into
    it first.
    """
    c, h, w = fmap.shape
    x1, y1, x2, y2 = project_roi(rois, stride)
    x1 = np.clip(x1, 0, w - 1)
    y1 = np.clip(y1, 0, h - 1)
    x2 = np.maximum(np.minimum(x2, w), x1 + 1)
    y2 = np.maximum(np.minimum(y2, h), y1 + 1)
    rels = [_cell_gather(rh, rw, w, p) for rh, rw in zip((y2 - y1).tolist(), (x2 - x1).tolist())]
    lengths = np.array([rel.shape[1] for rel in rels], dtype=np.int64)
    origins = y1 * w + x1
    rows = np.ascontiguousarray(fmap.reshape(c, h * w).T)  # (h*w, c)
    has_nan = np.isnan(rows).any()
    out = np.empty((c, len(rels), p * p))
    buckets = []
    for length in np.unique(lengths).tolist():
        members = np.flatnonzero(lengths == length)
        # (L, m, p*p): candidate l of every cell of every member ROI
        idx = np.stack([rels[i].T for i in members], axis=1) + origins[members][:, None]
        best = rows[idx[0]]  # (m, p*p, c)
        for cand in idx[1:]:
            np.fmax(best, rows[cand], out=best)
        if has_nan:
            np.copyto(best, rows[idx[0]], where=np.isnan(rows[idx[0]]))
        out[:, members] = best.transpose(2, 0, 1)
        buckets.append((members, idx))
    return out, (rows, out, buckets, fmap.shape)


def roi_pool_backward(dout: np.ndarray, cache) -> np.ndarray:
    """Gradient of the (C, H, W) map from a (C, R, p*p) pooled-gradient stack.

    A reverse scan routes each cell to its first candidate equal to the
    cached, unmodified ``out``, or to candidate 0 when none is (a NaN max):
    the cell the strict-greater scan kept.  One ``np.bincount`` then
    sums each position's contributions in (R, p*p) order per channel, as
    ``np.add.at`` does on an (R, C, p*p) stack into a zero map, so the two
    agree bit for bit.
    """
    rows, out, buckets, shape = cache
    hw, c = rows.shape
    src = np.empty(out.shape, dtype=np.int64)
    for members, idx in buckets:
        best = np.ascontiguousarray(out[:, members].transpose(1, 2, 0))  # (m, p*p, c)
        arg = np.repeat(idx[0][..., None], c, axis=2)
        for cand in idx[::-1]:
            np.copyto(arg, cand[..., None], where=rows[cand] == best)
        src[:, members] = arg.transpose(2, 0, 1)
    lin = src + (np.arange(c) * hw)[:, None, None]
    return np.bincount(lin.ravel(), weights=dout.ravel(), minlength=c * hw).reshape(shape)


def ms_roi_pool_batch(taps: dict, rois: np.ndarray, norms, shrink: Params, p: int):
    """Fixed-size fused descriptors (R, shrink_out, p, p) for an (R, 4) ROI stack.

    Each tap of the ``{name: (1, C, H, W) map}`` dict pools the whole stack
    at its stride to (C_i, R, p*p), then the pooled taps go through the
    fusion step in dict order, so the output shape does not depend on ROI size.
    """
    names = list(taps)
    pools = [roi_pool(taps[name][0], rois, TAP_STRIDES[name], p) for name in names]
    out, fuse_cache = concat_shrink([po for po, _ in pools], names, norms, shrink)
    return out.reshape(len(out), len(rois), p, p).transpose(1, 0, 2, 3), (names, [pc for _, pc in pools], fuse_cache)


def ms_roi_pool_batch_backward(dout: np.ndarray, cache) -> dict:
    """Backprop through the fusion step and pooling: the ``{name: (1, C, H, W)
    grad}`` of each pooled tap, in the forward's tap order."""
    names, pool_caches, fuse_cache = cache
    dparts = concat_shrink_backward(dout.transpose(1, 0, 2, 3), fuse_cache)
    return {name: roi_pool_backward(dpart, pc)[None] for name, pc, dpart in zip(names, pool_caches, dparts)}
