"""Axis-aligned box arithmetic: validation, IoU, ground-truth matching, delta
coding, clipping, NMS, grid projection.

Boxes are float arrays ``[x1, y1, x2, y2]`` in continuous pixel coordinates
with ``x2 > x1`` and ``y2 > y1``; width is ``x2 - x1`` (no +1).  Most
functions accept either a single box of shape (4,) or a stack (N, 4).
:func:`check_boxes` is the one box contract: ground truth and scored
detections pass it before training, recall or scoring reads them.
"""

from __future__ import annotations

import math

import numpy as np

# exp() of regression widths is clamped to this, keeping decode finite
LOG_SIZE_CLAMP = math.log(1000.0)

# candidates per NMS block; 16, 32 and 128 were slower on every benchmark workload
_NMS_BLOCK = 64


def check_boxes(boxes, what: str, kind: str) -> np.ndarray:
    """``boxes`` as a float64 (N, 4) array; raise ``ValueError`` naming ``what``
    and ``kind`` (``"ground-truth"`` or ``"detection"``) unless they are finite
    (N, 4) boxes, each with x2 > x1 and y2 > y1."""
    try:
        boxes = np.asarray(boxes, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValueError(f"{what}: {kind} boxes must be finite (N, 4); got ragged or non-numeric rows") from None
    if boxes.ndim != 2 or boxes.shape[1] != 4 or not np.isfinite(boxes).all():
        raise ValueError(f"{what}: {kind} boxes must be finite (N, 4); got {boxes.shape}")
    bad = (boxes[:, 2] <= boxes[:, 0]) | (boxes[:, 3] <= boxes[:, 1])
    if bad.any():
        raise ValueError(f"{what}: {kind} box {boxes[bad.argmax()].tolist()} must have x2 > x1 and y2 > y1")
    return boxes


def box_area(b: np.ndarray) -> np.ndarray:
    b = np.asarray(b, dtype=np.float64)
    return (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between (N, 4) and (M, 4) box stacks."""
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 4)
    # in place, to spare (N, M) temporaries; the same operations in the same order
    inter = np.minimum(a[:, None, 2], b[None, :, 2])
    inter -= np.maximum(a[:, None, 0], b[None, :, 0])
    iy = np.minimum(a[:, None, 3], b[None, :, 3])
    iy -= np.maximum(a[:, None, 1], b[None, :, 1])
    np.maximum(inter, 0.0, out=inter)
    inter *= np.maximum(iy, 0.0, out=iy)
    union = box_area(a)[:, None] + box_area(b)[None, :]
    union -= inter
    inter /= union
    return inter


def match_ground_truth(boxes: np.ndarray, gt_boxes: np.ndarray):
    """``(ious, best_gt, best_iou)``: the (N, G + 1) IoUs with a zero column after
    the ground truth, which gives ``argmax`` a column when G is 0 and loses its
    ties to real ones, then each row's first column of highest IoU and that IoU."""
    ious = np.pad(iou_matrix(boxes, gt_boxes), ((0, 0), (0, 1)))
    best_gt = ious.argmax(axis=1)
    return ious, best_gt, ious[np.arange(len(ious)), best_gt]


def _centers(b: np.ndarray):
    w = b[..., 2] - b[..., 0]
    h = b[..., 3] - b[..., 1]
    cx = b[..., 0] + 0.5 * w
    cy = b[..., 1] + 0.5 * h
    return cx, cy, w, h


def encode_deltas(target: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    """Regression offsets (tx, ty, tw, th) that map ``anchor`` onto ``target``."""
    target = np.asarray(target, dtype=np.float64)
    anchor = np.asarray(anchor, dtype=np.float64)
    cxt, cyt, wt, ht = _centers(target)
    cxa, cya, wa, ha = _centers(anchor)
    return np.stack(
        [(cxt - cxa) / wa, (cyt - cya) / ha, np.log(wt / wa), np.log(ht / ha)], axis=-1
    )


def decode_deltas(deltas: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    """Inverse of :func:`encode_deltas`; size offsets clamped before exp."""
    deltas = np.asarray(deltas, dtype=np.float64)
    anchor = np.asarray(anchor, dtype=np.float64)
    cxa, cya, wa, ha = _centers(anchor)
    cx = deltas[..., 0] * wa + cxa
    cy = deltas[..., 1] * ha + cya
    w = wa * np.exp(np.minimum(deltas[..., 2], LOG_SIZE_CLAMP))
    h = ha * np.exp(np.minimum(deltas[..., 3], LOG_SIZE_CLAMP))
    return np.stack([cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w, cy + 0.5 * h], axis=-1)


def clip_boxes(boxes: np.ndarray, img_w: float, img_h: float):
    """Vectorized clamp; returns (clipped, keep-mask) with the <1 px rule applied."""
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    out = boxes.copy()
    out[:, [0, 2]] = np.clip(out[:, [0, 2]], 0.0, img_w)
    out[:, [1, 3]] = np.clip(out[:, [1, 3]], 0.0, img_h)
    keep = (out[:, 2] - out[:, 0] >= 1.0) & (out[:, 3] - out[:, 1] >= 1.0)
    return out, keep


def nms(
    boxes: np.ndarray, scores: np.ndarray, iou_threshold: float, *, max_keep: int | None = None
) -> list[int]:
    """Greedy non-maximum suppression.

    Boxes are visited in descending score order (score ties broken by the
    original index); a box is suppressed iff its IoU with an already kept
    box is not ``<= iou_threshold`` (so a NaN IoU suppresses).  Returns kept
    indices in visit order.  The search stops once ``max_keep`` boxes are
    kept (``None``: no limit); a box's fate depends only on the boxes kept
    before it, so the result is the first ``max_keep`` entries of the
    unlimited list.

    The sweep is blocked: the next ``_NMS_BLOCK`` surviving candidates take
    one ``iou_matrix`` among themselves, their keeps are settled in visit
    order from its rows as bitmasks, and one more ``iou_matrix`` of the
    block's keeps against every later candidate drops those they suppress.
    Each pair's IoU is the same arithmetic as the one-box-at-a-time greedy
    loop, so the list is the one the greedy definition returns.
    """
    boxes = np.asarray(boxes, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    if boxes.size != 4 * scores.size:
        raise ValueError(f"nms: boxes {boxes.shape} and scores {scores.shape} do not pair one score with each box")
    boxes = boxes.reshape(-1, 4)
    order = np.argsort(-scores.reshape(-1), kind="stable")
    budget = len(order) if max_keep is None else max_keep
    keep: list[int] = []
    while order.size and len(keep) < budget:
        block, rest = order[:_NMS_BLOCK], order[_NMS_BLOCK:]
        # bit j of allowed[i]: block[j] may be kept alongside block[i]
        fits = np.zeros((len(block), _NMS_BLOCK), dtype=bool)
        np.less_equal(iou_matrix(boxes[block], boxes[block]), iou_threshold, out=fits[:, : len(block)])
        allowed = np.packbits(fits, axis=1, bitorder="little").view("<u8").ravel().tolist()
        alive = (1 << len(block)) - 1
        kept = []
        while alive and len(keep) + len(kept) < budget:
            i = (alive & -alive).bit_length() - 1  # lowest surviving position
            kept.append(i)
            alive &= allowed[i] & ~(1 << i)
        kept_ids = block[kept]
        keep.extend(kept_ids.tolist())
        if len(keep) == budget:
            break
        order = rest[(iou_matrix(boxes[kept_ids], boxes[rest]) <= iou_threshold).all(axis=0)]
    return keep


def project_roi(b: np.ndarray, stride: int):
    """Project image-space boxes (..., 4) onto a feature grid of the given stride.

    Returns integer cell bounds (x1, y1, x2, y2), each shaped like ``b[..., 0]``,
    with floor/ceil rounding; each side is forced to cover at least one cell
    so that arbitrarily small boxes still map to a usable region.
    """
    b = np.asarray(b, dtype=np.float64)
    x1 = np.floor(b[..., 0] / stride).astype(np.int64)
    y1 = np.floor(b[..., 1] / stride).astype(np.int64)
    x2 = np.maximum(np.ceil(b[..., 2] / stride).astype(np.int64), x1 + 1)
    y2 = np.maximum(np.ceil(b[..., 3] / stride).astype(np.int64), y1 + 1)
    return x1, y1, x2, y2
