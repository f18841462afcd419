"""Per-region detection branch: fused ROI descriptors through a small
fully-connected head, proposal-to-ground-truth target assignment and final
score thresholding + NMS."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boxes import clip_boxes, decode_deltas, encode_deltas, iou_matrix, nms
from .fusion import ms_roi_pool_batch, ms_roi_pool_batch_backward
from .tensor import (
    Params,
    fully_connected,
    fully_connected_backward,
    relu,
    relu_backward,
    softmax,
)


@dataclass
class Detection:
    box: np.ndarray
    score: float


@dataclass
class DetHead:
    fc1: Params
    fc2: Params
    cls: Params
    bbox: Params


def detection_forward(taps: dict, rois: np.ndarray, head: DetHead, norms, shrink, pool_size: int):
    """Class logits (R, 2) and box deltas (R, 4) for every ROI.

    Each ROI gets a fused fixed-size descriptor via multi-scale ROI pooling,
    then two ReLU fully-connected layers and sibling output layers.  An empty
    ROI stack takes the same path.
    """
    rois = np.asarray(rois, dtype=np.float64).reshape(-1, 4)
    fused, pool_cache = ms_roi_pool_batch(taps, rois, norms, shrink, pool_size)
    flat = fused.reshape(len(rois), head.fc1.weight.data.shape[0])
    h1, c1 = fully_connected(flat, head.fc1)
    a1, r1 = relu(h1)
    h2, c2 = fully_connected(a1, head.fc2)
    a2, r2 = relu(h2)
    logits, c3 = fully_connected(a2, head.cls)
    deltas, c4 = fully_connected(a2, head.bbox)
    cache = (pool_cache, fused.shape, c1, r1, c2, r2, c3, c4)
    return (logits, deltas), cache


def detection_backward(dlogits: np.ndarray, ddeltas: np.ndarray, cache) -> dict:
    """Backprop the head and pooled fusion; returns the ``{name: (1, C, H, W)
    grad}`` of each tap the forward pooled."""
    pool_cache, fused_shape, c1, r1, c2, r2, c3, c4 = cache
    da2 = fully_connected_backward(dlogits, c3) + fully_connected_backward(ddeltas, c4)
    dh2 = relu_backward(da2, r2)
    da1 = fully_connected_backward(dh2, c2)
    dh1 = relu_backward(da1, r1)
    dflat = fully_connected_backward(dh1, c1)
    return ms_roi_pool_batch_backward(dflat.reshape(fused_shape), pool_cache)


@dataclass
class DetTargets:
    roi_indices: np.ndarray  # indices into the augmented ROI list
    labels: np.ndarray  # 1 face / 0 background per sampled ROI
    target_deltas: np.ndarray  # (S, 4), rows meaningful where labels == 1
    n_pos: int = 0


DET_FG_IOU = 0.5
DET_BG_IOU_LO = 0.1
DET_BATCH_SIZE = 128
DET_MAX_POS = 32  # quarter of the minibatch


def assign_detection_targets(
    rois: np.ndarray,
    gt_boxes: np.ndarray,
    rng: np.random.Generator,
) -> DetTargets:
    """Sample training ROIs from a proposal list already augmented with the
    ground-truth boxes.

    A ROI is a face when its best IoU reaches ``DET_FG_IOU``, background
    when the best IoU falls in [DET_BG_IOU_LO, DET_FG_IOU), and discarded
    otherwise; when no background candidates exist the discarded pool fills
    in so the minibatch never ends up positive-only by accident.
    """
    rois = np.asarray(rois, dtype=np.float64).reshape(-1, 4)
    gt_boxes = np.asarray(gt_boxes, dtype=np.float64).reshape(-1, 4)
    n = rois.shape[0]
    if gt_boxes.shape[0] == 0:
        max_iou = np.zeros(n)
        best_gt = np.zeros(n, dtype=np.int64)
    else:
        ious = iou_matrix(rois, gt_boxes)
        best_gt = ious.argmax(axis=1)
        max_iou = ious[np.arange(n), best_gt]
    fg = np.flatnonzero(max_iou >= DET_FG_IOU)
    bg = np.flatnonzero((max_iou >= DET_BG_IOU_LO) & (max_iou < DET_FG_IOU))
    discarded = np.flatnonzero(max_iou < DET_BG_IOU_LO)

    n_pos = min(DET_MAX_POS, fg.size)
    pos = rng.choice(fg, size=n_pos, replace=False) if fg.size > n_pos else fg
    room = DET_BATCH_SIZE - pos.size
    if bg.size == 0:
        bg = discarded
    neg = rng.choice(bg, size=room, replace=False) if bg.size > room else bg

    idx = np.concatenate([pos, neg]).astype(np.int64)
    labels = np.concatenate([np.ones(pos.size, dtype=np.int64), np.zeros(neg.size, dtype=np.int64)])
    deltas = np.zeros((idx.size, 4))
    deltas[: pos.size] = encode_deltas(gt_boxes[best_gt[pos]], rois[pos])
    return DetTargets(roi_indices=idx, labels=labels, target_deltas=deltas, n_pos=int(pos.size))


def postprocess_detections(
    logits: np.ndarray,
    deltas: np.ndarray,
    rois: np.ndarray,
    score_thresh: float,
    nms_thresh: float,
    img_w: float,
    img_h: float,
) -> list[Detection]:
    """Refine ROIs with predicted deltas, threshold on face probability and NMS."""
    rois = np.asarray(rois, dtype=np.float64).reshape(-1, 4)
    scores = softmax(logits)[:, 1]
    boxes = decode_deltas(deltas, rois)
    boxes, keep = clip_boxes(boxes, img_w, img_h)
    keep &= scores > score_thresh
    idx = np.flatnonzero(keep)
    kept = idx[nms(boxes[idx], scores[idx], nms_thresh)]
    return [Detection(box=boxes[i].copy(), score=float(scores[i])) for i in kept]
