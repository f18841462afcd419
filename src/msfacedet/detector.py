"""Per-region detection branch: fused ROI descriptors through a small
fully-connected head, proposal-to-ground-truth target assignment and final
score thresholding + NMS."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boxes import clip_boxes, decode_deltas, encode_deltas, match_ground_truth, nms
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
class Targets:
    """One head's training targets, one row per reference box (the anchors or
    the sampled ROIs): a label (1 face, 0 background, -1 ignored) and the
    deltas to its ground truth, meaningful where the label is 1."""

    rois: np.ndarray  # (R, 4)
    labels: np.ndarray  # (R,)
    target_deltas: np.ndarray  # (R, 4)

    @property
    def n_pos(self) -> int:
        return int((self.labels == 1).sum())

    @property
    def n_neg(self) -> int:
        return int((self.labels == 0).sum())


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


DET_FG_IOU = 0.5
DET_BG_IOU_LO = 0.1
DET_BATCH_SIZE = 128
DET_MAX_POS = 32  # quarter of the minibatch


def assign_detection_targets(
    proposals: np.ndarray,
    gt_boxes: np.ndarray,
    rng: np.random.Generator,
) -> Targets:
    """Sample training ROIs from the proposals with the ground-truth boxes
    appended after them, as in Fast R-CNN.

    A ROI is a face when its best IoU reaches ``DET_FG_IOU``, background
    when the best IoU falls in [DET_BG_IOU_LO, DET_FG_IOU), and discarded
    otherwise; when no background candidates exist the discarded pool fills
    in so the minibatch never ends up positive-only by accident.
    """
    gt_boxes = np.asarray(gt_boxes, dtype=np.float64).reshape(-1, 4)
    rois = np.vstack([np.asarray(proposals, dtype=np.float64).reshape(-1, 4), gt_boxes])
    _, best_gt, max_iou = match_ground_truth(rois, gt_boxes)
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
    return Targets(rois[idx], labels, deltas)


def postprocess_detections(
    logits: np.ndarray,
    deltas: np.ndarray,
    rois: np.ndarray,
    img_w: float,
    img_h: float,
    cfg,
) -> list[Detection]:
    """Refine ROIs with predicted deltas, keep face probabilities above
    ``cfg.score_thresh`` and suppress at ``cfg.det_nms_thresh``, where ``cfg``
    is the ``DetectConfig`` that :func:`~msfacedet.rpn.propose` validated."""
    rois = np.asarray(rois, dtype=np.float64).reshape(-1, 4)
    scores = softmax(logits)[:, 1]
    boxes = decode_deltas(deltas, rois)
    boxes, keep = clip_boxes(boxes, img_w, img_h)
    keep &= scores > cfg.score_thresh
    idx = np.flatnonzero(keep)
    kept = idx[nms(boxes[idx], scores[idx], cfg.det_nms_thresh)]
    return [Detection(box=boxes[i].copy(), score=float(scores[i])) for i in kept]
