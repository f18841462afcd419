"""Region proposal branch: anchors, objectness/delta head, proposal decoding
and anchor-to-ground-truth target assignment."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .boxes import clip_boxes, decode_deltas, encode_deltas, match_ground_truth, nms
from .detector import Detection, Targets
from .tensor import Params, conv2d, conv2d_backward, relu, relu_backward, softmax


class ConfigError(ValueError):
    """A config that cannot be built: a malformed file or a value out of range."""


class FieldError(ConfigError):
    """A field or argument outside its range, raised by the configs' range
    checks and :func:`require_int`.  The message is the field's name, a space
    and ``detail``."""

    def __init__(self, field: str, detail: str):
        super().__init__(f"{field} {detail}")
        self.field, self.detail = field, detail


def require_int(name: str, value, least: int):
    """Raise FieldError naming field ``name`` unless ``value`` is a non-bool integer >= ``least``."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= least):
        raise FieldError(name, f"{value!r}: only integers of at least {least} are allowed")


@dataclass(frozen=True)
class DetectConfig:
    """The six settings of the detection path, used alike in training and at
    test time: the first four select proposals (:func:`propose`), the last
    two threshold and suppress the per-region detections."""

    pre_nms_top_n: int = 2000
    post_nms_top_n: int = 300
    rpn_nms_thresh: float = 0.7
    min_size: float = 4.0
    score_thresh: float = 0.8
    det_nms_thresh: float = 0.3

    def __post_init__(self):
        # each range is written so that NaN fails it; the limits are slice bounds
        require_int("pre_nms_top_n", self.pre_nms_top_n, 1)
        require_int("post_nms_top_n", self.post_nms_top_n, 1)
        if not 0 < self.rpn_nms_thresh < 1:
            raise FieldError("rpn_nms_thresh", f"{self.rpn_nms_thresh} outside (0, 1)")
        if not 0 <= self.min_size < math.inf:
            raise FieldError("min_size", f"{self.min_size} outside [0, inf)")
        if not 0 <= self.score_thresh < 1:
            raise FieldError("score_thresh", f"{self.score_thresh} outside [0, 1)")
        if not 0 < self.det_nms_thresh < 1:
            raise FieldError("det_nms_thresh", f"{self.det_nms_thresh} outside (0, 1)")


def generate_anchors(feat_h: int, feat_w: int, scales, ratios, stride: int) -> np.ndarray:
    """All anchors for a feature grid at ``stride``, shape (feat_h * feat_w * k, 4).

    Every grid cell carries |scales| x |ratios| boxes: a (scale, ratio)
    anchor has area (scale * stride)^2 and aspect ratio h/w = ratio,
    centered on the cell's image-space center.  Enumeration order is
    row-major over cells, then ratios, then scales; anchors may extend
    beyond the image (clipping happens downstream).
    """
    shapes = []
    for ratio in ratios:
        for scale in scales:
            side = scale * stride
            w = side / np.sqrt(ratio)
            h = side * np.sqrt(ratio)
            shapes.append((w, h))
    shapes = np.asarray(shapes)  # (k, 2)
    ys = (np.arange(feat_h) + 0.5) * stride
    xs = (np.arange(feat_w) + 0.5) * stride
    cy, cx = np.meshgrid(ys, xs, indexing="ij")
    centers = np.stack([cx.ravel(), cy.ravel()], axis=1)  # (cells, 2) as (x, y)
    half = 0.5 * shapes
    boxes = np.empty((centers.shape[0], shapes.shape[0], 4))
    boxes[:, :, 0] = centers[:, None, 0] - half[None, :, 0]
    boxes[:, :, 1] = centers[:, None, 1] - half[None, :, 1]
    boxes[:, :, 2] = centers[:, None, 0] + half[None, :, 0]
    boxes[:, :, 3] = centers[:, None, 1] + half[None, :, 1]
    return boxes.reshape(-1, 4)


@dataclass
class RpnHead:
    """3x3 conv + ReLU trunk with sibling 1x1 objectness and delta convs."""

    conv: Params
    cls: Params
    bbox: Params


def rpn_forward(fused_map: np.ndarray, head: RpnHead):
    """Per-anchor objectness logits (A, 2) and deltas (A, 4) in anchor order.

    Each of the k anchors of a cell (k is half the ``head.cls`` outputs)
    owns one 2- (or 4-) channel block of the sibling convolutions; anchor a
    of cell (y, x) becomes row (y * W + x) * k + a.
    """
    k = head.cls.weight.data.shape[0] // 2
    t, c1 = conv2d(fused_map, head.conv)
    a, c2 = relu(t)
    logits, c3 = conv2d(a, head.cls)
    deltas, c4 = conv2d(a, head.bbox)
    h, w = logits.shape[2], logits.shape[3]
    lg = logits[0].reshape(k, 2, h, w).transpose(2, 3, 0, 1).reshape(-1, 2)
    dl = deltas[0].reshape(k, 4, h, w).transpose(2, 3, 0, 1).reshape(-1, 4)
    return (lg, dl), (c1, c2, c3, c4, k, h, w)


def rpn_backward(dlogits: np.ndarray, ddeltas: np.ndarray, cache) -> np.ndarray:
    """Gradient of the fused map from per-anchor row gradients."""
    c1, c2, c3, c4, k, h, w = cache
    dlmap = dlogits.reshape(h, w, k, 2).transpose(2, 3, 0, 1).reshape(1, 2 * k, h, w)
    ddmap = ddeltas.reshape(h, w, k, 4).transpose(2, 3, 0, 1).reshape(1, 4 * k, h, w)
    da = conv2d_backward(dlmap, c3) + conv2d_backward(ddmap, c4)
    dt = relu_backward(da, c2)
    return conv2d_backward(dt, c1)


def propose(
    logits: np.ndarray,
    deltas: np.ndarray,
    anchors: np.ndarray,
    img_w: float,
    img_h: float,
    cfg: DetectConfig,
) -> list[Detection]:
    """Turn per-anchor head outputs into a scored, NMS-filtered proposal list.

    ``cfg`` (a :class:`DetectConfig`) sets the selection: the
    ``pre_nms_top_n`` highest-scoring boxes that survive clipping and
    ``min_size`` enter NMS at ``rpn_nms_thresh``, which stops once it has kept
    ``post_nms_top_n`` of them.  Each proposal's score is its objectness,
    and its box a (4,) row of one (K, 4) float64 array of the kept boxes.
    Score ties fall back to anchor enumeration order, so the output is a pure
    function of its inputs.
    """
    scores = softmax(logits)[:, 1]
    boxes = decode_deltas(deltas, anchors)
    boxes, keep = clip_boxes(boxes, img_w, img_h)
    keep &= (boxes[:, 2] - boxes[:, 0] >= cfg.min_size) & (boxes[:, 3] - boxes[:, 1] >= cfg.min_size)
    idx = np.flatnonzero(keep)
    order = idx[np.argsort(-scores[idx], kind="stable")][: cfg.pre_nms_top_n]
    kept = order[nms(boxes[order], scores[order], cfg.rpn_nms_thresh, max_keep=cfg.post_nms_top_n)]
    return [Detection(box, score) for box, score in zip(boxes[kept], scores[kept].tolist())]


class TargetAssignmentError(RuntimeError):
    pass


RPN_POS_IOU = 0.7
RPN_NEG_IOU = 0.3
RPN_BATCH_SIZE = 256
RPN_MAX_POS = 128  # half the minibatch


def assign_rpn_targets(
    anchors: np.ndarray,
    gt_boxes: np.ndarray,
    rng: np.random.Generator,
    img_w: float,
    img_h: float,
) -> Targets:
    """Label anchors for training, as ``Targets(anchors, labels, target_deltas)``.

    Anchors crossing the image boundary are ignored.  An inside anchor is
    positive when its best IoU reaches ``RPN_POS_IOU`` or when it is the
    best anchor of some ground-truth box; negative when its best IoU is at
    most ``RPN_NEG_IOU``, so an image without faces labels every inside
    anchor negative.  The labelled set is subsampled to the minibatch size
    with positives capped at half.
    """
    a = anchors.shape[0]
    labels = np.full(a, -1, dtype=np.int64)
    target_deltas = np.zeros((a, 4))
    inside = np.flatnonzero(
        (anchors[:, 0] >= 0.0)
        & (anchors[:, 1] >= 0.0)
        & (anchors[:, 2] <= img_w)
        & (anchors[:, 3] <= img_h)
    )
    gt_boxes = np.asarray(gt_boxes, dtype=np.float64).reshape(-1, 4)
    if inside.size == 0:
        raise TargetAssignmentError("no anchors lie inside the image")

    ious, best_gt, best_iou = match_ground_truth(anchors[inside], gt_boxes)  # ious (I, G + 1)
    labels[inside[best_iou <= RPN_NEG_IOU]] = 0
    labels[inside[best_iou >= RPN_POS_IOU]] = 1
    # the best anchor of each ground-truth box is positive regardless
    per_gt_best = ious.max(axis=0)
    labels[inside[((ious == per_gt_best) & (per_gt_best > 0.0)).any(axis=1)]] = 1
    pos = np.flatnonzero(labels == 1)
    match = best_gt[np.searchsorted(inside, pos)]
    target_deltas[pos] = encode_deltas(gt_boxes[match], anchors[pos])
    neg = np.flatnonzero(labels == 0)
    if pos.size == 0 and neg.size == 0:
        raise TargetAssignmentError("no positive or negative anchors could be sampled")
    if pos.size > RPN_MAX_POS:
        labels[rng.choice(pos, size=pos.size - RPN_MAX_POS, replace=False)] = -1
    room = RPN_BATCH_SIZE - min(pos.size, RPN_MAX_POS)
    if neg.size > room:
        labels[rng.choice(neg, size=neg.size - room, replace=False)] = -1
    return Targets(anchors, labels, target_deltas)
