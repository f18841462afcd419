"""Benchmark-protocol scoring, with difficulty splits by box height, plus
held-out AP and proposal recall of a model over toy scenes.

:func:`evaluate_dataset` scores detections in two steps.  ``_match`` greedily
matches each image's score-sorted detections to its ground truth under a
strict IoU criterion.  ``_report`` sweeps the globally score-sorted hits once
and reads both curves from the same cumulative TP/FP counts: precision-recall
points with all-points-interpolated AP, and cumulative-false-positive ROC
points.  Detections, like ground truth, pass :func:`~msfacedet.boxes.check_boxes`,
each with a finite score."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .boxes import check_boxes, iou_matrix, match_ground_truth
from .model import check_extents
from .rpn import DetectConfig, propose


@dataclass
class EvalConfig:
    iou_threshold: float = 0.5
    split_small_max: float = 24.0  # gt height < this  -> small
    split_medium_max: float = 64.0  # gt height < this -> medium, else large

    def validate(self):
        if not (0.0 < self.iou_threshold < 1.0):
            raise ValueError(f"iou_threshold {self.iou_threshold} outside (0, 1)")
        if not (0.0 < self.split_small_max < self.split_medium_max):
            raise ValueError("split thresholds must satisfy 0 < small < medium")


@dataclass
class EvalReport:
    pr_points: list  # (recall, precision) per prefix
    ap: float | None  # None when n_gt == 0 (undefined)
    roc_points: list  # (cumulative FP count, true-positive rate)
    n_gt: int
    n_det: int


@dataclass
class DatasetReport:
    overall: EvalReport
    splits: dict = field(default_factory=dict)  # name -> EvalReport


SPLIT_NAMES = ("small", "medium", "large")


def evaluate_dataset(dets_by_image: dict, gts_by_image: dict, cfg: EvalConfig = None) -> DatasetReport:
    """Score a detection set against annotations.

    ``dets_by_image`` maps image id -> (boxes (N, 4), N finite scores);
    ``gts_by_image`` maps image id -> boxes (G, 4); both kinds of box pass
    :func:`check_boxes`.  Detections are matched per image by ``_match``,
    then swept globally in descending score order by ``_report``; equal scores
    fall to the image that sorts first by id, then to the detection that
    comes first in its image's input.  Per-split reports reuse the overall
    matching: a detection matched to an out-of-split box is ignored there,
    an unmatched detection counts as a false positive in every split.
    """
    cfg = cfg or EvalConfig()
    cfg.validate()
    unknown = sorted(set(dets_by_image) - set(gts_by_image))
    if unknown:
        raise ValueError(f"detections reference unknown image {unknown[0]!r}")

    bounds = (cfg.split_small_max, cfg.split_medium_max)
    gt_counts = np.zeros(len(SPLIT_NAMES), dtype=np.int64)
    scores, det_split = [np.zeros(0)], [np.zeros(0, dtype=np.int64)]  # per image, in its score order
    for image_id in sorted(gts_by_image):
        gts = check_boxes(gts_by_image[image_id], f"image {image_id!r}", "ground-truth")
        gt_split = np.searchsorted(bounds, gts[:, 3] - gts[:, 1], side="right")
        gt_counts += np.bincount(gt_split, minlength=len(SPLIT_NAMES))
        boxes, image_scores = dets_by_image.get(image_id, (np.zeros((0, 4)), np.zeros(0)))
        boxes = check_boxes(boxes, f"image {image_id!r}", "detection")
        image_scores = np.asarray(image_scores, dtype=np.float64)
        if image_scores.shape != (len(boxes),) or not np.isfinite(image_scores).all():
            raise ValueError(
                f"image {image_id!r}: detection scores must be {len(boxes)} finite values; got {image_scores.shape}"
            )
        order = np.argsort(-image_scores, kind="stable")
        matched = _match(boxes[order], gts, cfg.iou_threshold)
        scores.append(image_scores[order])
        det_split.append(np.append(gt_split, -1)[matched])  # matched box's split; unmatched (-1) picks the -1

    det_split = np.concatenate(det_split)[np.argsort(-np.concatenate(scores), kind="stable")]
    overall = _report(det_split >= 0, int(gt_counts.sum()))
    splits = {
        name: _report(det_split[(det_split == k) | (det_split < 0)] == k, int(gt_counts[k]))
        for k, name in enumerate(SPLIT_NAMES)
    }
    return DatasetReport(overall=overall, splits=splits)


def _match(det_boxes: np.ndarray, gt_boxes: np.ndarray, iou_threshold: float) -> np.ndarray:
    """Each score-sorted detection's matched ground-truth index, -1 for none.

    Each detection claims the unclaimed box of highest IoU, provided the
    overlap strictly exceeds the threshold (IoU exactly at the threshold is a
    false positive); each box is claimed at most once.  The zero column of
    :func:`match_ground_truth` stays unclaimed, as the threshold is above 0,
    so an image without faces leaves every detection unmatched.
    """
    matched = np.full(det_boxes.shape[0], -1, dtype=np.int64)
    taken = np.zeros(gt_boxes.shape[0] + 1, dtype=bool)
    for i, row in enumerate(match_ground_truth(det_boxes, gt_boxes)[0]):
        row = np.where(taken, -1.0, row)
        j = int(row.argmax())
        if row[j] > iou_threshold:
            matched[i], taken[j] = j, True
    return matched


def _report(hits: np.ndarray, n_gt: int) -> EvalReport:
    """PR points, AP and ROC points of a score-sorted hit sequence, all read
    from one pair of cumulative TP/FP counts.

    AP replaces the precision at each recall level by the maximum precision
    at any recall >= it, then sums over recall increments.  Without ground
    truth both curves are empty and AP is undefined (None); without
    detections AP is 0.
    """
    if n_gt == 0:
        return EvalReport(pr_points=[], ap=None, roc_points=[], n_gt=0, n_det=hits.size)
    tp, fp = np.cumsum(hits), np.cumsum(~hits)
    recall, precision = tp / n_gt, tp / (tp + fp)
    mrec = np.concatenate([[0.0], recall])
    mpre = np.maximum.accumulate(np.concatenate([[1.0], precision])[::-1])[::-1]
    steps = np.flatnonzero(mrec[1:] != mrec[:-1]) + 1
    return EvalReport(
        pr_points=list(zip(recall.tolist(), precision.tolist())),
        ap=float(np.sum((mrec[steps] - mrec[steps - 1]) * mpre[steps])),
        roc_points=list(zip(fp.tolist(), recall.tolist())),
        n_gt=n_gt,
        n_det=hits.size,
    )


def evaluate_detector(model, scenes, cfg: EvalConfig = None, detect_cfg: DetectConfig = None) -> DatasetReport:
    """Score ``model.detect`` under ``detect_cfg`` over toy scenes, keeping
    every detection above face probability 0.05 so the score sweep covers the
    whole PR curve."""
    dets = {}
    for s in scenes:
        found = model.detect(s.image, s.width, s.height, detect_cfg, score_thresh=0.05)
        dets[s.name] = (np.array([d.box for d in found]).reshape(-1, 4), np.array([d.score for d in found]))
    return evaluate_dataset(dets, {s.name: s.gt_boxes for s in scenes}, cfg)


def proposal_recall(model, scenes, detect_cfg: DetectConfig) -> float:
    """Share of ground-truth faces overlapped at IoU > 0.5 by one of the
    proposals that ``detect_cfg`` selects (its ``post_nms_top_n`` best), run
    through the float64 ``model.forward`` as in training: the recall can differ
    by roundoff from that of the float32 proposals ``model.detect`` uses."""
    hits = total = 0
    for s in scenes:
        image = np.asarray(s.image, dtype=np.float64)
        _, logits, deltas, anchors = model.forward(image)[0]
        check_extents(image, s.width, s.height, f"scene {s.name}")
        gts = check_boxes(s.gt_boxes, f"scene {s.name}", "ground-truth")
        props = propose(logits, deltas, anchors, s.width, s.height, detect_cfg)
        boxes = np.array([p.box for p in props]).reshape(-1, 4)
        total += gts.shape[0]
        hits += int((iou_matrix(gts, boxes).max(axis=1, initial=0.0) > 0.5).sum())
    return hits / max(total, 1)


def _fmt_ap(ap) -> str:
    return "nan" if ap is None else f"{ap:.6f}"


def format_report(report: DatasetReport) -> str:
    """Plain-text report with named fields and PR/ROC point tables."""
    lines = [
        f"ap_overall {_fmt_ap(report.overall.ap)}",
        f"ap_small {_fmt_ap(report.splits['small'].ap)}",
        f"ap_medium {_fmt_ap(report.splits['medium'].ap)}",
        f"ap_large {_fmt_ap(report.splits['large'].ap)}",
        f"n_gt {report.overall.n_gt}",
        f"n_det {report.overall.n_det}",
        "PR",
    ]
    lines += [f"{r:.6f} {p:.6f}" for r, p in report.overall.pr_points]
    lines.append("ROC")
    lines += [f"{f} {t:.6f}" for f, t in report.overall.roc_points]
    return "\n".join(lines) + "\n"
