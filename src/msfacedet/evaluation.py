"""Benchmark-protocol scoring: greedy IoU matching with a strict overlap
criterion, precision-recall curves with all-points-interpolated AP, and
cumulative-false-positive ROC curves, with difficulty splits by box height;
plus held-out AP and proposal recall of a model over toy scenes."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .boxes import iou_matrix
from .rpn import propose
from .training import pipeline_forward


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
    flags: np.ndarray  # bool TP flag per detection in the score sweep
    pr_points: list  # (recall, precision) per prefix
    ap: float | None  # None when n_gt == 0 (undefined)
    roc_points: list  # (cumulative FP count, true-positive rate)
    n_gt: int
    n_det: int


def match_detections(det_boxes: np.ndarray, gt_boxes: np.ndarray, iou_threshold: float):
    """Greedily match score-sorted detections to ground truth.

    Each detection claims the unmatched ground-truth box of highest IoU,
    provided the overlap strictly exceeds the threshold (IoU exactly at the
    threshold is a false positive); each box is claimed at most once.
    Returns (tp_flags, matched_gt_index) with -1 for unmatched detections.
    """
    det_boxes = np.asarray(det_boxes, dtype=np.float64).reshape(-1, 4)
    gt_boxes = np.asarray(gt_boxes, dtype=np.float64).reshape(-1, 4)
    n, g = det_boxes.shape[0], gt_boxes.shape[0]
    flags = np.zeros(n, dtype=bool)
    matched = np.full(n, -1, dtype=np.int64)
    if g == 0 or n == 0:
        return flags, matched
    ious = iou_matrix(det_boxes, gt_boxes)
    taken = np.zeros(g, dtype=bool)
    for i in range(n):
        row = np.where(taken, -1.0, ious[i])
        j = int(row.argmax())
        if row[j] > iou_threshold:
            flags[i] = True
            matched[i] = j
            taken[j] = True
    return flags, matched


def pr_curve_ap(flags: np.ndarray, n_gt: int):
    """Prefix precision/recall points and all-points-interpolated AP.

    AP replaces the precision at each recall level by the maximum precision
    at any recall >= it, then sums over recall increments.  Undefined (None)
    when there is no ground truth; 0 when there are no detections.
    """
    flags = np.asarray(flags, dtype=bool)
    if n_gt == 0:
        return [], None
    if flags.size == 0:
        return [], 0.0
    tp = np.cumsum(flags)
    fp = np.cumsum(~flags)
    recall = tp / n_gt
    precision = tp / (tp + fp)
    points = list(zip(recall.tolist(), precision.tolist()))
    mrec = np.concatenate([[0.0], recall])
    mpre = np.concatenate([[1.0], precision])
    for i in range(mpre.size - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    steps = np.flatnonzero(mrec[1:] != mrec[:-1]) + 1
    ap = float(np.sum((mrec[steps] - mrec[steps - 1]) * mpre[steps]))
    return points, ap


def roc_curve(flags: np.ndarray, n_gt: int):
    """Cumulative (false-positive count, true-positive rate) per detection."""
    flags = np.asarray(flags, dtype=bool)
    if n_gt == 0:
        return []
    tp = np.cumsum(flags)
    fp = np.cumsum(~flags)
    return [(int(f), t / n_gt) for f, t in zip(fp.tolist(), tp.tolist())]


def _report(flags: np.ndarray, n_gt: int, n_det: int) -> EvalReport:
    pr, ap = pr_curve_ap(flags, n_gt)
    return EvalReport(
        flags=np.asarray(flags, dtype=bool),
        pr_points=pr,
        ap=ap,
        roc_points=roc_curve(flags, n_gt),
        n_gt=n_gt,
        n_det=n_det,
    )


@dataclass
class DatasetReport:
    overall: EvalReport
    splits: dict = field(default_factory=dict)  # name -> EvalReport


SPLIT_NAMES = ("small", "medium", "large")


def evaluate_dataset(dets_by_image: dict, gts_by_image: dict, cfg: EvalConfig = None) -> DatasetReport:
    """Score a detection set against annotations.

    ``dets_by_image`` maps image id -> (boxes (N, 4), scores (N,));
    ``gts_by_image`` maps image id -> boxes (G, 4).  Detections are matched
    per image, then swept globally in descending score order.  Per-split
    reports reuse the overall matching: a detection matched to an
    out-of-split box is ignored there, an unmatched detection counts as a
    false positive in every split.
    """
    cfg = cfg or EvalConfig()
    cfg.validate()
    unknown = sorted(set(dets_by_image) - set(gts_by_image))
    if unknown:
        raise ValueError(f"detections reference unknown image {unknown[0]!r}")

    entries = []  # (score, image_rank, det_idx, tp, matched_height)
    n_gt = 0
    gt_split_counts = dict.fromkeys(SPLIT_NAMES, 0)

    def split_of(height: float) -> str:
        if height < cfg.split_small_max:
            return "small"
        if height < cfg.split_medium_max:
            return "medium"
        return "large"

    for rank, image_id in enumerate(sorted(gts_by_image)):
        gts = np.asarray(gts_by_image[image_id], dtype=np.float64).reshape(-1, 4)
        n_gt += gts.shape[0]
        for b in gts:
            gt_split_counts[split_of(b[3] - b[1])] += 1
        boxes, scores = dets_by_image.get(image_id, (np.zeros((0, 4)), np.zeros(0)))
        boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
        scores = np.asarray(scores, dtype=np.float64).reshape(-1)
        order = np.argsort(-scores, kind="stable")
        flags, matched = match_detections(boxes[order], gts, cfg.iou_threshold)
        for pos, det_idx in enumerate(order):
            height = gts[matched[pos], 3] - gts[matched[pos], 1] if matched[pos] >= 0 else None
            entries.append((float(scores[det_idx]), rank, int(det_idx), bool(flags[pos]), height))

    entries.sort(key=lambda e: (-e[0], e[1], e[2]))
    all_flags = np.array([e[3] for e in entries], dtype=bool)
    overall = _report(all_flags, n_gt, len(entries))

    splits = {}
    for name in SPLIT_NAMES:
        kept = []
        for e in entries:
            if e[3]:
                if split_of(e[4]) == name:
                    kept.append(True)
                # matched outside the split: ignored
            else:
                kept.append(False)
        splits[name] = _report(np.array(kept, dtype=bool), gt_split_counts[name], len(kept))
    return DatasetReport(overall=overall, splits=splits)


def evaluate_detector(model, scenes, cfg: EvalConfig = None, **detect_kwargs) -> DatasetReport:
    """Score ``model.detect`` over toy scenes, keeping every detection above
    face probability 0.05 so the score sweep covers the whole PR curve."""
    dets = {}
    for s in scenes:
        found = model.detect(s.image, s.image.shape[3], s.image.shape[2], score_thresh=0.05, **detect_kwargs)
        dets[s.name] = (np.array([d.box for d in found]).reshape(-1, 4), np.array([d.score for d in found]))
    return evaluate_dataset(dets, {s.name: s.gt_boxes for s in scenes}, cfg)


def proposal_recall(model, scenes, top_k: int | None = None) -> float:
    """Share of ground-truth faces overlapped at IoU > 0.5 by one of the
    first ``top_k`` proposals (all of them when None)."""
    hits = total = 0
    for s in scenes:
        st = pipeline_forward(model, s.image)
        props = propose(st.rpn_logits, st.rpn_deltas, st.anchors, s.image.shape[3], s.image.shape[2])
        boxes = np.array([p.box for p in props[:top_k]]).reshape(-1, 4)
        gts = np.asarray(s.gt_boxes, dtype=np.float64).reshape(-1, 4)
        total += gts.shape[0]
        if boxes.size and gts.size:
            hits += int((iou_matrix(gts, boxes).max(axis=1) > 0.5).sum())
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
