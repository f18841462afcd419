"""Checks on every output the benchmark receives from msfacedet.

Each check returns a list of problems; an empty list means the output is
valid.  A benchmark operation with any problem counts as failed.
"""

from __future__ import annotations

import math

import numpy as np

# slack for IoU recomputed here in a different operation order than nms()
IOU_SLACK = 1e-9


def check_detections(dets, img_w: float, img_h: float, score_thresh: float, nms_thresh: float) -> list[str]:
    """Boxes finite and inside the image, scores in (score_thresh, 1] and
    non-increasing, and no kept pair overlapping above ``nms_thresh``."""
    if not dets:
        return []
    from msfacedet.boxes import iou_matrix

    problems = []
    boxes = np.array([np.asarray(d.box, dtype=np.float64).reshape(4) for d in dets])
    scores = np.array([d.score for d in dets], dtype=np.float64)
    if not np.all(np.isfinite(boxes)):
        problems.append("non-finite box coordinate")
        return problems
    outside = (
        (boxes[:, 0] < 0.0)
        | (boxes[:, 1] < 0.0)
        | (boxes[:, 2] > img_w)
        | (boxes[:, 3] > img_h)
        | (boxes[:, 2] <= boxes[:, 0])
        | (boxes[:, 3] <= boxes[:, 1])
    )
    if outside.any():
        i = int(np.flatnonzero(outside)[0])
        problems.append(f"box {boxes[i].tolist()} outside the {img_w}x{img_h} image or empty")
    if not np.all((scores > score_thresh) & (scores <= 1.0)):
        problems.append(f"score outside ({score_thresh}, 1]: {scores.min()}..{scores.max()}")
    if np.any(np.diff(scores) > 0.0):
        problems.append("scores not in descending order")
    if len(dets) > 1:
        ious = iou_matrix(boxes, boxes)
        np.fill_diagonal(ious, 0.0)
        worst = float(ious.max())
        if worst > nms_thresh + IOU_SLACK:
            problems.append(f"kept boxes overlap at IoU {worst:.4f} > {nms_thresh}")
    return problems


def check_loss(iteration: int, comps: dict) -> list[str]:
    bad = {k: v for k, v in comps.items() if not math.isfinite(v)}
    return [f"iteration {iteration}: non-finite loss {bad}"] if bad else []
