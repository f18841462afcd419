"""Regenerate the golden evaluation fixture with an independent reference.

Writes golden_annotations.txt, golden_dets/*.txt and golden_report.txt
into an output directory, tests/data by default.  The report is computed
here from scratch with plain-Python greedy matching and a max-scan AP, not
by the library under test; the committed fixture pins the library's
expected output bytes.

Run from the repository root:  python3 tests/make_golden.py [out_dir]
"""

import sys
from pathlib import Path

import numpy as np

DATA = Path(__file__).parent / "data"
IOU_THRESHOLD = 0.5
SMALL_MAX = 24.0
MEDIUM_MAX = 64.0


def ref_iou(a, b):
    ix = min(a[2], b[2]) - max(a[0], b[0])
    iy = min(a[3], b[3]) - max(a[1], b[1])
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter)


def ref_match(dets, gts):
    """Greedy matching, detections already sorted by descending score."""
    taken = [False] * len(gts)
    flags, heights = [], []
    for d in dets:
        best, best_iou = -1, 0.0
        for g, gt in enumerate(gts):
            if taken[g]:
                continue
            v = ref_iou(d, gt)
            if v > best_iou:
                best, best_iou = g, v
        if best >= 0 and best_iou > IOU_THRESHOLD:
            taken[best] = True
            flags.append(True)
            heights.append(gts[best][3] - gts[best][1])
        else:
            flags.append(False)
            heights.append(None)
    return flags, heights


def ref_ap(flags, n_gt):
    if n_gt == 0:
        return None
    if not flags:
        return 0.0
    tp = fp = 0
    recalls, precisions = [], []
    for f in flags:
        tp += 1 if f else 0
        fp += 0 if f else 1
        recalls.append(tp / n_gt)
        precisions.append(tp / (tp + fp))
    ap = 0.0
    prev_r = 0.0
    for i, r in enumerate(recalls):
        if r == prev_r:
            continue
        best_p = max(precisions[j] for j in range(len(recalls)) if recalls[j] >= r)
        ap += (r - prev_r) * best_p
        prev_r = r
    return ap


def split_of(h):
    if h < SMALL_MAX:
        return "small"
    if h < MEDIUM_MAX:
        return "medium"
    return "large"


def main(out_dir=DATA):
    out_dir = Path(out_dir)
    rng = np.random.default_rng(20240917)
    out_dir.mkdir(exist_ok=True)
    det_dir = out_dir / "golden_dets"
    det_dir.mkdir(exist_ok=True)

    ann_lines = []
    all_entries = []  # (score, image_rank, det_idx, flag, height)
    n_gt = 0
    gt_split_counts = {"small": 0, "medium": 0, "large": 0}

    for i in range(20):
        name = f"img_{i:02d}"
        n_faces = int(rng.integers(0, 5))
        gts = []
        for _ in range(n_faces):
            x = int(rng.integers(0, 90))
            y = int(rng.integers(0, 90))
            w = int(rng.integers(8, 70))
            h = int(rng.integers(8, 70))
            gts.append((float(x), float(y), float(x + w), float(y + h)))
        ann_lines.append(f"{name}.pgm")
        ann_lines.append(str(len(gts)))
        for g in gts:
            ann_lines.append(f"{int(g[0])} {int(g[1])} {int(g[2] - g[0])} {int(g[3] - g[1])}")
        n_gt += len(gts)
        for g in gts:
            gt_split_counts[split_of(g[3] - g[1])] += 1

        dets = []
        for g in gts:  # jittered copies of most boxes
            if rng.random() < 0.85:
                j = rng.uniform(-6, 6, size=4)
                box = (g[0] + j[0], g[1] + j[1], g[2] + j[2], g[3] + j[3])
                if box[2] - box[0] >= 2 and box[3] - box[1] >= 2:
                    dets.append((box, float(rng.uniform(0.5, 1.0))))
        for _ in range(int(rng.integers(0, 4))):  # noise detections
            x, y = rng.uniform(0, 90, size=2)
            w, h = rng.uniform(5, 50, size=2)
            dets.append(((float(x), float(y), float(x + w), float(y + h)), float(rng.uniform(0.0, 0.9))))
        dets.sort(key=lambda d: -d[1])
        with open(det_dir / f"{name}.txt", "w") as f:
            for box, score in dets:
                f.write(f"{box[0]:.6f} {box[1]:.6f} {box[2]:.6f} {box[3]:.6f} {score:.6f}\n")

        # reference matching on the values as they appear in the files
        file_dets = []
        for box, score in dets:
            file_dets.append(tuple(float(f"{v:.6f}") for v in box) + (float(f"{score:.6f}"),))
        flags, heights = ref_match([d[:4] for d in file_dets], gts)
        for idx, (d, fl, ht) in enumerate(zip(file_dets, flags, heights)):
            all_entries.append((d[4], i, idx, fl, ht))

    (out_dir / "golden_annotations.txt").write_text("\n".join(ann_lines) + "\n")

    all_entries.sort(key=lambda e: (-e[0], e[1], e[2]))
    flags = [e[3] for e in all_entries]
    ap_overall = ref_ap(flags, n_gt)

    split_aps = {}
    for name in ("small", "medium", "large"):
        kept = []
        for e in all_entries:
            if e[3]:
                if split_of(e[4]) == name:
                    kept.append(True)
            else:
                kept.append(False)
        split_aps[name] = ref_ap(kept, gt_split_counts[name])

    def fmt(ap):
        return "nan" if ap is None else f"{ap:.6f}"

    lines = [
        f"ap_overall {fmt(ap_overall)}",
        f"ap_small {fmt(split_aps['small'])}",
        f"ap_medium {fmt(split_aps['medium'])}",
        f"ap_large {fmt(split_aps['large'])}",
        f"n_gt {n_gt}",
        f"n_det {len(all_entries)}",
        "PR",
    ]
    tp = fp = 0
    for f in flags:
        tp += 1 if f else 0
        fp += 0 if f else 1
        lines.append(f"{tp / n_gt:.6f} {tp / (tp + fp):.6f}")
    lines.append("ROC")
    tp = fp = 0
    for f in flags:
        tp += 1 if f else 0
        fp += 0 if f else 1
        lines.append(f"{fp} {tp / n_gt:.6f}")
    (out_dir / "golden_report.txt").write_text("\n".join(lines) + "\n")
    print(f"golden fixture: {n_gt} boxes, {len(all_entries)} detections, ap={fmt(ap_overall)}")


if __name__ == "__main__":
    main(*sys.argv[1:])
