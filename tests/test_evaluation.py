import re
from pathlib import Path

import make_golden
import numpy as np
import pytest

from msfacedet import DetectConfig, ModelConfig, MultiScaleDetector, evaluate_dataset, generate_toy_dataset
from msfacedet.evaluation import SPLIT_NAMES, evaluate_detector, proposal_recall


def test_model_level_helpers():
    scenes = generate_toy_dataset(2, 64, (16, 32), seed=3)
    model = MultiScaleDetector(ModelConfig(), seed=0)
    recalls = [proposal_recall(model, scenes, DetectConfig(post_nms_top_n=k)) for k in (1, 5, 50, 300)]
    assert recalls == sorted(recalls) and recalls[-1] <= 1.0
    report = evaluate_detector(model, scenes)
    assert report.overall.n_gt == sum(len(s.gt_boxes) for s in scenes)
    assert report.overall.n_det == sum(len(model.detect(s.image, 64, 64, score_thresh=0.05)) for s in scenes)


def _random_dataset(rng):
    """Up to 6 images with 0-4 faces of every split, jittered and duplicated
    hits plus noise boxes; scores come from three levels half the time, so
    they tie within and across images."""
    gts, dets = {}, {}
    tied = rng.random() < 0.5
    for i in range(int(rng.integers(1, 7))):
        xy = rng.uniform(0, 60, size=(int(rng.integers(0, 5)), 2))
        gts[f"im{i}"] = np.concatenate([xy, xy + rng.uniform(8, 90, size=xy.shape)], axis=1)
        if rng.random() < 0.2:
            continue  # no detections for this image
        boxes = [g + rng.uniform(-6, 6, 4) for g in gts[f"im{i}"] if rng.random() < 0.8]
        boxes += [b + rng.uniform(-2, 2, 4) for b in boxes if rng.random() < 0.3]
        for _ in range(int(rng.integers(0, 4))):
            p = rng.uniform(0, 60, 2)
            boxes.append(np.concatenate([p, p + rng.uniform(4, 60, 2)]))
        scores = rng.choice([0.25, 0.5, 0.75], len(boxes)) if tied else rng.uniform(0, 1, len(boxes))
        dets[f"im{i}"] = (np.array(boxes).reshape(-1, 4), scores)
    return dets, gts


def _reference(dets, gts):
    """Overall AP, per-split AP and the overall hit sequence from the
    independent plain-Python scorer: ties in score fall to image id, then to
    input order."""
    entries, gt_counts = [], dict.fromkeys(SPLIT_NAMES, 0)
    for rank, name in enumerate(sorted(gts)):
        for g in gts[name]:
            gt_counts[make_golden.split_of(g[3] - g[1])] += 1
        boxes, scores = dets.get(name, (np.zeros((0, 4)), np.zeros(0)))
        order = sorted(range(len(scores)), key=lambda j: -scores[j])
        flags, heights = make_golden.ref_match([boxes[j].tolist() for j in order], gts[name].tolist())
        entries += [(scores[j], rank, j, f, h) for j, f, h in zip(order, flags, heights)]
    entries.sort(key=lambda e: (-e[0], e[1], e[2]))
    overall = make_golden.ref_ap([e[3] for e in entries], sum(gt_counts.values()))
    splits = {
        name: make_golden.ref_ap([e[3] for e in entries if not e[3] or make_golden.split_of(e[4]) == name], n)
        for name, n in gt_counts.items()
    }
    return overall, splits, [e[3] for e in entries]


def _prefix_curves(hits, n_gt):
    """(recall, precision) and (FP count, TP rate) after each prefix of
    ``hits``, counted in plain Python; both empty without ground truth."""
    if n_gt == 0:
        return [], []
    pr, roc, tp = [], [], 0
    for k, hit in enumerate(hits, start=1):
        tp += hit
        pr.append((tp / n_gt, tp / k))
        roc.append((k - tp, tp / n_gt))
    return pr, roc


@pytest.mark.parametrize("seed", range(40))
def test_evaluate_dataset_matches_the_reference_scorer(seed):
    dets, gts = _random_dataset(np.random.default_rng(seed))
    overall, splits, hits = _reference(dets, gts)
    report = evaluate_dataset(dets, gts)
    assert report.overall.ap == pytest.approx(overall, rel=1e-12, abs=1e-12)
    assert {k: r.ap for k, r in report.splits.items()} == pytest.approx(splits, rel=1e-12, abs=1e-12)
    assert report.overall.n_det == len(hits)
    pr, roc = _prefix_curves(hits, sum(len(g) for g in gts.values()))
    assert report.overall.pr_points.tolist() == pr
    assert report.overall.roc_points.tolist() == roc
    assert report.overall.pr_points.dtype.names == ("recall", "precision")
    assert report.overall.roc_points.dtype.names == ("fp", "tpr")
    assert report.overall.roc_points.fp.dtype == np.int64


def _not_boxes(shape):
    return rf"image 'a': detection boxes must be finite \(N, 4\); got {re.escape(str(shape))}"


def _no_extent(box):
    return rf"image 'a': detection box \[{', '.join(f'{v:.1f}' for v in box)}\] must have x2 > x1 and y2 > y1"


@pytest.mark.parametrize(
    "boxes, scores, message",
    [
        ([[0, 0, 10, 10], [20, 20, 30, 30]], [np.nan, 0.5], "image 'a'"),
        ([[0, 0, 10, 10], [20, 20, np.nan, 30]], [0.9, 0.5], "image 'a'"),
        ([[0, 0, 10, 10], [20, 20, np.inf, 30]], [0.9, 0.5], _not_boxes((2, 4))),
        ([0, 0, 10, 10], [0.9], _not_boxes((4,))),
        ([[0, 0, 10, 10, 0.9], [20, 20, 30, 30, 0.5]], [0.9, 0.5], _not_boxes((2, 5))),
        ([[0, 0, 10, 10], [20, 20, 30, 30], [40, 40, 50, 50]], [0.9, 0.5], "image 'a'"),
        ([[0, 0, 10, 10]], [0.9, 0.5], "image 'a'"),
        ([[0, 0, 10, 10], [10, 0, 0, 10]], [0.5, 0.9], _no_extent([10, 0, 0, 10])),
        ([[0, 0, 10, 10], [20, 30, 30, 20]], [0.5, 0.9], _no_extent([20, 30, 30, 20])),
        ([[0, 0, 10, 10], [20, 20, 20, 30]], [0.5, 0.9], _no_extent([20, 20, 20, 30])),
        ([[0, 0, 10, 10], [1, 2, 3]], [0.9, 0.5], _not_boxes("ragged or non-numeric rows")),
    ],
    ids=[
        "nan-score",
        "nan-box-corner",
        "inf-box-corner",
        "one-flat-box",
        "five-column-rows",
        "more-boxes-than-scores",
        "more-scores-than-boxes",
        "x-inverted-box",
        "y-inverted-box",
        "zero-width-box",
        "ragged-rows",
    ],
)
def test_evaluate_dataset_rejects_malformed_detections(boxes, scores, message):
    gts = {"a": np.array([[0.0, 0.0, 10.0, 10.0], [20.0, 20.0, 30.0, 30.0]])}
    with pytest.raises(ValueError, match=message):
        evaluate_dataset({"a": (boxes, np.array(scores))}, gts)


@pytest.mark.parametrize(
    "gt",
    [
        [[0, 0, 10, 10], [20, 20, 30, np.nan]],
        [[0, 0, 10, 10], [20, 20, np.inf, 30]],
        [0, 0, 10, 10],
        [[0, 0, 10, 10, 1]],
    ],
    ids=["nan-corner", "inf-corner", "one-flat-box", "five-column-row"],
)
def test_evaluate_dataset_rejects_malformed_ground_truth(gt):
    dets = {"a": (np.array([[0.0, 0.0, 10.0, 10.0]]), np.array([0.9]))}
    with pytest.raises(ValueError, match="image 'a'"):
        evaluate_dataset(dets, {"a": np.array(gt, dtype=np.float64)})


def test_golden_fixture_regenerates_byte_identical(tmp_path, capsys):
    make_golden.main(tmp_path)
    committed = Path(make_golden.DATA)
    names = sorted(p.relative_to(committed) for p in committed.rglob("*") if p.is_file())
    assert names == sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file())
    for name in names:
        assert (tmp_path / name).read_bytes() == (committed / name).read_bytes(), name
