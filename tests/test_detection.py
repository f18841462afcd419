import numpy as np
import pytest

from msfacedet.boxes import clip_boxes, decode_deltas, iou_matrix, nms
from msfacedet.detector import (
    DET_BATCH_SIZE,
    DET_MAX_POS,
    Targets,
    assign_detection_targets,
    postprocess_detections,
)
from msfacedet.model import ModelConfig, MultiScaleDetector
from msfacedet.rpn import DetectConfig
from msfacedet.tensor import softmax


def tiny_model(seed=0, mode="multi"):
    return MultiScaleDetector(
        ModelConfig(roi_pool_size=3, anchor_scales=(1.0,), anchor_ratios=(1.0, 1.3), fusion_mode=mode),
        seed=seed,
        stage_channels=(2, 2, 3, 3, 3),
        rpn_channels=4,
        head_width=8,
    )


class TestDetectionForward:
    mode = "multi"

    def test_shapes_one_proposal(self):
        model = tiny_model(mode=self.mode)
        taps, _ = model.backbone_forward(np.random.default_rng(0).uniform(size=(1, 1, 32, 32)))
        (logits, deltas), _ = model.roi_forward(taps, np.array([[4.0, 4.0, 20.0, 24.0]]))
        assert logits.shape == (1, 2)
        assert deltas.shape == (1, 4)

    def test_identical_proposals_identical_outputs(self):
        model = tiny_model(1, self.mode)
        taps, _ = model.backbone_forward(np.random.default_rng(1).uniform(size=(1, 1, 32, 32)))
        rois = np.array([[2.0, 3.0, 18.0, 22.0], [2.0, 3.0, 18.0, 22.0]])
        (logits, deltas), _ = model.roi_forward(taps, rois)
        assert np.array_equal(logits[0], logits[1])
        assert np.array_equal(deltas[0], deltas[1])

    def test_batch_equals_per_proposal(self):
        model = tiny_model(2, self.mode)
        taps, _ = model.backbone_forward(np.random.default_rng(2).uniform(size=(1, 1, 32, 32)))
        rois = np.array([[1.0, 1.0, 15.0, 17.0], [8.0, 4.0, 30.0, 28.0], [12.0, 12.0, 16.0, 16.0]])
        (batch_lg, batch_dl), _ = model.roi_forward(taps, rois)
        for i, roi in enumerate(rois):
            (lg, dl), _ = model.roi_forward(taps, roi.reshape(1, 4))
            assert np.allclose(lg[0], batch_lg[i])
            assert np.allclose(dl[0], batch_dl[i])

    def test_empty_proposals_empty_outputs(self):
        model = tiny_model(3, self.mode)
        taps, _ = model.backbone_forward(np.random.default_rng(3).uniform(size=(1, 1, 32, 32)))
        (logits, deltas), cache = model.roi_forward(taps, np.zeros((0, 4)))
        assert logits.shape == (0, 2)
        assert deltas.shape == (0, 4)
        model.zero_grads()
        tap_grads = model.roi_backward(np.zeros((0, 2)), np.zeros((0, 4)), cache)
        assert not any(g.any() for g in tap_grads.values())
        assert not any(t.grad.any() for t in model.params().values())


class TestDetectionForwardTap5(TestDetectionForward):
    mode = "tap5"


class TestAssignDetectionTargets:
    def _gt(self):
        return np.array([[10.0, 10.0, 40.0, 40.0]])

    def test_gt_proposal_is_face_with_zero_deltas(self):
        gt = self._gt()
        t = assign_detection_targets(np.array([[60.0, 60.0, 90.0, 90.0]]), gt, np.random.default_rng(0))
        gt_pos = np.flatnonzero((t.rois == gt[0]).all(axis=1))
        assert t.labels[gt_pos] == 1
        assert np.allclose(t.target_deltas[gt_pos], 0.0)

    def test_band_rules(self):
        gt = self._gt()
        near = np.array([12.0, 12.0, 40.0, 40.0])  # IoU ~0.87 -> face
        mid = np.array([25.0, 25.0, 55.0, 55.0])  # IoU ~0.14 -> background
        far = np.array([80.0, 80.0, 110.0, 110.0])  # IoU 0 -> discarded
        assert iou_matrix(near, gt)[0, 0] >= 0.5
        assert 0.1 <= iou_matrix(mid, gt)[0, 0] < 0.5
        t = assign_detection_targets(np.vstack([near, mid, far]), gt, np.random.default_rng(1))
        picked = dict(zip(map(tuple, t.rois.tolist()), t.labels.tolist()))
        assert picked[tuple(near)] == 1
        assert picked[tuple(mid)] == 0
        assert tuple(far) not in picked
        assert picked[tuple(gt[0])] == 1

    def test_background_fallback_from_discarded(self):
        gt = self._gt()
        proposals = np.array([[100.0, 100.0, 120.0, 120.0]])  # IoU 0 only
        t = assign_detection_targets(proposals, gt, np.random.default_rng(2))
        assert (t.labels == 0).sum() >= 1  # filled from the discarded pool

    def test_caps(self):
        rng = np.random.default_rng(3)
        xy = rng.uniform(0, 90, size=(400, 2))
        t = assign_detection_targets(np.hstack([xy, xy + 30]), self._gt(), rng)
        assert t.rois.shape == (t.labels.size, 4) and t.labels.size <= DET_BATCH_SIZE
        assert t.n_pos <= DET_MAX_POS

    def test_every_gt_box_is_appended_as_a_face_with_zero_deltas(self):
        # three faces and no proposal near any of them: each face is sampled
        # only because it is appended, once, after the proposals
        gt = np.array([[10.0, 10.0, 40.0, 40.0], [50.0, 10.0, 70.0, 30.0], [20.0, 60.0, 60.0, 100.0]])
        proposals = np.array([[100.0, 100.0, 120.0, 120.0], [0.0, 0.0, 9.0, 9.0]])
        t = assign_detection_targets(proposals, gt, np.random.default_rng(4))
        assert t.n_pos == len(gt) <= DET_MAX_POS
        for box in gt:
            rows = np.flatnonzero((t.rois == box).all(axis=1))
            assert rows.size == 1, box
            assert t.labels[rows[0]] == 1
            assert not t.target_deltas[rows[0]].any()
        assert {tuple(r) for r in t.rois[t.labels == 0].tolist()} == {tuple(r) for r in proposals.tolist()}

    @pytest.mark.parametrize("n", [1, 60, 300])
    def test_without_faces_every_roi_is_a_background_proposal(self, n):
        rng = np.random.default_rng(n)
        xy = rng.uniform(0, 90, size=(n, 2))
        proposals = np.hstack([xy, xy + rng.uniform(4, 40, size=xy.shape)])
        t = assign_detection_targets(proposals, np.zeros((0, 4)), rng)
        assert t.labels.size == min(n, DET_BATCH_SIZE)
        assert not t.labels.any() and not t.target_deltas.any()
        assert (t.rois[:, None, :] == proposals[None, :, :]).all(axis=2).any(axis=1).all()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_counts_are_read_from_the_labels(self, seed):
        rng = np.random.default_rng(seed)
        gt = np.array([[10.0, 10.0, 40.0, 40.0], [50.0, 50.0, 90.0, 96.0]])
        xy = rng.uniform(0, 90, size=(50 + 100 * seed, 2))
        t = assign_detection_targets(np.hstack([xy, xy + rng.uniform(10, 50, size=xy.shape)]), gt, rng)
        assert t.rois.shape == t.target_deltas.shape == (t.labels.size, 4)
        assert t.n_pos == (t.labels == 1).sum() > 0
        assert t.n_neg == (t.labels == 0).sum() > 0
        assert t.n_pos + t.n_neg == t.labels.size <= DET_BATCH_SIZE


def test_targets_store_no_count():
    t = Targets(np.zeros((4, 4)), np.array([1, -1, 0, 0]), np.zeros((4, 4)))
    assert (t.n_pos, t.n_neg) == (1, 2)
    t.labels[1] = 1
    assert (t.n_pos, t.n_neg) == (2, 2)
    with pytest.raises(AttributeError):
        t.n_pos = 5


class TestPostprocess:
    def _inputs(self, seed, n=40):
        rng = np.random.default_rng(seed)
        xy = rng.uniform(0, 80, size=(n, 2))
        wh = rng.uniform(5, 30, size=(n, 2))
        rois = np.hstack([xy, xy + wh])
        logits = rng.standard_normal((n, 2))
        deltas = 0.1 * rng.standard_normal((n, 4))
        return logits, deltas, rois

    def test_all_below_threshold_empty(self):
        logits, deltas, rois = self._inputs(0)
        logits[:, 1] = logits[:, 0] - 10.0  # face prob ~ 0
        assert postprocess_detections(logits, deltas, rois, 100, 100, DetectConfig(score_thresh=0.5)) == []

    def test_dominant_proposal_zero_deltas(self):
        rois = np.array([[10.0, 10.0, 30.0, 30.0], [50.0, 50.0, 70.0, 70.0]])
        logits = np.array([[0.0, 8.0], [0.0, -8.0]])
        dets = postprocess_detections(logits, np.zeros((2, 4)), rois, 100, 100, DetectConfig(score_thresh=0.5))
        assert len(dets) == 1
        assert np.allclose(dets[0].box, rois[0])

    def test_matches_compositional_reference(self):
        for seed in range(40):
            logits, deltas, rois = self._inputs(seed)
            tied = seed >= 20
            if tied:
                logits = np.round(logits, 1)  # scores tie within and across rows
            cfg = DetectConfig(score_thresh=0.3, det_nms_thresh=0.4)
            dets = postprocess_detections(logits, deltas, rois, 100, 100, cfg)
            scores = softmax(logits)[:, 1]
            boxes, keep = clip_boxes(decode_deltas(deltas, rois), 100, 100)
            keep &= scores > 0.3
            idx = np.flatnonzero(keep)
            order = idx[np.argsort(-scores[idx], kind="stable")]
            kept = nms(boxes[order], scores[order], 0.4)
            assert len(dets) == len(kept)
            for d, i in zip(dets, kept):
                assert np.allclose(d.box, boxes[order[i]])
                assert d.score == pytest.approx(scores[order[i]])
                if tied:
                    assert np.array_equal(d.box, boxes[order[i]]) and d.score == scores[order[i]]

    def test_scores_strictly_exceed_threshold_and_antichain(self):
        logits, deltas, rois = self._inputs(7, n=80)
        cfg = DetectConfig(score_thresh=0.4, det_nms_thresh=0.35)
        dets = postprocess_detections(logits, deltas, rois, 100, 100, cfg)
        assert all(d.score > 0.4 for d in dets)
        boxes = np.array([d.box for d in dets])
        if len(boxes) > 1:
            m = iou_matrix(boxes, boxes)
            np.fill_diagonal(m, 0.0)
            assert m.max() <= 0.35
