import numpy as np
import pytest

from msfacedet.boxes import clip_boxes, decode_deltas, iou_matrix, nms
from msfacedet.rpn import (
    RPN_POS_IOU,
    RpnHead,
    TargetAssignmentError,
    assign_rpn_targets,
    generate_anchors,
    propose,
    rpn_forward,
)
from msfacedet.model import ModelConfig
from msfacedet.tensor import ConvParams, Tensor, conv2d, make_conv, relu, softmax


class TestGenerateAnchors:
    def test_count(self):
        anchors = generate_anchors(10, 10, (1.0, 2.0, 3.0), (0.5, 1.0, 2.0), 16)
        assert anchors.shape == (900, 4)

    def test_square_anchor_geometry(self):
        a = generate_anchors(1, 1, (2.0,), (1.0,), 16)[0]
        # centered on the first cell center (8, 8), side 32
        assert np.allclose(a, [8 - 16, 8 - 16, 8 + 16, 8 + 16])

    def test_area_and_ratio(self):
        scales, ratios = (1.5, 3.0), (0.8, 1.3)
        anchors = generate_anchors(2, 3, scales, ratios, 16)
        k = len(scales) * len(ratios)
        for idx, (ratio, scale) in enumerate((r, s) for r in ratios for s in scales):
            box = anchors[idx]
            w, h = box[2] - box[0], box[3] - box[1]
            assert h / w == pytest.approx(ratio)
            assert w * h == pytest.approx((scale * 16) ** 2)
        assert anchors.shape == (2 * 3 * k, 4)

    def test_translation_between_rows(self):
        cfg = ModelConfig()
        anchors = generate_anchors(4, 5, cfg.anchor_scales, cfg.anchor_ratios, 16)
        anchors = anchors.reshape(4, 5, cfg.anchors_per_cell, 4)
        shifted = anchors[0, 2] + np.array([0.0, 16.0, 0.0, 16.0])
        assert np.allclose(anchors[1, 2], shifted)

    def test_byte_identical_across_runs(self):
        cfg = ModelConfig()
        a = generate_anchors(6, 6, cfg.anchor_scales, cfg.anchor_ratios, 16)
        b = generate_anchors(6, 6, cfg.anchor_scales, cfg.anchor_ratios, 16)
        assert a.tobytes() == b.tobytes()


def _head(rng, in_c=3, mid=4, k=2):
    return RpnHead(
        conv=make_conv(rng, mid, in_c, 3),
        cls=make_conv(rng, 2 * k, mid, 1, pad=0),
        bbox=make_conv(rng, 4 * k, mid, 1, pad=0),
    )


class TestRpnForward:
    def test_output_shapes(self):
        rng = np.random.default_rng(0)
        head = _head(rng)
        fused = rng.standard_normal((1, 3, 5, 5))
        (logits, deltas), _ = rpn_forward(fused, head)
        assert logits.shape == (5 * 5 * 2, 2)
        assert deltas.shape == (5 * 5 * 2, 4)

    def test_rows_follow_anchor_order(self):
        rng = np.random.default_rng(2)
        head = _head(rng, k=3)
        fused = rng.standard_normal((1, 3, 4, 5))
        (logits, deltas), _ = rpn_forward(fused, head)
        a = relu(conv2d(fused, head.conv)[0])[0]
        lmap, dmap = conv2d(a, head.cls)[0][0], conv2d(a, head.bbox)[0][0]
        for y, x, j in [(0, 0, 0), (1, 3, 2), (3, 4, 1)]:
            row = (y * 5 + x) * 3 + j
            assert np.array_equal(logits[row], lmap[2 * j : 2 * j + 2, y, x])
            assert np.array_equal(deltas[row], dmap[4 * j : 4 * j + 4, y, x])

    def test_zeroed_head_gives_uniform_objectness(self):
        rng = np.random.default_rng(1)
        head = _head(rng)
        for conv in (head.cls, head.bbox):
            conv.weight.data[...] = 0.0
            conv.bias.data[...] = 0.0
        fused = rng.standard_normal((1, 3, 4, 4))
        (logits, _), _ = rpn_forward(fused, head)
        probs = softmax(logits)
        assert np.allclose(probs, 0.5)


def reference_propose(logits_rows, delta_rows, anchors, w, h, pre, post, thresh, min_size):
    scores = softmax(logits_rows)[:, 1]
    boxes = decode_deltas(delta_rows, anchors)
    boxes, keep = clip_boxes(boxes, w, h)
    keep &= (boxes[:, 2] - boxes[:, 0] >= min_size) & (boxes[:, 3] - boxes[:, 1] >= min_size)
    idx = np.flatnonzero(keep)
    order = idx[np.argsort(-scores[idx], kind="stable")][:pre]
    kept = nms(boxes[order], scores[order], thresh)[:post]
    return [(order[i], boxes[order[i]], scores[order[i]]) for i in kept]


class TestPropose:
    def _inputs(self, seed, a=30):
        rng = np.random.default_rng(seed)
        xy = rng.uniform(0, 80, size=(a, 2))
        wh = rng.uniform(4, 40, size=(a, 2))
        anchors = np.hstack([xy, xy + wh])
        logits = rng.standard_normal((a, 2))
        deltas = 0.2 * rng.standard_normal((a, 4))
        return logits, deltas, anchors

    def test_equal_logits_fall_back_to_anchor_order(self):
        anchors = generate_anchors(2, 2, (1.0,), (1.0,), 16)
        logits = np.zeros((4, 2))
        deltas = np.zeros((4, 4))
        props = propose(logits, deltas, anchors, 32, 32, nms_thresh=0.9)
        got = np.stack([p.box for p in props])
        assert np.allclose(got, anchors)

    def test_dominant_anchor_is_first(self):
        anchors = generate_anchors(2, 2, (1.0,), (1.0,), 16)
        logits = np.zeros((4, 2))
        logits[2, 1] = 5.0
        props = propose(logits, np.zeros((4, 4)), anchors, 32, 32)
        assert np.allclose(props[0].box, anchors[2])
        assert props[0].objectness > 0.9

    def test_matches_compositional_reference(self):
        for seed in range(20):
            logits, deltas, anchors = self._inputs(seed)
            props = propose(
                logits, deltas, anchors, 100, 100, pre_nms_top_n=20, post_nms_top_n=10,
                nms_thresh=0.5, min_size=4.0,
            )
            ref = reference_propose(logits, deltas, anchors, 100, 100, 20, 10, 0.5, 4.0)
            assert len(props) == len(ref)
            for p, (_, box, score) in zip(props, ref):
                assert np.allclose(p.box, box)
                assert p.objectness == pytest.approx(score)

    def test_respects_post_nms_cap_and_antichain(self):
        logits, deltas, anchors = self._inputs(99, a=120)
        props = propose(logits, deltas, anchors, 100, 100, post_nms_top_n=15, nms_thresh=0.4)
        assert len(props) <= 15
        boxes = np.stack([p.box for p in props])
        m = iou_matrix(boxes, boxes)
        np.fill_diagonal(m, 0.0)
        assert m.max() <= 0.4


class TestAssignRpnTargets:
    def _anchors(self):
        return generate_anchors(8, 8, (1.0, 2.0), (1.0,), 16)

    def test_anchor_equal_to_gt_is_positive_with_zero_deltas(self):
        anchors = self._anchors()
        gt = anchors[68:69].copy()  # an interior anchor box
        rng = np.random.default_rng(0)
        t = assign_rpn_targets(anchors, gt, rng, 128, 128)
        assert t.labels[68] == 1
        assert np.allclose(t.target_deltas[68], 0.0)

    def test_low_iou_argmax_anchor_still_positive(self):
        anchors = generate_anchors(8, 8, (1.0,), (1.0,), 16)
        gt = np.array([[60.0, 60.0, 68.0, 68.0]])  # 8 px face, best IoU ~0.25
        rng = np.random.default_rng(1)
        t = assign_rpn_targets(anchors, gt, rng, 128, 128)
        best = iou_matrix(anchors, gt)[:, 0].argmax()
        assert iou_matrix(anchors, gt)[best, 0] < 0.5
        assert t.labels[best] == 1

    def test_low_iou_anchor_is_negative(self):
        anchors = self._anchors()
        gt = np.array([[0.0, 0.0, 20.0, 20.0]])
        rng = np.random.default_rng(2)
        t = assign_rpn_targets(anchors, gt, rng, 128, 128)
        ious = iou_matrix(anchors, gt)[:, 0]
        far = np.flatnonzero((ious < 0.05) & (t.labels >= 0))
        assert far.size
        assert np.all(t.labels[far] == 0)

    def test_boundary_crossing_anchors_ignored(self):
        anchors = self._anchors()
        rng = np.random.default_rng(3)
        t = assign_rpn_targets(anchors, np.array([[40.0, 40.0, 70.0, 70.0]]), rng, 128, 128)
        outside = (
            (anchors[:, 0] < 0) | (anchors[:, 1] < 0) | (anchors[:, 2] > 128) | (anchors[:, 3] > 128)
        )
        assert np.all(t.labels[outside] == -1)

    def test_every_gt_gets_a_positive(self):
        anchors = self._anchors()
        rng = np.random.default_rng(4)
        gt = np.array([[10.0, 10.0, 30.0, 32.0], [70.0, 64.0, 110.0, 118.0], [40.0, 90.0, 56.0, 110.0]])
        t = assign_rpn_targets(anchors, gt, rng, 128, 128)
        pos = np.flatnonzero(t.labels == 1)
        assert pos.size
        ious = iou_matrix(anchors[pos], gt)
        assert np.all(ious.max(axis=0) > 0.0)
        for g in range(len(gt)):
            assert ious[:, g].max() == iou_matrix(anchors, gt)[:, g].max()

    def test_every_positive_satisfies_the_rule(self):
        anchors = self._anchors()
        rng = np.random.default_rng(5)
        gt = np.array([[20.0, 20.0, 52.0, 52.0], [80.0, 80.0, 112.0, 112.0]])
        t = assign_rpn_targets(anchors, gt, rng, 128, 128)
        ious = iou_matrix(anchors, gt)
        per_gt_best = ious.max(axis=0)
        for a in np.flatnonzero(t.labels == 1):
            ok = ious[a].max() >= RPN_POS_IOU or any(
                ious[a, g] == per_gt_best[g] for g in range(len(gt))
            )
            assert ok

    def test_minibatch_caps(self):
        anchors = self._anchors()
        rng = np.random.default_rng(6)
        t = assign_rpn_targets(anchors, np.array([[30.0, 30.0, 62.0, 62.0]]), rng, 128, 128)
        assert t.n_pos + t.n_neg <= 256
        assert t.n_pos <= 128

    def test_no_anchors_inside_rejected(self):
        anchors = generate_anchors(2, 2, (16.0,), (1.0,), 16)
        with pytest.raises(TargetAssignmentError):
            assign_rpn_targets(anchors, np.zeros((0, 4)), np.random.default_rng(0), 32, 32)
