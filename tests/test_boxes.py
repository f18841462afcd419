import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msfacedet.boxes import (
    box_area,
    clip_boxes,
    decode_deltas,
    encode_deltas,
    iou_matrix,
    match_ground_truth,
    nms,
    project_roi,
)

box_strategy = st.tuples(
    st.floats(0, 90), st.floats(0, 90), st.floats(1, 40), st.floats(1, 40)
).map(lambda t: np.array([t[0], t[1], t[0] + t[2], t[1] + t[3]]))


def iou(a, b) -> float:
    """Scalar reference IoU of two boxes, for the vectorized ``iou_matrix`` and ``nms``."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    ix = min(a[2], b[2]) - max(a[0], b[0])
    iy = min(a[3], b[3]) - max(a[1], b[1])
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    return float(inter / (box_area(a) + box_area(b) - inter))


def clip_box(b, img_w, img_h):
    """Scalar reference for ``clip_boxes``: the clamped box, or None if thinner than 1 px."""
    x1 = min(max(float(b[0]), 0.0), img_w)
    y1 = min(max(float(b[1]), 0.0), img_h)
    x2 = min(max(float(b[2]), 0.0), img_w)
    y2 = min(max(float(b[3]), 0.0), img_h)
    if x2 - x1 < 1.0 or y2 - y1 < 1.0:
        return None
    return np.array([x1, y1, x2, y2])


def pixel_count_iou(a, b):
    """Rasterized oracle: count integer-grid pixels covered by each box."""
    def cells(box):
        x1, y1, x2, y2 = (int(v) for v in box)
        return {(x, y) for x in range(x1, x2) for y in range(y1, y2)}

    ca, cb = cells(a), cells(b)
    inter = len(ca & cb)
    union = len(ca | cb)
    return inter / union


class TestIoU:
    def test_identical(self):
        b = np.array([3.0, 4.0, 10.0, 12.0])
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(np.array([0, 0, 5, 5]), np.array([6, 6, 9, 9])) == 0.0

    def test_half_overlap_matches_pixel_oracle(self):
        a = np.array([0.0, 0.0, 10.0, 10.0])
        b = np.array([5.0, 0.0, 15.0, 10.0])
        assert abs(iou(a, b) - 50.0 / 150.0) < 1e-12
        assert abs(iou(a, b) - pixel_count_iou(a, b)) < 1e-12

    def test_random_integer_boxes_match_pixel_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a = rng.integers(0, 20, size=2)
            b = rng.integers(1, 15, size=2)
            box_a = np.array([a[0], a[1], a[0] + b[0], a[1] + b[1]], dtype=float)
            c = rng.integers(0, 20, size=2)
            d = rng.integers(1, 15, size=2)
            box_b = np.array([c[0], c[1], c[0] + d[0], c[1] + d[1]], dtype=float)
            assert abs(iou(box_a, box_b) - pixel_count_iou(box_a, box_b)) < 1e-12

    @given(a=box_strategy, b=box_strategy)
    @settings(max_examples=100, deadline=None)
    def test_symmetry_and_bounds(self, a, b):
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0

    def test_matrix_agrees_with_scalar(self):
        rng = np.random.default_rng(1)
        xy = rng.uniform(0, 50, size=(6, 2))
        wh = rng.uniform(1, 30, size=(6, 2))
        boxes = np.hstack([xy, xy + wh])
        m = iou_matrix(boxes[:3], boxes[3:])
        for i in range(3):
            for j in range(3):
                assert abs(m[i, j] - iou(boxes[i], boxes[3 + j])) < 1e-12


class TestMatchGroundTruth:
    def test_without_ground_truth_every_row_takes_the_zero_column(self):
        boxes = np.array([[0.0, 0.0, 10.0, 10.0], [5.0, 5.0, 30.0, 20.0], [1.0, 2.0, 3.0, 4.0]])
        ious, best_gt, best_iou = match_ground_truth(boxes, np.zeros((0, 4)))
        assert ious.shape == (3, 1) and not ious.any()
        assert best_gt.tolist() == [0, 0, 0]
        assert not best_iou.any()

    def test_matches_the_argmax_over_the_ground_truth(self):
        rng = np.random.default_rng(0)
        boxes, gt = random_boxes(rng, 40, 100.0), random_boxes(rng, 5, 100.0)
        ious, best_gt, best_iou = match_ground_truth(boxes, gt)
        assert np.array_equal(ious[:, :5], iou_matrix(boxes, gt)) and not ious[:, 5].any()
        assert np.array_equal(best_gt, iou_matrix(boxes, gt).argmax(axis=1))
        assert np.array_equal(best_iou, iou_matrix(boxes, gt).max(axis=1))

    def test_a_row_that_overlaps_no_face_takes_the_first_face_not_the_zero_column(self):
        # each real column ties the zero column at 0, and argmax keeps the first
        gt = np.array([[0.0, 0.0, 10.0, 10.0], [20.0, 20.0, 30.0, 30.0]])
        boxes = np.array([[50.0, 50.0, 60.0, 60.0], [22.0, 22.0, 30.0, 30.0]])
        ious, best_gt, best_iou = match_ground_truth(boxes, gt)
        assert ious.shape == (2, 3)
        assert best_gt.tolist() == [0, 1]
        assert best_iou[0] == 0.0 and best_iou[1] == 0.64


class TestDeltas:
    def test_identity(self):
        b = np.array([2.0, 3.0, 8.0, 9.0])
        assert np.allclose(encode_deltas(b, b), 0.0)

    def test_double_width(self):
        anchor = np.array([0.0, 0.0, 10.0, 10.0])
        target = np.array([-5.0, 0.0, 15.0, 10.0])
        d = encode_deltas(target, anchor)
        assert np.allclose(d, [0.0, 0.0, np.log(2.0), 0.0])
        assert np.allclose(decode_deltas(d, anchor), target)

    def test_decode_hand_value(self):
        out = decode_deltas(np.array([0.0, 0.0, np.log(2.0), 0.0]), np.array([0.0, 0.0, 10.0, 10.0]))
        assert np.allclose(out, [-5.0, 0.0, 15.0, 10.0])

    def test_extreme_width_clamped_finite(self):
        out = decode_deltas(np.array([0.0, 0.0, 50.0, 50.0]), np.array([0.0, 0.0, 10.0, 10.0]))
        assert np.all(np.isfinite(out))
        assert out[2] - out[0] == pytest.approx(10_000.0)

    @given(t=box_strategy, a=box_strategy)
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, t, a):
        assert np.max(np.abs(decode_deltas(encode_deltas(t, a), a) - t)) < 1e-9

    def test_round_trip_many_random_pairs(self):
        rng = np.random.default_rng(2)
        xy = rng.uniform(0, 100, size=(10_000, 2, 2))
        wh = rng.uniform(0.5, 60, size=(10_000, 2, 2))
        boxes = np.concatenate([xy, xy + wh], axis=-1)
        t, a = boxes[:, 0], boxes[:, 1]
        back = decode_deltas(encode_deltas(t, a), a)
        assert np.max(np.abs(back - t)) < 1e-9


class TestClip:
    def test_interior_unchanged(self):
        b = np.array([5.0, 6.0, 20.0, 30.0])
        assert np.array_equal(clip_box(b, 100, 100), b)

    def test_partial_clip(self):
        assert np.array_equal(clip_box(np.array([-5.0, -5.0, 5.0, 5.0]), 100, 100), [0, 0, 5, 5])

    def test_outside_dropped(self):
        assert clip_box(np.array([-10.0, -10.0, -2.0, -2.0]), 100, 100) is None

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(3)
        boxes = rng.uniform(-30, 130, size=(50, 4))
        boxes[:, 2:] = boxes[:, :2] + rng.uniform(0.1, 50, size=(50, 2))
        clipped, keep = clip_boxes(boxes, 100, 100)
        for i in range(50):
            single = clip_box(boxes[i], 100, 100)
            if single is None:
                assert not keep[i]
            else:
                assert keep[i]
                assert np.allclose(clipped[i], single)


def reference_nms(boxes, scores, thresh):
    """Plain O(n^2) greedy reference."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    kept = []
    for i in order:
        if all(iou(boxes[i], boxes[j]) <= thresh for j in kept):
            kept.append(i)
    return kept


def reference_loop_nms(boxes, scores, iou_threshold, *, max_keep=None):
    """The one-kept-box-at-a-time greedy loop that ``nms`` replaced by a blocked sweep."""
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    order = np.argsort(-scores, kind="stable")
    x1, y1, x2, y2 = boxes[:, 0], boxes[:, 1], boxes[:, 2], boxes[:, 3]
    areas = (x2 - x1) * (y2 - y1)
    keep = []
    while order.size and (max_keep is None or len(keep) < max_keep):
        i = order[0]
        keep.append(int(i))
        rest = order[1:]
        ix = np.minimum(x2[i], x2[rest]) - np.maximum(x1[i], x1[rest])
        iy = np.minimum(y2[i], y2[rest]) - np.maximum(y1[i], y1[rest])
        inter = np.clip(ix, 0.0, None) * np.clip(iy, 0.0, None)
        ovr = inter / (areas[i] + areas[rest] - inter)
        order = rest[ovr <= iou_threshold]
    return keep


def random_boxes(rng, n, extent):
    xy = rng.uniform(0, extent, size=(n, 2))
    wh = rng.uniform(2, 40, size=(n, 2))
    return np.hstack([xy, xy + wh])


def with_fillers(pair, gap):
    """The first box of ``pair``, then ``gap`` disjoint boxes, then the second
    box, in descending score order: the pair shares an NMS block only while
    ``gap`` is small."""
    fillers = [[100.0 + 3 * k, 100.0, 101.0 + 3 * k, 101.0] for k in range(gap)]
    boxes = np.array([pair[0], *fillers, pair[1]], dtype=float)
    return boxes, np.linspace(1.0, 0.5, len(boxes))


class TestNms:
    def test_single_box(self):
        assert nms(np.array([[0, 0, 5, 5.0]]), np.array([0.3]), 0.5) == [0]

    def test_hand_example(self):
        boxes = np.array([[0, 0, 10, 10], [1, 1, 11, 11], [20, 20, 30, 30]], dtype=float)
        scores = np.array([0.9, 0.8, 0.7])
        assert abs(iou(boxes[0], boxes[1]) - 81.0 / 119.0) < 1e-12
        assert nms(boxes, scores, 0.5) == [0, 2]

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(1, 201))
            boxes = random_boxes(rng, n, 80)
            scores = rng.random(n)
            thresh = float(rng.uniform(0.2, 0.7))
            assert nms(boxes, scores, thresh) == reference_nms(boxes, scores, thresh)

    def test_kept_set_is_an_antichain(self):
        rng = np.random.default_rng(5)
        boxes = random_boxes(rng, 80, 60)
        scores = rng.random(80)
        kept = nms(boxes, scores, 0.4)
        for i in kept:
            for j in kept:
                if i != j:
                    assert iou(boxes[i], boxes[j]) <= 0.4

    def test_score_ties_break_by_index(self):
        boxes = np.array([[0, 0, 10, 10], [20, 20, 30, 30], [0, 0, 10, 10.0]])
        scores = np.array([0.5, 0.5, 0.5])
        assert nms(boxes, scores, 0.3) == [0, 1]

    @pytest.mark.parametrize("n", [63, 64, 65, 129, 400])
    def test_matches_loop_across_block_edges(self, n):
        rng = np.random.default_rng(n)
        for extent, thresh in ((60, 0.3), (200, 0.5), (400, 0.7)):
            boxes = random_boxes(rng, n, extent)
            scores = rng.random(n)
            assert nms(boxes, scores, thresh) == reference_loop_nms(boxes, scores, thresh)

    def test_duplicates_and_score_ties_match_loop(self):
        rng = np.random.default_rng(6)
        boxes = random_boxes(rng, 30, 150)[rng.integers(0, 30, 300)]
        scores = rng.choice([0.2, 0.5, 0.8], 300)
        for thresh in (0.3, 0.7):
            assert nms(boxes, scores, thresh) == reference_loop_nms(boxes, scores, thresh)

    @pytest.mark.parametrize("gap", [0, 63])
    def test_iou_exactly_at_threshold_keeps_both(self, gap):
        boxes, scores = with_fillers(([0, 0, 2, 1], [0, 0, 1, 1]), gap)
        assert iou_matrix(boxes[0], boxes[-1])[0, 0] == 0.5
        assert nms(boxes, scores, 0.5) == list(range(gap + 2)) == reference_loop_nms(boxes, scores, 0.5)

    @pytest.mark.parametrize("gap", [0, 63])
    def test_zero_area_duplicates_suppress(self, gap):
        boxes, scores = with_fillers(([5, 5, 5, 5], [5, 5, 5, 5]), gap)
        with np.errstate(invalid="ignore"):
            assert np.isnan(iou_matrix(boxes[0], boxes[-1])[0, 0])
            assert nms(boxes, scores, 0.5) == list(range(gap + 1)) == reference_loop_nms(boxes, scores, 0.5)

    @pytest.mark.parametrize("max_keep", [30, 63, 64, 65, 100, 128])
    def test_keep_budget_mid_block_and_at_block_edge(self, max_keep):
        rng = np.random.default_rng(7)
        boxes = random_boxes(rng, 400, 400)
        scores = rng.random(400)
        kept = nms(boxes, scores, 0.5, max_keep=max_keep)
        assert len(kept) == max_keep
        assert kept == reference_loop_nms(boxes, scores, 0.5, max_keep=max_keep)

    @pytest.mark.parametrize("n_scores", [2, 4])
    def test_score_count_must_match_box_count(self, n_scores):
        with pytest.raises(ValueError, match=rf"\(3, 4\).*\({n_scores},\)"):
            nms(np.tile([0.0, 0.0, 5.0, 5.0], (3, 1)), np.ones(n_scores), 0.5)

    @given(
        data=st.data(),
        n=st.integers(1, 150),
        thresh=st.floats(0.1, 0.9),
    )
    @settings(max_examples=150, deadline=None)
    def test_keep_budget_is_prefix_of_unlimited(self, data, n, thresh):
        # few distinct corners and scores, so duplicate boxes and score ties are common;
        # one drawn integer per box codes x1, y1, width - 1 and height - 1 (0-6 each) and its score
        codes = np.array(data.draw(st.lists(st.integers(0, 3 * 7**4 - 1), min_size=n, max_size=n)), dtype=np.int64)
        x, y, w, h = (codes // 7**k % 7 for k in range(4))
        boxes = np.stack([x, y, x + w + 1, y + h + 1], axis=1).astype(float)
        scores = np.array([0.1, 0.5, 0.9])[codes // 7**4]
        full = nms(boxes, scores, thresh)
        assert full == reference_loop_nms(boxes, scores, thresh)
        for k in {1, data.draw(st.integers(1, n + 3)), len(full), n, n + 5}:
            assert nms(boxes, scores, thresh, max_keep=k) == full[:k]


class TestProjectRoi:
    def test_64px_roi_at_stride_16_gives_4x4(self):
        x1, y1, x2, y2 = project_roi(np.array([0.0, 0.0, 64.0, 64.0]), 16)
        assert (x2 - x1, y2 - y1) == (4, 4)

    def test_12px_roi_at_stride_16_clamps_to_one_cell(self):
        x1, y1, x2, y2 = project_roi(np.array([50.0, 50.0, 62.0, 62.0]), 16)
        assert (x2 - x1, y2 - y1) == (1, 1)

    def test_stride_one_is_ceil_expanded_rect(self):
        x1, y1, x2, y2 = project_roi(np.array([3.2, 4.7, 10.1, 12.0]), 1)
        assert (x1, y1, x2, y2) == (3, 4, 11, 12)

    def test_stack_matches_row_by_row(self):
        rng = np.random.default_rng(3)
        corner = rng.uniform(-20, 100, (2, 50, 2))
        boxes = np.concatenate([corner[0], corner[0] + rng.uniform(0.1, 40, (50, 2))], axis=-1).reshape(5, 10, 4)
        stacked = np.stack(project_roi(boxes, 8), axis=-1)
        assert stacked.shape == (5, 10, 4)
        for idx in np.ndindex(5, 10):
            assert tuple(stacked[idx]) == project_roi(boxes[idx], 8)
