"""Degenerate inputs: flat images (the L2-norm eps path), a faceless scene,
an image smaller than one stride-16 cell, proposal limits below one or not
integers and other out-of-range detection settings."""

import math

import numpy as np
import pytest

from msfacedet import ModelConfig, MultiScaleDetector, ToyScene, TrainConfig, train
from msfacedet.imageio import load_image, write_pgm


def _boxes_and_scores(dets):
    return np.array([d.box for d in dets]).reshape(-1, 4), np.array([d.score for d in dets])


@pytest.mark.parametrize("value", [0.0, 0.6])
def test_detect_on_flat_image_gives_finite_boxes(value):
    model = MultiScaleDetector(ModelConfig(), seed=0)
    dets = model.detect(np.full((1, 1, 64, 64), value), 64, 64, score_thresh=0.0)
    boxes, scores = _boxes_and_scores(dets)
    assert len(dets)
    assert np.isfinite(boxes).all()
    assert np.isfinite(scores).all()


def test_train_on_faceless_flat_scene_stays_finite():
    # an all-zero image zeroes every tap at the first iteration
    scene = ToyScene(name="flat", image=np.zeros((1, 1, 64, 64)), gt_boxes=np.zeros((0, 4)), width=64, height=64)
    result = train([scene], TrainConfig(iterations=3), trace_every=1)
    assert result.skipped == 0
    assert len(result.trace) == 3
    assert np.isfinite(np.array(result.trace)).all()


def test_detect_without_proposals_returns_no_detections():
    # no proposal reaches 1000 px, so the region head sees an empty stack
    image = np.random.default_rng(0).uniform(size=(1, 1, 64, 64))
    assert MultiScaleDetector(ModelConfig(), seed=0).detect(image, 64, 64, score_thresh=0.0, min_size=1000.0) == []


def test_detect_on_image_padded_from_under_16_px(tmp_path):
    path = tmp_path / "small.pgm"
    write_pgm(path, np.random.default_rng(0).uniform(size=(10, 12)))
    tensor, orig_w, orig_h = load_image(path)
    assert tensor.shape == (1, 1, 16, 16)
    assert (orig_w, orig_h) == (12, 10)
    dets = MultiScaleDetector(ModelConfig(), seed=0).detect(tensor, orig_w, orig_h, score_thresh=0.0)
    boxes, scores = _boxes_and_scores(dets)
    assert np.isfinite(scores).all()
    assert np.all((boxes >= 0) & (boxes <= [12, 10, 12, 10]))


@pytest.mark.parametrize("limits", [{"pre_nms_top_n": -1}, {"post_nms_top_n": -2}])
def test_detect_rejects_proposal_limits_below_one(limits):
    model = MultiScaleDetector(ModelConfig(), seed=0)
    with pytest.raises(ValueError, match="at least 1"):
        model.detect(np.full((1, 1, 64, 64), 0.6), 64, 64, score_thresh=0.0, **limits)


@pytest.mark.parametrize(
    "limits",
    [{"pre_nms_top_n": 2.5}, {"post_nms_top_n": 2.5}, {"pre_nms_top_n": True}, {"post_nms_top_n": True}],
)
def test_detect_rejects_non_integer_proposal_limits(limits):
    model = MultiScaleDetector(ModelConfig(), seed=0)
    with pytest.raises(ValueError, match="integers of at least 1"):
        model.detect(np.full((1, 1, 64, 64), 0.6), 64, 64, score_thresh=0.0, **limits)


def test_detect_accepts_numpy_integer_proposal_limits():
    model = MultiScaleDetector(ModelConfig(), seed=0)
    image = np.full((1, 1, 64, 64), 0.6)
    dets = model.detect(image, 64, 64, score_thresh=0.0, pre_nms_top_n=np.int64(40), post_nms_top_n=np.int32(5))
    ref = model.detect(image, 64, 64, score_thresh=0.0, pre_nms_top_n=40, post_nms_top_n=5)
    assert [d.score for d in dets] == [d.score for d in ref]


@pytest.mark.parametrize(
    "key,value",
    [
        ("rpn_nms_thresh", math.nan),
        ("score_thresh", math.nan),
        ("det_nms_thresh", 1.5),
        ("rpn_nms_thresh", 2.0),
        ("min_size", -5.0),
    ],
)
def test_detect_rejects_out_of_range_setting(key, value):
    model = MultiScaleDetector(ModelConfig(), seed=0)
    with pytest.raises(ValueError, match=key):
        model.detect(np.full((1, 1, 64, 64), 0.6), 64, 64, **{key: value})


@pytest.mark.parametrize("value", [math.nan, math.inf, 1e39])
def test_detect_rejects_image_not_finite_in_float32(value):
    # 1e39 is finite in float64 but beyond the float32 range
    image = np.full((1, 1, 64, 64), 0.6)
    image[0, 0, 5, 7:10] = value
    with pytest.raises(ValueError, match=r"\(1, 1, 64, 64\) has 3 values that are not finite"):
        MultiScaleDetector(ModelConfig(), seed=0).detect(image, 64, 64)
