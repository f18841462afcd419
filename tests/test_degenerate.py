"""Degenerate inputs: flat images (the L2-norm eps path), a faceless scene,
an image smaller than one stride-16 cell, a batch of two images, proposal
limits below one or not integers and other out-of-range detection settings,
malformed training scenes and float32 training images."""

import math

import numpy as np
import pytest

from msfacedet import ModelConfig, MultiScaleDetector, ToyScene, TrainConfig, train
from msfacedet.imageio import load_image, write_pgm
from msfacedet.tensor import ShapeError


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


def test_detect_rejects_a_batch_of_two_images():
    # the heads read image 0 only, so a second image would be dropped silently
    image = np.random.default_rng(0).uniform(size=(2, 1, 64, 64))
    with pytest.raises(ShapeError, match="one NCHW image"):
        MultiScaleDetector(ModelConfig(), seed=0).detect(image, 64, 64, score_thresh=0.0)


def test_train_rejects_a_two_image_scene():
    image = np.random.default_rng(0).uniform(size=(2, 1, 64, 64))
    scene = ToyScene(name="pair", image=image, gt_boxes=np.array([[8.0, 8.0, 40.0, 40.0]]), width=64, height=64)
    with pytest.raises(ShapeError, match="one NCHW image"):
        train([scene], TrainConfig(iterations=1))


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


def _scene(name, image):
    return ToyScene(name=name, image=image, gt_boxes=np.array([[8.0, 8.0, 40.0, 40.0]]), width=64, height=64)


@pytest.mark.parametrize("shape", [(1, 64, 64), (1, 1, 40, 64), (1, 3, 64, 64), (1, 1, 0, 0)])
def test_train_rejects_an_image_that_is_not_one_strided_gray_image(shape):
    scene = _scene("odd", np.zeros(shape))
    with pytest.raises(ShapeError, match=r"scene odd: image must be one NCHW image of shape \(1, 1, H, W\)"):
        train([scene], TrainConfig(iterations=1))


def test_train_rejects_a_non_finite_pixel_before_training():
    image = np.random.default_rng(0).uniform(size=(1, 1, 64, 64))
    image[0, 0, 3, 4] = np.nan
    with pytest.raises(ValueError, match="scene nan: image has values that are not finite"):
        train([_scene("nan", image)], TrainConfig(iterations=5))


def test_train_checks_every_scene_before_the_first_iteration():
    # one iteration draws one scene; the malformed one must be rejected all the same
    rng = np.random.default_rng(0)
    scenes = [_scene("good", rng.uniform(size=(1, 1, 64, 64))), _scene("pair", rng.uniform(size=(2, 1, 64, 64)))]
    with pytest.raises(ShapeError, match="scene pair"):
        train(scenes, TrainConfig(iterations=1))


def test_train_on_float32_images_runs_in_float64():
    rng = np.random.default_rng(0)
    images = [rng.uniform(size=(1, 1, 64, 64)).astype(np.float32) for _ in range(2)]
    runs = [
        train([_scene(f"s{i}", cast(x)) for i, x in enumerate(images)], TrainConfig(iterations=4), trace_every=1)
        for cast in (lambda x: x, lambda x: x.astype(np.float64))
    ]
    assert runs[0].trace == runs[1].trace
    for a, b in zip(runs[0].model.params().values(), runs[1].model.params().values()):
        assert a.data.tobytes() == b.data.tobytes()
