"""Degenerate inputs: flat images (the L2-norm eps path), a faceless scene,
an image smaller than one stride-16 cell, a batch of two images, proposal
limits below one or not integers and other out-of-range detection settings,
malformed images at every entry point, original extents outside the padded
image, malformed training scenes and ground truth (boxes that are not finite
or lack x2 > x1 and y2 > y1), trace intervals that are not positive integers
and float32 training images."""

import math

import numpy as np
import pytest

from msfacedet import DetectConfig, ModelConfig, MultiScaleDetector, ToyScene, TrainConfig, train
from msfacedet.evaluation import evaluate_dataset, proposal_recall
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
    with pytest.raises(ValueError, match=r"scene nan: image \(1, 1, 64, 64\) has 1 values that are not finite"):
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


def _bad_image(kind):
    if isinstance(kind, tuple):
        return np.zeros(kind)
    image = np.random.default_rng(0).uniform(size=(1, 1, 64, 64))
    image[0, 0, 3, 4] = kind
    return image


ENTRY_POINTS = {
    "forward": lambda image: MultiScaleDetector(ModelConfig(), seed=0).forward(image),
    "detect": lambda image: MultiScaleDetector(ModelConfig(), seed=0).detect(image, 64, 64),
    "train": lambda image: train([_scene("bad", image)], TrainConfig(iterations=1)),
    "proposal_recall": lambda image: proposal_recall(
        MultiScaleDetector(ModelConfig(), seed=0), [_scene("bad", image)], DetectConfig()
    ),
}


SHAPE_STEM = r"must be one NCHW image of shape \(1, 1, H, W\) with H and W positive multiples of 16"
FINITE_STEM = r"image \(1, 1, 64, 64\) has 1 values that are not finite in float"


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize(
    "kind,error,stem",
    [
        pytest.param((2, 1, 64, 64), ShapeError, SHAPE_STEM, id="batch"),
        pytest.param((1, 3, 64, 64), ShapeError, SHAPE_STEM, id="channels"),
        pytest.param((1, 1, 40, 64), ShapeError, SHAPE_STEM, id="stride"),
        pytest.param((1, 1, 0, 0), ShapeError, SHAPE_STEM, id="empty"),
        pytest.param(np.nan, ValueError, FINITE_STEM, id="nan"),
        pytest.param(np.inf, ValueError, FINITE_STEM, id="inf"),
    ],
)
def test_every_entry_point_rejects_the_same_bad_images(entry, kind, error, stem):
    # one input contract: the same bad image fails the same way wherever it enters
    with pytest.raises(error, match=stem):
        ENTRY_POINTS[entry](_bad_image(kind))


@pytest.mark.parametrize("extents", [(0, 0), (-5, 64), (math.nan, 64), (64, math.nan), (500, 500), (65, 64), (64, 80)])
def test_detect_rejects_original_extents_outside_the_padded_image(extents):
    image = np.random.default_rng(0).uniform(size=(1, 1, 64, 64))
    with pytest.raises(ValueError, match=r"detect: original extents .* must lie in \(0, 64\] x \(0, 64\]"):
        MultiScaleDetector(ModelConfig(), seed=0).detect(image, *extents, score_thresh=0.0)


@pytest.mark.parametrize("entry", ["train", "proposal_recall"])
@pytest.mark.parametrize("extents", [(0, 0), (-5, 64), (math.nan, 64), (500, 500), (64, 65)])
def test_scene_extents_outside_the_padded_image_are_rejected(entry, extents):
    rng = np.random.default_rng(0)
    good = _scene("good", rng.uniform(size=(1, 1, 64, 64)))
    wide = ToyScene(name="wide", image=rng.uniform(size=(1, 1, 64, 64)), gt_boxes=good.gt_boxes,
                    width=extents[0], height=extents[1])
    with pytest.raises(ValueError, match=r"scene wide: original extents .* must lie in \(0, 64\] x \(0, 64\]"):
        if entry == "train":  # every scene is checked before the first iteration draws one
            train([good, wide], TrainConfig(iterations=1))
        else:
            proposal_recall(MultiScaleDetector(ModelConfig(), seed=0), [good, wide], DetectConfig())


def test_detect_accepts_extents_at_the_padded_edge_and_below():
    model = MultiScaleDetector(ModelConfig(), seed=0)
    image = np.random.default_rng(0).uniform(size=(1, 1, 64, 48))
    boxes, _ = _boxes_and_scores(model.detect(image, 48, 64, score_thresh=0.0))
    assert len(boxes) and np.all((boxes >= 0) & (boxes <= [48, 64, 48, 64]))
    boxes, _ = _boxes_and_scores(model.detect(image, 1, 1, score_thresh=0.0))
    assert np.all((boxes >= 0) & (boxes <= 1))


@pytest.mark.parametrize("entry", ["train", "proposal_recall"])
@pytest.mark.parametrize(
    "gt,shape",
    [
        pytest.param([[8.0, 8.0, 40.0, 40.0], [10.0, 10.0, 20.0, np.nan]], r"\(2, 4\)", id="nan"),
        pytest.param([[8.0, 8.0, np.inf, 40.0]], r"\(1, 4\)", id="inf"),
        pytest.param([8.0, 8.0, 40.0, 40.0], r"\(4,\)", id="flat"),
        pytest.param([[8.0, 8.0, 40.0, 40.0, 1.0]], r"\(1, 5\)", id="five-column"),
    ],
)
def test_scene_ground_truth_that_is_not_finite_boxes_is_rejected(entry, gt, shape):
    # one ground-truth contract, the one evaluate_dataset applies, with its message
    rng = np.random.default_rng(0)
    good = _scene("good", rng.uniform(size=(1, 1, 64, 64)))
    bad = ToyScene(name="bad", image=rng.uniform(size=(1, 1, 64, 64)), gt_boxes=np.array(gt), width=64, height=64)
    with pytest.raises(ValueError, match=r"scene bad: ground-truth boxes must be finite \(N, 4\); got " + shape):
        if entry == "train":  # every scene is checked before the first iteration draws one
            train([good, bad], TrainConfig(iterations=1))
        else:
            proposal_recall(MultiScaleDetector(ModelConfig(), seed=0), [good, bad], DetectConfig())


@pytest.mark.parametrize("entry", ["train", "proposal_recall", "evaluate_dataset"])
@pytest.mark.parametrize(
    "box",
    [
        pytest.param([40.0, 8.0, 8.0, 40.0], id="x-swapped"),
        pytest.param([8.0, 40.0, 40.0, 8.0], id="y-swapped"),
        pytest.param([40.0, 40.0, 8.0, 8.0], id="both-swapped"),
        pytest.param([8.0, 8.0, 8.0, 40.0], id="zero-width"),
        pytest.param([8.0, 8.0, 40.0, 8.0], id="zero-height"),
    ],
)
def test_scene_ground_truth_boxes_without_positive_extent_are_rejected(entry, box):
    # an inverted box has a NaN or negative IoU, which would otherwise win matching
    rng = np.random.default_rng(0)
    good = _scene("good", rng.uniform(size=(1, 1, 64, 64)))
    gt = np.array([[8.0, 8.0, 40.0, 40.0], box])
    bad = ToyScene(name="bad", image=rng.uniform(size=(1, 1, 64, 64)), gt_boxes=gt, width=64, height=64)
    stem = r"(scene bad|image 'bad'): ground-truth box \[.*\] must have x2 > x1 and y2 > y1"
    with pytest.raises(ValueError, match=stem):
        if entry == "train":  # every scene is checked before the first iteration draws one
            train([good, bad], TrainConfig(iterations=1))
        elif entry == "proposal_recall":
            proposal_recall(MultiScaleDetector(ModelConfig(), seed=0), [good, bad], DetectConfig())
        else:
            evaluate_dataset({"bad": (gt[:1], np.array([0.9]))}, {s.name: s.gt_boxes for s in (good, bad)})


@pytest.mark.parametrize("value", [0, -3, 2.0])
def test_train_rejects_a_trace_interval_that_is_not_a_positive_integer(value):
    steps = []
    scene = _scene("good", np.random.default_rng(0).uniform(size=(1, 1, 64, 64)))
    with pytest.raises(ValueError, match=f"trace_every {value!r}: only integers of at least 1 are allowed"):
        train([scene], TrainConfig(iterations=3), trace_every=value, progress=lambda it, comps: steps.append(it))
    assert steps == []
