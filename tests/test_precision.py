"""Precision of the two paths: every forward layer keeps its input's dtype,
``detect`` runs the layers in float32 and returns float64, and its
detections match a float64 composition of the public stages."""

import numpy as np
import pytest

from msfacedet import ModelConfig, MultiScaleDetector, TrainConfig, generate_toy_dataset, train
from msfacedet.detector import detection_forward, postprocess_detections
from msfacedet.fusion import TAP_STRIDES, concat_shrink, l2norm_scale, make_l2norm, ms_roi_pool_batch, roi_pool
from msfacedet.rpn import DetectConfig, propose, rpn_forward
from msfacedet.tensor import conv2d, fully_connected, make_conv, make_linear, maxpool2d, relu, softmax

DTYPES = [np.float32, np.float64]
ROIS = np.array([[2.0, 3.0, 30.0, 28.0], [8.0, 8.0, 14.0, 12.0], [0.0, 0.0, 32.0, 32.0]])


def _ms_roi_pool_batch(rng, x):
    taps = {name: x(1, c, 32 // s, 32 // s) for (name, s), c in zip(TAP_STRIDES.items(), (2, 3, 4))}
    norms = {name: make_l2norm(c, 10.0) for name, c in zip(TAP_STRIDES, (2, 3, 4))}
    return ms_roi_pool_batch(taps, ROIS, norms, make_conv(rng, 5, 9, 1), 3)[0]


def _detection_forward(rng, x):
    model = MultiScaleDetector(ModelConfig(roi_pool_size=3), seed=0, stage_channels=(2, 2, 3, 3, 3), head_width=8)
    taps, _ = model.backbone_forward(x(1, 1, 32, 32))
    (logits, deltas), _ = detection_forward(taps, ROIS, model.det_head, model.norms, model.shrink, 3)
    return np.concatenate([logits, deltas], axis=1)  # float64 if either output is


# each builds its layer's parameters from rng and draws inputs of the tested dtype with x(*shape)
LAYERS = {
    "conv2d": lambda rng, x: conv2d(x(1, 2, 8, 8), make_conv(rng, 3, 2, 3))[0],
    "maxpool2d": lambda rng, x: maxpool2d(x(1, 2, 8, 8), 2)[0],
    "relu": lambda rng, x: relu(x(4, 5))[0],
    "fully_connected": lambda rng, x: fully_connected(x(4, 5), make_linear(rng, 5, 3))[0],
    "softmax": lambda rng, x: softmax(x(4, 2)),
    "l2norm_scale": lambda rng, x: l2norm_scale(x(3, 6), make_l2norm(3, 10.0))[0],
    "concat_shrink": lambda rng, x: concat_shrink(
        [x(2, 4), x(3, 6)], ["tap3", "tap4"], {"tap3": make_l2norm(2, 10.0)}, make_conv(rng, 4, 5, 1),
        [np.array([[0, 1, 2, 3, 3, 0]]), np.arange(6)[None]],
    )[0],
    "roi_pool": lambda rng, x: roi_pool(x(3, 8, 8), ROIS, 4, 3)[0][0],
    "ms_roi_pool_batch": _ms_roi_pool_batch,
    "detection_forward": _detection_forward,
}


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("layer", list(LAYERS))
def test_layer_output_keeps_input_dtype(layer, dtype):
    rng = np.random.default_rng(0)
    out = LAYERS[layer](rng, lambda *shape: rng.uniform(-1, 1, size=shape).astype(dtype))
    assert out.dtype == dtype


def detect_float64(model, image, img_w, img_h, cfg):
    """``detect`` composed from the public stages, all in float64."""
    taps, _ = model.backbone_forward(image)
    fused, _ = model.fused_map_forward(taps)
    (logits, deltas), _ = rpn_forward(fused, model.rpn_head)
    anchors = model.anchors_for(fused.shape[2], fused.shape[3])
    rois = np.array([p.box for p in propose(logits, deltas, anchors, img_w, img_h, cfg)]).reshape(-1, 4)
    (cls_logits, box_deltas), _ = model.roi_forward(taps, rois)
    return postprocess_detections(cls_logits, box_deltas, rois, img_w, img_h, cfg)


def _assert_close(dets32, dets64):
    assert len(dets32) == len(dets64)
    assert len(dets64)
    boxes32, boxes64 = (np.array([d.box for d in ds]) for ds in (dets32, dets64))
    scores32, scores64 = (np.array([d.score for d in ds]) for ds in (dets32, dets64))
    assert boxes32.dtype == scores32.dtype == np.float64
    assert np.abs(boxes32 - boxes64).max() <= 1e-2
    assert np.abs(scores32 - scores64).max() <= 1e-4


@pytest.mark.parametrize("mode", ["multi", "tap5"])
def test_detect_matches_float64_composition_on_random_weights(mode):
    model = MultiScaleDetector(ModelConfig(fusion_mode=mode), seed=0)
    image = np.random.default_rng(3).uniform(size=(1, 1, 64, 64))
    cfg = DetectConfig(score_thresh=0.0)
    _assert_close(model.detect(image, 64, 64, cfg), detect_float64(model, image, 64, 64, cfg))


@pytest.fixture(scope="module")
def scenes():
    return generate_toy_dataset(8, 64, (16, 32), seed=4)


@pytest.mark.parametrize("mode", ["multi", "tap5"])
def test_detect_matches_float64_composition_after_training(mode, scenes):
    model = train(scenes[:6], TrainConfig(iterations=30, seed=5), ModelConfig(fusion_mode=mode)).model
    cfg = DetectConfig(score_thresh=0.05)
    for s in scenes[6:]:
        _assert_close(model.detect(s.image, s.width, s.height, cfg), detect_float64(model, s.image, s.width, s.height, cfg))
