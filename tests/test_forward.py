"""The shared front end: ``MultiScaleDetector.forward`` is the stage-by-stage
composition of backbone, dense fusion, proposal head and anchors,
``detect`` keeps none of its caches while the region branch runs nor the
pooled ROI stack while fc1 runs, and a model that only detects allocates no
gradients."""

import tracemalloc
import weakref

import numpy as np
import pytest

from msfacedet import ModelConfig, MultiScaleDetector, detector, generate_toy_dataset
from msfacedet.rpn import rpn_forward
from msfacedet.tensor import fully_connected


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mode", ["multi", "tap5"])
def test_forward_equals_the_stage_composition(mode, dtype):
    model = MultiScaleDetector(ModelConfig(fusion_mode=mode), seed=0)
    image = np.random.default_rng(3).uniform(size=(1, 1, 64, 48)).astype(dtype)
    taps, logits, deltas, anchors = model.forward(image)[0]
    ref_taps, _ = model.backbone_forward(image)
    fused, _ = model.fused_map_forward(ref_taps)
    (ref_logits, ref_deltas), _ = rpn_forward(fused, model.rpn_head)
    ref_anchors = model.anchors_for(fused.shape[2], fused.shape[3])
    assert list(taps) == list(ref_taps) == list(model.fused_taps)
    pairs = [(taps[name], ref_taps[name]) for name in taps]
    pairs += [(logits, ref_logits), (deltas, ref_deltas), (anchors, ref_anchors)]
    for got, ref in pairs:
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
    assert logits.dtype == dtype


@pytest.mark.parametrize("mode", ["multi", "tap5"])
def test_detect_frees_the_front_end_caches_before_the_region_head(mode, monkeypatch):
    model = MultiScaleDetector(ModelConfig(fusion_mode=mode), seed=0)
    # weak references to the arrays that only the caches hold: each ReLU output
    # that is not a tap and each pool output; the live ones inside roi_forward
    cached, live = {}, []
    backbone_forward, roi_forward = model.backbone_forward, model.roi_forward

    def traced_backbone_forward(x):
        taps, caches = backbone_forward(x)
        held = [x, *taps.values()]  # detect holds its image and the taps itself
        for entry in caches:
            for a in [] if entry[0] == "tap" else [entry[1][0], *entry[2:]]:
                if not any(a is h for h in held):
                    cached[id(a)] = weakref.ref(a)
        return taps, caches

    def counted_roi_forward(taps, rois):
        live.append(sum(ref() is not None for ref in cached.values()))
        return roi_forward(taps, rois)

    monkeypatch.setattr(model, "backbone_forward", traced_backbone_forward)
    monkeypatch.setattr(model, "roi_forward", counted_roi_forward)
    model.detect(np.random.default_rng(0).uniform(size=(1, 1, 64, 64)), 64, 64, score_thresh=0.0)
    relu_outputs, pools = 2 * len(model.stages), len(model.stages) - 1
    assert len(cached) == relu_outputs - len(model.fused_taps) + pools
    assert live == [0]


def test_detect_frees_the_pooled_stack_before_fc1(monkeypatch):
    model = MultiScaleDetector(ModelConfig(), seed=0)
    stacks, live = [], []  # a weak reference to each pooled stack's buffer; whether it lives when fc1 runs
    pool = detector.ms_roi_pool_batch

    def traced_pool(*args):
        fused, cache = pool(*args)
        stacks.append(weakref.ref(fused.base))
        return fused, cache

    def counted_fully_connected(x, p):
        if p is model.det_head.fc1:
            live.append(stacks[-1]() is not None)
        return fully_connected(x, p)

    monkeypatch.setattr(detector, "ms_roi_pool_batch", traced_pool)
    monkeypatch.setattr(detector, "fully_connected", counted_fully_connected)
    model.detect(np.random.default_rng(0).uniform(size=(1, 1, 64, 64)), 64, 64, score_thresh=0.0)
    assert live == [False]


def test_a_model_that_only_detects_holds_no_gradients():
    scene = generate_toy_dataset(1, 64, (16, 32), seed=3)[0]
    tracemalloc.start()
    try:
        model = MultiScaleDetector(ModelConfig(), seed=0)
        model.detect(scene.image, scene.width, scene.height, score_thresh=0.0)
        traced = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    params = model.params().values()
    # 1.0x with gradients made on first use; 2.0x when each Tensor made its own at construction
    assert traced < 1.5 * sum(t.data.nbytes for t in params)
    model.zero_grads()
    for t in params:
        assert t.grad is t.grad
        assert t.grad.dtype == np.float64 and t.grad.shape == t.data.shape
        assert t.grad.flags.writeable and not t.grad.any()
