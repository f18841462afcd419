"""The shared front end: ``MultiScaleDetector.forward`` is the stage-by-stage
composition of backbone, dense fusion, proposal head and anchors, and
``detect`` keeps none of its caches while the region branch runs."""

import weakref

import numpy as np
import pytest

from msfacedet import ModelConfig, MultiScaleDetector
from msfacedet.rpn import rpn_forward


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
    padded, live = [], []  # weak references to each conv cache's padded input; live ones inside roi_forward
    backbone_forward, roi_forward = model.backbone_forward, model.roi_forward

    def traced_backbone_forward(x):
        taps, caches = backbone_forward(x)
        padded.extend(weakref.ref(entry[1][0]) for entry in caches if entry[0] == "conv")
        return taps, caches

    def counted_roi_forward(taps, rois):
        live.append(sum(ref() is not None for ref in padded))
        return roi_forward(taps, rois)

    monkeypatch.setattr(model, "backbone_forward", traced_backbone_forward)
    monkeypatch.setattr(model, "roi_forward", counted_roi_forward)
    model.detect(np.random.default_rng(0).uniform(size=(1, 1, 64, 64)), 64, 64, score_thresh=0.0)
    assert len(padded) == 2 * len(model.stages)
    assert live == [0]
