"""The full detector: shared convolutional backbone, fusion layers, proposal
head and per-region head, with a flat named-parameter registry."""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, fields, replace

import numpy as np

from . import checkpoint as ckpt
from .detector import DetHead, Detection, detection_backward, detection_forward, postprocess_detections
from .fusion import TAP_ORDER, TAP_STRIDES, make_l2norm, ms_roi_pool_batch, ms_roi_pool_batch_backward
from .rpn import DetectConfig, FieldError, RpnHead, generate_anchors, propose, require_int, rpn_forward
from .tensor import (
    ShapeError,
    conv2d,
    conv2d_backward,
    make_conv,
    make_linear,
    maxpool2d,
    maxpool2d_backward,
    relu,
    relu_backward,
)

FUSED_TAPS = {"multi": TAP_ORDER, "tap5": ("tap5",)}


@dataclass(frozen=True)
class ModelConfig:
    roi_pool_size: int = 7
    gamma_init: float = 10.0
    # anchor sides are scale * 16 px on the stride-16 fused map; scales whose
    # boxes cannot fit inside the training images are never labelled, so the
    # default menu stays within the face sizes the toy task uses
    anchor_scales: tuple = (1.0, 2.0, 4.0)
    anchor_ratios: tuple = (1.0, 1.3)
    # "multi" fuses tap3/4/5 with per-tap norms; "tap5" is the same fusion
    # path over the last tap alone, without norms
    fusion_mode: str = "multi"
    # widths of the five backbone stages (the last is the fused width), the RPN conv and the region FCs
    stage_channels: tuple = (8, 16, 32, 64, 64)
    rpn_channels: int = 256
    head_width: int = 256

    def __post_init__(self):
        for name in ("anchor_scales", "anchor_ratios", "stage_channels"):  # kept as tuples, so configs hash
            object.__setattr__(self, name, tuple(getattr(self, name)))
        # each range is written so that NaN fails it
        require_int("roi_pool_size", self.roi_pool_size, 1)
        if not 0 < self.gamma_init < math.inf:
            raise FieldError("gamma_init", f"{self.gamma_init} outside (0, inf)")
        for name in ("anchor_scales", "anchor_ratios"):
            values = getattr(self, name)
            if not values or not all(0 < v < math.inf for v in values):
                raise FieldError(name, f"{values}: at least one element is needed, each in (0, inf)")
        if self.fusion_mode not in FUSED_TAPS:
            raise FieldError("fusion_mode", f"{self.fusion_mode!r} is not one of {', '.join(map(repr, FUSED_TAPS))}")
        if len(self.stage_channels) != 5:
            raise FieldError("stage_channels", f"{self.stage_channels!r}: exactly five stage widths are needed")
        for width in self.stage_channels:
            require_int("stage_channels", width, 1)
        require_int("rpn_channels", self.rpn_channels, 1)
        require_int("head_width", self.head_width, 1)


def check_image(image: np.ndarray, what: str = "image"):
    """Raise ``ShapeError`` unless ``image`` is one (1, 1, H, W) image (both heads
    read image 0 only) with H and W positive multiples of the largest backbone
    stride, and ``ValueError`` unless it is finite in its dtype."""
    shape, s = image.shape, TAP_STRIDES["tap5"]
    if len(shape) != 4 or shape[:2] != (1, 1) or min(shape[2:]) < 1 or shape[2] % s or shape[3] % s:
        raise ShapeError(
            f"{what} must be one NCHW image of shape (1, 1, H, W) with H and W positive multiples of {s}, got {shape}"
        )
    bad = image.size - np.count_nonzero(np.isfinite(image))
    if bad:
        raise ValueError(f"{what} {shape} has {bad} values that are not finite in {image.dtype}")


def check_extents(image: np.ndarray, width, height, what: str):
    """Raise ``ValueError`` unless the original ``width`` x ``height`` of the
    padded (1, 1, H, W) ``image`` lies in (0, W] x (0, H] (written so that NaN fails)."""
    h, w = image.shape[2:]
    if not (0 < width <= w and 0 < height <= h):
        raise ValueError(f"{what}: original extents {width} x {height} must lie in (0, {w}] x (0, {h}]")


class MultiScaleDetector:
    """Two-stage face detector over fused multi-scale features.

    The backbone has five stages of two 3x3 convolutions each, with 2x2
    max-pooling after stages 1-4, so the third/fourth/fifth stage outputs
    sit at cumulative strides 4/8/16.  Those three taps feed both branches;
    their convolutions are shared, and so are the per-tap norm scales and
    the 1x1 channel-shrink convolution.  With ``fusion_mode="tap5"`` both
    branches fuse the stride-16 tap alone, without a norm.
    """

    def __init__(self, cfg: ModelConfig = None, seed: int = 0):
        self.cfg = cfg or ModelConfig()
        rng = np.random.default_rng(seed)
        ch = self.cfg.stage_channels
        ins = (1,) + ch[:4]
        self.stages = []
        for i in range(5):
            self.stages.append(
                [make_conv(rng, ch[i], ins[i], 3), make_conv(rng, ch[i], ch[i], 3)]
            )
        self.fused_taps = FUSED_TAPS[self.cfg.fusion_mode]
        tap_channels = {name: ch[i] for i, name in enumerate(TAP_ORDER, start=2)}
        norm_taps = self.fused_taps if self.cfg.fusion_mode == "multi" else ()
        self.norms = {name: make_l2norm(tap_channels[name], self.cfg.gamma_init) for name in norm_taps}
        shrink_in = sum(tap_channels[name] for name in self.fused_taps)
        fused_c = ch[4]
        self.shrink = make_conv(rng, fused_c, shrink_in, 1)
        k = len(self.cfg.anchor_scales) * len(self.cfg.anchor_ratios)
        self.rpn_head = RpnHead(
            conv=make_conv(rng, self.cfg.rpn_channels, fused_c, 3),
            cls=make_conv(rng, 2 * k, self.cfg.rpn_channels, 1),
            bbox=make_conv(rng, 4 * k, self.cfg.rpn_channels, 1),
        )
        p, width = self.cfg.roi_pool_size, self.cfg.head_width
        self.det_head = DetHead(
            fc1=make_linear(rng, fused_c * p * p, width),
            fc2=make_linear(rng, width, width),
            cls=make_linear(rng, width, 2),
            bbox=make_linear(rng, width, 4),
        )

    # ------------------------------------------------------------------
    # parameter registry

    def params(self) -> "OrderedDict[str, object]":
        reg = OrderedDict()

        def add(prefix, layer):
            reg[f"{prefix}.weight"] = layer.weight
            reg[f"{prefix}.bias"] = layer.bias

        for i, stage in enumerate(self.stages, start=1):
            for j, conv in enumerate(stage, start=1):
                add(f"backbone.s{i}.c{j}", conv)
        for name, gamma in self.norms.items():
            reg[f"norm.{name}.gamma"] = gamma
        add("fusion.shrink", self.shrink)
        for prefix, head in (("rpn", self.rpn_head), ("det", self.det_head)):
            for f in fields(head):
                add(f"{prefix}.{f.name}", getattr(head, f.name))
        return reg

    def zero_grads(self):
        for t in self.params().values():
            t.grad.fill(0.0)

    def save(self, path):
        ckpt.save_checkpoint(path, OrderedDict((k, v.data) for k, v in self.params().items()))

    def load(self, path):
        """Overwrite every parameter from the checkpoint at ``path``; every
        stored name and shape is checked before any parameter is written."""
        stored = ckpt.load_checkpoint(path)
        reg = self.params()
        if set(stored) != set(reg):
            missing = sorted(set(reg) - set(stored))
            extra = sorted(set(stored) - set(reg))
            raise ckpt.CheckpointError(f"parameter names differ (missing={missing}, extra={extra})")
        for name, tensor in reg.items():
            if stored[name].shape != tensor.data.shape:
                raise ckpt.CheckpointError(
                    f"{name}: stored shape {stored[name].shape} != model shape {tensor.data.shape}"
                )
        for name, tensor in reg.items():
            tensor.data[...] = stored[name]

    # ------------------------------------------------------------------
    # backbone

    def backbone_forward(self, x: np.ndarray):
        """The ``{name: (1, C, H, W) map}`` of the fused taps and the caches,
        which hold a ``("tap", name)`` entry where each tap leaves its stage.
        The input must pass :func:`check_image`."""
        check_image(x)
        caches = []
        taps = {}
        h = x
        for i, stage in enumerate(self.stages, start=1):
            for conv in stage:
                h, cc = conv2d(h, conv)
                h, rc = relu(h)
                caches.append(("conv", cc, rc))
            if f"tap{i}" in self.fused_taps:
                taps[f"tap{i}"] = h
                caches.append(("tap", f"tap{i}"))
            if i < len(self.stages):
                h, pc = maxpool2d(h, 2)
                caches.append(("pool", pc))
        return taps, caches

    def backbone_backward(self, tap_grads: dict, caches) -> np.ndarray:
        """Single backward sweep; each tap's gradient joins where the forward took the tap."""
        d = 0.0
        for entry in reversed(caches):
            if entry[0] == "tap":
                d = d + tap_grads[entry[1]]
            elif entry[0] == "pool":
                d = maxpool2d_backward(d, entry[1])
            else:
                _, cc, rc = entry
                d = relu_backward(d, rc)
                d = conv2d_backward(d, cc)
        return d

    # ------------------------------------------------------------------
    # dense fusion for the proposal branch

    def fused_map_forward(self, taps: dict):
        """The (1, outC, H, W) fused map on the stride-16 grid of H x W cells:
        the ROI branch's pooling and fusion with the cells as ROIs at one bin
        each, which max-pools each tap by its stride ratio (NaN as in
        :func:`roi_pool`)."""
        h, w = taps["tap5"].shape[2:]
        cells = generate_anchors(h, w, (1.0,), (1.0,), TAP_STRIDES["tap5"])
        fused, cache = ms_roi_pool_batch(taps, cells, self.norms, self.shrink, 1)
        return fused.transpose(1, 0, 2, 3).reshape(1, -1, h, w), cache

    def fused_map_backward(self, dfused: np.ndarray, cache) -> dict:
        """The ``{name: (1, C, H, W) grad}`` of each fused tap."""
        return ms_roi_pool_batch_backward(dfused.reshape(dfused.shape[1], -1, 1, 1).transpose(1, 0, 2, 3), cache)

    # ------------------------------------------------------------------
    # per-region branch

    def roi_forward(self, taps, rois: np.ndarray):
        return detection_forward(taps, rois, self.det_head, self.norms, self.shrink, self.cfg.roi_pool_size)

    def roi_backward(self, dlogits, ddeltas, cache) -> dict:
        """The ``{name: (1, C, H, W) grad}`` of each fused tap."""
        return detection_backward(dlogits, ddeltas, cache)

    # ------------------------------------------------------------------
    # inference

    def anchors_for(self, feat_h: int, feat_w: int) -> np.ndarray:
        return generate_anchors(feat_h, feat_w, self.cfg.anchor_scales, self.cfg.anchor_ratios, TAP_STRIDES["tap5"])

    def forward(self, image: np.ndarray):
        """Backbone, dense fusion, proposal head and anchors on one (1, 1, H, W)
        image, in its dtype: ``(taps, logits, deltas, anchors), (bb_cache,
        fus_cache, rpn_cache)``, with (A, 2) logits and (A, 4) deltas in the
        order of the (A, 4) anchors."""
        taps, bb_cache = self.backbone_forward(image)
        fused, fus_cache = self.fused_map_forward(taps)
        (logits, deltas), rpn_cache = rpn_forward(fused, self.rpn_head)
        anchors = self.anchors_for(fused.shape[2], fused.shape[3])
        return (taps, logits, deltas, anchors), (bb_cache, fus_cache, rpn_cache)

    def detect(
        self, image: np.ndarray, orig_w: int, orig_h: int, cfg: DetectConfig | None = None, **overrides
    ) -> list[Detection]:
        """Run the full pipeline on one padded image tensor under ``cfg`` (a
        :class:`DetectConfig`, defaults when None) with any fields replaced by ``overrides``.

        The layers (the front end of :meth:`forward`, whose caches are
        dropped before the region branch runs, then ROI pooling, fusion and
        the region head) run in float32; their per-anchor and per-ROI outputs
        are cast to float64 before :func:`propose` and
        :func:`postprocess_detections`, so softmax, decoding, thresholds and
        NMS, and the returned boxes and scores, are float64.  The float32
        image must pass :func:`check_image`, and ``orig_w``/``orig_h``
        :func:`check_extents`.
        """
        cfg = replace(cfg or DetectConfig(), **overrides)
        with np.errstate(over="ignore"):  # values beyond the float32 range become inf and are rejected
            image = np.asarray(image, dtype=np.float32)
        taps, logits, deltas, anchors = self.forward(image)[0]  # frees the front-end caches before roi_forward
        check_extents(image, orig_w, orig_h, "detect")
        proposals = propose(logits.astype(np.float64), deltas.astype(np.float64), anchors, orig_w, orig_h, cfg)
        rois = np.array([p.box for p in proposals]).reshape(-1, 4)
        (cls_logits, box_deltas), _ = self.roi_forward(taps, rois)
        return postprocess_detections(
            cls_logits.astype(np.float64), box_deltas.astype(np.float64), rois, orig_w, orig_h, cfg
        )
