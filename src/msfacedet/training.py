"""Joint end-to-end training of backbone, fusion, proposal and region heads
under the combined multi-task loss."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .boxes import check_boxes
from .detector import Targets, assign_detection_targets
from .model import MultiScaleDetector, ModelConfig, check_extents, check_image
from .rpn import (
    DetectConfig,
    FieldError,
    TargetAssignmentError,
    assign_rpn_targets,
    propose,
    require_int,
    rpn_backward,
)

# rpn_forward is not called here (MultiScaleDetector.forward runs the proposal
# head), but benchmark/tracer.py wraps it at this module's name
from .rpn import rpn_forward  # noqa: F401
from .tensor import (
    _BAND_BYTES,
    smooth_l1,
    softmax_cross_entropy,
    softmax_cross_entropy_backward,
)


@dataclass(frozen=True)
class TrainConfig(ModelConfig, DetectConfig):
    """The optimiser's settings, plus the model it builds and the proposals it trains on."""

    learning_rate: float = 1e-3
    momentum: float = 0.9
    weight_decay: float = 5e-4
    iterations: int = 2000
    seed: int = 7
    loss_lambda: float = 1.0
    lr_drop: bool = False  # 10x learning-rate drop at 75% of the run

    def __post_init__(self):
        ModelConfig.__post_init__(self)
        DetectConfig.__post_init__(self)
        # each range is written so that NaN fails it
        if not 0 < self.learning_rate < math.inf:
            raise FieldError("learning_rate", f"{self.learning_rate} outside (0, inf)")
        for name in ("momentum", "weight_decay"):
            if not 0 <= getattr(self, name) < math.inf:
                raise FieldError(name, f"{getattr(self, name)} outside [0, inf)")
        require_int("iterations", self.iterations, 1)
        require_int("seed", self.seed, 0)
        if not 0 <= self.loss_lambda < math.inf:
            raise FieldError("loss_lambda", f"{self.loss_lambda} outside [0, inf)")


def _head_loss(logits, deltas, targets: Targets, lam):
    """One head's term against its :class:`Targets`, row for row: mean
    cross-entropy over the rows labelled >= 0 (rows labelled -1 get zero
    gradient) and the masked quadratic-linear penalty summed over the
    positives and divided by ``targets.n_pos`` (at least 1).

    Returns (cls, reg, dlogits, ddeltas), with ddeltas already scaled by lam.
    """
    labels = targets.labels
    sel = np.flatnonzero(labels >= 0)
    cls, cache = softmax_cross_entropy(logits[sel], labels[sel])
    dlogits = np.zeros_like(logits)
    dlogits[sel] = softmax_cross_entropy_backward(cache)
    n_pos = max(targets.n_pos, 1)
    mask = np.repeat((labels == 1)[:, None], 4, axis=1).astype(np.float64)
    reg_sum, reg_grad = smooth_l1(deltas, targets.target_deltas, mask)
    return cls, reg_sum / n_pos, dlogits, (lam / n_pos) * reg_grad


def multitask_loss(rpn_out, rpn_targets: Targets, det_out, det_targets: Targets, lam: float):
    """Combined objective and its gradients w.r.t. the four head outputs.

    ``rpn_out`` and ``det_out`` are each head's ``(logits, deltas)`` pair, row
    for row with the rows of its :class:`Targets` (anchors, then sampled ROIs).
    total = rpn_cls + lam * rpn_reg + det_cls + lam * det_reg, one
    :func:`_head_loss` term per head.  An empty detection batch gives zero
    terms and zero-size gradients.
    """
    rpn_cls, rpn_reg, d_rpn_logits, d_rpn_deltas = _head_loss(*rpn_out, rpn_targets, lam)
    det_cls, det_reg, d_det_logits, d_det_deltas = _head_loss(*det_out, det_targets, lam)
    total = rpn_cls + lam * rpn_reg + det_cls + lam * det_reg
    comps = {
        "total": total,
        "rpn_cls": rpn_cls,
        "rpn_reg": rpn_reg,
        "det_cls": det_cls,
        "det_reg": det_reg,
    }
    return total, comps, (d_rpn_logits, d_rpn_deltas, d_det_logits, d_det_deltas)


def sgd_momentum_step(params, velocity: dict, lr: float, momentum: float, weight_decay: float):
    """v <- momentum*v - lr*(g + weight_decay*p); p <- p + v, where ``velocity``
    holds one zero-initialised buffer per parameter name, updated in place.

    Every gradient is checked before any parameter moves, so a non-finite one
    raises with every ``data`` and velocity as they were.

    The update runs in blocks of whole rows (axis-0 slices, which are views
    of an array of any layout) of about ``_BAND_BYTES // 32`` float64
    elements, so that the blocks of velocity, gradient, data and one scratch
    stay in L2 from the first operation to the last; on the whole parameter
    set each operation would stream 9.5 MB.  Each element still goes through
    ``v *= momentum``, ``v -= lr*g``, ``v -= (lr*weight_decay)*p``,
    ``p += v`` in that order, each one IEEE operation on the same operands,
    so the bits are those of the four whole-array statements."""
    for name, t in params.items():
        if not np.all(np.isfinite(t.grad)):
            raise RuntimeError(f"non-finite gradient in parameter {name}")
    block = _BAND_BYTES // 32  # float64 elements: blocks of v, g, data and scratch fill _BAND_BYTES
    # a block holds at least one row, so the scratch spans the widest row
    scratch = np.empty(max([block, *(t.data[:1].size for t in params.values())]))
    for name, t in params.items():
        v, g, p = velocity[name], t.grad, t.data
        rows = max(1, block // max(1, p[:1].size))
        for r in range(0, len(p), rows):
            vb, gb, pb = v[r : r + rows], g[r : r + rows], p[r : r + rows]
            s = scratch[: gb.size].reshape(gb.shape)
            vb *= momentum
            vb -= np.multiply(lr, gb, out=s)
            if weight_decay:
                vb -= np.multiply(lr * weight_decay, pb, out=s)
            pb += vb


def pipeline_loss(
    model: MultiScaleDetector,
    forward,
    rpn_targets: Targets,
    det_targets: Targets,
    lam: float,
    backward: bool = False,
):
    """Loss of one image against frozen targets; optional backward.

    ``forward`` is the ``(out, cache)`` pair that ``model.forward`` returned
    for the image, whose anchors are ``rpn_targets.rois``; the region head
    runs on its taps at ``det_targets.rois``.
    The backward pass adds each tap's gradients from the per-region branch
    and the proposal branch (run in that order, which fixes the order of the
    shared shrink and norm gradients), then sweeps the backbone exactly once.
    """
    (taps, logits, deltas, _), (bb_cache, fus_cache, rpn_cache) = forward
    det_out, det_cache = model.roi_forward(taps, det_targets.rois)
    total, comps, grads = multitask_loss((logits, deltas), rpn_targets, det_out, det_targets, lam)
    dlg, ddl, ddet_lg, ddet_dl = grads
    if backward:
        roi = model.roi_backward(ddet_lg, ddet_dl, det_cache)
        dense = model.fused_map_backward(rpn_backward(dlg, ddl, rpn_cache), fus_cache)
        model.backbone_backward({name: roi[name] + dense[name] for name in roi}, bb_cache)
    return total, comps


@dataclass
class TrainResult:
    model: MultiScaleDetector
    trace: list = field(default_factory=list)  # rows (iter, total, rpn_cls, rpn_reg, det_cls, det_reg)
    skipped: int = 0


def format_trace(trace) -> str:
    lines = [
        f"{it} {tot:.6f} {rc:.6f} {rr:.6f} {dc:.6f} {dr:.6f}"
        for it, tot, rc, rr, dc, dr in trace
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def train(scenes, cfg: TrainConfig, trace_every: int = 10, progress=None) -> TrainResult:
    """Seeded end-to-end training over a toy scene list.

    Each iteration draws one scene from a reshuffled epoch order, forwards
    the shared backbone once, assigns proposal and region targets, and takes
    one momentum-SGD step on all parameters.  The model is built from
    ``cfg``'s model fields, and proposals for the region head are selected by
    its detection fields, as at test time.  Identical config and seed give a
    bit-identical trace and checkpoint under the same BLAS library, kernel
    and thread count (the thread split can change a product's bits).  Every
    scene image must pass :func:`check_image` in its own dtype, its width
    and height :func:`check_extents` and its ground truth
    :func:`check_boxes`; the layers run in float64.  A trace row is kept
    every ``trace_every`` iterations (an integer >= 1) and after the last,
    unless that one was skipped for lack of anchor targets.
    """
    require_int("trace_every", trace_every, 1)
    if not scenes:
        raise ValueError("training requires a non-empty dataset")
    for s in scenes:
        image = np.asarray(s.image)
        check_image(image, f"scene {s.name}: image")
        check_extents(image, s.width, s.height, f"scene {s.name}")
        check_boxes(s.gt_boxes, f"scene {s.name}", "ground-truth")
    model = MultiScaleDetector(cfg, seed=cfg.seed)
    rng = np.random.default_rng([cfg.seed, 1])
    params = model.params()
    velocity = {name: np.zeros_like(t.data) for name, t in params.items()}
    trace = []
    skipped = 0
    order = None
    n = len(scenes)
    model.zero_grads()
    for t in range(cfg.iterations):
        if t % n == 0:
            order = rng.permutation(n)
        scene = scenes[order[t % n]]
        forward = model.forward(np.asarray(scene.image, dtype=np.float64))
        _, logits, deltas, anchors = forward[0]
        try:
            rpn_t = assign_rpn_targets(anchors, scene.gt_boxes, rng, scene.width, scene.height)
        except TargetAssignmentError:
            skipped += 1
            continue
        proposals = propose(logits, deltas, anchors, scene.width, scene.height, cfg)
        det_t = assign_detection_targets(np.array([p.box for p in proposals]), scene.gt_boxes, rng)
        total, comps = pipeline_loss(model, forward, rpn_t, det_t, cfg.loss_lambda, backward=True)
        if not np.isfinite(total):
            raise RuntimeError(
                f"training diverged at iteration {t + 1}: total loss {total}; trace so far:\n"
                + format_trace(trace)
            )
        lr = cfg.learning_rate
        if cfg.lr_drop and t >= int(0.75 * cfg.iterations):
            lr *= 0.1
        sgd_momentum_step(params, velocity, lr, cfg.momentum, cfg.weight_decay)
        model.zero_grads()
        it = t + 1
        if it % trace_every == 0 or it == cfg.iterations:
            trace.append(
                (it, comps["total"], comps["rpn_cls"], comps["rpn_reg"], comps["det_cls"], comps["det_reg"])
            )
            if progress is not None:
                progress(it, comps)
    return TrainResult(model=model, trace=trace, skipped=skipped)
