"""Joint end-to-end training of backbone, fusion, proposal and region heads
under the combined multi-task loss."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .detector import assign_detection_targets
from .model import MultiScaleDetector, ModelConfig
from .rpn import (
    RpnTargets,
    TargetAssignmentError,
    assign_rpn_targets,
    propose,
    rpn_backward,
    rpn_forward,
)
from .tensor import (
    smooth_l1,
    softmax_cross_entropy,
    softmax_cross_entropy_backward,
)


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    momentum: float = 0.9
    weight_decay: float = 5e-4
    iterations: int = 2000
    seed: int = 7
    loss_lambda: float = 1.0
    lr_drop: bool = False  # 10x learning-rate drop at 75% of the run
    pre_nms_top_n: int = 2000
    post_nms_top_n: int = 300
    rpn_nms_thresh: float = 0.7
    min_size: float = 4.0

    def validate(self):
        if self.learning_rate <= 0 or self.momentum < 0 or self.weight_decay < 0:
            raise ValueError("rates must be positive (momentum/decay non-negative)")
        if self.iterations <= 0:
            raise ValueError("iterations must be positive")
        if self.loss_lambda < 0:
            raise ValueError("loss_lambda must be non-negative")


def multitask_loss(
    rpn_logits: np.ndarray,
    rpn_deltas: np.ndarray,
    rpn_targets: RpnTargets,
    det_logits: np.ndarray,
    det_deltas: np.ndarray,
    det_labels: np.ndarray,
    det_target_deltas: np.ndarray,
    lam: float,
):
    """Combined objective and its gradients w.r.t. the four head outputs.

    total = rpn_cls + lam * rpn_reg + det_cls + lam * det_reg, where the
    classification terms are mean cross-entropy over the sampled rows and
    the regression terms are the masked quadratic-linear penalty summed over
    positives and divided by the positive count (0 when there are none).
    """
    labels = rpn_targets.labels
    sel = np.flatnonzero(labels >= 0)
    rpn_cls, _, cache = softmax_cross_entropy(rpn_logits[sel], labels[sel])
    d_rpn_logits = np.zeros_like(rpn_logits)
    d_rpn_logits[sel] = softmax_cross_entropy_backward(cache)

    pos = labels == 1
    n_pos = max(int(pos.sum()), 1)
    mask = np.repeat(pos[:, None], 4, axis=1).astype(np.float64)
    reg_sum, reg_grad = smooth_l1(rpn_deltas, rpn_targets.target_deltas, mask)
    rpn_reg = reg_sum / n_pos
    d_rpn_deltas = (lam / n_pos) * reg_grad

    if det_logits.shape[0]:
        det_cls, _, dcache = softmax_cross_entropy(det_logits, det_labels)
        d_det_logits = softmax_cross_entropy_backward(dcache)
        dpos = det_labels == 1
        dn_pos = max(int(dpos.sum()), 1)
        dmask = np.repeat(dpos[:, None], 4, axis=1).astype(np.float64)
        dreg_sum, dreg_grad = smooth_l1(det_deltas, det_target_deltas, dmask)
        det_reg = dreg_sum / dn_pos
        d_det_deltas = (lam / dn_pos) * dreg_grad
    else:
        det_cls = det_reg = 0.0
        d_det_logits = np.zeros_like(det_logits)
        d_det_deltas = np.zeros_like(det_deltas)

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
    """v <- momentum*v - lr*(g + weight_decay*p); p <- p + v."""
    for name, t in params.items():
        g = t.grad
        if g is None:
            continue
        if not np.all(np.isfinite(g)):
            raise RuntimeError(f"non-finite gradient in parameter {name}")
        v = velocity.get(name)
        if v is None:
            v = velocity[name] = np.zeros_like(t.data)
        v *= momentum
        v -= lr * g
        if weight_decay:
            v -= (lr * weight_decay) * t.data
        t.data += v


@dataclass
class PipelineState:
    taps: list
    bb_cache: object
    fus_cache: object
    rpn_cache: object
    anchors: np.ndarray  # (A, 4)
    rpn_logits: np.ndarray  # (A, 2) rows in anchor order
    rpn_deltas: np.ndarray  # (A, 4)


def pipeline_forward(model: MultiScaleDetector, image: np.ndarray) -> PipelineState:
    taps, bb_cache = model.backbone_forward(image)
    fused, fus_cache = model.fused_map_forward(taps)
    (lg, dl), rpn_cache = rpn_forward(fused, model.rpn_head)
    anchors = model.anchors_for(fused.shape[2], fused.shape[3])
    return PipelineState(taps, bb_cache, fus_cache, rpn_cache, anchors, lg, dl)


def pipeline_loss(
    model: MultiScaleDetector,
    st: PipelineState,
    rpn_targets: RpnTargets,
    rois: np.ndarray,
    det_labels: np.ndarray,
    det_target_deltas: np.ndarray,
    lam: float,
    backward: bool = False,
):
    """Loss of the current state against frozen targets; optional backward.

    The backward pass runs the per-region branch and the proposal branch
    into shared tap gradients, then sweeps the backbone exactly once.
    """
    (det_lg, det_dl), det_cache = model.roi_forward(st.taps, rois)
    total, comps, (dlg, ddl, ddet_lg, ddet_dl) = multitask_loss(
        st.rpn_logits, st.rpn_deltas, rpn_targets, det_lg, det_dl, det_labels, det_target_deltas, lam
    )
    if backward:
        tap_grads = model.new_tap_grads(st.taps)
        model.roi_backward(ddet_lg, ddet_dl, det_cache, tap_grads)
        dfused = rpn_backward(dlg, ddl, st.rpn_cache)
        model.fused_map_backward(dfused, st.fus_cache, tap_grads)
        model.backbone_backward(tap_grads, st.bb_cache)
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


def train(
    scenes,
    cfg: TrainConfig,
    model_cfg: ModelConfig | None = None,
    trace_every: int = 10,
    progress=None,
) -> TrainResult:
    """Seeded end-to-end training over a toy scene list.

    Each iteration draws one scene from a reshuffled epoch order, forwards
    the shared backbone once, assigns proposal and region targets, and takes
    one momentum-SGD step on all parameters.  Identical config and seed give
    a bit-identical trace and checkpoint.
    """
    cfg.validate()
    if not scenes:
        raise ValueError("training requires a non-empty dataset")
    for s in scenes:
        if s.image.shape[2] % 16 or s.image.shape[3] % 16:
            raise ValueError(f"scene {s.name} extent {s.image.shape} not a multiple of 16")
    model = MultiScaleDetector(model_cfg or ModelConfig(), seed=cfg.seed)
    rng = np.random.default_rng([cfg.seed, 1])
    params = model.params()
    velocity: dict = {}
    trace = []
    skipped = 0
    order = None
    n = len(scenes)
    model.zero_grads()
    for t in range(cfg.iterations):
        if t % n == 0:
            order = rng.permutation(n)
        scene = scenes[order[t % n]]
        img_h, img_w = scene.image.shape[2], scene.image.shape[3]
        st = pipeline_forward(model, scene.image)
        try:
            rpn_t = assign_rpn_targets(st.anchors, scene.gt_boxes, rng, img_w, img_h)
        except TargetAssignmentError:
            skipped += 1
            continue
        proposals = propose(
            st.rpn_logits,
            st.rpn_deltas,
            st.anchors,
            img_w,
            img_h,
            pre_nms_top_n=cfg.pre_nms_top_n,
            post_nms_top_n=cfg.post_nms_top_n,
            nms_thresh=cfg.rpn_nms_thresh,
            min_size=cfg.min_size,
        )
        boxes = [p.box for p in proposals] + list(scene.gt_boxes)
        rois = np.stack(boxes) if boxes else np.zeros((0, 4))
        det_t = assign_detection_targets(rois, scene.gt_boxes, rng)
        sampled = rois[det_t.roi_indices]
        total, comps = pipeline_loss(
            model, st, rpn_t, sampled, det_t.labels, det_t.target_deltas, cfg.loss_lambda, backward=True
        )
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
