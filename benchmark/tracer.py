"""In-memory span tracing of msfacedet layers, installed from outside.

Timing wrappers replace functions at the names their callers look up (for
example ``msfacedet.training.propose``, not ``msfacedet.rpn.propose``), so
the program's code is unchanged and the wrappers exist only inside
:func:`installed`.  Each span records its name, start and end
(``perf_counter_ns``), parent span and operation id (train iteration or
detect image).  A few wrappers also note counts taken from their arguments
or results; those hooks only read and never change what flows through.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict

import numpy as np

# (module, attribute looked up by callers, span name)
FUNCTION_SITES = (
    ("msfacedet.training", "propose", "rpn.propose"),
    ("msfacedet.training", "assign_rpn_targets", "rpn.assign_rpn_targets"),
    ("msfacedet.training", "rpn_forward", "rpn.rpn_forward"),
    ("msfacedet.training", "rpn_backward", "rpn.rpn_backward"),
    ("msfacedet.training", "multitask_loss", "training.multitask_loss"),
    ("msfacedet.training", "sgd_momentum_step", "training.sgd_momentum_step"),
    ("msfacedet.training", "assign_detection_targets", "detector.assign_detection_targets"),
    ("msfacedet.model", "propose", "rpn.propose"),
    ("msfacedet.model", "rpn_forward", "rpn.rpn_forward"),
    ("msfacedet.model", "postprocess_detections", "detector.postprocess_detections"),
    ("msfacedet.detector", "ms_roi_pool_batch", "fusion.ms_roi_pool_batch"),
    ("msfacedet.detector", "ms_roi_pool_batch_backward", "fusion.ms_roi_pool_batch_backward"),
    ("msfacedet.detector", "nms", "boxes.nms"),
    ("msfacedet.fusion", "roi_pool", "fusion.roi_pool"),
    ("msfacedet.rpn", "nms", "boxes.nms"),
    ("msfacedet.model", "conv2d", "tensor.conv2d"),
    ("msfacedet.fusion", "conv2d", "tensor.conv2d"),
    ("msfacedet.rpn", "conv2d", "tensor.conv2d"),
    ("msfacedet.model", "conv2d_backward", "tensor.conv2d_backward"),
    ("msfacedet.fusion", "conv2d_backward", "tensor.conv2d_backward"),
    ("msfacedet.rpn", "conv2d_backward", "tensor.conv2d_backward"),
    ("msfacedet.model", "maxpool2d", "tensor.maxpool2d"),
    ("msfacedet.fusion", "maxpool2d", "tensor.maxpool2d"),
)

METHOD_SITES = (
    "detect",
    "backbone_forward",
    "backbone_backward",
    "fused_map_forward",
    "fused_map_backward",
    "roi_forward",
    "roi_backward",
)

# Spans whose inclusive time makes up one pipeline stage.  They never nest
# inside each other, so their inclusive times add up without overlap.
STAGES = {
    "backbone": ("model.backbone_forward", "model.backbone_backward"),
    "dense_fusion": ("model.fused_map_forward", "model.fused_map_backward"),
    "rpn_head": ("rpn.rpn_forward", "rpn.rpn_backward"),
    "propose": ("rpn.propose",),
    "targets": ("rpn.assign_rpn_targets", "detector.assign_detection_targets"),
    "roi_head": ("model.roi_forward", "model.roi_backward"),
    "loss_sgd": ("training.multitask_loss", "training.sgd_momentum_step"),
    "postprocess": ("detector.postprocess_detections",),
}

TIMED_SPANS = (
    "model.backbone_forward",
    "model.backbone_backward",
    "model.fused_map_forward",
    "model.fused_map_backward",
    "model.roi_forward",
    "model.roi_backward",
    "fusion.ms_roi_pool_batch",
    "fusion.ms_roi_pool_batch_backward",
    "fusion.roi_pool",
    "rpn.rpn_forward",
    "rpn.rpn_backward",
    "rpn.propose",
    "boxes.nms",
    "rpn.assign_rpn_targets",
    "detector.assign_detection_targets",
    "detector.postprocess_detections",
    "training.multitask_loss",
    "training.sgd_momentum_step",
    "tensor.conv2d",
    "tensor.conv2d_backward",
    "tensor.maxpool2d",
)

COUNTED_SPANS = ("fusion.roi_pool", "boxes.nms", "tensor.conv2d")


class Tracer:
    """Span and counter store for one traced pass.

    ``begin_op`` opens the next operation; every span and count recorded
    until the next ``begin_op`` belongs to it.
    """

    def __init__(self):
        self.name: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.child_ns: list[int] = []
        self._stack: list[int] = []
        self.op_id = -1
        self.counts: dict = defaultdict(float)
        self.op_proposals: dict = {}  # op -> proposal boxes (P, 4)
        self.op_gt: dict = {}  # op -> ground-truth boxes (G, 4)

    def begin_op(self, gt_boxes=None):
        self.op_id += 1
        if gt_boxes is not None:
            self.op_gt[self.op_id] = gt_boxes

    def enter(self, name: str) -> int:
        i = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.child_ns.append(0)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def exit(self, i: int):
        t = time.perf_counter_ns()
        self.end[i] = t
        self._stack.pop()
        p = self.parent[i]
        if p >= 0:
            self.child_ns[p] += t - self.start[i]

    def count(self, key: str, value: float = 1.0):
        self.counts[key] += value

    # ------------------------------------------------------------------

    def self_ns(self) -> dict:
        """Total self time per span name: duration minus child spans."""
        out: dict = defaultdict(int)
        for n, s, e, c in zip(self.name, self.start, self.end, self.child_ns):
            out[n] += e - s - c
        return out

    def inclusive_ns(self) -> dict:
        out: dict = defaultdict(int)
        for n, s, e in zip(self.name, self.start, self.end):
            out[n] += e - s
        return out

    def calls(self) -> dict:
        out: dict = defaultdict(int)
        for n in self.name:
            out[n] += 1
        return out

    def top_level_ns(self) -> int:
        """Summed duration of spans without a parent (= summed self time)."""
        return sum(e - s for s, e, p in zip(self.start, self.end, self.parent) if p < 0)

    def proposal_recall(self, iou_thresh: float = 0.5) -> float:
        """Share of ground-truth boxes with a proposal of IoU > ``iou_thresh``."""
        from msfacedet.boxes import iou_matrix

        hits = total = 0
        for op, gt in self.op_gt.items():
            gt = np.asarray(gt, dtype=np.float64).reshape(-1, 4)
            props = self.op_proposals.get(op)
            total += gt.shape[0]
            if props is not None and props.size and gt.size:
                hits += int((iou_matrix(gt, props).max(axis=1) > iou_thresh).sum())
        return hits / total if total else 0.0

    def write(self, path):
        """Spans as tab-separated rows: op, index, parent, name, start_ns, end_ns."""
        with open(path, "w") as f:
            f.write("op\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for i, (n, s, e, p, o) in enumerate(zip(self.name, self.start, self.end, self.parent, self.op)):
                f.write(f"{o}\t{i}\t{p}\t{n}\t{s}\t{e}\n")


# ----------------------------------------------------------------------
# count hooks: (tracer, args, kwargs, result) -> None, run after the span


def _conv_hook(tr: Tracer, args, kwargs, out):
    x, p = args[0], args[1]
    n, c = x.shape[0], x.shape[1]
    _, _, ho, wo = out[0].shape
    out_c, in_c, kh, kw = p.weight.data.shape
    rows = n * ho * wo
    tr.count("tensor.conv2d.flop", 2.0 * rows * out_c * in_c * kh * kw)
    tr.count("tensor.conv2d.cols_bytes", 8.0 * rows * c * kh * kw)


def _propose_hook(tr: Tracer, args, kwargs, out):
    logits, anchors = args[0], args[2]
    tr.count("rpn.propose.candidates", anchors.shape[0] if logits.ndim == 4 else logits.shape[0])
    tr.count("rpn.propose.kept", len(out))
    tr.op_proposals[tr.op_id] = np.stack([p.box for p in out]) if out else np.zeros((0, 4))


def _rpn_targets_hook(tr: Tracer, args, kwargs, out):
    tr.op_gt[tr.op_id] = args[1]


def _det_targets_hook(tr: Tracer, args, kwargs, out):
    tr.count("detector.fg", out.n_pos)
    tr.count("detector.sampled", len(out.labels))


def _roi_forward_hook(tr: Tracer, args, kwargs, out):
    tr.count("detector.rois", np.asarray(args[2]).reshape(-1, 4).shape[0])


def _postprocess_hook(tr: Tracer, args, kwargs, out):
    tr.count("detector.detections", len(out))


HOOKS = {
    "tensor.conv2d": _conv_hook,
    "rpn.propose": _propose_hook,
    "rpn.assign_rpn_targets": _rpn_targets_hook,
    "detector.assign_detection_targets": _det_targets_hook,
    "model.roi_forward": _roi_forward_hook,
    "detector.postprocess_detections": _postprocess_hook,
}


def _wrap(tr: Tracer, name: str, fn):
    hook = HOOKS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = tr.enter(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tr.exit(i)
        if hook is not None:
            hook(tr, args, kwargs, out)
        return out

    return traced


@contextlib.contextmanager
def installed(tr: Tracer):
    """Install every timing wrapper for the duration of the block."""
    from msfacedet.model import MultiScaleDetector

    saved = []
    try:
        for module_name, attr, span in FUNCTION_SITES:
            mod = importlib.import_module(module_name)
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            setattr(mod, attr, _wrap(tr, span, fn))
        for method in METHOD_SITES:
            fn = MultiScaleDetector.__dict__[method]
            saved.append((MultiScaleDetector, method, fn))
            setattr(MultiScaleDetector, method, _wrap(tr, f"model.{method}", fn))
        yield tr
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def layer_metrics(tr: Tracer, n_ops: int, traced_ns: int) -> dict:
    """Per-operation layer metrics of one traced pass as {name: (value, unit)}.

    ``traced_ns`` is the traced pass's summed operation time, the base of
    every ``stage.*.frac`` share.
    """
    ops = max(n_ops, 1)
    self_ns = tr.self_ns()
    incl = tr.inclusive_ns()
    calls = tr.calls()
    c = tr.counts
    m = {}
    for span in TIMED_SPANS:
        m[f"{span}.ms"] = (self_ns.get(span, 0) / 1e6 / ops, "ms")
    for span in COUNTED_SPANS:
        m[f"{span}.calls"] = (calls.get(span, 0) / ops, "count")
    m["detector.rois"] = (c["detector.rois"] / ops, "count")
    m["detector.detections"] = (c["detector.detections"] / ops, "count")
    m["detector.fg_frac"] = (c["detector.fg"] / c["detector.sampled"] if c["detector.sampled"] else 0.0, "ratio")
    m["rpn.propose.candidates"] = (c["rpn.propose.candidates"] / ops, "count")
    m["rpn.propose.kept"] = (c["rpn.propose.kept"] / ops, "count")
    cand = c["rpn.propose.candidates"]
    m["rpn.propose.kept_frac"] = (c["rpn.propose.kept"] / cand if cand else 0.0, "ratio")
    m["rpn.proposal_recall"] = (tr.proposal_recall(), "ratio")
    # computed from tensor shapes, not measured
    m["tensor.conv2d.gflop"] = (c["tensor.conv2d.flop"] / 1e9 / ops, "GFLOP-calc")
    m["tensor.conv2d.cols_mb"] = (c["tensor.conv2d.cols_bytes"] / 1e6 / ops, "MB-calc")
    base = max(traced_ns, 1)
    for stage, spans in STAGES.items():
        m[f"stage.{stage}.frac"] = (sum(incl.get(s, 0) for s in spans) / base, "ratio")
    return m
