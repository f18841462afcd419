"""Desk-scale two-stage face detector with multi-scale feature fusion.

Three backbone taps at strides 4/8/16 are L2-normalized per channel,
re-weighted by learnable factors, concatenated and shrunk to feed both a
region-proposal head and a per-region detection head; everything trains
jointly from scratch at double precision on synthetic scenes, and every
backward pass is verifiable against central finite differences.  Detection
runs the same layers in single precision.
"""

from .boxes import decode_deltas, encode_deltas, iou_matrix, nms, project_roi
from .evaluation import EvalConfig, evaluate_dataset
from .model import ModelConfig, MultiScaleDetector
from .rpn import DetectConfig, generate_anchors, propose
from .tensor import Tensor
from .toydata import ToyScene, generate_toy_dataset
from .training import TrainConfig, train

__all__ = [
    "DetectConfig",
    "EvalConfig",
    "ModelConfig",
    "MultiScaleDetector",
    "Tensor",
    "ToyScene",
    "TrainConfig",
    "decode_deltas",
    "encode_deltas",
    "evaluate_dataset",
    "generate_anchors",
    "generate_toy_dataset",
    "iou_matrix",
    "nms",
    "project_roi",
    "propose",
    "train",
]
