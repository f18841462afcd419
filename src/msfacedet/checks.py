"""Finite-difference verification battery for every differentiable piece,
from single layers up to the combined loss on a tiny end-to-end model.

Each layer check runs its forward once, draws a standard-normal projection
per output and compares the backward pass against central differences of
sum(out * proj) (:func:`_projected_check`).  The scalar losses are checked
directly.  :func:`finite_difference_check` does the comparison for both.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .detector import assign_detection_targets
from .fusion import (
    TAP_ORDER,
    TAP_STRIDES,
    concat_shrink,
    concat_shrink_backward,
    l2norm_scale,
    l2norm_scale_backward,
    make_l2norm,
    ms_roi_pool_batch,
    ms_roi_pool_batch_backward,
    roi_pool,
    roi_pool_backward,
)
from .model import ModelConfig, MultiScaleDetector
from .rpn import RpnHead, assign_rpn_targets, rpn_backward, rpn_forward
from .tensor import (
    conv2d,
    conv2d_backward,
    fully_connected,
    fully_connected_backward,
    make_conv,
    make_linear,
    maxpool2d,
    maxpool2d_backward,
    relu,
    relu_backward,
    smooth_l1,
    softmax_cross_entropy,
    softmax_cross_entropy_backward,
)
from .training import pipeline_loss

DEFAULT_SEEDS = (0, 1, 2, 3, 4)
# end-to-end seeds verified to keep ReLU/argmax margins >= 10*STEP, as the
# finite-difference contract requires of its evaluation points
MODEL_CHECK_SEEDS = (0, 4, 6, 7, 18)
TOLERANCE = 1e-4
STEP = 1e-5


def finite_difference_check(
    loss_fn: Callable[[], float],
    arrays: Sequence[np.ndarray],
    analytic: Sequence[np.ndarray],
) -> float:
    """Max relative error between analytic gradients and central differences.

    ``loss_fn`` must recompute the scalar from the current contents of
    ``arrays``, which are perturbed in place by ``STEP`` one element at a
    time.  The relative error for one element is |a - n| / max(|a|, |n|, 1e-8).
    """
    worst = 0.0
    for arr, grad in zip(arrays, analytic):
        if arr.shape != grad.shape:
            raise ValueError(f"gradient shape {grad.shape} != array shape {arr.shape}")
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + STEP
            up = loss_fn()
            flat[i] = orig - STEP
            down = loss_fn()
            flat[i] = orig
            num = (up - down) / (2.0 * STEP)
            err = abs(gflat[i] - num) / max(abs(gflat[i]), abs(num), 1e-8)
            worst = max(worst, err)
    return worst


def _projected_check(rng, forward, backward, inputs, params=()) -> float:
    """Check a layer's backward against central differences of sum(out * proj).

    ``forward()`` returns ``(out, cache)`` with ``out`` an array or a tuple of
    arrays; after the first forward one standard-normal projection per
    output is drawn from ``rng``, in output order.  The grads of the
    ``params`` tensors are zeroed, then ``backward(projs, cache)`` returns the
    gradients of ``inputs`` in order and accumulates those of ``params``.
    """

    def outputs():
        out, cache = forward()
        return (out if isinstance(out, tuple) else (out,)), cache

    outs, cache = outputs()
    projs = [rng.standard_normal(o.shape) for o in outs]
    for t in params:
        t.grad.fill(0.0)
    dinputs = backward(projs, cache)

    def loss():
        return sum(float((o * p).sum()) for o, p in zip(outputs()[0], projs))

    arrays = list(inputs) + [t.data for t in params]
    return finite_difference_check(loss, arrays, list(dinputs) + [t.grad for t in params])


def _distinct(rng, shape, scale=0.01):
    """Random values with pairwise gaps >= scale, safe for max-based ops."""
    n = int(np.prod(shape))
    return (rng.permutation(n).astype(np.float64) * scale).reshape(shape)


def _away_from_zero(rng, shape, margin=1e-3):
    x = rng.uniform(margin + 10 * STEP, 1.0, size=shape)
    return x * rng.choice([-1.0, 1.0], size=shape)


def check_conv2d(seed: int) -> float:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((1, 2, 5, 5))
    p = make_conv(rng, 3, 2, 3)
    p.weight.data[...] = rng.standard_normal(p.weight.data.shape)
    p.bias.data[...] = rng.standard_normal(p.bias.data.shape)
    return _projected_check(
        rng, lambda: conv2d(x, p), lambda pr, c: [conv2d_backward(pr[0], c)], [x], [p.weight, p.bias]
    )


def check_maxpool2d(seed: int) -> float:
    rng = np.random.default_rng(seed)
    x = _distinct(rng, (1, 3, 6, 6))
    return _projected_check(rng, lambda: maxpool2d(x, 2), lambda pr, c: [maxpool2d_backward(pr[0], c)], [x])


def check_relu(seed: int) -> float:
    rng = np.random.default_rng(seed)
    x = _away_from_zero(rng, (2, 3, 4, 4))
    return _projected_check(rng, lambda: relu(x), lambda pr, c: [relu_backward(pr[0], c)], [x])


def check_fully_connected(seed: int) -> float:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, 4))
    p = make_linear(rng, 4, 3)
    p.weight.data[...] = rng.standard_normal(p.weight.data.shape)
    p.bias.data[...] = rng.standard_normal(p.bias.data.shape)
    return _projected_check(
        rng, lambda: fully_connected(x, p), lambda pr, c: [fully_connected_backward(pr[0], c)], [x], [p.weight, p.bias]
    )


def check_softmax_cross_entropy(seed: int) -> float:
    rng = np.random.default_rng(seed)
    logits = rng.standard_normal((3, 4))
    labels = rng.integers(0, 4, size=3)
    _, _, cache = softmax_cross_entropy(logits, labels)
    dlogits = softmax_cross_entropy_backward(cache)

    def loss():
        return softmax_cross_entropy(logits, labels)[0]

    return finite_difference_check(loss, [logits], [dlogits])


def check_smooth_l1(seed: int) -> float:
    rng = np.random.default_rng(seed)
    pred = rng.uniform(-2.0, 2.0, size=(4, 4))
    target = np.zeros_like(pred)
    # keep differences away from the |d| = 1 transition
    pred[np.abs(np.abs(pred) - 1.0) < 0.05] += 0.1
    mask = (rng.random(pred.shape) < 0.7).astype(np.float64)
    _, grad = smooth_l1(pred, target, mask)

    def loss():
        return smooth_l1(pred, target, mask)[0]

    return finite_difference_check(loss, [pred], [grad])


def check_l2norm_scale(seed: int) -> float:
    rng = np.random.default_rng(seed)
    x = _away_from_zero(rng, (4, 9))
    gamma = make_l2norm(4, gamma_init=1.0)
    gamma.data[...] = rng.uniform(0.5, 3.0, size=4)
    return _projected_check(
        rng, lambda: l2norm_scale(x, gamma), lambda pr, c: [l2norm_scale_backward(pr[0], c)], [x], [gamma]
    )


def check_concat_shrink(seed: int) -> float:
    rng = np.random.default_rng(seed)
    tables = [rng.standard_normal((c, 9)) for c in (2, 3, 4)]
    # 8 positions over columns 0-4: some columns repeat, and 5-8 are skipped
    index = [rng.integers(0, 5, (2, 4)) for _ in TAP_ORDER]
    norms = {"tap4": make_l2norm(3, gamma_init=2.0)}
    shrink = make_conv(rng, 4, 9, 1)
    shrink.weight.data[...] = rng.standard_normal(shrink.weight.data.shape)
    return _projected_check(
        rng,
        lambda: concat_shrink(tables, TAP_ORDER, norms, shrink, index),
        lambda pr, c: concat_shrink_backward(pr[0], c),
        tables,
        [norms["tap4"], shrink.weight, shrink.bias],
    )


def check_roi_pool(seed: int) -> float:
    rng = np.random.default_rng(seed)
    fmap = _distinct(rng, (3, 8, 8))
    # 8 x 7 cells; 2 cells wide, so a bin borrows its neighbour's; 4 x 4 cells, another candidate count
    rois = np.array([[3.0, 2.0, 29.0, 27.0], [13.0, 9.0, 19.0, 30.0], [16.0, 12.0, 32.0, 28.0]])

    def table():  # the (C, U) table of distinct rectangles, whose gradient the backward takes
        (table, _), cache = roi_pool(fmap, rois, 4, 3)
        return table, cache

    return _projected_check(rng, table, lambda pr, c: [roi_pool_backward(pr[0], c)], [fmap])


def _tiny_taps(rng):
    """The taps of a 32x32 image, each on its stride's grid."""
    channels = {"tap3": 2, "tap4": 3, "tap5": 3}
    return {name: _distinct(rng, (1, channels[name], 32 // s, 32 // s)) + 0.05 for name, s in TAP_STRIDES.items()}


def check_ms_roi_pool(seed: int) -> float:
    rng = np.random.default_rng(seed)
    taps = _tiny_taps(rng)
    norms = {name: make_l2norm(fmap.shape[1], gamma_init=2.0) for name, fmap in taps.items()}
    shrink = make_conv(rng, 3, 8, 1)
    shrink.weight.data[...] = rng.standard_normal(shrink.weight.data.shape)
    rois = np.array([[2.0, 3.0, 21.0, 17.0], [10.0, 8.0, 14.0, 13.0]])
    return _projected_check(
        rng,
        lambda: ms_roi_pool_batch(taps, rois, norms, shrink, 3),
        lambda pr, c: list(ms_roi_pool_batch_backward(pr[0], c).values()),
        list(taps.values()),
        [*norms.values(), shrink.weight, shrink.bias],
    )


def check_rpn_head(seed: int) -> float:
    rng = np.random.default_rng(seed)
    fused = rng.standard_normal((1, 3, 4, 4))
    head = RpnHead(
        conv=make_conv(rng, 4, 3, 3),
        cls=make_conv(rng, 4, 4, 1),
        bbox=make_conv(rng, 8, 4, 1),
    )
    for conv in (head.conv, head.cls, head.bbox):
        conv.weight.data[...] = rng.standard_normal(conv.weight.data.shape)
        conv.bias.data[...] = 0.1 * rng.standard_normal(conv.bias.data.shape)
    params = [t for conv in (head.conv, head.cls, head.bbox) for t in (conv.weight, conv.bias)]
    return _projected_check(
        rng, lambda: rpn_forward(fused, head), lambda pr, c: [rpn_backward(pr[0], pr[1], c)], [fused], params
    )


def tiny_model_setup(seed: int, fusion_mode: str = "multi"):
    """A 32x32 end-to-end configuration with frozen targets for checking."""
    cfg = ModelConfig(
        roi_pool_size=3, gamma_init=2.0, anchor_scales=(1.0,), anchor_ratios=(1.0, 1.3), fusion_mode=fusion_mode
    )
    model = MultiScaleDetector(cfg, seed=seed, stage_channels=(2, 2, 3, 3, 3), rpn_channels=4, head_width=8)
    rng = np.random.default_rng(seed + 1)
    image = rng.uniform(0.0, 1.0, size=(1, 1, 32, 32))
    gt = np.array([[7.0, 6.0, 23.0, 26.0]])
    anchors = model.anchors_for(2, 2)
    rpn_t = assign_rpn_targets(anchors, gt, rng, 32, 32)
    rois = np.array(
        [[6.0, 7.0, 25.0, 26.0], [2.0, 2.0, 20.0, 28.0], [10.0, 4.0, 30.0, 30.0]]
    )
    det_t = assign_detection_targets(np.vstack([rois, gt]), gt, rng)
    sampled = np.vstack([rois, gt])[det_t.roi_indices]
    return model, image, rpn_t, sampled, det_t


def _model_loss(seed: int, fusion_mode: str):
    """The tiny model's loss closure and its parameters, holding that loss's gradient."""
    model, image, rpn_t, sampled, det_t = tiny_model_setup(seed, fusion_mode)

    def loss():
        total, _ = pipeline_loss(model, model.forward(image), rpn_t, sampled, det_t.labels, det_t.target_deltas, 1.0)
        return total

    model.zero_grads()
    pipeline_loss(model, model.forward(image), rpn_t, sampled, det_t.labels, det_t.target_deltas, 1.0, backward=True)
    return loss, list(model.params().values())


def check_multitask_loss(seed: int, fusion_mode: str = "multi") -> float:
    loss, params = _model_loss(seed, fusion_mode)
    return finite_difference_check(loss, [t.data for t in params], [t.grad for t in params])


def check_multitask_loss_directional(seed: int, fusion_mode: str = "multi") -> float:
    """``grad . v`` against the central difference of L(theta +/- STEP v) for one
    random unit direction v per parameter tensor, worst over the tensors."""
    loss, params = _model_loss(seed, fusion_mode)
    rng = np.random.default_rng(seed + 2)
    worst = 0.0
    for t in params:
        v = rng.standard_normal(t.data.shape)
        v /= np.linalg.norm(v)
        orig, step = t.data.copy(), np.zeros(1)  # step: the distance moved along v

        def moved():
            np.add(orig, step[0] * v, out=t.data)
            return loss()

        worst = max(worst, finite_difference_check(moved, [step], [np.array([np.vdot(t.grad, v)])]))
        t.data[...] = orig
    return worst


LAYER_CHECKS = [
    ("conv2d", check_conv2d),
    ("maxpool2d", check_maxpool2d),
    ("relu", check_relu),
    ("fully_connected", check_fully_connected),
    ("softmax_cross_entropy", check_softmax_cross_entropy),
    ("smooth_l1", check_smooth_l1),
    ("l2norm_scale", check_l2norm_scale),
    ("concat_shrink", check_concat_shrink),
    ("roi_pool", check_roi_pool),
    ("ms_roi_pool", check_ms_roi_pool),
    ("rpn_head", check_rpn_head),
]


def run_suite(seeds=DEFAULT_SEEDS, model_seeds=MODEL_CHECK_SEEDS, include_model: bool = True):
    """Worst finite-difference error per check across the given seeds."""
    results = []
    for name, fn in LAYER_CHECKS:
        results.append((name, max(fn(seed) for seed in seeds)))
    if include_model:
        results.append(
            ("multitask_loss_end_to_end", max(check_multitask_loss(s) for s in model_seeds))
        )
    return results
