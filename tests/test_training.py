import numpy as np
import pytest

from msfacedet import ModelConfig, TrainConfig, generate_toy_dataset, train
from msfacedet.checks import tiny_model_setup
from msfacedet.rpn import RpnTargets
from msfacedet.training import multitask_loss, pipeline_loss


@pytest.mark.parametrize("mode", ["multi", "tap5"])
def test_same_seed_gives_bit_identical_trace_and_checkpoint(mode, tmp_path):
    scenes = generate_toy_dataset(3, 64, (16, 32), seed=1)
    cfg = TrainConfig(iterations=4, seed=5)
    runs = []
    for name in ("a", "b"):
        result = train(scenes, cfg, ModelConfig(fusion_mode=mode), trace_every=1)
        path = tmp_path / f"{name}.msfr"
        result.model.save(path)
        runs.append((result.trace, path.read_bytes()))
    (trace_a, ckpt_a), (trace_b, ckpt_b) = runs
    assert len(trace_a) == cfg.iterations
    assert trace_a == trace_b
    assert ckpt_a == ckpt_b


def test_lr_drop_slows_only_the_last_quarter_of_steps():
    scenes = generate_toy_dataset(3, 64, (16, 32), seed=1)
    n = 12
    plain, dropped = (
        train(scenes, TrainConfig(iterations=n, seed=5, lr_drop=drop), trace_every=1).trace for drop in (False, True)
    )
    # the step of iteration int(0.75 * n) + 1 is the first at a tenth of the
    # rate; a row's losses come before its own step, so the next row differs first
    first = int(0.75 * n) + 1
    assert plain[:first] == dropped[:first]
    assert len(plain) == len(dropped) == n
    assert all(a != b for a, b in zip(plain[first:], dropped[first:]))


def _rpn_targets(labels, rng):
    labels = np.asarray(labels)
    return RpnTargets(labels=labels, target_deltas=rng.standard_normal((labels.size, 4)))


def test_multitask_loss_ignores_rows_labelled_minus_one():
    rng = np.random.default_rng(0)
    rpn_t = _rpn_targets([1, -1, 0, -1, 1], rng)
    det_labels = np.array([1, 0, 0])
    _, comps, (dlg, ddl, ddet_lg, ddet_dl) = multitask_loss(
        rng.standard_normal((5, 2)), rng.standard_normal((5, 4)), rpn_t,
        rng.standard_normal((3, 2)), rng.standard_normal((3, 4)), det_labels, rng.standard_normal((3, 4)), 1.0,
    )
    ignored = rpn_t.labels == -1
    assert np.all(dlg[ignored] == 0.0)
    assert np.all(ddl[ignored] == 0.0)
    assert np.all(dlg[~ignored] != 0.0)
    assert comps["rpn_cls"] > 0.0


def test_multitask_loss_with_empty_detection_batch():
    rng = np.random.default_rng(1)
    rpn_t = _rpn_targets([1, 0, 0], rng)
    total, comps, (_, _, ddet_lg, ddet_dl) = multitask_loss(
        rng.standard_normal((3, 2)), rng.standard_normal((3, 4)), rpn_t,
        np.zeros((0, 2)), np.zeros((0, 4)), np.zeros(0, dtype=np.int64), np.zeros((0, 4)), 1.0,
    )
    assert comps["det_cls"] == comps["det_reg"] == 0.0
    assert ddet_lg.shape == (0, 2) and ddet_dl.shape == (0, 4)
    assert total == comps["rpn_cls"] + comps["rpn_reg"]


@pytest.mark.parametrize("mode", ["multi", "tap5"])
def test_pipeline_loss_without_sampled_rois_trains_only_the_proposal_branch(mode):
    model, image, rpn_t, _, _ = tiny_model_setup(0, mode)
    model.zero_grads()
    _, comps = pipeline_loss(
        model, model.forward(image), rpn_t,
        np.zeros((0, 4)), np.zeros(0, dtype=np.int64), np.zeros((0, 4)), 1.0, backward=True,
    )
    grads = {name: t.grad for name, t in model.params().items()}
    assert comps["det_cls"] == comps["det_reg"] == 0.0
    assert all(np.isfinite(g).all() for g in grads.values())
    assert not any(g.any() for name, g in grads.items() if name.startswith("det."))
    assert any(g.any() for name, g in grads.items() if name.startswith("rpn."))


def test_multitask_loss_head_without_positives_has_no_regression():
    rng = np.random.default_rng(2)
    rpn_t = _rpn_targets([0, -1, 0, 0], rng)
    _, comps, (_, ddl, _, ddet_dl) = multitask_loss(
        rng.standard_normal((4, 2)), rng.standard_normal((4, 4)), rpn_t,
        rng.standard_normal((2, 2)), rng.standard_normal((2, 4)), np.zeros(2, dtype=np.int64),
        rng.standard_normal((2, 4)), 1.0,
    )
    assert comps["rpn_reg"] == 0.0 and comps["det_reg"] == 0.0
    assert not ddl.any() and not ddet_dl.any()
    assert comps["rpn_cls"] > 0.0 and comps["det_cls"] > 0.0
