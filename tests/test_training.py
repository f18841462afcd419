import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import msfacedet
from msfacedet import TrainConfig, generate_toy_dataset, train
from msfacedet.checks import tiny_model_setup
from msfacedet.detector import Targets
from msfacedet.tensor import Tensor
from msfacedet.training import multitask_loss, pipeline_loss, sgd_momentum_step


@pytest.mark.parametrize("mode", ["multi", "tap5"])
def test_same_seed_gives_bit_identical_trace_and_checkpoint(mode, tmp_path):
    scenes = generate_toy_dataset(3, 64, (16, 32), seed=1)
    cfg = TrainConfig(iterations=4, seed=5, fusion_mode=mode)
    runs = []
    for name in ("a", "b"):
        result = train(scenes, cfg, trace_every=1)
        path = tmp_path / f"{name}.msfr"
        result.model.save(path)
        runs.append((result.trace, path.read_bytes()))
    (trace_a, ckpt_a), (trace_b, ckpt_b) = runs
    assert len(trace_a) == cfg.iterations
    assert trace_a == trace_b
    assert ckpt_a == ckpt_b


TRAIN_ONE_SCENE = """
import sys
from msfacedet import TrainConfig, generate_toy_dataset, train
from msfacedet.training import format_trace
result = train(generate_toy_dataset(1, 64, (16, 32), seed=1), TrainConfig(iterations=2, seed=5), trace_every=1)
result.model.save(sys.argv[1])
sys.stdout.write(format_trace(result.trace))
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_same_seed_in_fresh_processes_at_one_blas_thread_count_gives_the_same_bytes(threads, tmp_path):
    # the bit-identity of train() is claimed for one BLAS library, kernel and thread count
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(Path(msfacedet.__file__).parent.parent))
    runs = []
    for name in ("a", "b"):
        path = tmp_path / f"{name}.msfr"
        proc = subprocess.run(
            [sys.executable, "-c", TRAIN_ONE_SCENE, str(path)], capture_output=True, text=True, env=env, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        runs.append((proc.stdout, path.read_bytes()))
    (trace_a, ckpt_a), (trace_b, ckpt_b) = runs
    assert [line.split()[0] for line in trace_a.splitlines()] == ["1", "2"]
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
    return Targets(np.zeros((labels.size, 4)), labels, rng.standard_normal((labels.size, 4)))


def _det_targets(labels, target_deltas):
    labels = np.asarray(labels, dtype=np.int64)
    return Targets(np.zeros((labels.size, 4)), labels, target_deltas)


def test_multitask_loss_ignores_rows_labelled_minus_one():
    rng = np.random.default_rng(0)
    rpn_t = _rpn_targets([1, -1, 0, -1, 1], rng)
    _, comps, (dlg, ddl, ddet_lg, ddet_dl) = multitask_loss(
        (rng.standard_normal((5, 2)), rng.standard_normal((5, 4))), rpn_t,
        (rng.standard_normal((3, 2)), rng.standard_normal((3, 4))), _det_targets([1, 0, 0], rng.standard_normal((3, 4))),
        1.0,
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
        (rng.standard_normal((3, 2)), rng.standard_normal((3, 4))), rpn_t,
        (np.zeros((0, 2)), np.zeros((0, 4))), _det_targets([], np.zeros((0, 4))), 1.0,
    )
    assert comps["det_cls"] == comps["det_reg"] == 0.0
    assert ddet_lg.shape == (0, 2) and ddet_dl.shape == (0, 4)
    assert total == comps["rpn_cls"] + comps["rpn_reg"]


@pytest.mark.parametrize("mode", ["multi", "tap5"])
def test_pipeline_loss_without_sampled_rois_trains_only_the_proposal_branch(mode):
    model, image, rpn_t, _ = tiny_model_setup(0, mode)
    model.zero_grads()
    _, comps = pipeline_loss(model, model.forward(image), rpn_t, _det_targets([], np.zeros((0, 4))), 1.0, backward=True)
    grads = {name: t.grad for name, t in model.params().items()}
    assert comps["det_cls"] == comps["det_reg"] == 0.0
    assert all(np.isfinite(g).all() for g in grads.values())
    assert not any(g.any() for name, g in grads.items() if name.startswith("det."))
    assert any(g.any() for name, g in grads.items() if name.startswith("rpn."))


def test_multitask_loss_head_without_positives_has_no_regression():
    rng = np.random.default_rng(2)
    rpn_t = _rpn_targets([0, -1, 0, 0], rng)
    _, comps, (_, ddl, _, ddet_dl) = multitask_loss(
        (rng.standard_normal((4, 2)), rng.standard_normal((4, 4))), rpn_t,
        (rng.standard_normal((2, 2)), rng.standard_normal((2, 4))), _det_targets([0, 0], rng.standard_normal((2, 4))),
        1.0,
    )
    assert comps["rpn_reg"] == 0.0 and comps["det_reg"] == 0.0
    assert not ddl.any() and not ddet_dl.any()
    assert comps["rpn_cls"] > 0.0 and comps["det_cls"] > 0.0


def _step_inputs():
    # dyadic values, so the closed form below is exact in float64
    params = {"w": Tensor([1.0, -2.0]), "b": Tensor([0.5])}
    params["w"].grad[...] = [4.0, -2.0]
    params["b"].grad[...] = [0.25]
    velocity = {"w": np.array([1.0, 0.0]), "b": np.array([-0.5])}
    return params, velocity


def test_sgd_momentum_step_follows_the_closed_form():
    params, velocity = _step_inputs()
    lr, momentum, decay = 0.5, 0.5, 0.25
    want = {}
    for name, t in params.items():
        v = momentum * velocity[name] - lr * (t.grad + decay * t.data)
        want[name] = (t.data + v, v)
    sgd_momentum_step(params, velocity, lr, momentum, decay)
    for name, (data, v) in want.items():
        assert params[name].data.tobytes() == data.tobytes(), name
        assert velocity[name].tobytes() == v.tobytes(), name
    assert params["w"].data.tolist() == [-0.625, -0.75]


def test_sgd_momentum_step_with_a_nan_in_the_last_gradient_moves_nothing():
    params, velocity = _step_inputs()
    params["b"].grad[0] = np.nan
    before = {name: (t.data.tobytes(), velocity[name].tobytes()) for name, t in params.items()}
    with pytest.raises(RuntimeError, match="non-finite gradient in parameter b"):
        sgd_momentum_step(params, velocity, 0.5, 0.5, 0.25)
    assert {name: (t.data.tobytes(), velocity[name].tobytes()) for name, t in params.items()} == before


def _oracle_sgd_step(params, velocity, lr, momentum, weight_decay):
    # the whole-array update: each statement streams every parameter once
    for name, t in params.items():
        v = velocity[name]
        v *= momentum
        v -= lr * t.grad
        if weight_decay:
            v -= (lr * weight_decay) * t.data
        t.data += v


def _random_step_inputs(shapes, seed=0):
    rng = np.random.default_rng(seed)
    params, velocity = {}, {}
    for name, shape in shapes.items():
        params[name] = Tensor(rng.standard_normal(shape) / 3)
        params[name].grad[...] = rng.standard_normal(shape) / 7
        velocity[name] = rng.standard_normal(shape) / 11
    return params, velocity


def _copies(params, velocity):
    out = {}
    for name, t in params.items():
        out[name] = Tensor(t.data.copy())
        out[name].grad[...] = t.grad
    return out, {name: v.copy() for name, v in velocity.items()}


def _state_bytes(params, velocity):
    return {name: (t.data.tobytes(), velocity[name].tobytes()) for name, t in params.items()}


# (250, 400): rows of 400 make blocks of 81 rows, so four blocks, the last
# of 7 rows; (70001,): blocks of 32768, 32768 and 4465 elements; (2, 40000):
# rows wider than a block, one row per block
BLOCK_SHAPES = {"w": (250, 400), "long": (70001,), "wide": (2, 40000), "conv": (64, 64, 3, 3), "one": (1,)}


@pytest.mark.parametrize("weight_decay", [5e-4, 0.0])
def test_sgd_momentum_step_in_blocks_matches_the_whole_array_update(weight_decay):
    params, velocity = _random_step_inputs(BLOCK_SHAPES)
    want_params, want_velocity = _copies(params, velocity)
    for _ in range(3):
        sgd_momentum_step(params, velocity, 0.0123, 0.9, weight_decay)
        _oracle_sgd_step(want_params, want_velocity, 0.0123, 0.9, weight_decay)
    assert _state_bytes(params, velocity) == _state_bytes(want_params, want_velocity)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sgd_momentum_step_with_a_non_finite_gradient_in_the_last_block_moves_nothing(bad):
    params, velocity = _random_step_inputs(BLOCK_SHAPES)
    params["w"].grad[-1, -1] = bad
    before = _state_bytes(params, velocity)
    with pytest.raises(RuntimeError, match="non-finite gradient in parameter w$"):
        sgd_momentum_step(params, velocity, 0.0123, 0.9, 5e-4)
    assert _state_bytes(params, velocity) == before


def test_sgd_momentum_step_updates_any_layout_in_place():
    params, velocity = _random_step_inputs({"f": (300, 250), "s": (200, 300)})
    params["f"] = Tensor(np.asfortranarray(params["f"].data))
    params["f"].grad[...] = np.random.default_rng(1).standard_normal((300, 250)) / 7
    strided = np.zeros((200, 600))
    strided[:, ::2] = velocity["s"]
    velocity["s"] = strided[:, ::2]
    data, vel = params["f"].data, velocity["s"]
    assert data.flags.f_contiguous and not data.flags.c_contiguous
    assert not vel.flags.c_contiguous and not vel.flags.f_contiguous
    want_params, want_velocity = _copies(params, velocity)
    sgd_momentum_step(params, velocity, 0.0123, 0.9, 5e-4)
    _oracle_sgd_step(want_params, want_velocity, 0.0123, 0.9, 5e-4)
    assert params["f"].data is data and velocity["s"] is vel
    assert _state_bytes(params, velocity) == _state_bytes(want_params, want_velocity)
    assert strided[:, ::2].tobytes() == want_velocity["s"].tobytes()
    assert not strided[:, 1::2].any()
