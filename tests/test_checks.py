import pytest

from msfacedet.checks import (
    DEFAULT_SEEDS,
    LAYER_CHECKS,
    MODEL_CHECK_SEEDS,
    TOLERANCE,
    check_multitask_loss,
    check_multitask_loss_directional,
)


@pytest.mark.parametrize("mode", ["multi", "tap5"])
def test_end_to_end_loss_gradient(mode):
    assert check_multitask_loss(MODEL_CHECK_SEEDS[0], mode) <= TOLERANCE


@pytest.mark.parametrize("seed", MODEL_CHECK_SEEDS)
@pytest.mark.parametrize("mode", ["multi", "tap5"])
def test_end_to_end_directional_gradient(mode, seed):
    assert check_multitask_loss_directional(seed, mode) <= TOLERANCE


@pytest.mark.parametrize("seed", DEFAULT_SEEDS)
@pytest.mark.parametrize("check", [fn for _, fn in LAYER_CHECKS], ids=[name for name, _ in LAYER_CHECKS])
def test_layer_gradient(check, seed):
    assert check(seed) <= TOLERANCE
