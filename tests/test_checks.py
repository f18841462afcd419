import pytest

from msfacedet.checks import (
    DEFAULT_SEEDS,
    MODEL_CHECK_SEEDS,
    TOLERANCE,
    check_ms_roi_pool,
    check_multitask_loss,
    check_roi_pool,
)


@pytest.mark.parametrize("mode", ["multi", "tap5"])
def test_end_to_end_loss_gradient(mode):
    assert check_multitask_loss(MODEL_CHECK_SEEDS[0], mode) <= TOLERANCE


@pytest.mark.parametrize("check", [check_roi_pool, check_ms_roi_pool])
def test_roi_pool_gradient(check):
    assert check(DEFAULT_SEEDS[0]) <= TOLERANCE
