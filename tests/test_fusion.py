import numpy as np
import pytest

from msfacedet.fusion import (
    TAP_ORDER,
    FeatureTap,
    _axis_gather,
    _partition,
    concat_shrink,
    l2norm_scale,
    make_l2norm,
    ms_roi_pool_batch,
    roi_pool,
    roi_pool_backward,
    sync_downsample,
)
from msfacedet.tensor import ConvParams, ShapeError, Tensor


def make_taps(rng, size=32, channels=(2, 3, 4)):
    return [
        FeatureTap("tap3", rng.standard_normal((1, channels[0], size // 4, size // 4)), 4),
        FeatureTap("tap4", rng.standard_normal((1, channels[1], size // 8, size // 8)), 8),
        FeatureTap("tap5", rng.standard_normal((1, channels[2], size // 16, size // 16)), 16),
    ]


class TestL2NormScale:
    def test_three_four_five(self):
        x = np.array([3.0, 4.0]).reshape(1, 2, 1, 1)
        gamma = make_l2norm(2, gamma_init=1.0)
        out, _ = l2norm_scale(x, gamma)
        assert np.allclose(out.reshape(-1), [0.6, 0.8])

    def test_unit_norm_before_gamma(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 5, 4, 4)) + 0.1
        gamma = make_l2norm(5, gamma_init=1.0)
        out, _ = l2norm_scale(x, gamma)
        norms = np.sqrt((out * out).sum(axis=1))
        assert np.max(np.abs(norms - 1.0)) < 1e-6

    @pytest.mark.parametrize("alpha", [10.0, 1000.0])
    def test_scale_equivariance(self, alpha):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 6, 3, 3)) + 0.2
        gamma = make_l2norm(6, gamma_init=3.0)
        a, _ = l2norm_scale(x, gamma)
        b, _ = l2norm_scale(alpha * x, gamma)
        assert np.max(np.abs(a - b)) < 1e-6

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            l2norm_scale(np.zeros((1, 3, 2, 2)), make_l2norm(4))


class TestSyncDownsample:
    def test_stride_arithmetic(self):
        rng = np.random.default_rng(2)
        taps = make_taps(rng)
        for tap, expected in zip(taps, [(2, 2), (2, 2), (2, 2)]):
            out, _ = sync_downsample(tap, 16)
            assert out.shape[2:] == expected

    def test_identity_for_matching_stride(self):
        rng = np.random.default_rng(3)
        tap = FeatureTap("tap5", rng.standard_normal((1, 2, 4, 4)), 16)
        out, cache = sync_downsample(tap, 16)
        assert out is tap.map
        assert cache is None

    def test_constant_map_stays_constant(self):
        tap = FeatureTap("tap3", np.full((1, 2, 8, 8), 1.5), 4)
        out, _ = sync_downsample(tap, 16)
        assert out.shape == (1, 2, 2, 2)
        assert np.all(out == 1.5)

    def test_non_divisible_rejected(self):
        tap = FeatureTap("tap3", np.zeros((1, 1, 8, 8)), 3)
        with pytest.raises(ShapeError):
            sync_downsample(tap, 16)


class TestConcatShrink:
    def test_channel_count(self):
        rng = np.random.default_rng(4)
        maps = [rng.standard_normal((1, c, 4, 4)) for c in (32, 64, 64)]
        shrink = ConvParams(
            Tensor(rng.standard_normal((64, 160, 1, 1)), requires_grad=True),
            Tensor(np.zeros(64), requires_grad=True),
        )
        out, _ = concat_shrink(maps, TAP_ORDER, {}, shrink)
        assert out.shape == (1, 64, 4, 4)

    def test_selection_weights_pick_one_tap(self):
        rng = np.random.default_rng(5)
        maps = [rng.standard_normal((1, c, 3, 3)) for c in (2, 3, 4)]
        w = np.zeros((4, 9, 1, 1))
        w[np.arange(4), 5 + np.arange(4), 0, 0] = 1.0  # select the tap5 block
        shrink = ConvParams(Tensor(w, requires_grad=True), Tensor(np.zeros(4), requires_grad=True))
        out, _ = concat_shrink(maps, TAP_ORDER, {}, shrink)
        assert np.allclose(out, maps[2])

    def test_norms_apply_to_the_named_parts_only(self):
        rng = np.random.default_rng(14)
        maps = [rng.standard_normal((1, c, 3, 3)) for c in (2, 3, 4)]
        shrink = ConvParams(
            Tensor(rng.standard_normal((4, 9, 1, 1)), requires_grad=True),
            Tensor(np.zeros(4), requires_grad=True),
        )
        norms = {"tap3": make_l2norm(2, 2.0), "tap5": make_l2norm(4, 3.0)}
        out, _ = concat_shrink(maps, TAP_ORDER, norms, shrink)
        normed = [l2norm_scale(maps[0], norms["tap3"])[0], maps[1], l2norm_scale(maps[2], norms["tap5"])[0]]
        ref, _ = concat_shrink(normed, TAP_ORDER, {}, shrink)
        assert np.array_equal(out, ref)

    def test_spatial_mismatch_names_taps(self):
        maps = [np.zeros((1, 2, 4, 4)), np.zeros((1, 2, 3, 3)), np.zeros((1, 2, 4, 4))]
        shrink = ConvParams(
            Tensor(np.zeros((2, 6, 1, 1)), requires_grad=True),
            Tensor(np.zeros(2), requires_grad=True),
        )
        with pytest.raises(ShapeError, match="tap4"):
            concat_shrink(maps, TAP_ORDER, {}, shrink)


def reference_cells(shape, roi, stride, p):
    """Candidate flat indices (p*p, L) of one ROI and their validity mask."""
    _, h, w = shape
    x1 = int(np.floor(roi[0] / stride))
    y1 = int(np.floor(roi[1] / stride))
    x2 = max(int(np.ceil(roi[2] / stride)), x1 + 1)
    y2 = max(int(np.ceil(roi[3] / stride)), y1 + 1)
    x1 = min(max(x1, 0), w - 1)
    y1 = min(max(y1, 0), h - 1)
    x2 = max(min(x2, w), x1 + 1)
    y2 = max(min(y2, h), y1 + 1)
    rows = _axis_gather(_partition(y2 - y1, p))
    cols = _axis_gather(_partition(x2 - x1, p))
    valid = ((rows[:, None, :, None] >= 0) & (cols[None, :, None, :] >= 0)).reshape(p * p, -1)
    rel = (rows[:, None, :, None] * w + cols[None, :, None, :]).reshape(p * p, -1)
    return np.where(valid, rel, 0) + (y1 * w + x1), valid


def reference_roi_pool(fmap, roi, stride, p):
    """One ROI at a time: -inf masked candidates and one argmax per cell."""
    c, h, w = fmap.shape
    flat, valid = reference_cells(fmap.shape, roi, stride, p)
    vals = np.where(valid[None], fmap.reshape(c, h * w)[:, flat], -np.inf)
    a = vals.argmax(axis=2)
    out = np.take_along_axis(vals, a[..., None], axis=2)[..., 0]
    return out.reshape(c, p, p), flat[np.arange(p * p)[None, :], a].reshape(c, p, p)


def reference_roi_pool_backward(dout, argmax, dmap):
    r, c = dout.shape[:2]
    np.add.at(dmap.reshape(c, -1), (np.arange(c)[None, :, None], argmax.reshape(r, c, -1)), dout.reshape(r, c, -1))


def mixed_rois(rng, n, extent):
    """ROIs of many sizes: inside, partly outside and smaller than one cell."""
    x1, y1 = rng.uniform(-0.25 * extent, extent, (2, n))
    w, h = rng.uniform(0.5, extent, (2, n))
    return np.stack([x1, y1, x1 + w, y1 + h], axis=1)


class TestRoiPool:
    def test_quadrants(self):
        fmap = np.arange(16, dtype=float).reshape(1, 4, 4)
        out, _ = roi_pool(fmap, np.array([[0.0, 0.0, 4.0, 4.0]]), 1, 2)
        assert out.reshape(-1).tolist() == [5.0, 7.0, 13.0, 15.0]

    def test_p1_is_global_max(self):
        rng = np.random.default_rng(6)
        fmap = rng.standard_normal((3, 6, 6))
        out, _ = roi_pool(fmap, np.array([[0.0, 0.0, 96.0, 96.0]]), 16, 1)
        assert np.allclose(out.reshape(3), fmap.reshape(3, -1).max(axis=1))

    def test_tiny_roi_replicates_single_cell(self):
        rng = np.random.default_rng(7)
        fmap = rng.standard_normal((2, 8, 8))
        out, argmax = roi_pool(fmap, np.array([[50.0, 50.0, 60.0, 60.0]]), 16, 7)
        assert out.shape == (1, 2, 7, 7)
        # one projected source cell, replicated everywhere
        assert np.unique(argmax).size == 1
        assert np.allclose(out[0], fmap[:, 3, 3].reshape(2, 1, 1))

    def test_small_rois_total_and_finite(self):
        rng = np.random.default_rng(8)
        fmap = rng.standard_normal((2, 8, 8))
        rois = []
        for _ in range(1000):
            x1 = rng.uniform(0, 110)
            y1 = rng.uniform(0, 110)
            side = rng.uniform(4, 15)
            rois.append([x1, y1, x1 + side, y1 + side])
        out, argmax = roi_pool(fmap, np.array(rois), 16, 7)
        assert out.shape == (1000, 2, 7, 7)
        assert np.all(np.isfinite(out))
        assert argmax.min() >= 0 and argmax.max() < 64

    def test_empty_stack(self):
        out, argmax = roi_pool(np.zeros((3, 4, 4)), np.zeros((0, 4)), 4, 7)
        assert out.shape == argmax.shape == (0, 3, 7, 7)


class TestRoiPoolMatchesPerRoiReference:
    """The batched pooling gives the per-ROI reference's bits, ties included."""

    @pytest.mark.parametrize("p", [1, 3, 7])
    @pytest.mark.parametrize("relu_map", [True, False])
    def test_values_and_argmax(self, p, relu_map):
        rng = np.random.default_rng(20 + p)
        fmap = rng.standard_normal((3, 16, 16))
        if relu_map:
            fmap = np.maximum(fmap, 0.0)  # many tied zeros
        rois = mixed_rois(rng, 300, 64.0)
        out, argmax = roi_pool(fmap, rois, 4, p)
        assert out.flags.c_contiguous and argmax.flags.c_contiguous
        for i, roi in enumerate(rois):
            ref_out, ref_arg = reference_roi_pool(fmap, roi, 4, p)
            assert out[i].tobytes() == ref_out.tobytes()
            assert np.array_equal(argmax[i], ref_arg)

    def test_rois_cover_several_cell_lengths(self):
        rois = mixed_rois(np.random.default_rng(27), 300, 64.0)
        lengths = {reference_cells((3, 16, 16), roi, 4, 7)[0].shape[1] for roi in rois}
        assert len(lengths) >= 4

    def test_constant_map_routes_to_first_candidate(self):
        fmap = np.zeros((2, 8, 8))
        rois = mixed_rois(np.random.default_rng(28), 50, 32.0)
        _, argmax = roi_pool(fmap, rois, 4, 3)
        for i, roi in enumerate(rois):
            flat, _ = reference_cells(fmap.shape, roi, 4, 3)
            assert np.array_equal(argmax[i], np.broadcast_to(flat[:, 0].reshape(3, 3), (2, 3, 3)))

    @pytest.mark.parametrize("p", [1, 3, 7])
    def test_backward_matches_add_at(self, p):
        rng = np.random.default_rng(30 + p)
        fmap = np.maximum(rng.standard_normal((3, 16, 16)), 0.0)
        rois = mixed_rois(rng, 200, 64.0)
        _, argmax = roi_pool(fmap, rois, 4, p)
        dout = rng.standard_normal(argmax.shape)
        ref = np.zeros_like(fmap)
        reference_roi_pool_backward(dout, argmax, ref)
        got = np.zeros_like(fmap)
        roi_pool_backward(dout, argmax, got)
        assert got.tobytes() == ref.tobytes()


class TestMsRoiPool:
    def _setup(self, rng):
        taps = make_taps(rng)
        norms = {t.name: make_l2norm(t.map.shape[1], gamma_init=2.0) for t in taps}
        shrink = ConvParams(
            Tensor(rng.standard_normal((4, 9, 1, 1)), requires_grad=True),
            Tensor(np.zeros(4), requires_grad=True),
        )
        return taps, norms, shrink

    def test_output_shape_fixed(self):
        rng = np.random.default_rng(9)
        taps, norms, shrink = self._setup(rng)
        out, _ = ms_roi_pool_batch(taps, np.array([[1.0, 2.0, 30.0, 28.0]]), norms, shrink, 7)
        assert out.shape == (1, 4, 7, 7)

    def test_shape_independent_of_roi_size(self):
        rng = np.random.default_rng(10)
        taps, norms, shrink = self._setup(rng)
        rois = np.array([[0.0, 0.0, 32.0, 32.0], [5.0, 5.0, 9.0, 9.0], [12.0, 1.0, 14.0, 30.0]])
        out, _ = ms_roi_pool_batch(taps, rois, norms, shrink, 7)
        assert out.shape == (3, 4, 7, 7)

    def test_constant_taps_give_constant_output(self):
        rng = np.random.default_rng(11)
        taps, norms, shrink = self._setup(rng)
        for t in taps:
            t.map = np.full_like(t.map, 0.7)
        out, _ = ms_roi_pool_batch(taps, np.array([[2.0, 2.0, 20.0, 20.0]]), norms, shrink, 3)
        spread = out.reshape(4, -1)
        assert np.max(spread.max(axis=1) - spread.min(axis=1)) < 1e-12

    def test_tap_order_is_part_of_the_contract(self):
        rng = np.random.default_rng(12)
        taps, norms, shrink = self._setup(rng)
        # same channel count per tap so a permutation is shape-legal
        taps = [
            FeatureTap("tap3", rng.standard_normal((1, 3, 8, 8)), 4),
            FeatureTap("tap4", rng.standard_normal((1, 3, 4, 4)), 8),
            FeatureTap("tap5", rng.standard_normal((1, 3, 2, 2)), 16),
        ]
        norms = {t.name: make_l2norm(3, gamma_init=2.0) for t in taps}
        shrink = ConvParams(
            Tensor(rng.standard_normal((3, 9, 1, 1)), requires_grad=True),
            Tensor(np.zeros(3), requires_grad=True),
        )
        roi = np.array([[1.0, 1.0, 28.0, 28.0]])
        out_a, _ = ms_roi_pool_batch(taps, roi, norms, shrink, 3)
        swapped = [taps[1], taps[0], taps[2]]
        out_b, _ = ms_roi_pool_batch(swapped, roi, norms, shrink, 3)
        assert np.max(np.abs(out_a - out_b)) > 1e-6

    def test_batch_matches_single(self):
        rng = np.random.default_rng(13)
        taps, norms, shrink = self._setup(rng)
        rois = np.array([[0.0, 0.0, 16.0, 16.0], [4.0, 8.0, 28.0, 30.0]])
        batch, _ = ms_roi_pool_batch(taps, rois, norms, shrink, 5)
        for i, roi in enumerate(rois):
            single, _ = ms_roi_pool_batch(taps, roi.reshape(1, 4), norms, shrink, 5)
            assert np.allclose(batch[i], single[0])
