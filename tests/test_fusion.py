import math

import numpy as np
import pytest

from msfacedet import fusion
from msfacedet.fusion import (
    L2NORM_EPS,
    TAP_ORDER,
    TAP_STRIDES,
    _bins,
    concat_shrink,
    l2norm_scale,
    make_l2norm,
    ms_roi_pool_batch,
    ms_roi_pool_batch_backward,
    roi_pool,
    roi_pool_backward,
)
from msfacedet.model import ModelConfig, MultiScaleDetector
from msfacedet.tensor import Params, ShapeError, Tensor, conv2d, conv2d_backward, maxpool2d, maxpool2d_backward
from msfacedet.toydata import generate_toy_dataset


def make_taps(rng, size=32, channels=(2, 3, 4)):
    return {
        name: rng.standard_normal((1, c, size // s, size // s)) for (name, s), c in zip(TAP_STRIDES.items(), channels)
    }


def make_shrink(weight):
    return Params(Tensor(weight), Tensor(np.zeros(weight.shape[0])))


class TestL2NormScale:
    def test_three_four_five(self):
        x = np.array([3.0, 4.0]).reshape(2, 1, 1)
        gamma = make_l2norm(2, gamma_init=1.0)
        out, _ = l2norm_scale(x, gamma)
        assert np.allclose(out.reshape(-1), [0.6, 0.8])

    def test_unit_norm_before_gamma(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 2, 16)) + 0.1
        gamma = make_l2norm(5, gamma_init=1.0)
        out, _ = l2norm_scale(x, gamma)
        norms = np.sqrt((out * out).sum(axis=0))
        assert np.max(np.abs(norms - 1.0)) < 1e-6

    @pytest.mark.parametrize("alpha", [10.0, 1000.0])
    def test_scale_equivariance(self, alpha):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((6, 1, 9)) + 0.2
        gamma = make_l2norm(6, gamma_init=3.0)
        a, _ = l2norm_scale(x, gamma)
        b, _ = l2norm_scale(alpha * x, gamma)
        assert np.max(np.abs(a - b)) < 1e-6

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            l2norm_scale(np.zeros((3, 1, 4)), make_l2norm(4, 1.0))


def reference_sync_downsample(name: str, fmap: np.ndarray):
    """Max-pool the (N, C, H, W) map of tap ``name`` down to the tap5 grid
    with a window of the stride ratio; a ratio of 1 is the identity."""
    ratio = TAP_STRIDES["tap5"] // TAP_STRIDES[name]
    if ratio == 1:
        return fmap, None
    return maxpool2d(fmap, ratio)


def reference_sync_downsample_backward(dout: np.ndarray, cache) -> np.ndarray:
    if cache is None:
        return dout
    return maxpool2d_backward(dout, cache)


def tiny_detector(mode="multi"):
    """A detector whose taps all have 3 channels, and the taps of a 32 px image for it."""
    model = MultiScaleDetector(ModelConfig(fusion_mode=mode), seed=0, stage_channels=(2, 2, 3, 3, 3))
    taps = make_taps(np.random.default_rng(2), channels=(3, 3, 3))
    return model, {name: taps[name] for name in model.fused_taps}


class TestSyncDownsample:
    """The dense branch's synchronization: ``fused_map_forward`` pools every
    tap to the stride-16 grid."""

    def test_stride_arithmetic(self):
        for mode in ("multi", "tap5"):
            model, taps = tiny_detector(mode)
            fused, cache = model.fused_map_forward(taps)
            assert fused.shape == (1, 3, 2, 2)
            tap_grads = model.fused_map_backward(np.ones_like(fused), cache)
            assert {name: g.shape for name, g in tap_grads.items()} == {name: m.shape for name, m in taps.items()}

    def test_identity_for_matching_stride(self):
        # the stride-16 cells pool the tap5 map to itself: no norm and a selection shrink give its bits
        model, taps = tiny_detector("tap5")
        model.shrink.weight.data[...] = np.eye(3)[:, :, None, None]
        model.shrink.bias.data[...] = 0.0
        fused, cache = model.fused_map_forward(taps)
        assert fused.tobytes() == taps["tap5"].tobytes()
        dfused = np.random.default_rng(3).standard_normal(fused.shape)
        assert model.fused_map_backward(dfused, cache)["tap5"].tobytes() == dfused.tobytes()

    def test_constant_map_stays_constant(self):
        model, taps = tiny_detector()
        fused, _ = model.fused_map_forward({name: np.full_like(fmap, 1.5) for name, fmap in taps.items()})
        spread = fused.reshape(3, -1)
        assert np.max(spread.max(axis=1) - spread.min(axis=1)) < 1e-12


def dense_index(n, hw):
    """The (N, HW) index of a table that holds every position once, in order."""
    return np.arange(n * hw).reshape(n, hw)


class TestConcatShrink:
    def test_channel_count(self):
        rng = np.random.default_rng(4)
        tables = [rng.standard_normal((c, 16)) for c in (32, 64, 64)]
        shrink = make_shrink(rng.standard_normal((64, 160, 1, 1)))
        out, _ = concat_shrink(tables, TAP_ORDER, {}, shrink, [dense_index(1, 16)] * 3)
        assert out.shape == (64, 1, 16)

    def test_selection_weights_pick_one_tap(self):
        rng = np.random.default_rng(5)
        tables = [rng.standard_normal((c, 18)) for c in (2, 3, 4)]
        w = np.zeros((4, 9, 1, 1))
        w[np.arange(4), 5 + np.arange(4), 0, 0] = 1.0  # select the tap5 block
        out, _ = concat_shrink(tables, TAP_ORDER, {}, make_shrink(w), [dense_index(2, 9)] * 3)
        assert np.allclose(out, tables[2].reshape(4, 2, 9))

    def test_index_expands_the_table_columns(self):
        rng = np.random.default_rng(15)
        tables = [rng.standard_normal((c, 4)) for c in (2, 3, 4)]
        index = [rng.integers(0, 4, (3, 5)) for _ in TAP_ORDER]
        shrink = make_shrink(rng.standard_normal((4, 9, 1, 1)))
        norms = {"tap4": make_l2norm(3, 2.0)}
        out, _ = concat_shrink(tables, TAP_ORDER, norms, shrink, index)
        expanded = [np.take(t, ix, axis=1).reshape(len(t), -1) for t, ix in zip(tables, index)]
        ref, _ = concat_shrink(expanded, TAP_ORDER, norms, shrink, [dense_index(3, 5)] * 3)
        assert out.tobytes() == ref.tobytes()

    def test_norms_apply_to_the_named_parts_only(self):
        rng = np.random.default_rng(14)
        tables = [rng.standard_normal((c, 9)) for c in (2, 3, 4)]
        index = [dense_index(1, 9)] * 3
        shrink = make_shrink(rng.standard_normal((4, 9, 1, 1)))
        norms = {"tap3": make_l2norm(2, 2.0), "tap5": make_l2norm(4, 3.0)}
        out, _ = concat_shrink(tables, TAP_ORDER, norms, shrink, index)
        normed = [l2norm_scale(tables[0][:, None], norms["tap3"])[0][:, 0], tables[1]]
        normed.append(l2norm_scale(tables[2][:, None], norms["tap5"])[0][:, 0])
        ref, _ = concat_shrink(normed, TAP_ORDER, {}, shrink, index)
        assert np.array_equal(out, ref)

    def test_spatial_mismatch_names_taps(self):
        tables = [np.zeros((2, 16)) for _ in TAP_ORDER]
        index = [dense_index(1, 16), dense_index(1, 9), dense_index(1, 16)]
        with pytest.raises(ShapeError, match="tap4"):
            concat_shrink(tables, TAP_ORDER, {}, make_shrink(np.zeros((2, 6, 1, 1))), index)

    @pytest.mark.parametrize("weight_shape", [(2, 5, 1, 1), (2, 6, 3, 3)])
    def test_shrink_weight_mismatch_rejected(self, weight_shape):
        tables = [np.zeros((2, 16)) for _ in TAP_ORDER]
        with pytest.raises(ShapeError, match="6 channels"):
            concat_shrink(tables, TAP_ORDER, {}, make_shrink(np.zeros(weight_shape)), [dense_index(1, 16)] * 3)


def reference_partition(extent, p):
    """The bins [lo, hi) of [0, extent): edge i at floor(i * extent / p + 0.5), and
    an empty bin takes the nearest non-empty one, ties to the lower index."""
    edges = [math.floor(i * extent / p + 0.5) for i in range(p + 1)]
    bins = list(zip(edges[:-1], edges[1:]))
    full = [i for i, (lo, hi) in enumerate(bins) if hi > lo]
    return [bins[min(full, key=lambda j: (abs(j - i), j))] for i in range(p)]


def reference_cells(shape, roi, stride, p):
    """Candidate flat indices (p*p, L) of one ROI and their validity mask.

    L is the largest bin height times the largest bin width; candidate k of
    a bin is its row k // width and column k % width, valid inside the bin.
    """
    _, h, w = shape
    x1 = int(np.floor(roi[0] / stride))
    y1 = int(np.floor(roi[1] / stride))
    x2 = max(int(np.ceil(roi[2] / stride)), x1 + 1)
    y2 = max(int(np.ceil(roi[3] / stride)), y1 + 1)
    x1 = min(max(x1, 0), w - 1)
    y1 = min(max(y1, 0), h - 1)
    x2 = max(min(x2, w), x1 + 1)
    y2 = max(min(y2, h), y1 + 1)
    rows, cols = reference_partition(y2 - y1, p), reference_partition(x2 - x1, p)
    height = max(hi - lo for lo, hi in rows)
    width = max(hi - lo for lo, hi in cols)
    flat = np.zeros((p * p, height * width), dtype=np.int64)
    valid = np.zeros(flat.shape, dtype=bool)
    for i, (r0, r1) in enumerate(rows):
        for j, (c0, c1) in enumerate(cols):
            for k in range(height * width):
                r, c = r0 + k // width, c0 + k % width
                valid[i * p + j, k] = r < r1 and c < c1
                flat[i * p + j, k] = (y1 + r) * w + x1 + c if valid[i * p + j, k] else 0
    return flat, valid


def reference_roi_pool(fmap, roi, stride, p):
    """One ROI at a time: -inf masked candidates and one argmax per cell."""
    c, h, w = fmap.shape
    flat, valid = reference_cells(fmap.shape, roi, stride, p)
    vals = np.where(valid[None], fmap.reshape(c, h * w)[:, flat], -np.inf)
    a = vals.argmax(axis=2)
    out = np.take_along_axis(vals, a[..., None], axis=2)[..., 0]
    return out.reshape(c, p, p), flat[np.arange(p * p)[None, :], a].reshape(c, p, p)


def reference_roi_pool_stack(fmap, rois, stride, p):
    """The reference over a stack: pooled (R, C, p, p) and flat argmax (R, C, p, p)."""
    pooled = [reference_roi_pool(fmap, roi, stride, p) for roi in rois]
    return np.stack([o for o, _ in pooled]), np.stack([a for _, a in pooled])


def reference_rectangles(shape, rois, stride, p):
    """The distinct bin rectangles of an ROI stack as (first cell, rows, columns)."""
    w = shape[2]
    rects = set()
    for roi in rois:
        flat, valid = reference_cells(shape, roi, stride, p)
        for cells in (f[v] for f, v in zip(flat, valid)):
            rects.add((cells.min(), len(np.unique(cells // w)), len(np.unique(cells % w))))
    return rects


def reference_roi_pool_backward(dout, argmax, dmap):
    """np.add.at of an (R, C, p, p) gradient stack at the argmax sources."""
    r, c = dout.shape[:2]
    np.add.at(dmap.reshape(c, -1), (np.arange(c)[None, :, None], argmax.reshape(r, c, -1)), dout.reshape(r, c, -1))


def mixed_rois(rng, n, extent):
    """ROIs of many sizes: inside, partly outside and smaller than one cell."""
    x1, y1 = rng.uniform(-0.25 * extent, extent, (2, n))
    w, h = rng.uniform(0.5, extent, (2, n))
    return np.stack([x1, y1, x1 + w, y1 + h], axis=1)


@pytest.mark.parametrize("p", range(1, 16))
def test_bins_match_reference_partition(p):
    # every extent up to 199 covers the exact-half edges and every empty-bin case
    extent = np.arange(1, 200)
    lo = np.arange(199) % 13
    first, count = _bins(lo, extent, p)
    bins = [reference_partition(e, p) for e in extent.tolist()]
    assert first.tolist() == [[a + b[0] for b in row] for a, row in zip(lo.tolist(), bins)]
    assert count.tolist() == [[b[1] - b[0] for b in row] for row in bins]


def pool_stack(fmap, rois, stride, p):
    """The (C, R, p*p) stack of :func:`roi_pool`: its table of distinct bin
    rectangles expanded through its bin index, and its cache."""
    (table, index), cache = roi_pool(fmap, rois, stride, p)
    assert table.flags.c_contiguous and index.shape == (len(rois), p * p)
    return np.take(table, index, axis=1), cache


class TestRoiPool:
    def test_quadrants(self):
        fmap = np.arange(16, dtype=float).reshape(1, 4, 4)
        out, _ = pool_stack(fmap, np.array([[0.0, 0.0, 4.0, 4.0]]), 1, 2)
        assert out.reshape(-1).tolist() == [5.0, 7.0, 13.0, 15.0]

    def test_p1_is_global_max(self):
        rng = np.random.default_rng(6)
        fmap = rng.standard_normal((3, 6, 6))
        out, _ = pool_stack(fmap, np.array([[0.0, 0.0, 96.0, 96.0]]), 16, 1)
        assert np.allclose(out.reshape(3), fmap.reshape(3, -1).max(axis=1))

    def test_tiny_roi_replicates_single_cell(self):
        rng = np.random.default_rng(7)
        fmap = rng.standard_normal((2, 8, 8))
        out, cache = pool_stack(fmap, np.array([[50.0, 50.0, 60.0, 60.0]]), 16, 7)
        assert out.shape == (2, 1, 49)
        # one projected source cell, replicated everywhere
        assert np.allclose(out, fmap[:, 3, 3].reshape(2, 1, 1))
        expected = np.zeros_like(fmap)
        expected[:, 3, 3] = 49.0
        assert np.array_equal(roi_pool_backward(np.ones_like(out), cache), expected)

    def test_small_rois_total_and_finite(self):
        rng = np.random.default_rng(8)
        fmap = rng.standard_normal((2, 8, 8))
        rois = []
        for _ in range(1000):
            x1 = rng.uniform(0, 110)
            y1 = rng.uniform(0, 110)
            side = rng.uniform(4, 15)
            rois.append([x1, y1, x1 + side, y1 + side])
        out, cache = pool_stack(fmap, np.array(rois), 16, 7)
        assert out.shape == (2, 1000, 49)
        assert np.all(np.isfinite(out))
        # every pooled value routes its gradient to one position of the map
        assert roi_pool_backward(np.ones_like(out), cache).sum() == out.size

    def test_later_nan_candidate_is_skipped(self):
        # as in a strict-greater scan, a NaN after the first candidate never wins
        fmap = np.array([[1.0, 5.0, 0.0, 0.0], [3.0, np.nan, 0.0, 0.0], [0.0] * 4, [0.0] * 4])[None]
        out, cache = pool_stack(fmap, np.array([[0.0, 0.0, 4.0, 4.0]]), 1, 2)
        assert out.reshape(-1).tolist() == [5.0, 0.0, 0.0, 0.0]
        dout = np.array([1.0, 0.0, 0.0, 0.0]).reshape(out.shape)
        assert np.flatnonzero(roi_pool_backward(dout, cache)).tolist() == [1]

    def test_empty_stack(self):
        fmap = np.zeros((3, 4, 4))
        out, cache = pool_stack(fmap, np.zeros((0, 4)), 4, 7)
        assert out.shape == (3, 0, 49)
        assert not roi_pool_backward(out, cache).any()


class TestRoiPoolMatchesPerRoiReference:
    """The batched pooling gives the per-ROI reference's bits, ties included,
    and its backward routes every cell where the reference argmax does."""

    @staticmethod
    def check(fmap, rois, p, rng):
        """Values byte-equal to the reference, and for a float64 map one random gradient
        over every cell scattered byte-equal to np.add.at at the reference argmax."""
        out, cache = pool_stack(fmap, rois, 4, p)
        assert out.flags.c_contiguous and out.dtype == fmap.dtype
        ref_out, ref_arg = reference_roi_pool_stack(fmap, rois, 4, p)
        assert out.tobytes() == ref_out.reshape(len(rois), len(fmap), -1).transpose(1, 0, 2).tobytes()
        if fmap.dtype != np.float64:  # detect pools float32 maps; training, the one backward user, float64
            return out
        dout = rng.standard_normal(out.shape)
        ref = np.zeros_like(fmap)
        reference_roi_pool_backward(np.ascontiguousarray(dout.transpose(1, 0, 2)), ref_arg, ref)
        assert roi_pool_backward(dout, cache).tobytes() == ref.tobytes()
        return out

    @pytest.mark.parametrize("p", [1, 3, 7])
    @pytest.mark.parametrize(
        "relu_map,dtype", [(True, np.float64), (False, np.float64), (True, np.float32)], ids=["True", "False", "float32"]
    )
    def test_values_and_argmax(self, p, relu_map, dtype):
        rng = np.random.default_rng(20 + p)
        fmap = rng.standard_normal((3, 16, 16))
        if relu_map:
            fmap = np.maximum(fmap, 0.0)  # many tied zeros
        self.check(fmap.astype(dtype), mixed_rois(rng, 300, 64.0), p, rng)

    @pytest.mark.parametrize("p", [1, 3, 7])
    def test_plateau_map(self, p):
        # constant 4x4 blocks of 0, 1 or 2: most cells tie on several candidates
        rng = np.random.default_rng(40 + p)
        fmap = np.kron(rng.integers(0, 3, size=(3, 4, 4)), np.ones((4, 4)))
        out = self.check(fmap, mixed_rois(rng, 300, 64.0), p, rng)
        assert np.unique(out).tolist() == [0.0, 1.0, 2.0]

    def test_nan_first_candidate_is_kept(self):
        # where the NaN comes first, np.argmax and the strict-greater scan agree
        rng = np.random.default_rng(7)
        fmap = rng.standard_normal((2, 6, 6))
        # (2, 2) is the first candidate of the centre cell of the first ROI and
        # of the corner cell of the second; (0, 0) starts the first ROI's corner
        fmap[0, 2, 2] = np.nan
        fmap[1, 0, 0] = np.nan
        rois = np.array([[0.0, 0.0, 24.0, 24.0], [8.0, 8.0, 24.0, 24.0]])
        assert np.isnan(self.check(fmap, rois, 3, rng)).sum() == 3

    def test_rois_cover_several_cell_lengths(self):
        rois = mixed_rois(np.random.default_rng(27), 300, 64.0)
        lengths = {reference_cells((3, 16, 16), roi, 4, 7)[0].shape[1] for roi in rois}
        assert len(lengths) >= 4

    def test_constant_map_routes_to_first_candidate(self):
        fmap = np.zeros((2, 8, 8))
        rois = mixed_rois(np.random.default_rng(28), 50, 32.0)
        out, cache = pool_stack(fmap, rois, 4, 3)
        dout = np.random.default_rng(29).standard_normal(out.shape)
        first = np.stack([np.broadcast_to(reference_cells(fmap.shape, roi, 4, 3)[0][:, 0], (2, 9)) for roi in rois])
        ref = np.zeros_like(fmap)
        reference_roi_pool_backward(dout.transpose(1, 0, 2), first, ref)
        assert roi_pool_backward(dout, cache).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("p", [1, 3, 7])
    def test_backward_matches_add_at(self, p):
        rng = np.random.default_rng(30 + p)
        self.check(np.maximum(rng.standard_normal((3, 16, 16)), 0.0), mixed_rois(rng, 200, 64.0), p, rng)


class TestMsRoiPool:
    def _setup(self, rng):
        taps = make_taps(rng)
        norms = {name: make_l2norm(fmap.shape[1], gamma_init=2.0) for name, fmap in taps.items()}
        return taps, norms, make_shrink(rng.standard_normal((4, 9, 1, 1)))

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
        taps = {name: np.full_like(fmap, 0.7) for name, fmap in taps.items()}
        out, _ = ms_roi_pool_batch(taps, np.array([[2.0, 2.0, 20.0, 20.0]]), norms, shrink, 3)
        spread = out.reshape(4, -1)
        assert np.max(spread.max(axis=1) - spread.min(axis=1)) < 1e-12

    def test_tap_order_is_part_of_the_contract(self):
        rng = np.random.default_rng(12)
        taps, norms, shrink = self._setup(rng)
        # same channel count per tap so a permutation is shape-legal
        taps = make_taps(rng, channels=(3, 3, 3))
        norms = {name: make_l2norm(3, gamma_init=2.0) for name in taps}
        shrink = make_shrink(rng.standard_normal((3, 9, 1, 1)))
        roi = np.array([[1.0, 1.0, 28.0, 28.0]])
        out_a, _ = ms_roi_pool_batch(taps, roi, norms, shrink, 3)
        swapped = {name: taps[name] for name in ("tap4", "tap3", "tap5")}
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


def reference_l2norm_scale(x, g):
    """The per-channel norm of an NCHW map, summed over axis 1."""
    s = np.sqrt((x * x).sum(axis=1, keepdims=True) + L2NORM_EPS * L2NORM_EPS)
    xn = x / s
    return g[None, :, None, None] * xn, (x, s, xn, g)


def reference_l2norm_scale_backward(dout, cache):
    """Input and gamma gradients of :func:`reference_l2norm_scale`."""
    x, s, xn, g = cache
    dgamma = (dout * xn).sum(axis=(0, 2, 3))
    gd = dout * g[None, :, None, None]
    dot = (gd * x).sum(axis=1, keepdims=True)
    return gd / s - x * (dot / (s * s * s)), dgamma


def reference_fusion(parts, gammas, shrink, dout):
    """The NCHW fusion step: norm the parts that have a gamma, concatenate
    along channels and shrink with a 1x1 ``conv2d``.  Returns the output,
    the part and gamma gradients for ``dout``, and the shrink gradients."""
    shrink = Params(Tensor(shrink.weight.data.copy()), Tensor(shrink.bias.data.copy()))
    normed, caches = [], []
    for x, g in zip(parts, gammas):
        y, cache = (x, None) if g is None else reference_l2norm_scale(x, g)
        normed.append(y)
        caches.append(cache)
    out, conv_cache = conv2d(np.concatenate(normed, axis=1), shrink)
    dz = conv2d_backward(dout, conv_cache)
    dparts = np.split(dz, np.cumsum([x.shape[1] for x in parts])[:-1], axis=1)
    grads = [(d, None) if c is None else reference_l2norm_scale_backward(d, c) for d, c in zip(dparts, caches)]
    return out, grads, (shrink.weight.grad, shrink.bias.grad)


class TestFusionMatchesNchwReference:
    """Both branches give the bits of the NCHW fusion composition: outputs,
    tap gradients, gamma gradients and shrink gradients."""

    def _model(self, mode, size=128):
        model = MultiScaleDetector(ModelConfig(fusion_mode=mode), seed=3)
        model.zero_grads()
        scene = generate_toy_dataset(1, size, (16, size // 2), seed=41)[0]
        taps, _ = model.backbone_forward(scene.image)
        return model, taps

    def _assert_param_grads(self, model, taps, grads, shrink_grads):
        for name, (_, dgamma) in zip(taps, grads):
            if name in model.norms:
                assert model.norms[name].grad.tobytes() == dgamma.tobytes()
        assert model.shrink.weight.grad.tobytes() == shrink_grads[0].tobytes()
        assert model.shrink.bias.grad.tobytes() == shrink_grads[1].tobytes()

    @pytest.mark.parametrize("n_rois", [1, 80, 300])
    @pytest.mark.parametrize("mode", ["multi", "tap5"])
    def test_ms_roi_pool_batch(self, mode, n_rois):
        model, taps = self._model(mode)
        rng = np.random.default_rng(n_rois)
        rois = mixed_rois(rng, n_rois, 128.0)
        out, cache = ms_roi_pool_batch(taps, rois, model.norms, model.shrink, 7)
        dout = rng.standard_normal(out.shape)
        tap_grads = ms_roi_pool_batch_backward(dout, cache)

        pooled = [reference_roi_pool_stack(fmap[0], rois, TAP_STRIDES[name], 7) for name, fmap in taps.items()]
        gammas = [model.norms[name].data if name in model.norms else None for name in taps]
        ref_out, grads, shrink_grads = reference_fusion([o for o, _ in pooled], gammas, model.shrink, dout)
        assert np.array_equal(out, ref_out)
        for (name, fmap), (_, arg), (dpart, _) in zip(taps.items(), pooled, grads):
            ref = np.zeros_like(fmap[0])
            reference_roi_pool_backward(dpart, arg, ref)
            assert np.array_equal(tap_grads[name][0], ref)
        self._assert_param_grads(model, taps, grads, shrink_grads)

    @pytest.mark.parametrize("mode", ["multi", "tap5"])
    def test_duplicated_stack_pools_each_rectangle_once(self, mode, monkeypatch):
        # 300 ROIs from 20 boxes jittered by under one stride-16 cell, on ReLU
        # maps (many exact-zero ties) with a NaN at tap5's corner cell (0, 0),
        # the first cell of every rectangle that holds it
        model, taps = self._model(mode)
        taps = {name: fmap.copy() for name, fmap in taps.items()}
        taps["tap5"][0, 1, 0, 0] = np.nan
        rng = np.random.default_rng(19)
        boxes = np.vstack([[-6.0, -5.0, 40.0, 60.0], mixed_rois(rng, 19, 128.0)])
        rois = boxes[rng.integers(0, 20, 300)] + rng.uniform(-7.9, 7.9, (300, 4))
        calls = []

        def counted(fmap, *args):
            pooled, cache = roi_pool(fmap, *args)
            calls.append(pooled[0].shape[1])
            return pooled, cache

        monkeypatch.setattr(fusion, "roi_pool", counted)
        out, cache = ms_roi_pool_batch(taps, rois, model.norms, model.shrink, 7)
        dout = rng.standard_normal(out.shape)
        tap_grads = ms_roi_pool_batch_backward(dout, cache)

        rects = [reference_rectangles(fmap[0].shape, rois, TAP_STRIDES[name], 7) for name, fmap in taps.items()]
        assert calls == [len(r) for r in rects]  # one call per tap, one column per distinct rectangle
        assert sum(calls) < len(rois) * 49
        if mode == "multi":  # the stride-4 tap has bins of transposed shapes, 2x3 next to 3x2 say
            shapes = {(ny, nx) for _, ny, nx in rects[0]}
            assert any(ny != nx and (nx, ny) in shapes for ny, nx in shapes)
        pooled = [reference_roi_pool_stack(fmap[0], rois, TAP_STRIDES[name], 7) for name, fmap in taps.items()]
        gammas = [model.norms[name].data if name in model.norms else None for name in taps]
        ref_out, grads, shrink_grads = reference_fusion([o for o, _ in pooled], gammas, model.shrink, dout)
        assert np.isnan(out).any() and out.tobytes() == ref_out.tobytes()
        for (name, fmap), (_, arg), (dpart, dgamma) in zip(taps.items(), pooled, grads):
            ref = np.zeros_like(fmap[0])
            reference_roi_pool_backward(dpart, arg, ref)
            assert tap_grads[name][0].tobytes() == ref.tobytes()
            if name in model.norms:
                assert model.norms[name].grad.tobytes() == dgamma.tobytes()
        assert model.shrink.weight.grad.tobytes() == shrink_grads[0].tobytes()
        assert model.shrink.bias.grad.tobytes() == shrink_grads[1].tobytes()

    @pytest.mark.parametrize("mode", ["multi", "tap5"])
    def test_fused_map_forward(self, mode):
        # ROI pooling of the stride-16 cells against the maxpool2d sync by the
        # stride ratio: float64 with every gradient, then the float32 forward
        for size in (32, 128, 256):
            model, taps = self._model(mode, size)
            fused, cache = model.fused_map_forward(taps)
            dfused = np.random.default_rng(5).standard_normal(fused.shape)
            tap_grads = model.fused_map_backward(dfused, cache)

            synced = [reference_sync_downsample(name, fmap) for name, fmap in taps.items()]
            gammas = [model.norms[name].data if name in model.norms else None for name in taps]
            ref_out, grads, shrink_grads = reference_fusion([m for m, _ in synced], gammas, model.shrink, dfused)
            assert fused.shape == (1, 64, size // 16, size // 16)
            assert fused.tobytes() == ref_out.tobytes()
            for name, (_, dc), (dpart, _) in zip(taps, synced, grads):
                assert tap_grads[name].tobytes() == reference_sync_downsample_backward(dpart, dc).tobytes()
            self._assert_param_grads(model, taps, grads, shrink_grads)

            taps = {name: fmap.astype(np.float32) for name, fmap in taps.items()}
            fused, _ = model.fused_map_forward(taps)
            synced = [reference_sync_downsample(name, fmap)[0] for name, fmap in taps.items()]
            gammas = [None if g is None else g.astype(np.float32) for g in gammas]
            ref_out, _, _ = reference_fusion(synced, gammas, model.shrink, dfused.astype(np.float32))
            assert fused.dtype == np.float32 and fused.tobytes() == ref_out.tobytes()


class TestTapGradientsJoin:
    """Each tap's gradient enters the backbone sweep where the forward took the tap."""

    @staticmethod
    def _model(mode="multi"):
        model = MultiScaleDetector(ModelConfig(fusion_mode=mode), seed=0, stage_channels=(2, 2, 3, 3, 3))
        return model, *model.backbone_forward(np.random.default_rng(0).uniform(size=(1, 1, 32, 32)))

    @pytest.mark.parametrize("mode", ["multi", "tap5"])
    def test_forward_returns_only_the_fused_taps(self, mode):
        model, taps, _ = self._model(mode)
        assert list(taps) == list(model.fused_taps)

    def test_tap_gradient_reaches_only_its_stage_and_those_below(self):
        model, taps, caches = self._model()
        rng = np.random.default_rng(1)
        grads = {name: rng.standard_normal(fmap.shape) for name, fmap in taps.items()}

        def param_grads(tap_grads):
            model.zero_grads()
            model.backbone_backward(tap_grads, caches)
            return {name: t.grad.copy() for name, t in model.params().items()}

        base = param_grads(grads)
        for name, last_stage in (("tap3", 3), ("tap4", 4)):
            doubled = param_grads({**grads, name: 2.0 * grads[name]})
            changed = {p for p in base if not np.array_equal(base[p], doubled[p])}
            below = tuple(f"backbone.s{i}." for i in range(1, last_stage + 1))
            assert changed == {p for p in base if p.startswith(below)}
