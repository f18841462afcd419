import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from msfacedet import checks, rpn
from msfacedet.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from msfacedet.checks import DEFAULT_SEEDS, LAYER_CHECKS, finite_difference_check
from msfacedet.model import ModelConfig, MultiScaleDetector
from msfacedet.tensor import (
    _BAND_BYTES,
    Params,
    ShapeError,
    Tensor,
    _windows,
    conv2d,
    conv2d_backward,
    fully_connected,
    make_conv,
    maxpool2d,
    maxpool2d_backward,
    relu,
    relu_backward,
    smooth_l1,
    softmax,
    softmax_cross_entropy,
)


def _conv(weight, bias):
    return Params(Tensor(weight), Tensor(bias))


def reference_conv2d(x, p, pad):
    """Row-major im2col convolution: columns (N*Ho*Wo, C*kH*kW), output cols @ W.T."""
    n, c, h, w = x.shape
    out_c, _, kh, kw = p.weight.data.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho, wo = h + 2 * pad - kh + 1, w + 2 * pad - kw + 1
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))
    cols = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(n * ho * wo, c * kh * kw)
    out = (cols @ p.weight.data.reshape(out_c, -1).T + p.bias.data).reshape(n, ho, wo, out_c).transpose(0, 3, 1, 2)
    return out, cols


def reference_conv2d_backward(dout, x_shape, cols, p, pad):
    """Gradients (dx, dW, db) of the row-major form, by scatter over kernel offsets."""
    n, c, h, w = x_shape
    out_c, _, kh, kw = p.weight.data.shape
    _, _, ho, wo = dout.shape
    dmat = np.ascontiguousarray(dout.transpose(0, 2, 3, 1)).reshape(-1, out_c)
    db = dmat.sum(axis=0)
    dw = (dmat.T @ cols).reshape(p.weight.data.shape)
    dc = (dmat @ p.weight.data.reshape(out_c, -1)).reshape(n, ho, wo, c, kh, kw).transpose(0, 3, 1, 2, 4, 5)
    dxp = np.zeros((n, c, h + 2 * pad, w + 2 * pad))
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i : i + ho, j : j + wo] += dc[:, :, :, :, i, j]
    return dxp[:, :, pad : pad + h, pad : pad + w], dw, db


def column_cache_conv2d(x, p):
    """The convolution that cached its channel-major im2col columns instead of
    the padded input, kept as the bitwise reference for ``conv2d``."""
    n, c, h, w = x.shape
    out_c, _, kh, kw = p.weight.data.shape
    pad = (kh - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    ho, wo = h + 2 * pad - kh + 1, w + 2 * pad - kw + 1
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))
    cols = np.ascontiguousarray(win.transpose(1, 4, 5, 0, 2, 3)).reshape(c * kh * kw, n * ho * wo)
    wmat = p.weight.data.astype(x.dtype, copy=False).reshape(out_c, -1)
    bias = p.bias.data.astype(x.dtype, copy=False)
    out = (wmat @ cols + bias[:, None]).reshape(out_c, n, ho, wo).transpose(1, 0, 2, 3)
    return out, (cols, x.shape, p)


def column_cache_conv2d_backward(dout, cache):
    """Backward of :func:`column_cache_conv2d` on its cached columns."""
    cols, x_shape, p = cache
    n, c, h, w = x_shape
    out_c, _, kh, kw = p.weight.data.shape
    pad = (kh - 1) // 2
    _, _, ho, wo = dout.shape
    dmat = dout.transpose(1, 0, 2, 3).reshape(out_c, -1)
    wmat = p.weight.data.reshape(out_c, -1)
    p.bias.grad += dmat.sum(axis=1)
    p.weight.grad += (dmat @ cols.T).reshape(p.weight.data.shape)
    dc = (wmat.T @ dmat).reshape(c, kh, kw, n, ho, wo)
    dxp = np.zeros((c, n, h + 2 * pad, w + 2 * pad))
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i : i + ho, j : j + wo] += dc[:, i, j]
    return dxp[:, :, pad : pad + h, pad : pad + w].transpose(1, 0, 2, 3)


def _random_conv(rng, out_c, in_c, k):
    return _conv(rng.standard_normal((out_c, in_c, k, k)), rng.standard_normal(out_c))


def _conv_gradient_error(rng, x, p):
    """Finite-difference error of conv2d_backward on a random projection of the output."""
    out, cache = conv2d(x, p)
    proj = rng.standard_normal(out.shape)
    dx = conv2d_backward(proj, cache)
    return finite_difference_check(
        lambda: float((conv2d(x, p)[0] * proj).sum()),
        [x, p.weight.data, p.bias.data],
        [dx, p.weight.grad, p.bias.grad],
    )


# (x shape, out channels, kernel, the pad conv2d must use): backbone 3x3
# convs at 128 px, a 1x1 conv over a batch of 300 7x7 images, a 3x3 batch,
# a 1x1 RPN head on one image, whose gather alone is a read-only view,
# and a 5x5 batch whose col2im spans wrap two columns past each row edge
CONV_CASES = [
    ((1, 1, 128, 128), 8, 3, 1),
    ((1, 32, 16, 16), 64, 3, 1),
    ((1, 64, 8, 8), 64, 3, 1),
    ((300, 160, 7, 7), 64, 1, 0),
    ((2, 3, 9, 8), 4, 3, 1),
    ((1, 64, 8, 8), 12, 1, 0),
    ((2, 2, 6, 7), 3, 5, 2),
]


class TestConv2d:
    def test_same_size_padding(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 1, 8, 8))
        p = make_conv(rng, 4, 1, 3)
        out, _ = conv2d(x, p)
        assert out.shape == (1, 4, 8, 8)

    def test_zero_weights_give_zero_output(self):
        x = np.random.default_rng(1).standard_normal((2, 3, 6, 6))
        p = _conv(np.zeros((5, 3, 3, 3)), np.zeros(5))
        out, _ = conv2d(x, p)
        assert np.all(out == 0.0)

    def test_channel_mismatch_rejected_with_both_shapes(self):
        x = np.zeros((1, 2, 5, 5))
        p = _conv(np.zeros((3, 4, 3, 3)), np.zeros(3))
        with pytest.raises(ShapeError, match=r"2.*\(1, 2, 5, 5\)|\(1, 2, 5, 5\).*4"):
            conv2d(x, p)

    @pytest.mark.parametrize("kernel", [(2, 2), (3, 1), (1, 3)])
    def test_even_or_non_square_kernel_rejected(self, kernel):
        p = _conv(np.zeros((3, 2, *kernel)), np.zeros(3))
        with pytest.raises(ShapeError, match="not square with an odd size"):
            conv2d(np.zeros((1, 2, 5, 5)), p)

    def test_linearity_in_input(self):
        rng = np.random.default_rng(2)
        p = make_conv(rng, 3, 2, 3)
        p.weight.data[...] = rng.standard_normal(p.weight.data.shape)
        x = rng.standard_normal((1, 2, 7, 7))
        y = rng.standard_normal((1, 2, 7, 7))
        a, b = 1.7, -0.4
        p.bias.data[...] = 0.0
        lhs, _ = conv2d(a * x + b * y, p)
        rhs = a * conv2d(x, p)[0] + b * conv2d(y, p)[0]
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    @given(h=st.integers(0, 12), w=st.integers(0, 12), k=st.sampled_from([1, 3, 5]))
    @settings(max_examples=40, deadline=None)
    def test_shape_algebra(self, h, w, k):
        x = np.zeros((1, 2, h, w))
        p = _conv(np.zeros((3, 2, k, k)), np.zeros(3))
        if h == 0 or w == 0:
            # smaller than every kernel even after (k - 1) // 2 padding
            with pytest.raises(ShapeError, match="smaller than kernel"):
                conv2d(x, p)
            return
        out, _ = conv2d(x, p)
        assert out.shape == (1, 3, h, w)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 2, 5, 5))
        p = make_conv(rng, 3, 2, 3)
        p.weight.data[...] = rng.standard_normal(p.weight.data.shape)
        assert _conv_gradient_error(rng, x, p) <= 1e-4

    def test_batched_and_1x1_gradients_match_finite_differences(self):
        for x_shape, k in [((2, 2, 5, 5), 3), ((2, 3, 4, 5), 1)]:
            rng = np.random.default_rng(3)
            x = rng.standard_normal(x_shape)
            p = _random_conv(rng, 3, x_shape[1], k)
            assert _conv_gradient_error(rng, x, p) <= 1e-4, x_shape

    @pytest.mark.parametrize("x_shape,out_c,k,pad", CONV_CASES)
    def test_matches_row_major_reference(self, x_shape, out_c, k, pad):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(x_shape)
        p = _random_conv(rng, out_c, x_shape[1], k)
        out, cache = conv2d(x, p)
        ref_out, ref_cols = reference_conv2d(x, p, pad)
        dout = rng.standard_normal(out.shape)
        dx = conv2d_backward(dout, cache)
        got = [out, dx, p.weight.grad, p.bias.grad]
        want = [ref_out, *reference_conv2d_backward(dout, x.shape, ref_cols, p, pad)]
        for name, a, b in zip(["out", "dx", "dW", "db"], got, want):
            assert a.shape == b.shape, name
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), name

    @pytest.mark.parametrize("x_shape,out_c,k,pad", CONV_CASES)
    def test_matches_column_cache_reference_bit_for_bit(self, x_shape, out_c, k, pad):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(x_shape)
        p = _random_conv(rng, out_c, x_shape[1], k)
        ref_p = _conv(p.weight.data.copy(), p.bias.data.copy())
        out, cache = conv2d(x, p)
        ref_out, ref_cache = column_cache_conv2d(x, ref_p)
        dout = rng.standard_normal(out.shape)
        got = [out, conv2d_backward(dout, cache), p.weight.grad, p.bias.grad]
        want = [ref_out, column_cache_conv2d_backward(dout, ref_cache), ref_p.weight.grad, ref_p.bias.grad]
        for name, a, b in zip(["out", "dx", "dW", "db"], got, want):
            assert a.shape == b.shape and a.dtype == b.dtype, name
            assert a.tobytes() == b.tobytes(), name
        x32 = x.astype(np.float32)
        out32, ref32 = conv2d(x32, p)[0], column_cache_conv2d(x32, p)[0]
        assert out32.dtype == np.float32 and out32.tobytes() == ref32.tobytes()

    @pytest.mark.parametrize("x_shape,out_c,k,pad", CONV_CASES)
    def test_cache_holds_the_input_itself(self, x_shape, out_c, k, pad):
        rng = np.random.default_rng(7)
        x, p = rng.standard_normal(x_shape), _random_conv(rng, out_c, x_shape[1], k)
        _, cache = conv2d(x, p)
        assert cache[0] is x and cache[1] is p

    @pytest.mark.parametrize("x_shape,out_c,k,pad", CONV_CASES)
    def test_cache_holds_no_array_larger_than_padded_input(self, x_shape, out_c, k, pad):
        rng = np.random.default_rng(7)
        _, cache = conv2d(rng.standard_normal(x_shape), _random_conv(rng, out_c, x_shape[1], k))
        n, c, h, w = x_shape
        arrays = [a for a in cache if isinstance(a, np.ndarray)]
        assert arrays
        assert max(a.size for a in arrays) <= n * c * (h + 2 * pad) * (w + 2 * pad)

    def test_single_image_output_is_c_contiguous(self):
        rng = np.random.default_rng(5)
        out, _ = conv2d(rng.standard_normal((1, 4, 6, 7)), _random_conv(rng, 5, 4, 3))
        assert out.shape == (1, 5, 6, 7)
        assert out.flags.c_contiguous

    @pytest.mark.parametrize("px,dtype", [(128, np.float64), (256, np.float32)])
    def test_bands_match_full_columns_bit_for_bit_on_every_model_layer(self, px, dtype):
        rng = np.random.default_rng(8)
        cases = _model_conv_cases(px)
        assert any(_column_bytes(x_shape, k, dtype) >= 2 * _BAND_BYTES for x_shape, _, k in cases)
        for x_shape, out_c, k in cases:
            x = rng.standard_normal(x_shape).astype(dtype)
            p = _random_conv(rng, out_c, x_shape[1], k)
            out, ref = conv2d(x, p)[0], column_cache_conv2d(x, p)[0]
            assert out.dtype == ref.dtype and out.tobytes() == ref.tobytes(), x_shape

    # per image, 100 rows in 7 bands of 14 or 15 rows; 256 rows of 16 columns
    # in 18 bands, where 15-row bands (ceil(256 / 18)) would leave a last band
    # of 16 columns, which OpenBLAS's small-matrix kernel sums in another
    # order; and a batch, which stays one band because its output rows are
    # not contiguous per channel
    @pytest.mark.parametrize("x_shape", [(1, 8, 100, 128), (1, 64, 256, 16), (2, 8, 128, 128)])
    def test_unequal_and_batched_bands_match_full_columns_bit_for_bit(self, x_shape):
        assert x_shape[2] % (_column_bytes((1, *x_shape[1:]), 3, np.float64) // _BAND_BYTES)
        rng = np.random.default_rng(9)
        x = rng.standard_normal(x_shape)
        p = _random_conv(rng, x_shape[1], x_shape[1], 3)
        assert conv2d(x, p)[0].tobytes() == column_cache_conv2d(x, p)[0].tobytes()

    def test_forward_never_holds_full_size_columns(self):
        # 22.0 MiB with full-size columns (18.9 MB of them); about 5.1 MiB in bands
        rng = np.random.default_rng(10)
        x = rng.standard_normal((1, 8, 256, 256)).astype(np.float32)
        p = _random_conv(rng, 8, 8, 3)
        tracemalloc.start()
        try:
            conv2d(x, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        padded, output = 8 * 258 * 258 * 4, 8 * 256 * 256 * 4
        assert peak < padded + output + 2 * _BAND_BYTES


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("k", [1, 3])
def test_windows_are_the_sliding_window_view_and_read_only(k, n, dtype):
    # a non-square padded input: 9 x 6 output rows and columns
    xp = np.random.default_rng(10 * k + n).standard_normal((n, 3, 8 + k, 5 + k)).astype(dtype)
    ref = sliding_window_view(xp, (k, k), axis=(2, 3)).transpose(1, 4, 5, 0, 2, 3)
    win = _windows(xp, k)
    assert (win.shape, win.strides, win.dtype) == (ref.shape, ref.strides, ref.dtype)
    assert win.tobytes() == ref.tobytes() and np.shares_memory(win, xp)
    with pytest.raises(ValueError, match="read-only"):
        win[0, 0, 0, 0, 0, 0] = 1.0


def _column_bytes(x_shape, k, dtype):
    n, c, h, w = x_shape
    return c * k * k * n * h * w * np.dtype(dtype).itemsize


def _model_conv_cases(px):
    """(x shape, out channels, kernel) of every backbone and proposal-head
    convolution of the default model on a px x px image."""
    model = MultiScaleDetector(ModelConfig(), seed=0)
    head = model.rpn_head
    sides = [(conv, px >> i) for i, stage in enumerate(model.stages) for conv in stage]
    sides += [(conv, px // 16) for conv in (head.conv, head.cls, head.bbox)]
    return [((1, conv.weight.data.shape[1], side, side), *conv.weight.data.shape[::2]) for conv, side in sides]


def _cache_arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _cache_arrays(item)


def test_backbone_caches_of_a_256_px_float32_image_hold_at_most_9_5_mb_of_distinct_buffers():
    # 53.1 MB while every conv cached its im2col columns; 11.4 MB with padded
    # inputs and ReLU masks; 9.24 MB with each activation held once
    model = MultiScaleDetector(ModelConfig(), seed=0)
    _, caches = model.backbone_forward(np.full((1, 1, 256, 256), 0.5, dtype=np.float32))
    buffers = {}  # the array owning each cached array's memory, once per owner
    for a in _cache_arrays(caches):
        owner = a if a.base is None else a.base
        buffers[id(owner)] = owner
    assert sum(b.nbytes for b in buffers.values()) <= 9.5e6


def reference_maxpool2d(x, k):
    """k x k pooling at stride k over gathered sliding windows."""
    n, c, h, w = x.shape
    ho, wo = (h - k) // k + 1, (w - k) // k + 1
    win = sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::k, ::k]
    wins = np.ascontiguousarray(win).reshape(n, c, ho, wo, k * k)
    arg = wins.argmax(axis=-1)
    oy, ox = np.meshgrid(np.arange(ho), np.arange(wo), indexing="ij")
    return wins.max(axis=-1), (oy * k + arg // k) * w + ox * k + arg % k


def reference_maxpool2d_backward(dout, x_shape, flat):
    """np.add.at of each window's gradient at its reference argmax."""
    n, c, h, w = x_shape
    dx = np.zeros((n * c, h * w))
    np.add.at(dx, (np.arange(n * c)[:, None], flat.reshape(n * c, -1)), dout.reshape(n * c, -1))
    return dx.reshape(x_shape)


class TestMaxPool:
    @pytest.mark.parametrize("shape,k", [((1, 8, 256, 256), 2), ((1, 32, 64, 64), 4), ((1, 3, 7, 9), 2)])
    def test_matches_sliding_window_reference(self, shape, k):
        rng = np.random.default_rng(6)
        n, c, h, w = shape
        # constant 3x3 plateaus of 0, 1 or 2, cut across by the windows
        blocks = rng.integers(0, 3, size=(n, c, -(-h // 3), -(-w // 3))).astype(np.float64)
        plateaus = np.repeat(np.repeat(blocks, 3, axis=2), 3, axis=3)[:, :, :h, :w]
        with_nan = rng.standard_normal(shape)
        with_nan[:, :, ::3, ::5] = np.nan  # first in some windows, later in others
        for x in (rng.standard_normal(shape), rng.integers(0, 3, size=shape).astype(np.float64), plateaus, with_nan):
            out, cache = maxpool2d(x, k)
            ref_out, ref_flat = reference_maxpool2d(x, k)
            assert out.tobytes() == ref_out.tobytes()
            # windows do not overlap, so each gradient lands alone on its argmax
            dout = rng.standard_normal(out.shape)
            ref_dx = reference_maxpool2d_backward(dout, x.shape, ref_flat)
            assert maxpool2d_backward(dout, cache).tobytes() == ref_dx.tobytes()

    def test_two_by_two(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        out, _ = maxpool2d(x, 2)
        assert out.reshape(-1).tolist() == [4.0]

    def test_tie_routes_to_first_element(self):
        x = np.full((1, 1, 4, 4), 2.5)
        out, cache = maxpool2d(x, 2)
        assert np.all(out == 2.5)
        # winner of each window is its lowest linear index
        dx = maxpool2d_backward(np.arange(1.0, 5.0).reshape(out.shape), cache)
        assert np.flatnonzero(dx).tolist() == [0, 2, 8, 10]
        assert dx.reshape(-1)[[0, 2, 8, 10]].tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_window_too_large_rejected(self):
        with pytest.raises(ShapeError):
            maxpool2d(np.zeros((1, 1, 3, 3)), 4)

    def test_gradcheck_away_from_ties(self):
        rng = np.random.default_rng(4)
        x = (rng.permutation(1 * 3 * 6 * 6) * 0.01).reshape(1, 3, 6, 6)
        out, cache = maxpool2d(x, 2)
        proj = rng.standard_normal(out.shape)
        dx = maxpool2d_backward(proj, cache)
        err = finite_difference_check(lambda: float((maxpool2d(x, 2)[0] * proj).sum()), [x], [dx])
        assert err <= 1e-4

    @pytest.mark.parametrize("window", [2, 3])
    def test_backward_matches_add_at(self, window):
        rng = np.random.default_rng(5)
        x = np.maximum(rng.standard_normal((2, 3, 7, 7)), 0.0)  # tied zeros
        out, cache = maxpool2d(x, window)
        dout = rng.standard_normal(out.shape)
        _, ref_flat = reference_maxpool2d(x, window)
        ref_dx = reference_maxpool2d_backward(dout, x.shape, ref_flat)
        assert maxpool2d_backward(dout, cache).tobytes() == ref_dx.tobytes()

    @staticmethod
    def _routes_as_reference(x, dout, k=2):
        _, cache = maxpool2d(x, k)
        _, ref_flat = reference_maxpool2d(x, k)
        dx = maxpool2d_backward(dout, cache)
        assert dx.tobytes() == reference_maxpool2d_backward(dout, x.shape, ref_flat).tobytes()
        return dx

    def test_negative_zero_gradient_lands_as_positive_zero(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        dout = np.array([-0.0, 1.5, -0.0, -2.5]).reshape(1, 1, 2, 2)
        dx = self._routes_as_reference(x, dout)
        assert dx.reshape(-1)[[7, 15]].tolist() == [1.5, -2.5]
        assert not np.signbit(dx[dx == 0.0]).any()  # the maxima at 5 and 13 included

    def test_signed_zero_ties_route_to_the_lowest_linear_index(self):
        # each window mixes -0.0 and +0.0 and nothing larger
        x = np.array(
            [[-0.0, 0.0, 0.0, -0.0], [0.0, -0.0, -0.0, -0.0], [-1.0, -0.0, -0.0, 0.0], [0.0, -2.0, 0.0, -0.0]]
        ).reshape(1, 1, 4, 4)
        dx = self._routes_as_reference(x, np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 2, 2))
        assert np.flatnonzero(dx).tolist() == [0, 2, 9, 10]

    def test_nan_after_the_max_takes_the_gradient(self):
        x = np.array([[5.0, 1.0, 7.0, np.nan], [np.nan, 2.0, np.nan, 7.0]]).reshape(1, 1, 2, 4)
        dx = self._routes_as_reference(x, np.array([3.0, 4.0]).reshape(1, 1, 1, 2))
        assert np.flatnonzero(dx).tolist() == [3, 4]
        assert dx.reshape(-1)[[3, 4]].tolist() == [4.0, 3.0]

    @pytest.mark.parametrize("shape", [(1, 8, 128, 128), (1, 16, 64, 64), (1, 32, 32, 32), (1, 64, 16, 16)])
    def test_relu_activations_at_the_train_128_pool_shapes(self, shape):
        # a third or more of ReLU outputs are exact zeros, tied across windows
        rng = np.random.default_rng(7)
        x = np.maximum(rng.standard_normal(shape) - 0.3, 0.0)
        dout = rng.standard_normal((shape[0], shape[1], shape[2] // 2, shape[3] // 2))
        dout[rng.random(dout.shape) < 0.1] = -0.0
        self._routes_as_reference(x, dout)


class TestRelu:
    def test_values(self):
        out, _ = relu(np.array([-1.0, 0.0, 2.0]))
        assert out.tolist() == [0.0, 0.0, 2.0]

    def test_identity_on_positive(self):
        x = np.random.default_rng(5).uniform(0.5, 2.0, size=(3, 4))
        out, _ = relu(x)
        assert np.array_equal(out, x)

    def test_zero_subgradient_at_zero(self):
        _, cache = relu(np.array([0.0, -1.0, 1.0]))
        dx = relu_backward(np.ones(3), cache)
        assert dx.tolist() == [0.0, 0.0, 1.0]

    def test_cache_is_the_output(self):
        out, cache = relu(np.random.default_rng(4).standard_normal((2, 3)))
        assert cache is out

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_has_the_bits_of_the_input_mask_product(self, dtype):
        info = np.finfo(dtype)
        v = np.array([0.0, np.inf, np.nan, 1.0, info.smallest_subnormal, 3 * info.smallest_subnormal, info.tiny, info.max])
        v = np.concatenate([v, -v]).astype(dtype)
        # every pair of an input special value and an upstream one
        x, dout = np.repeat(v[:, None], v.size, axis=1), np.repeat(v[None, :], v.size, axis=0)
        with np.errstate(invalid="ignore"):  # inf times a zero mask is NaN in both
            got, ref = relu_backward(dout, relu(x)[1]), dout * (x > 0.0)
        assert got.dtype == ref.dtype == dtype and got.tobytes() == ref.tobytes()


def _masked_relu(x):
    """ReLU with the cache of the earlier contract: a bool mask of ``x > 0``."""
    return relu(x)[0], x > 0.0


def _masked_relu_backward(dout, mask):
    return dout * mask


def _copying_conv2d(x, p):
    """conv2d whose cache holds a copy of its input, not the input itself."""
    out, (_, p) = conv2d(x, p)
    return out, (x.copy(), p)


def test_layer_checks_keep_their_bits_when_caches_copy(monkeypatch):
    # the values differ between BLAS kernels, so they are compared with the caches of copies, not pinned
    def values():
        return [[fn(seed).hex() for seed in DEFAULT_SEEDS] for _, fn in LAYER_CHECKS]

    referenced = values()
    for module in (checks, rpn):
        monkeypatch.setattr(module, "conv2d", _copying_conv2d)
        monkeypatch.setattr(module, "relu", _masked_relu)
        monkeypatch.setattr(module, "relu_backward", _masked_relu_backward)
    assert values() == referenced


class TestFullyConnected:
    def test_identity_weights(self):
        x = np.random.default_rng(6).standard_normal((3, 4))
        p = Params(Tensor(np.eye(4)), Tensor(np.zeros(4)))
        out, _ = fully_connected(x, p)
        assert np.allclose(out, x)

    def test_zero_weights_bias_only(self):
        b = np.array([1.0, -2.0, 0.5])
        p = Params(Tensor(np.zeros((4, 3))), Tensor(b))
        out, _ = fully_connected(np.ones((2, 4)), p)
        assert np.allclose(out, np.tile(b, (2, 1)))

    def test_dimension_mismatch_rejected(self):
        p = Params(Tensor(np.zeros((4, 3))), Tensor(np.zeros(3)))
        with pytest.raises(ShapeError):
            fully_connected(np.zeros((2, 5)), p)


class TestSoftmaxCrossEntropy:
    def test_symmetric_two_way(self):
        logits = np.zeros((1, 2))
        loss, _ = softmax_cross_entropy(logits, np.array([0]))
        assert softmax(logits)[0].tolist() == [0.5, 0.5]
        assert abs(loss - np.log(2.0)) < 1e-12

    def test_saturated_logit_near_zero_loss(self):
        logits = np.array([[1000.0, 0.0, 0.0]])
        loss, _ = softmax_cross_entropy(logits, np.array([0]))
        assert loss < 1e-9

    def test_rows_sum_to_one_for_huge_logits(self):
        rng = np.random.default_rng(7)
        logits = rng.uniform(-1e4, 1e4, size=(5, 6))
        loss, _ = softmax_cross_entropy(logits, np.zeros(5, dtype=int))
        assert np.isfinite(loss)
        assert np.max(np.abs(softmax(logits).sum(axis=1) - 1.0)) < 1e-6

    def test_out_of_range_label_rejected(self):
        with pytest.raises(ValueError, match="range"):
            softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 3]))


class TestSmoothL1:
    def test_zero_difference(self):
        x = np.ones((2, 2))
        loss, _ = smooth_l1(x, x, np.ones_like(x))
        assert loss == 0.0

    def test_hand_values(self):
        pred = np.array([0.5, 2.0])
        target = np.zeros(2)
        loss, _ = smooth_l1(pred, target, np.array([1.0, 0.0]))
        assert abs(loss - 0.125) == 0.0
        loss2, _ = smooth_l1(pred, target, np.array([0.0, 1.0]))
        assert abs(loss2 - 1.5) == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            smooth_l1(np.zeros(3), np.zeros(4), np.zeros(3))


class TestFiniteDifferenceHarness:
    def test_linear_map_is_exact(self):
        x = np.array([1.0, -2.0, 0.5])
        grad = np.full(3, 3.0)
        err = finite_difference_check(lambda: float(3.0 * x.sum()), [x], [grad])
        assert err < 1e-9

    def test_corrupted_backward_fails_loudly(self):
        x = np.array([0.7, -1.3])
        grad = 2.0 * np.array([2.0 * x[0], 2.0 * x[1]])  # doubled: wrong
        err = finite_difference_check(lambda: float((x**2).sum()), [x], [grad])
        assert err > 0.1


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        params = {
            "backbone.s1.c1.weight": rng.standard_normal((4, 1, 3, 3)),
            "norm.tap3.gamma": rng.standard_normal(7),
            "det.cls.bias": np.array([np.pi, -0.0]),
        }
        path = tmp_path / "model.msfr"
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        assert list(loaded) == list(params)
        for k in params:
            assert loaded[k].shape == params[k].shape
            assert np.array_equal(
                loaded[k].view(np.uint64), np.asarray(params[k]).view(np.uint64)
            )
        # saving the loaded dict reproduces the file byte for byte
        path2 = tmp_path / "model2.msfr"
        save_checkpoint(path2, loaded)
        assert path.read_bytes() == path2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.msfr"
        path.write_bytes(b"NOPE!")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "model.msfr"
        save_checkpoint(path, {"w": np.ones(4)})
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
