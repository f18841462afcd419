import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from msfacedet.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from msfacedet.checks import finite_difference_check
from msfacedet.tensor import (
    ConvParams,
    LinearParams,
    ShapeError,
    Tensor,
    conv2d,
    conv2d_backward,
    fully_connected,
    make_conv,
    maxpool2d,
    maxpool2d_backward,
    relu,
    smooth_l1,
    softmax_cross_entropy,
)


def _conv(weight, bias, pad=0):
    return ConvParams(Tensor(weight, requires_grad=True), Tensor(bias, requires_grad=True), pad)


def reference_conv2d(x, p):
    """Row-major im2col convolution: columns (N*Ho*Wo, C*kH*kW), output cols @ W.T."""
    n, c, h, w = x.shape
    out_c, _, kh, kw = p.weight.data.shape
    xp = np.pad(x, ((0, 0), (0, 0), (p.pad, p.pad), (p.pad, p.pad)))
    ho, wo = h + 2 * p.pad - kh + 1, w + 2 * p.pad - kw + 1
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))
    cols = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(n * ho * wo, c * kh * kw)
    out = (cols @ p.weight.data.reshape(out_c, -1).T + p.bias.data).reshape(n, ho, wo, out_c).transpose(0, 3, 1, 2)
    return out, cols


def reference_conv2d_backward(dout, x_shape, cols, p):
    """Gradients (dx, dW, db) of the row-major form, by scatter over kernel offsets."""
    n, c, h, w = x_shape
    out_c, _, kh, kw = p.weight.data.shape
    pad = p.pad
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


def _random_conv(rng, out_c, in_c, k, pad):
    return _conv(rng.standard_normal((out_c, in_c, k, k)), rng.standard_normal(out_c), pad)


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


# (x shape, out channels, kernel, pad): backbone 3x3 convs at 128 px, the
# 1x1 ROI shrink over 300 pooled regions, and a 3x3 batch
CONV_CASES = [
    ((1, 1, 128, 128), 8, 3, 1),
    ((1, 32, 16, 16), 64, 3, 1),
    ((1, 64, 8, 8), 64, 3, 1),
    ((300, 160, 7, 7), 64, 1, 0),
    ((2, 3, 9, 8), 4, 3, 1),
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
        p = _conv(np.zeros((5, 3, 3, 3)), np.zeros(5), 1)
        out, _ = conv2d(x, p)
        assert np.all(out == 0.0)

    def test_channel_mismatch_rejected_with_both_shapes(self):
        x = np.zeros((1, 2, 5, 5))
        p = _conv(np.zeros((3, 4, 3, 3)), np.zeros(3))
        with pytest.raises(ShapeError, match=r"2.*\(1, 2, 5, 5\)|\(1, 2, 5, 5\).*4"):
            conv2d(x, p)

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

    @given(
        h=st.integers(3, 12),
        w=st.integers(3, 12),
        k=st.sampled_from([1, 3, 5]),
        pad=st.integers(0, 2),
    )
    @settings(max_examples=40, deadline=None)
    def test_shape_algebra(self, h, w, k, pad):
        if h + 2 * pad < k or w + 2 * pad < k:
            return
        x = np.zeros((1, 2, h, w))
        p = _conv(np.zeros((3, 2, k, k)), np.zeros(3), pad)
        out, _ = conv2d(x, p)
        assert out.shape == (1, 3, h + 2 * pad - k + 1, w + 2 * pad - k + 1)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 2, 5, 5))
        p = make_conv(rng, 3, 2, 3)
        p.weight.data[...] = rng.standard_normal(p.weight.data.shape)
        assert _conv_gradient_error(rng, x, p) <= 1e-4

    def test_batched_and_1x1_gradients_match_finite_differences(self):
        for x_shape, k, pad in [((2, 2, 5, 5), 3, 1), ((2, 3, 4, 5), 1, 0)]:
            rng = np.random.default_rng(3)
            x = rng.standard_normal(x_shape)
            p = _random_conv(rng, 3, x_shape[1], k, pad)
            assert _conv_gradient_error(rng, x, p) <= 1e-4, x_shape

    @pytest.mark.parametrize("x_shape,out_c,k,pad", CONV_CASES)
    def test_matches_row_major_reference(self, x_shape, out_c, k, pad):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(x_shape)
        p = _random_conv(rng, out_c, x_shape[1], k, pad)
        out, cache = conv2d(x, p)
        ref_out, ref_cols = reference_conv2d(x, p)
        dout = rng.standard_normal(out.shape)
        dx = conv2d_backward(dout, cache)
        got = [out, dx, p.weight.grad, p.bias.grad]
        want = [ref_out, *reference_conv2d_backward(dout, x.shape, ref_cols, p)]
        for name, a, b in zip(["out", "dx", "dW", "db"], got, want):
            assert a.shape == b.shape, name
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), name

    def test_single_image_output_is_c_contiguous(self):
        rng = np.random.default_rng(5)
        out, _ = conv2d(rng.standard_normal((1, 4, 6, 7)), _random_conv(rng, 5, 4, 3, 1))
        assert out.shape == (1, 5, 6, 7)
        assert out.flags.c_contiguous


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


class TestRelu:
    def test_values(self):
        out, _ = relu(np.array([-1.0, 0.0, 2.0]))
        assert out.tolist() == [0.0, 0.0, 2.0]

    def test_identity_on_positive(self):
        x = np.random.default_rng(5).uniform(0.5, 2.0, size=(3, 4))
        out, _ = relu(x)
        assert np.array_equal(out, x)

    def test_zero_subgradient_at_zero(self):
        from msfacedet.tensor import relu_backward

        _, cache = relu(np.array([0.0, -1.0, 1.0]))
        dx = relu_backward(np.ones(3), cache)
        assert dx.tolist() == [0.0, 0.0, 1.0]


class TestFullyConnected:
    def test_identity_weights(self):
        x = np.random.default_rng(6).standard_normal((3, 4))
        p = LinearParams(Tensor(np.eye(4)), Tensor(np.zeros(4)))
        out, _ = fully_connected(x, p)
        assert np.allclose(out, x)

    def test_zero_weights_bias_only(self):
        b = np.array([1.0, -2.0, 0.5])
        p = LinearParams(Tensor(np.zeros((4, 3))), Tensor(b))
        out, _ = fully_connected(np.ones((2, 4)), p)
        assert np.allclose(out, np.tile(b, (2, 1)))

    def test_dimension_mismatch_rejected(self):
        p = LinearParams(Tensor(np.zeros((4, 3))), Tensor(np.zeros(3)))
        with pytest.raises(ShapeError):
            fully_connected(np.zeros((2, 5)), p)


class TestSoftmaxCrossEntropy:
    def test_symmetric_two_way(self):
        loss, probs, _ = softmax_cross_entropy(np.zeros((1, 2)), np.array([0]))
        assert probs[0].tolist() == [0.5, 0.5]
        assert abs(loss - np.log(2.0)) < 1e-12

    def test_saturated_logit_near_zero_loss(self):
        logits = np.array([[1000.0, 0.0, 0.0]])
        loss, _, _ = softmax_cross_entropy(logits, np.array([0]))
        assert loss < 1e-9

    def test_rows_sum_to_one_for_huge_logits(self):
        rng = np.random.default_rng(7)
        logits = rng.uniform(-1e4, 1e4, size=(5, 6))
        _, probs, _ = softmax_cross_entropy(logits, np.zeros(5, dtype=int))
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-6

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


class TestTensor:
    def test_grad_shape_enforced(self):
        t = Tensor(np.zeros((2, 3)), requires_grad=True)
        t.grad = np.zeros((3, 2))
        with pytest.raises(ShapeError):
            t.ensure_grad()


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
