"""Layer library: value oracles, gradient checks, contract errors."""

import numpy as np
import pytest

from segforge.errors import ContractError, ShapeError
from segforge import layers
from segforge.layers import (TAP_MIN_PLANE, BatchNorm2d, Conv2d, Dense, Module,
                             _centred_var, _cols_to_image, _image_to_cols, batch_norm,
                             concat_channels, conv2d, conv_out_size, dense, global_avg_pool,
                             maxpool2d, upsample_nearest)
from segforge.tensor import Tensor, backward, mul, relu

from oracles import (grad_check, naive_conv2d, naive_conv2d_input_grad, naive_maxpool2d,
                     nchw_cols_to_image, reference_conv2d, window_im2col)


def randt(seed, *dims, scale=1.0):
    rng = np.random.default_rng(seed)
    return Tensor((rng.normal(0, 1, dims) * scale).astype(np.float64),
                  requires_grad=True)


def int_valued(seed, *dims, lo=-4, hi=5):
    # integer-valued float64 keeps BLAS and loop sums bit-identical
    return np.random.default_rng(seed).integers(lo, hi, dims).astype(np.float64)


class TestConv2d:
    @pytest.mark.parametrize("stride,padding,kernel", [(1, 0, 3), (1, 1, 3), (2, 1, 3),
                                                       (2, 3, 7), (1, 0, 1), (2, 0, 1)])
    def test_matches_naive_oracle_exactly(self, stride, padding, kernel):
        for seed in range(3):
            x = int_valued(seed, 2, 3, 9, 9)
            w = int_valued(seed + 10, 4, 3, kernel, kernel)
            b = int_valued(seed + 20, 4)
            got = conv2d(Tensor(x), Tensor(w), Tensor(b), stride, padding)
            want = naive_conv2d(x, w, b, stride, padding)
            assert np.array_equal(got.data, want)

    def test_gradients(self):
        for seed in range(5):
            x = randt(seed, 2, 3, 6, 6)
            w = randt(seed + 10, 4, 3, 3, 3)
            b = randt(seed + 20, 4)
            err = grad_check(lambda: conv2d(x, w, b, stride=2, padding=1).sum(), [x, w, b])
            assert err < 1e-4, f"seed {seed}: rel err {err}"

    def test_gradients_without_bias(self):
        x = randt(0, 1, 2, 5, 5)
        w = randt(1, 3, 2, 3, 3)
        assert grad_check(lambda: conv2d(x, w, padding=1).sum(), [x, w]) < 1e-4

    def test_shape_errors(self):
        x = Tensor(np.zeros((1, 3, 8, 8), dtype=np.float32))
        with pytest.raises(ShapeError):
            conv2d(x, Tensor(np.zeros((4, 2, 3, 3), dtype=np.float32)))  # channel mismatch
        with pytest.raises(ShapeError):
            conv2d(x, Tensor(np.zeros((4, 3, 9, 9), dtype=np.float32)))  # kernel too big
        with pytest.raises(ShapeError):
            conv2d(x, Tensor(np.zeros((4, 3, 3, 3), dtype=np.float32)),
                   Tensor(np.zeros(5, dtype=np.float32)))  # wrong bias length
        with pytest.raises(ContractError):
            conv2d(x, Tensor(np.zeros((4, 3, 3, 3), dtype=np.float32)), stride=0)

    # the 7x7 stem and a 3x3 stride-2 conv take im2col; the 16x16 3x3 conv takes taps
    @pytest.mark.parametrize("stride,padding,kernel,size", [(2, 3, 7, 17), (2, 1, 3, 9),
                                                            (1, 1, 3, 16)])
    def test_input_gradient_only_when_needed(self, stride, padding, kernel, size, monkeypatch):
        def grads(x, w, b, g, need_gx):
            xt = Tensor(x, requires_grad=need_gx)
            wt, bt = Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)
            out = conv2d(xt, wt, bt, stride, padding)
            backward(mul(out, Tensor(g)).sum())   # upstream gradient into conv2d is exactly g
            return xt.grad, wt.grad, bt.grad

        osize = conv_out_size(size, kernel, stride, padding)
        shapes = ((2, 3, size, size), (4, 3, kernel, kernel), (4,), (2, 4, osize, osize))
        rng = np.random.default_rng(size)
        x, w, b, g = (rng.standard_normal(s).astype(np.float32) for s in shapes)
        _, want_gw, want_gb = grads(x, w, b, g, need_gx=True)
        with monkeypatch.context() as m:
            m.setattr(layers, "_cols_to_image", lambda *a: pytest.fail("col2im ran"))
            gx, gw, gb = grads(x, w, b, g, need_gx=False)
        assert gx is None
        assert gw.tobytes() == want_gw.tobytes() and gb.tobytes() == want_gb.tobytes()

        x, w, b, g = (int_valued(seed, *s) for seed, s in enumerate(shapes))
        gx, _, _ = grads(x, w, b, g, need_gx=True)
        assert np.array_equal(gx, naive_conv2d_input_grad(g, w, x.shape, stride, padding))

    def test_layer_class_walks_parameters(self):
        layer = Conv2d(3, 8, 3, padding=1)
        names = dict(layer.named_parameters())
        assert set(names) == {"weight", "bias"}
        assert names["weight"].shape == (8, 3, 3, 3)
        layer = Conv2d(3, 8, 3, bias=False)
        assert set(dict(layer.named_parameters())) == {"weight"}


class TestIm2colLowering:
    """The lowering is bit-identical to the window-copy reference, not just close."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("kernel", [1, 3, 7])
    def test_cols_and_image_gradient_equal_reference(self, kernel, stride, dtype):
        rng = np.random.default_rng(kernel * 10 + stride)
        for padding in range(4):
            for c in (1, 3, 16):
                n, h, w = 2, 8, 11
                oh = conv_out_size(h, kernel, stride, padding)
                ow = conv_out_size(w, kernel, stride, padding)
                args = ((kernel, kernel), (oh, ow), stride, padding)
                x = rng.standard_normal((n, c, h, w)).astype(dtype)
                cols = _image_to_cols(x, *args)
                assert cols.dtype == dtype
                assert np.array_equal(cols, window_im2col(x, *args))
                gcols = rng.standard_normal(cols.shape).astype(dtype)
                gx = _cols_to_image(gcols, x.shape, *args)
                assert gx.dtype == dtype and gx.flags.c_contiguous
                assert np.array_equal(gx, nchw_cols_to_image(gcols, x.shape, *args))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kernel,stride,padding", [(1, 1, 0), (1, 2, 0), (3, 1, 1),
                                                       (3, 2, 1), (3, 1, 0), (7, 2, 3)])
    def test_conv2d_forward_and_backward_equal_reference(self, kernel, stride, padding, dtype):
        assert 12 * 10 < TAP_MIN_PLANE   # every case runs on im2col
        rng = np.random.default_rng(kernel + stride + padding)
        for bias in (True, False):
            x = Tensor(rng.standard_normal((2, 16, 12, 10)).astype(dtype), requires_grad=True)
            w = Tensor(rng.standard_normal((8, 16, kernel, kernel)).astype(dtype),
                       requires_grad=True)
            b = Tensor(rng.standard_normal(8).astype(dtype), requires_grad=True) if bias else None
            out = conv2d(x, w, b, stride, padding)
            g = rng.standard_normal(out.shape).astype(dtype)
            backward(mul(out, Tensor(g)).sum())   # upstream gradient into conv2d is exactly g
            want = reference_conv2d(x.data, w.data, b.data if bias else None, stride, padding, g)
            assert np.array_equal(out.data, want[0])
            assert np.array_equal(x.grad, want[1])
            assert np.array_equal(w.grad, want[2])
            if bias:
                assert np.array_equal(b.grad, want[3])


def conv_and_grads(x, w, b, padding, g):
    """conv2d's output and (gx, gw, gb) for upstream gradient g, stride 1."""
    xt = Tensor(x, requires_grad=True)
    wt = Tensor(w, requires_grad=True)
    bt = Tensor(b, requires_grad=True) if b is not None else None
    out = conv2d(xt, wt, bt, 1, padding)
    backward(mul(out, Tensor(g)).sum())   # upstream gradient into conv2d is exactly g
    return out.data, xt.grad, wt.grad, bt.grad if b is not None else None


class TestTapLowering:
    """Stride-1 convs on planes of TAP_MIN_PLANE pixels and up: one GEMM per tap."""

    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("kernel,padding", [(3, 0), (3, 1), (5, 0), (5, 1)])
    def test_matches_naive_oracle_exactly(self, kernel, padding, bias):
        # integer values keep every sum exact, so the split reduction must agree bit for bit
        x = int_valued(kernel + padding, 2, 2, 16, 17)
        w = int_valued(kernel + padding + 10, 3, 2, kernel, kernel)
        b = int_valued(kernel + padding + 20, 3) if bias else None
        g = int_valued(kernel + padding + 30, 2, 3, conv_out_size(16, kernel, 1, padding),
                       conv_out_size(17, kernel, 1, padding))
        got = conv_and_grads(x, w, b, padding, g)
        assert np.array_equal(got[0], naive_conv2d(x, w, b, 1, padding))
        want = reference_conv2d(x, w, b, 1, padding, g)
        for a, r in zip(got[1:], want[1:]):
            assert (a is None and r is None) or np.array_equal(a, r)

    @pytest.mark.parametrize("kernel,padding", [(3, 1), (5, 0)])
    def test_gradients(self, kernel, padding):
        x = randt(0, 2, 2, 16, 16)
        w = randt(1, 3, 2, kernel, kernel)
        b = randt(2, 3)
        err = grad_check(lambda: conv2d(x, w, b, padding=padding).sum(), [x, w, b])
        assert err < 1e-4, f"rel err {err}"

    @pytest.mark.parametrize("h,w", [(15, 17), (16, 16), (16, 17), (33, 20)])
    @pytest.mark.parametrize("kernel,padding", [(3, 1), (3, 0), (5, 2)])
    def test_float32_close_to_reference_around_the_cutoff(self, h, w, kernel, padding):
        rng = np.random.default_rng(h * w + kernel)
        x = rng.standard_normal((2, 16, h, w)).astype(np.float32)
        wt = rng.standard_normal((8, 16, kernel, kernel)).astype(np.float32)
        b = rng.standard_normal(8).astype(np.float32)
        oh, ow = conv_out_size(h, kernel, 1, padding), conv_out_size(w, kernel, 1, padding)
        g = rng.standard_normal((2, 8, oh, ow)).astype(np.float32)
        got = conv_and_grads(x, wt, b, padding, g)
        want = reference_conv2d(x, wt, b, 1, padding, g)
        for a, r in zip(got, want):
            assert a.dtype == np.float32 and a.flags.c_contiguous
            np.testing.assert_allclose(a, r, rtol=1e-4, atol=1e-3)

    def test_dispatch_by_input_shape(self, monkeypatch):
        def no_im2col(*args):
            raise AssertionError("im2col called")
        monkeypatch.setattr(layers, "_image_to_cols", no_im2col)
        rng = np.random.default_rng(0)
        # the desk decoder's shapes take the tap path, forward and backward
        for c, oc, side in [(16, 8, 64), (8, 8, 64), (32, 16, 32), (96, 16, 16)]:
            x = Tensor(rng.standard_normal((4, c, side, side)).astype(np.float32),
                       requires_grad=True)
            w = Tensor(rng.standard_normal((oc, c, 3, 3)).astype(np.float32), requires_grad=True)
            backward(conv2d(x, w, padding=1).sum())
            assert x.grad.shape == x.shape and w.grad.shape == w.shape
        # small planes, strided and 1x1 convs stay on im2col
        for shape, w, stride in [((4, 32, 8, 8), (32, 32, 3, 3), 1),
                                 ((4, 16, 15, 17), (8, 16, 3, 3), 1),
                                 ((4, 16, 64, 64), (8, 16, 3, 3), 2),
                                 ((4, 16, 64, 64), (8, 16, 1, 1), 1)]:
            with pytest.raises(AssertionError, match="im2col called"):
                conv2d(Tensor(np.zeros(shape, np.float32)), Tensor(np.zeros(w, np.float32)),
                       stride=stride, padding=w[2] // 2)


class TestMaxPool:
    @pytest.mark.parametrize("kernel,stride,padding", [(2, 2, 0), (3, 2, 1), (3, 1, 0), (2, 1, 1)])
    def test_matches_naive_oracle_exactly(self, kernel, stride, padding):
        for seed in range(3):
            x = np.random.default_rng(seed).normal(0, 1, (2, 3, 7, 7))
            got = maxpool2d(Tensor(x), kernel, stride, padding)
            assert np.array_equal(got.data, naive_maxpool2d(x, kernel, stride, padding))

    def test_gradients(self):
        for seed in range(5):
            # continuous values make argmax stable under the FD step
            x = randt(seed, 2, 2, 7, 7, scale=3.0)
            assert grad_check(lambda: maxpool2d(x, 3, 2, 1).sum(), [x]) < 1e-4

    def test_ties_route_gradient_to_first_index(self):
        x = Tensor(np.zeros((1, 1, 4, 4), dtype=np.float32), requires_grad=True)
        out = maxpool2d(x, 2, 2)
        backward(out.sum())
        want = np.zeros((4, 4), dtype=np.float32)
        want[0, 0] = want[0, 2] = want[2, 0] = want[2, 2] = 1.0
        np.testing.assert_array_equal(x.grad[0, 0], want)

    def test_contract_errors(self):
        x = Tensor(np.zeros((1, 1, 4, 4), dtype=np.float32))
        with pytest.raises(ShapeError):
            maxpool2d(x, 5)
        with pytest.raises(ContractError):
            maxpool2d(x, 2, padding=2)  # padding must stay below kernel
        with pytest.raises(ContractError):
            maxpool2d(x, 0)


# batch-norm input shapes of a desk-preset forward at N=4, 64x64
DESK_BN_SHAPES = [(4, 8, 64, 64), (4, 16, 16, 16), (4, 16, 32, 32), (4, 32, 8, 8),
                  (4, 32, 16, 16), (4, 64, 4, 4), (4, 64, 8, 8), (4, 64, 16, 16),
                  (4, 128, 2, 2), (4, 128, 4, 4), (4, 128, 8, 8), (4, 256, 4, 4),
                  (4, 512, 2, 2)]


class TestBatchNorm:
    def test_train_mode_normalizes_batch(self):
        x = randt(0, 4, 3, 5, 5, scale=2.0)
        gamma = Tensor(np.ones(3, dtype=np.float64), requires_grad=True)
        beta = Tensor(np.zeros(3, dtype=np.float64), requires_grad=True)
        rm, rv = np.zeros(3), np.ones(3)
        y = batch_norm(x, gamma, beta, rm, rv, training=True)
        np.testing.assert_allclose(y.data.mean(axis=(0, 2, 3)), np.zeros(3), atol=1e-7)
        np.testing.assert_allclose(y.data.var(axis=(0, 2, 3)), np.ones(3), atol=1e-4)

    def test_running_stats_update_formula(self):
        x = randt(1, 2, 3, 4, 4)
        gamma = Tensor(np.ones(3, dtype=np.float64))
        beta = Tensor(np.zeros(3, dtype=np.float64))
        rm, rv = np.full(3, 0.5), np.full(3, 2.0)
        batch_norm(x, gamma, beta, rm, rv, training=True, momentum=0.1)
        mu = x.data.mean(axis=(0, 2, 3))
        m = 2 * 4 * 4
        var_unbiased = x.data.var(axis=(0, 2, 3)) * m / (m - 1)
        np.testing.assert_allclose(rm, 0.9 * 0.5 + 0.1 * mu, rtol=1e-10)
        np.testing.assert_allclose(rv, 0.9 * 2.0 + 0.1 * var_unbiased, rtol=1e-10)

    def test_update_running_flag_blocks_mutation(self):
        x = randt(2, 2, 3, 4, 4)
        gamma = Tensor(np.ones(3, dtype=np.float64))
        beta = Tensor(np.zeros(3, dtype=np.float64))
        for fused in (False, True):
            rm, rv = np.zeros(3), np.ones(3)
            batch_norm(x, gamma, beta, rm, rv, training=True, update_running=False, relu=fused)
            assert np.array_equal(rm, np.zeros(3)) and np.array_equal(rv, np.ones(3))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", DESK_BN_SHAPES)
    def test_variance_has_numpy_var_bytes(self, shape, dtype):
        x = np.random.default_rng(shape[1]).normal(0.3, 2.0, shape).astype(dtype)
        want = x.var(axis=(0, 2, 3))
        xc = x - x.mean(axis=(0, 2, 3)).reshape(1, -1, 1, 1)
        assert _centred_var(xc).tobytes() == want.tobytes()
        rm, rv = np.zeros(shape[1], dtype), np.ones(shape[1], dtype)
        ones = Tensor(np.ones(shape[1], dtype))
        batch_norm(Tensor(x), ones, ones, rm, rv, training=True, momentum=0.1)
        m = x.size // shape[1]
        expect = np.ones(shape[1], dtype)
        expect *= 1.0 - 0.1
        expect += 0.1 * want * (m / (m - 1.0))
        assert rv.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", DESK_BN_SHAPES)
    def test_fused_relu_equals_relu_of_batch_norm(self, shape, dtype, training):
        c = shape[1]
        rng = np.random.default_rng(c * shape[2])
        x = rng.normal(0.5, 2.0, shape).astype(dtype)
        gamma = rng.uniform(0.5, 1.5, c).astype(dtype)
        beta = rng.normal(0, 0.3, c).astype(dtype)
        stats = (rng.normal(0, 0.3, c).astype(dtype), rng.uniform(0.5, 2.0, c).astype(dtype))
        upstream = Tensor(rng.normal(0, 1, shape).astype(dtype))

        def run(fused):
            xt = Tensor(x, requires_grad=True)
            gt = Tensor(gamma, requires_grad=True)
            bt = Tensor(beta, requires_grad=True)
            rm, rv = stats[0].copy(), stats[1].copy()
            y = batch_norm(xt, gt, bt, rm, rv, training=training, relu=fused)
            if not fused:
                y = relu(y)
            out = y.data.copy()
            backward(mul(y, upstream).sum())
            return [out, rm, rv, xt.grad, gt.grad, bt.grad]

        for got, want in zip(run(True), run(False)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("training", [True, False])
    def test_fused_relu_gradients(self, training):
        x = randt(7, 2, 3, 4, 4, scale=2.0)
        gamma = randt(8, 3)
        beta = randt(9, 3)
        rm = np.array([0.1, -0.2, 0.3])
        rv = np.array([0.8, 1.2, 1.5])
        weights = randt(10, 2, 3, 4, 4)

        def loss():
            return mul(batch_norm(x, gamma, beta, rm.copy(), rv.copy(), training=training,
                                  update_running=False, relu=True), weights).sum()

        # every pre-activation clears the kink by far more than the FD step
        pre = batch_norm(x, gamma, beta, rm.copy(), rv.copy(), training=training,
                         update_running=False)
        assert np.abs(pre.data).min() > 1e-3 and (pre.data > 0).any() and (pre.data < 0).any()
        assert grad_check(loss, [x, gamma, beta]) < 1e-4

    def test_eval_rule_is_not_disturbed_by_a_later_train_call(self):
        def eval_grads(disturb):
            bn = BatchNorm2d(3, dtype=np.float64)
            bn.running_mean[:] = [0.1, -0.2, 0.3]
            bn.running_var[:] = [0.8, 1.2, 1.5]
            x = randt(11, 2, 3, 4, 4, scale=2.0)
            weights = randt(12, 2, 3, 4, 4)
            loss = mul(bn(x, training=False, relu=True), weights).sum()
            if disturb:
                bn(randt(13, 2, 3, 4, 4, scale=3.0), training=True, update_running=True)
                assert not np.array_equal(bn.running_mean, [0.1, -0.2, 0.3])
            backward(loss)
            return [x.grad, bn.gamma.grad, bn.beta.grad]

        for got, want in zip(eval_grads(True), eval_grads(False)):
            assert got.tobytes() == want.tobytes()

    def test_eval_mode_is_affine_in_running_stats(self):
        x = randt(3, 2, 3, 4, 4)
        gamma = Tensor(np.full(3, 1.5, dtype=np.float64))
        beta = Tensor(np.full(3, -0.5, dtype=np.float64))
        rm = np.array([0.1, 0.2, 0.3])
        rv = np.array([1.0, 2.0, 3.0])
        y = batch_norm(x, gamma, beta, rm, rv, training=False)
        want = (x.data - rm.reshape(1, 3, 1, 1)) / np.sqrt(rv + 1e-5).reshape(1, 3, 1, 1)
        want = 1.5 * want - 0.5
        np.testing.assert_allclose(y.data, want, rtol=1e-12)

    def test_gradients_train_and_eval(self):
        for seed in range(5):
            x = randt(seed, 2, 3, 4, 4, scale=2.0)
            gamma = randt(seed + 10, 3)
            beta = randt(seed + 20, 3)
            rm = np.random.default_rng(seed).normal(0, 0.3, 3)
            rv = np.random.default_rng(seed).uniform(0.5, 2.0, 3)
            err = grad_check(
                lambda: batch_norm(x, gamma, beta, rm.copy(), rv.copy(),
                                   training=True, update_running=False).sum(),
                [x, gamma, beta])
            assert err < 1e-4, f"train seed {seed}: {err}"
            err = grad_check(
                lambda: batch_norm(x, gamma, beta, rm, rv, training=False).sum(),
                [x, gamma, beta])
            assert err < 1e-4, f"eval seed {seed}: {err}"

    def test_needs_two_values_per_channel_in_train_mode(self):
        x = Tensor(np.zeros((1, 3, 1, 1), dtype=np.float32))
        gamma = Tensor(np.ones(3, dtype=np.float32))
        beta = Tensor(np.zeros(3, dtype=np.float32))
        with pytest.raises(ContractError):
            batch_norm(x, gamma, beta, np.zeros(3), np.ones(3), training=True)

    def test_layer_class_buffers(self):
        bn = BatchNorm2d(4)
        assert set(dict(bn.named_parameters())) == {"gamma", "beta"}
        assert set(dict(bn.named_buffers())) == {"running_mean", "running_var"}


class TestPoolingAndShapeOps:
    def test_global_avg_pool_value_and_gradient(self):
        x = randt(0, 2, 3, 4, 5)
        y = global_avg_pool(x)
        assert y.shape == (2, 3, 1, 1)
        np.testing.assert_allclose(y.data, x.data.mean(axis=(2, 3), keepdims=True))
        for seed in range(5):
            x = randt(seed, 2, 3, 4, 4)
            assert grad_check(lambda: (global_avg_pool(x) * global_avg_pool(x)).sum(), [x]) < 1e-4

    def test_upsample_nearest_value_and_gradient(self):
        x = Tensor(np.arange(4, dtype=np.float32).reshape(1, 1, 2, 2))
        y = upsample_nearest(x, 2)
        want = np.array([[0, 0, 1, 1], [0, 0, 1, 1], [2, 2, 3, 3], [2, 2, 3, 3]], dtype=np.float32)
        np.testing.assert_array_equal(y.data[0, 0], want)
        for seed in range(5):
            x = randt(seed, 2, 3, 3, 3)
            assert grad_check(lambda: (upsample_nearest(x, 2) * upsample_nearest(x, 2)).sum(),
                              [x]) < 1e-4
        with pytest.raises(ContractError):
            upsample_nearest(x, 0)

    # every decoder upsample input of the desk (N=4, 64x64) and full (N=2, 128x128) steps
    @pytest.mark.parametrize("shape", [(4, 512, 2, 2), (4, 64, 4, 4), (4, 32, 8, 8),
                                       (4, 16, 16, 16), (4, 16, 32, 32),
                                       (2, 2048, 4, 4), (2, 256, 8, 8), (2, 128, 16, 16),
                                       (2, 64, 32, 32), (2, 32, 64, 64)])
    def test_upsample_factor_two_gradient_equals_reshape_sum(self, shape):
        n, c, h, w = shape
        x = Tensor(np.zeros(shape, dtype=np.float32), requires_grad=True)
        out = upsample_nearest(x, 2)
        g = np.random.default_rng(h).standard_normal(out.shape).astype(np.float32)
        backward(mul(out, Tensor(g)).sum())
        want = g.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5))
        assert x.grad.tobytes() == want.tobytes()

    def test_upsample_other_factors_gradient(self):
        for seed in range(3):
            x = randt(seed, 2, 3, 3, 2)
            assert grad_check(lambda: (upsample_nearest(x, 3) * upsample_nearest(x, 3)).sum(),
                              [x]) < 1e-4
        x = Tensor(np.arange(6.0).reshape(1, 1, 2, 3), requires_grad=True)
        backward(upsample_nearest(x, 3).sum())
        np.testing.assert_array_equal(x.grad, np.full((1, 1, 2, 3), 9.0))

    def test_concat_channels_value_and_gradient(self):
        a = randt(0, 2, 3, 4, 4)
        b = randt(1, 2, 5, 4, 4)
        y = concat_channels(a, b)
        assert y.shape == (2, 8, 4, 4)
        np.testing.assert_array_equal(y.data, np.concatenate([a.data, b.data], axis=1))
        for seed in range(5):
            a = randt(seed, 2, 2, 3, 3)
            b = randt(seed + 10, 2, 3, 3, 3)
            assert grad_check(lambda: (concat_channels(a, b) * concat_channels(a, b)).sum(),
                              [a, b]) < 1e-4
        with pytest.raises(ShapeError):
            concat_channels(randt(0, 2, 3, 4, 4), randt(1, 2, 3, 5, 5))

    def test_dense_value_and_gradient(self):
        x = randt(0, 4, 6)
        w = randt(1, 6, 3)
        b = randt(2, 3)
        y = dense(x, w, b)
        np.testing.assert_allclose(y.data, x.data @ w.data + b.data, rtol=1e-12)
        for seed in range(5):
            x = randt(seed, 3, 5)
            w = randt(seed + 10, 5, 4)
            b = randt(seed + 20, 4)
            assert grad_check(lambda: dense(x, w, b).sum(), [x, w, b]) < 1e-4
        with pytest.raises(ShapeError):
            dense(x, w, Tensor(np.zeros(7, dtype=np.float32)))


class TestModuleWalking:
    def test_nested_names_are_stable_and_unique(self):
        class Block(Module):
            def __init__(self):
                self.conv = Conv2d(2, 4, 3)
                self.bn = BatchNorm2d(4)

        class Net(Module):
            def __init__(self):
                self.stem = Conv2d(3, 2, 1)
                self.blocks = [Block(), Block()]
                self.head = Dense(4, 2)

        net = Net()
        names = [n for n, _ in net.named_parameters()]
        assert names == [
            "stem.weight", "stem.bias",
            "blocks.0.conv.weight", "blocks.0.conv.bias",
            "blocks.0.bn.gamma", "blocks.0.bn.beta",
            "blocks.1.conv.weight", "blocks.1.conv.bias",
            "blocks.1.bn.gamma", "blocks.1.bn.beta",
            "head.weight", "head.bias",
        ]
        assert len(set(names)) == len(names)
        buf_names = [n for n, _ in net.named_buffers()]
        assert buf_names == ["blocks.0.bn.running_mean", "blocks.0.bn.running_var",
                             "blocks.1.bn.running_mean", "blocks.1.bn.running_var"]
