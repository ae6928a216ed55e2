"""Layer library: value oracles, gradient checks, contract errors."""

import dataclasses

import numpy as np
import pytest

from segforge.errors import ContractError, ShapeError
from segforge import layers
from segforge.layers import (POINTWISE_MIN_PLANE, TAP_MIN_PLANE, BatchNorm2d, Conv2d, Dense,
                             Module, _centred_var, _cols_to_image, _im2col_conv, _image_to_cols,
                             batch_norm, concat_channels, conv2d, conv_out_size, dense,
                             global_avg_pool, maxpool2d, upsample_nearest)
from segforge.model import PRESETS, build_model, conv_bn
from segforge.tensor import (Tensor, _tape, add, backward, div, log_softmax, matmul, mul,
                             no_grad, relu, reshape, sigmoid, softmax, sub)

from oracles import (grad_check, naive_conv2d, naive_conv2d_input_grad, naive_maxpool2d,
                     nchw_cols_to_image, reference_batch_norm, reference_conv2d,
                     reference_eval_conv_bn, window_im2col)


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
        # no case runs on taps; the 1x1 ones run channel-major and must still match
        assert 12 * 10 < TAP_MIN_PLANE
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


def conv_and_grads(x, w, b, padding, g, stride=1):
    """conv2d's output and (gx, gw, gb) for upstream gradient g."""
    xt = Tensor(x, requires_grad=True)
    wt = Tensor(w, requires_grad=True)
    bt = Tensor(b, requires_grad=True) if b is not None else None
    out = conv2d(xt, wt, bt, stride, padding)
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
        # the desk decoder's shapes take the tap path, and its head the channel-major
        # 1x1 one, forward and backward
        for c, oc, side, k in [(16, 8, 64, 3), (8, 8, 64, 3), (32, 16, 32, 3), (96, 16, 16, 3),
                               (16, 8, 64, 1)]:
            x = Tensor(rng.standard_normal((4, c, side, side)).astype(np.float32),
                       requires_grad=True)
            w = Tensor(rng.standard_normal((oc, c, k, k)).astype(np.float32), requires_grad=True)
            backward(conv2d(x, w, padding=k // 2).sum())
            assert x.grad.shape == x.shape and w.grad.shape == w.shape
        # small planes, strided 3x3 convs and 1x1 convs with 2x2 outputs stay on im2col
        for shape, w, stride in [((4, 32, 8, 8), (32, 32, 3, 3), 1),
                                 ((4, 16, 15, 17), (8, 16, 3, 3), 1),
                                 ((4, 16, 64, 64), (8, 16, 3, 3), 2),
                                 ((4, 128, 2, 2), (512, 128, 1, 1), 1)]:
            with pytest.raises(AssertionError, match="im2col called"):
                conv2d(Tensor(np.zeros(shape, np.float32)), Tensor(np.zeros(w, np.float32)),
                       stride=stride, padding=w[2] // 2)


class TestPointwiseLowering:
    """Unpadded 1x1 convs with output planes of POINTWISE_MIN_PLANE pixels and up."""

    # the lowering itself, on output planes from 4x4 up, below the floor included
    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("stride,h,w", [(1, 4, 4), (1, 5, 7), (1, 9, 8),
                                            (2, 7, 8), (2, 8, 8), (2, 17, 15)])
    def test_matches_naive_oracle_exactly(self, stride, h, w, bias):
        seed = stride * 100 + h * w
        x = int_valued(seed, 2, 5, h, w)
        wt = int_valued(seed + 1, 3, 5, 1, 1)
        b = int_valued(seed + 2, 3) if bias else None
        g = int_valued(seed + 3, 2, 3, conv_out_size(h, 1, stride, 0),
                       conv_out_size(w, 1, stride, 0))
        out, backprop = layers._pointwise_conv(x, wt, stride)
        if bias:   # as conv2d adds it to every lowering's output
            out += b.reshape(1, -1, 1, 1)
        gx, gw = backprop(g, True)
        assert np.array_equal(out, naive_conv2d(x, wt, b, stride, 0))
        assert np.array_equal(gx, naive_conv2d_input_grad(g, wt, x.shape, stride, 0))
        assert np.array_equal(gw, reference_conv2d(x, wt, b, stride, 0, g)[2])
        for a in (out, gx, gw):
            assert a.flags.c_contiguous
        no_gx, gw_alone = backprop(g, False)
        assert no_gx is None and gw_alone.tobytes() == gw.tobytes()

    @pytest.mark.parametrize("stride", [1, 2])
    def test_gradients(self, stride):
        x = randt(0, 2, 3, 16, 17)
        w = randt(1, 4, 3, 1, 1)
        b = randt(2, 4)
        err = grad_check(lambda: conv2d(x, w, b, stride=stride).sum(), [x, w, b])
        assert err < 1e-4, f"rel err {err}"

    @staticmethod
    def model_shapes(config, n, side):
        """(input, weight, stride) of every distinct conv the 1x1 path takes in one forward."""
        shapes = set()
        real = layers._pointwise_conv

        def spy(x, weight, stride):
            shapes.add((x.shape, weight.shape, stride))
            return real(x, weight, stride)

        model = build_model(config)
        x = Tensor(np.zeros((n, config.in_channels, side, side), np.float32))
        with pytest.MonkeyPatch.context() as m, no_grad():
            m.setattr(layers, "_pointwise_conv", spy)
            model(x)
        return sorted(shapes)

    def test_model_shapes_equal_im2col_bytes(self):
        # the two lowerings call differently shaped GEMMs, so equal bytes are a property
        # of the BLAS build (they hold with scipy-openblas 0.3.31); this test says
        # whether a build keeps them. Blocks after the first of a stage repeat its
        # second block's shapes, so two blocks per stage meet every 1x1 shape of the
        # full preset.
        full = dataclasses.replace(PRESETS["full"], stage_depths=(2, 2, 2, 2))
        shapes = self.model_shapes(full, 2, 128)
        shapes += [s for n in (1, 2, 3, 4) for s in self.model_shapes(PRESETS["desk"], n, 64)]
        assert len(shapes) == 13 + 4 * 7   # distinct shapes: 13 in the full preset, 7 in the desk
        rng = np.random.default_rng(7)
        for xshape, wshape, stride in shapes:
            x, w = (rng.standard_normal(s).astype(np.float32) for s in (xshape, wshape))
            b = rng.standard_normal(wshape[0]).astype(np.float32)
            got = layers._pointwise_conv(x, w, stride)
            osize = got[0].shape[2:]
            want = _im2col_conv(x, w, osize, stride, 0)
            for out in (got[0], want[0]):   # as conv2d adds it to every lowering's output
                out += b.reshape(1, -1, 1, 1)
            g = rng.standard_normal(got[0].shape).astype(np.float32)
            for a, r in zip((got[0], *got[1](g, True)), (want[0], *want[1](g, True))):
                assert a.dtype == r.dtype and a.tobytes() == r.tobytes(), (xshape, wshape)

    def test_dispatch_by_output_plane(self, monkeypatch):
        calls = []

        def spy(name):
            real = getattr(layers, name)

            def counted(*args):
                calls.append(name)
                return real(*args)
            return counted

        for name in ("_image_to_cols", "_cols_to_image"):
            monkeypatch.setattr(layers, name, spy(name))

        def run(xshape, wshape, stride, padding=0):
            calls.clear()
            x = Tensor(np.ones(xshape, np.float32), requires_grad=True)
            w = Tensor(np.ones(wshape, np.float32), requires_grad=True)
            backward(conv2d(x, w, stride=stride, padding=padding).sum())
            return sorted(set(calls))

        # the floor is on the output plane: 8x8 out of 8x8, 15x15 or 16x16
        assert POINTWISE_MIN_PLANE == 64
        for xshape, stride in [((2, 8, 8, 8), 1), ((2, 8, 15, 15), 2), ((2, 8, 16, 16), 2),
                               ((2, 8, 4, 16), 1), ((4, 16, 64, 64), 1)]:
            assert run(xshape, (4, xshape[1], 1, 1), stride) == []
        # 2x2, 4x4 and 7x7 output planes and a padded 1x1 stay on im2col
        for xshape, stride, padding in [((4, 128, 2, 2), 1, 0), ((2, 8, 4, 4), 1, 0),
                                        ((2, 8, 8, 8), 2, 0), ((2, 8, 14, 13), 2, 0),
                                        ((2, 8, 8, 8), 1, 1)]:
            assert run(xshape, (4, xshape[1], 1, 1), stride, padding) == \
                ["_cols_to_image", "_image_to_cols"]


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
        y = batch_norm(x, gamma, beta, rm, rv)
        np.testing.assert_allclose(y.data.mean(axis=(0, 2, 3)), np.zeros(3), atol=1e-7)
        np.testing.assert_allclose(y.data.var(axis=(0, 2, 3)), np.ones(3), atol=1e-4)

    def test_running_stats_update_formula(self):
        x = randt(1, 2, 3, 4, 4)
        gamma = Tensor(np.ones(3, dtype=np.float64))
        beta = Tensor(np.zeros(3, dtype=np.float64))
        rm, rv = np.full(3, 0.5), np.full(3, 2.0)
        batch_norm(x, gamma, beta, rm, rv)
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
            batch_norm(x, gamma, beta, rm, rv, update_running=False, relu=fused)
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
        batch_norm(Tensor(x), ones, ones, rm, rv)
        m = x.size // shape[1]
        expect = np.ones(shape[1], dtype)
        expect *= 1.0 - 0.1
        expect += 0.1 * want * (m / (m - 1.0))
        assert rv.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", DESK_BN_SHAPES)
    def test_fused_relu_equals_relu_of_batch_norm(self, shape, dtype):
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
            y = batch_norm(xt, gt, bt, rm, rv, relu=fused)
            if not fused:
                y = relu(y)
            out = y.data.copy()
            backward(mul(y, upstream).sum())
            return [out, rm, rv, xt.grad, gt.grad, bt.grad]

        for got, want in zip(run(True), run(False)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", DESK_BN_SHAPES)
    def test_eval_fold_equals_unfolded_reference(self, shape, dtype):
        n, c, h, w = shape
        rng = np.random.default_rng(c * h)
        conv = Conv2d(4, c, 3, padding=1, dtype=dtype)   # biased, unlike the model's convs
        bn = BatchNorm2d(c, dtype=dtype)
        conv.weight.data[...] = rng.normal(0, 0.5, conv.weight.shape)
        conv.bias.data[...] = rng.normal(0, 0.5, c)
        bn.gamma.data[...] = rng.uniform(0.5, 1.5, c)
        bn.beta.data[...] = rng.normal(0, 0.3, c)
        bn.running_mean[:] = rng.normal(0, 0.3, c)
        bn.running_var[:] = rng.uniform(0.5, 2.0, c)
        x = Tensor(rng.normal(0.5, 2.0, (n, 4, h, w)).astype(dtype))
        with no_grad():
            fused = conv_bn(conv, bn, x, training=False, relu=True).data
            plain = conv_bn(conv, bn, x, training=False).data
        assert fused.dtype == dtype and fused.tobytes() == np.maximum(plain, 0).tobytes()
        want = reference_eval_conv_bn(conv, bn, x, training=False).data
        tol = 1e-12 if dtype == np.float64 else 1e-5
        np.testing.assert_allclose(plain, want, rtol=tol, atol=tol)

    def test_fused_relu_gradients(self):
        x = randt(7, 2, 3, 4, 4, scale=2.0)
        gamma = randt(8, 3)
        beta = randt(9, 3)
        rm = np.array([0.1, -0.2, 0.3])
        rv = np.array([0.8, 1.2, 1.5])
        weights = randt(10, 2, 3, 4, 4)

        def loss():
            return mul(batch_norm(x, gamma, beta, rm.copy(), rv.copy(),
                                  update_running=False, relu=True), weights).sum()

        # every pre-activation clears the kink by far more than the FD step
        pre = batch_norm(x, gamma, beta, rm.copy(), rv.copy(), update_running=False)
        assert np.abs(pre.data).min() > 1e-3 and (pre.data > 0).any() and (pre.data < 0).any()
        assert grad_check(loss, [x, gamma, beta]) < 1e-4

    def test_gradients(self):
        for seed in range(5):
            x = randt(seed, 2, 3, 4, 4, scale=2.0)
            gamma = randt(seed + 10, 3)
            beta = randt(seed + 20, 3)
            rm = np.random.default_rng(seed).normal(0, 0.3, 3)
            rv = np.random.default_rng(seed).uniform(0.5, 2.0, 3)
            err = grad_check(
                lambda: batch_norm(x, gamma, beta, rm.copy(), rv.copy(),
                                   update_running=False).sum(),
                [x, gamma, beta])
            assert err < 1e-4, f"seed {seed}: {err}"

    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", DESK_BN_SHAPES + [(2, 64, 64, 64), (2, 2048, 4, 4)])
    def test_equals_reference_formula(self, shape, dtype, relu):
        c = shape[1]
        rng = np.random.default_rng(c * shape[2] + relu)
        x = rng.normal(0.5, 2.0, shape).astype(dtype)
        gamma = rng.uniform(0.5, 1.5, c).astype(dtype)
        beta = rng.normal(0, 0.3, c).astype(dtype)
        stats = (rng.normal(0, 0.3, c).astype(dtype), rng.uniform(0.5, 2.0, c).astype(dtype))
        g = rng.normal(0, 1, shape).astype(dtype)
        xt = Tensor(x, requires_grad=True)
        gt = Tensor(gamma, requires_grad=True)
        bt = Tensor(beta, requires_grad=True)
        rm, rv = stats[0].copy(), stats[1].copy()
        y = batch_norm(xt, gt, bt, rm, rv, relu=relu)
        out = y.data.copy()
        backward(mul(y, Tensor(g)).sum())   # upstream gradient into batch_norm is exactly g
        want_rm, want_rv = stats[0].copy(), stats[1].copy()
        want = reference_batch_norm(x, gamma, beta, want_rm, want_rv, g, relu=relu)
        got = (out, xt.grad, gt.grad, bt.grad, rm, rv)
        for a, r in zip(got, want + (want_rm, want_rv)):
            assert a.dtype == dtype and a.tobytes() == r.tobytes()

    def test_needs_two_values_per_channel_in_train_mode(self):
        x = Tensor(np.zeros((1, 3, 1, 1), dtype=np.float32))
        gamma = Tensor(np.ones(3, dtype=np.float32))
        beta = Tensor(np.zeros(3, dtype=np.float32))
        with pytest.raises(ContractError):
            batch_norm(x, gamma, beta, np.zeros(3), np.ones(3))

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


def positive(seed, *dims):
    return Tensor(np.random.default_rng(seed).uniform(0.5, 1.5, dims), requires_grad=True)


# one case per gradient rule: conv2d on each lowering, batch_norm with and without relu
READ_ONLY_CASES = {
    "conv2d_im2col": lambda: conv2d(randt(0, 2, 3, 9, 9), randt(1, 4, 3, 3, 3), randt(2, 4),
                                    stride=2, padding=1),
    "conv2d_im2col_1x1": lambda: conv2d(randt(0, 2, 8, 2, 2), randt(1, 4, 8, 1, 1), randt(2, 4)),
    "conv2d_taps": lambda: conv2d(randt(0, 2, 3, 16, 16), randt(1, 4, 3, 3, 3), randt(2, 4),
                                  padding=1),
    "conv2d_pointwise": lambda: conv2d(randt(0, 2, 8, 8, 8), randt(1, 4, 8, 1, 1), randt(2, 4)),
    "conv2d_pointwise_stride2": lambda: conv2d(randt(0, 2, 8, 16, 15), randt(1, 4, 8, 1, 1),
                                               stride=2),
    "batch_norm": lambda: batch_norm(randt(0, 2, 3, 4, 4), positive(1, 3), positive(2, 3),
                                     np.zeros(3), np.ones(3)),
    "batch_norm_relu": lambda: batch_norm(randt(0, 2, 3, 4, 4), positive(1, 3), positive(2, 3),
                                          np.zeros(3), np.ones(3), relu=True),
    "maxpool2d": lambda: maxpool2d(randt(0, 2, 3, 6, 6), 3, stride=2, padding=1),
    "global_avg_pool": lambda: global_avg_pool(randt(0, 2, 3, 4, 4)),
    "upsample_nearest": lambda: upsample_nearest(randt(0, 2, 3, 4, 4), 2),
    "concat_channels": lambda: concat_channels(randt(0, 2, 3, 4, 4), randt(1, 2, 2, 4, 4)),
    "add": lambda: add(randt(0, 2, 3, 4, 4), randt(1, 1, 3, 1, 1)),
    "sub": lambda: sub(randt(0, 2, 3, 4, 4), randt(1, 2, 3, 1, 1)),
    "mul": lambda: mul(randt(0, 2, 3, 4, 4), randt(1, 1, 3, 1, 1)),
    "div": lambda: div(randt(0, 2, 3), positive(1, 2, 3)),
    "scalar_affine": lambda: randt(0, 2, 3) * 2.0,
    "relu": lambda: relu(randt(0, 2, 3, 4, 4)),
    "sigmoid": lambda: sigmoid(randt(0, 2, 3, 4, 4)),
    "matmul": lambda: matmul(randt(0, 2, 3), randt(1, 3, 4)),
    "sum": lambda: randt(0, 2, 3, 4, 4).sum(axis=(0, 2, 3), keepdims=True),
    "mean": lambda: randt(0, 2, 3, 4, 4).mean(),
    "reshape": lambda: reshape(randt(0, 2, 3, 4, 4), (6, 16)),
    "softmax": lambda: softmax(randt(0, 2, 3, 4, 4)),
    "log_softmax": lambda: log_softmax(randt(0, 2, 3, 4, 4)),
}


@pytest.mark.parametrize("name", sorted(READ_ONLY_CASES))
def test_gradient_rule_leaves_its_upstream_gradient_unwritten(name):
    """The tape invariant of `tensor.backward`: no rule writes into its `g`.

    `add` hands one gradient array to both its inputs, so a rule that wrote
    into its `g` would change another gradient. The rule runs on a read-only
    `g`, where any write raises, and must return what it returns on a copy.
    """
    try:
        out = READ_ONLY_CASES[name]()
        node = _tape()[-1]
    finally:
        _tape().clear()
    assert node.output is out
    g = np.random.default_rng(3).normal(0, 1, out.shape)
    want = node.grad_fn(g.copy())
    g.setflags(write=False)
    got = node.grad_fn(g)
    assert len(got) == len(want)
    for a, r in zip(got, want):
        assert (a is None and r is None) or a.tobytes() == r.tobytes()
