"""Tensor engine: tape mechanics, restricted broadcasting, op gradients."""

import numpy as np
import pytest

from segforge.errors import ContractError, ShapeError
from segforge.tensor import (Tensor, add, backward, check_dims, div,
                             log_softmax, matmul, mul, no_grad, relu, reshape,
                             sigmoid, softmax, sub, tape_size)

from oracles import grad_check, max_rel_err, naive_matmul


def randt(seed, *dims, scale=1.0, offset=0.0):
    rng = np.random.default_rng(seed)
    data = rng.normal(0, 1, dims) * scale + offset
    return Tensor(data.astype(np.float64), requires_grad=True)


class TestBasics:
    def test_shape_dtype_size(self):
        t = Tensor(np.zeros((2, 3), dtype=np.float32))
        assert t.shape == (2, 3) and t.ndim == 2 and t.size == 6
        assert t.dtype == np.float32

    def test_float64_preserved_other_dtypes_cast(self):
        assert Tensor(np.zeros(3, dtype=np.float64)).dtype == np.float64
        assert Tensor(np.zeros(3, dtype=np.int64)).dtype == np.float32
        assert Tensor([1.0, 2.0]).dtype == np.float32

    def test_scalar_input_promoted_to_rank_1(self):
        t = Tensor(3.5)
        assert t.shape == (1,)
        assert t.item() == pytest.approx(3.5)

    def test_item_requires_single_element(self):
        with pytest.raises(ContractError):
            Tensor([1.0, 2.0]).item()

    def test_check_dims_rejects_bad_ranks_and_dims(self):
        with pytest.raises(ShapeError):
            check_dims(())
        with pytest.raises(ShapeError):
            check_dims((1, 2, 3, 4, 5))
        with pytest.raises(ShapeError):
            check_dims((2, 0))


class TestTape:
    def test_backward_populates_grads_and_clears_tape(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        loss = (x * x).sum()
        assert tape_size() > 0
        backward(loss)
        assert tape_size() == 0
        np.testing.assert_allclose(x.grad, 2 * x.data, rtol=1e-6)

    def test_backward_requires_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 2.0
        with pytest.raises(ContractError):
            backward(y)
        # the failed call still cleared the tape
        assert tape_size() == 0

    def test_backward_on_empty_tape_raises(self):
        with pytest.raises(ContractError):
            backward(Tensor([1.0], requires_grad=True))

    def test_gradients_accumulate_across_consumers(self):
        x = Tensor([2.0], requires_grad=True)
        loss = (x * 3.0 + x * 5.0).sum()
        backward(loss)
        assert x.grad[0] == pytest.approx(8.0)

    def test_leaves_keep_grads_and_intermediates_release_theirs(self):
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        w = Tensor([0.5, 4.0, -1.5], requires_grad=True)
        h = x * w
        y = h * h + h * 3.0     # h has two consumers
        loss = y.sum()
        backward(loss)
        np.testing.assert_array_equal(x.grad, (2.0 * h.data + 3.0) * w.data)
        np.testing.assert_array_equal(w.grad, (2.0 * h.data + 3.0) * x.data)
        assert h.grad is None and y.grad is None and loss.grad is None

    def test_no_grad_suspends_recording(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2.0
            assert tape_size() == 0
            assert not y.requires_grad
        # recording resumes afterwards
        z = (x * 2.0).sum()
        backward(z)
        assert x.grad is not None

    def test_constant_inputs_get_no_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        c = Tensor([5.0, 5.0])
        loss = (x * c).sum()
        backward(loss)
        assert c.grad is None
        np.testing.assert_allclose(x.grad, c.data)


class TestBroadcasting:
    def test_equal_shapes(self):
        a = randt(0, 2, 3)
        b = randt(1, 2, 3)
        np.testing.assert_allclose(add(a, b).data, a.data + b.data)

    def test_channel_parameter_broadcast(self):
        x = randt(2, 2, 4, 3, 3)
        g = randt(3, 1, 4, 1, 1)
        out = mul(x, g)
        np.testing.assert_allclose(out.data, x.data * g.data)
        # per-sample gate [N,C,1,1] also allowed
        s = randt(4, 2, 4, 1, 1)
        np.testing.assert_allclose(mul(x, s).data, x.data * s.data)

    def test_bias_row_broadcast(self):
        x = randt(5, 4, 6)
        b = randt(6, 6)
        np.testing.assert_allclose(add(x, b).data, x.data + b.data)

    def test_broadcast_gradients_sum_correctly(self):
        for seed in range(5):
            x = randt(seed, 2, 3, 4, 4)
            g = randt(seed + 100, 1, 3, 1, 1)
            err = grad_check(lambda: mul(x, g).sum(), [x, g])
            assert err < 1e-4, f"seed {seed}: rel err {err}"

    def test_rejected_broadcasts(self):
        with pytest.raises(ShapeError):
            add(randt(0, 2, 3), randt(1, 3, 2))
        with pytest.raises(ShapeError):
            add(randt(0, 2, 3, 4, 4), randt(1, 2, 5, 4, 4))  # channel mismatch
        with pytest.raises(ShapeError):
            add(randt(0, 2, 3), randt(1, 2))  # wrong bias length
        with pytest.raises(ShapeError):
            div(randt(0, 2, 3), randt(1, 3))  # div demands equal shapes


class TestOpGradients:
    def test_elementwise_ops(self):
        for seed in range(5):
            a = randt(seed, 3, 4)
            b = randt(seed + 50, 3, 4, offset=2.0)  # keep divisor away from 0
            assert grad_check(lambda: add(a, b).sum(), [a, b]) < 1e-4
            assert grad_check(lambda: sub(a, b).sum(), [a, b]) < 1e-4
            assert grad_check(lambda: mul(a, b).sum(), [a, b]) < 1e-4
            assert grad_check(lambda: div(a, b).sum(), [a, b]) < 1e-4

    def test_scalar_arithmetic(self):
        x = randt(7, 2, 3)
        assert grad_check(lambda: (2.5 * x + 1.0).sum(), [x]) < 1e-4
        assert grad_check(lambda: (1.0 - x).sum(), [x]) < 1e-4
        assert grad_check(lambda: (-x / 4.0).sum(), [x]) < 1e-4
        np.testing.assert_allclose((1.0 - x).data, 1.0 - x.data)

    def test_relu(self):
        for seed in range(5):
            # offset keeps values away from the kink at 0
            x = randt(seed, 3, 5, offset=0.3)
            x.data[x.data < 0] -= 0.3
            assert grad_check(lambda: relu(x).sum(), [x]) < 1e-4
        y = relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(y.data, [0.0, 0.0, 2.0])

    def test_sigmoid(self):
        for seed in range(5):
            x = randt(seed, 4, 4, scale=2.0)
            assert grad_check(lambda: sigmoid(x).sum(), [x]) < 1e-4

    def test_sigmoid_is_stable_at_extremes(self):
        y = sigmoid(Tensor([-100.0, 0.0, 100.0], dtype=np.float64))
        assert np.all(np.isfinite(y.data))
        assert y.data[0] == pytest.approx(0.0, abs=1e-30)
        assert y.data[1] == pytest.approx(0.5)
        assert y.data[2] == pytest.approx(1.0)

    def test_matmul_matches_naive_oracle_exactly(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            a = rng.integers(-4, 5, (5, 7)).astype(np.float64)
            b = rng.integers(-4, 5, (7, 3)).astype(np.float64)
            out = matmul(Tensor(a), Tensor(b))
            assert np.array_equal(out.data, naive_matmul(a, b))

    def test_matmul_gradients(self):
        for seed in range(5):
            a = randt(seed, 3, 4)
            b = randt(seed + 10, 4, 2)
            assert grad_check(lambda: matmul(a, b).sum(), [a, b]) < 1e-4

    def test_matmul_shape_errors(self):
        with pytest.raises(ShapeError):
            matmul(randt(0, 2, 3), randt(1, 4, 2))
        with pytest.raises(ShapeError):
            matmul(randt(0, 2, 3, 4), randt(1, 4, 2))

    def test_reductions_match_numpy(self):
        x = randt(11, 2, 3, 4)
        np.testing.assert_allclose(x.sum().data, [x.data.sum()], rtol=1e-6)
        np.testing.assert_allclose(x.mean(axis=1).data, x.data.mean(axis=1), rtol=1e-6)
        np.testing.assert_allclose(x.sum(axis=(0, 2), keepdims=True).data,
                                   x.data.sum(axis=(0, 2), keepdims=True), rtol=1e-6)

    def test_reduction_gradients(self):
        for seed in range(5):
            x = randt(seed, 2, 3, 4)
            assert grad_check(lambda: x.mean(), [x]) < 1e-4
            assert grad_check(lambda: (x.sum(axis=1) * x.sum(axis=1)).sum(), [x]) < 1e-4
            assert grad_check(lambda: (x.mean(axis=(0, 2)) * 3.0).sum(), [x]) < 1e-4

    def test_reshape_roundtrip_and_gradient(self):
        x = randt(3, 2, 6)
        y = reshape(x, (3, 4))
        assert y.shape == (3, 4)
        assert grad_check(lambda: (reshape(x, (3, 4)) * reshape(x, (3, 4))).sum(), [x]) < 1e-4
        with pytest.raises(ShapeError):
            reshape(x, (5, 5))

    def test_softmax_properties_and_gradient(self):
        x = randt(5, 3, 6, scale=2.0)
        p = softmax(x, axis=1)
        np.testing.assert_allclose(p.data.sum(axis=1), np.ones(3), rtol=1e-6)
        assert np.all(p.data > 0)
        for seed in range(5):
            x = randt(seed, 2, 4, scale=2.0)
            w = Tensor(np.random.default_rng(seed + 1).normal(0, 1, (2, 4)))
            assert grad_check(lambda: (softmax(x, axis=1) * w).sum(), [x]) < 1e-4

    def test_log_softmax_consistency_and_gradient(self):
        x = randt(6, 3, 5, scale=3.0)
        np.testing.assert_allclose(log_softmax(x, axis=1).data,
                                   np.log(softmax(x, axis=1).data), rtol=1e-6)
        for seed in range(5):
            x = randt(seed, 2, 4, scale=2.0)
            w = Tensor(np.random.default_rng(seed + 1).normal(0, 1, (2, 4)))
            assert grad_check(lambda: (log_softmax(x, axis=1) * w).sum(), [x]) < 1e-4

    def test_max_rel_err_ignores_tiny_elements(self):
        assert max_rel_err([0.0, 1.0], [1e-9, 1.0]) == 0.0
        assert max_rel_err([1.0], [2.0]) == pytest.approx(0.5)
