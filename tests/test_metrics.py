"""Hard metrics against counting oracles, plus the soft-dice/CE losses."""

import numpy as np
import pytest

from segforge.errors import ContractError, ShapeError
from segforge.metrics import (DICE_EPS, binary_dice, binary_iou,
                              cross_entropy_loss, dice_score, iou_score,
                              logits_to_labels, mean_iou, one_hot,
                              pixel_accuracy, soft_dice_loss)
from segforge.tensor import Tensor, no_grad

from oracles import (grad_check, oracle_accuracy, oracle_dice, oracle_iou,
                     oracle_mean_iou)


def random_pair(seed, shape=(8, 8), num_classes=4):
    rng = np.random.default_rng(seed)
    return (rng.integers(0, num_classes, shape).astype(np.uint8),
            rng.integers(0, num_classes, shape).astype(np.uint8))


class TestHardMetricsMatchOracles:
    def test_dice_and_iou_per_class(self):
        for seed in range(50):
            pred, target = random_pair(seed)
            for cls in range(4):
                assert dice_score(pred, target, cls) == oracle_dice(pred, target, cls)
                assert iou_score(pred, target, cls) == oracle_iou(pred, target, cls)

    def test_mean_iou_and_accuracy(self):
        for seed in range(50):
            pred, target = random_pair(seed)
            assert mean_iou(pred, target, 4) == oracle_mean_iou(pred, target, 4)
            assert pixel_accuracy(pred, target) == oracle_accuracy(pred, target)

    def test_per_class_and_binary_scores_take_any_integer_label(self):
        # only the class asked for (or zero vs nonzero) is counted, so labels
        # beyond the model's classes and negative ones are fine here
        for seed in range(20):
            rng = np.random.default_rng(seed)
            pred, target = rng.integers(-2, 9, (2, 6, 6)), rng.integers(-2, 9, (2, 6, 6))
            for cls in range(-2, 10):
                assert dice_score(pred, target, cls) == oracle_dice(pred, target, cls)
                assert iou_score(pred, target, cls) == oracle_iou(pred, target, cls)
            fg_p, fg_t = (pred != 0).astype(np.uint8), (target != 0).astype(np.uint8)
            assert binary_dice(pred, target) == oracle_dice(fg_p, fg_t, 1)
            assert binary_iou(pred, target) == oracle_iou(fg_p, fg_t, 1)
            assert pixel_accuracy(pred, target) == oracle_accuracy(pred, target)

    def test_dice_iou_identity_on_binary_masks(self):
        for seed in range(50):
            pred, target = random_pair(seed, num_classes=2)
            d = dice_score(pred, target, 1)
            j = iou_score(pred, target, 1)
            assert abs(d - 2.0 * j / (1.0 + j)) < 1e-12

    def test_absent_class_conventions(self):
        a = np.zeros((4, 4), dtype=np.uint8)
        assert dice_score(a, a, 3) == 1.0
        assert iou_score(a, a, 3) == 1.0
        assert binary_dice(a, a) == 1.0
        assert binary_iou(a, a) == 1.0
        # class 3 nowhere in either map -> dropped from the mean
        pred = np.array([[0, 1], [1, 0]], dtype=np.uint8)
        assert mean_iou(pred, pred, 4) == 1.0
        with pytest.raises(ContractError):
            mean_iou(np.zeros((0,), dtype=np.uint8), np.zeros((0,), dtype=np.uint8), 4)

    def test_binary_metrics_pool_nonzero_labels(self):
        pred = np.array([[1, 2], [0, 0]], dtype=np.uint8)
        target = np.array([[3, 0], [0, 0]], dtype=np.uint8)
        assert binary_dice(pred, target) == pytest.approx(2 * 1 / (2 + 1))
        assert binary_iou(pred, target) == pytest.approx(1 / 2)

    def test_input_validation(self):
        a = np.zeros((4, 4), dtype=np.uint8)
        with pytest.raises(ShapeError):
            dice_score(a, np.zeros((4, 5), dtype=np.uint8), 0)
        with pytest.raises(ContractError):
            dice_score(a.astype(np.float32), a, 0)
        with pytest.raises(ContractError):
            pixel_accuracy(a, a.astype(np.float64))
        # labels outside [0, num_classes), including a negative one in a signed map
        with pytest.raises(ContractError):
            mean_iou(np.full((4, 4), 4, dtype=np.uint8), a, 4)
        with pytest.raises(ContractError):
            mean_iou(a.astype(np.int64), np.full((4, 4), -1, dtype=np.int64), 4)


class TestLabelHelpers:
    def test_logits_to_labels_ties_pick_lowest_class(self):
        logits = np.zeros((1, 3, 2, 2), dtype=np.float32)
        labels = logits_to_labels(logits)
        assert labels.dtype == np.uint8
        np.testing.assert_array_equal(labels, np.zeros((1, 2, 2), dtype=np.uint8))
        logits[0, 1] = 5.0
        logits[0, 2] = 5.0
        np.testing.assert_array_equal(logits_to_labels(logits),
                                      np.ones((1, 2, 2), dtype=np.uint8))
        with pytest.raises(ShapeError):
            logits_to_labels(np.zeros((3, 2, 2), dtype=np.float32))

    def test_one_hot_round_trip(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 4, (2, 5, 5)).astype(np.uint8)
        oh = one_hot(labels, 4)
        assert oh.shape == (2, 4, 5, 5)
        assert oh.dtype == np.float32
        np.testing.assert_array_equal(oh.sum(axis=1), np.ones((2, 5, 5), dtype=np.float32))
        np.testing.assert_array_equal(oh.argmax(axis=1).astype(np.uint8), labels)

    def test_one_hot_range_check(self):
        with pytest.raises(ContractError):
            one_hot(np.full((1, 2, 2), 4, dtype=np.uint8), 4)
        with pytest.raises(ContractError):
            one_hot(np.full((1, 2, 2), -1, dtype=np.int64), 4)
        with pytest.raises(ShapeError):
            one_hot(np.zeros((2, 2), dtype=np.uint8), 4)


def numpy_soft_dice(logits, onehot, eps=DICE_EPS):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    inter = (p * onehot).sum(axis=(0, 2, 3))
    psum = p.sum(axis=(0, 2, 3))
    tsum = onehot.sum(axis=(0, 2, 3))
    dice = (2.0 * inter + eps) / (psum + tsum + eps)
    return 1.0 - dice.mean()


class TestSoftDiceLoss:
    def test_matches_numpy_reference(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            logits = rng.normal(0, 2, (2, 4, 6, 6))
            labels = rng.integers(0, 4, (2, 6, 6)).astype(np.uint8)
            oh = one_hot(labels, 4, dtype=np.float64)
            with no_grad():
                got = soft_dice_loss(Tensor(logits), oh).item()
            assert abs(got - numpy_soft_dice(logits, oh)) < 1e-12

    def test_perfect_prediction_scores_near_zero(self):
        labels = np.random.default_rng(0).integers(0, 4, (1, 8, 8)).astype(np.uint8)
        oh = one_hot(labels, 4, dtype=np.float64)
        logits = 40.0 * oh - 20.0
        with no_grad():
            loss = soft_dice_loss(Tensor(logits), oh).item()
        assert 0.0 <= loss < 1e-6

    def test_worst_prediction_is_close_to_one(self):
        # confident prediction of the wrong class everywhere
        labels = np.zeros((1, 4, 4), dtype=np.uint8)
        oh = one_hot(labels, 4, dtype=np.float64)
        wrong = one_hot(np.ones((1, 4, 4), dtype=np.uint8), 4, dtype=np.float64)
        with no_grad():
            loss = soft_dice_loss(Tensor(40.0 * wrong - 20.0), oh).item()
        # class 0 misses (dice ~ 0), class 1 spurious (dice ~ 0),
        # classes 2 and 3 absent from both (dice = 1)
        assert abs(loss - 0.5) < 1e-6

    def test_absent_class_keeps_perfect_score(self):
        labels = np.zeros((1, 4, 4), dtype=np.uint8)  # only class 0 present
        oh = one_hot(labels, 4, dtype=np.float64)
        logits = 40.0 * oh - 20.0
        with no_grad():
            loss = soft_dice_loss(Tensor(logits), oh).item()
        assert loss < 1e-6

    def test_gradients(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            logits = Tensor(rng.normal(0, 1.5, (2, 3, 4, 4)), requires_grad=True)
            labels = rng.integers(0, 3, (2, 4, 4)).astype(np.uint8)
            oh = one_hot(labels, 3, dtype=np.float64)
            err = grad_check(lambda: soft_dice_loss(logits, oh), [logits])
            assert err < 1e-4, f"seed {seed}: {err}"

    def test_shape_validation(self):
        logits = Tensor(np.zeros((1, 3, 4, 4), dtype=np.float32))
        with pytest.raises(ShapeError):
            soft_dice_loss(logits, np.zeros((1, 4, 4, 4), dtype=np.float32))
        with pytest.raises(ShapeError):
            soft_dice_loss(Tensor(np.zeros((3, 4, 4), dtype=np.float32)),
                           np.zeros((3, 4, 4), dtype=np.float32))


class TestCrossEntropyLoss:
    def test_matches_manual_formula(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            logits = rng.normal(0, 2, (2, 4, 3, 3))
            labels = rng.integers(0, 4, (2, 3, 3)).astype(np.uint8)
            oh = one_hot(labels, 4, dtype=np.float64)
            z = logits - logits.max(axis=1, keepdims=True)
            logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
            want = -(logp * oh).sum() / (2 * 3 * 3)
            with no_grad():
                got = cross_entropy_loss(Tensor(logits), oh).item()
            assert abs(got - want) < 1e-12

    def test_gradients(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            logits = Tensor(rng.normal(0, 1.5, (1, 3, 4, 4)), requires_grad=True)
            labels = rng.integers(0, 3, (1, 4, 4)).astype(np.uint8)
            oh = one_hot(labels, 3, dtype=np.float64)
            assert grad_check(lambda: cross_entropy_loss(logits, oh), [logits]) < 1e-4

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            cross_entropy_loss(Tensor(np.zeros((1, 3, 4, 4), dtype=np.float32)),
                               np.zeros((1, 3, 4, 5), dtype=np.float32))
