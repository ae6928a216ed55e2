"""Segmentation metrics and the differentiable soft-dice loss.

Hard metrics operate on integer label maps and use the convention that a
class absent from both prediction and target scores a perfect 1.0 (Dice and
IoU) or is skipped entirely (mean IoU). Every hard metric is read off one
confusion matrix by `_confusion_scores`, which training and evaluation use
too; the public functions are thin wrappers around it. The soft loss runs
through the autodiff tape so it can drive training.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, ShapeError
from .tensor import Tensor, log_softmax, mul, softmax

DICE_EPS = 1e-6


def _check_label_pair(pred: np.ndarray, target: np.ndarray) -> None:
    if pred.shape != target.shape:
        raise ShapeError(f"label maps differ in shape: {pred.shape} vs {target.shape}")
    if not np.issubdtype(pred.dtype, np.integer) or not np.issubdtype(target.dtype, np.integer):
        raise ContractError("hard metrics expect integer label maps")


def _confusion_matrix(pred: np.ndarray, target: np.ndarray, num_classes: int) -> np.ndarray:
    """[C,C] int64 pixel counts: rows are the target class, columns the predicted one."""
    _check_label_pair(pred, target)
    lo = min(pred.min(initial=0), target.min(initial=0))
    hi = max(pred.max(initial=0), target.max(initial=0))
    if lo < 0 or hi >= num_classes:
        raise ContractError(f"labels outside [0, {num_classes}): min {lo}, max {hi}")
    index = target.astype(np.intp).ravel()
    index *= num_classes
    np.add(index, pred.ravel(), out=index, casting="unsafe")   # labels checked in range
    return np.bincount(index, minlength=num_classes * num_classes).reshape(
        num_classes, num_classes)


def _overlaps(cm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-class Dice and IoU; a class absent from both maps scores 1.0."""
    inter = np.diag(cm)
    sizes = cm.sum(axis=0) + cm.sum(axis=1)
    union = sizes - inter
    dice = np.divide(2.0 * inter, sizes, out=np.ones(len(cm)), where=sizes > 0)
    iou = np.divide(inter, union, out=np.ones(len(cm)), where=union > 0)
    return dice, iou


def _confusion_scores(cm: np.ndarray) -> dict:
    """Every hard metric of a confusion matrix.

    The binary scores split foreground (any nonzero label) from background.
    Mean IoU averages the classes present in either map, and is 1.0 when
    none is; accuracy is 0.0 for an empty matrix.
    """
    dice, iou = _overlaps(cm)
    fg_bg = np.array([[cm[0, 0], cm[0, 1:].sum()], [cm[1:, 0].sum(), cm[1:, 1:].sum()]])
    bin_dice, bin_iou = _overlaps(fg_bg)
    present = cm.sum(axis=0) + cm.sum(axis=1) > 0
    total = int(cm.sum())
    return {
        "dice_binary": float(bin_dice[1]),
        "dice_per_class": dice.tolist(),
        "iou_binary": float(bin_iou[1]),
        "mean_iou": float(np.mean(iou[present])) if present.any() else 1.0,
        "accuracy": int(np.trace(cm)) / total if total else 0.0,
    }


def _split_scores(pred: np.ndarray, target: np.ndarray, member) -> dict:
    """Scores of the two-class split that `member` draws: class 1 where it is True.

    Only two classes are counted, so labels may take any integer value.
    """
    _check_label_pair(pred, target)
    return _confusion_scores(_confusion_matrix(member(pred).view(np.uint8),
                                               member(target).view(np.uint8), 2))


def dice_score(pred: np.ndarray, target: np.ndarray, cls: int) -> float:
    """Dice overlap for one class; 1.0 when the class is absent from both."""
    return _split_scores(pred, target, lambda m: m == cls)["dice_binary"]


def iou_score(pred: np.ndarray, target: np.ndarray, cls: int) -> float:
    """Intersection over union for one class; 1.0 when both are empty."""
    return _split_scores(pred, target, lambda m: m == cls)["iou_binary"]


def mean_iou(pred: np.ndarray, target: np.ndarray, num_classes: int) -> float:
    """IoU averaged over the classes present in prediction or target."""
    scores = _confusion_scores(_confusion_matrix(pred, target, num_classes))
    if pred.size == 0:
        raise ContractError("mean_iou: no class present in either map")
    return scores["mean_iou"]


def pixel_accuracy(pred: np.ndarray, target: np.ndarray) -> float:
    """Fraction of pixels whose labels agree; nan for empty maps."""
    _check_label_pair(pred, target)
    # "labels agree" scored against a target that agrees everywhere: the
    # pixels this split gets right are exactly the agreeing ones
    agree = (pred == target).view(np.uint8)
    accuracy = _confusion_scores(_confusion_matrix(agree, np.ones_like(agree), 2))["accuracy"]
    return accuracy if pred.size else float("nan")


def binary_dice(pred: np.ndarray, target: np.ndarray) -> float:
    """Dice of the foreground-vs-background split (any nonzero label)."""
    return _split_scores(pred, target, lambda m: m != 0)["dice_binary"]


def binary_iou(pred: np.ndarray, target: np.ndarray) -> float:
    """IoU of the foreground-vs-background split (any nonzero label)."""
    return _split_scores(pred, target, lambda m: m != 0)["iou_binary"]


def logits_to_labels(logits: np.ndarray) -> np.ndarray:
    """Argmax over the class axis of [N,C,H,W] logits; ties pick the lowest class."""
    if logits.ndim != 4:
        raise ShapeError(f"expected [N,C,H,W] logits, got shape {logits.shape}")
    return logits.argmax(axis=1).astype(np.uint8)


def one_hot(labels: np.ndarray, num_classes: int, dtype=np.float32) -> np.ndarray:
    """[N,H,W] integer labels -> [N,C,H,W] one-hot floats."""
    if labels.ndim != 3:
        raise ShapeError(f"expected [N,H,W] labels, got shape {labels.shape}")
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ContractError(f"labels outside [0, {num_classes}): "
                            f"min {labels.min()}, max {labels.max()}")
    out = np.zeros((labels.shape[0], num_classes) + labels.shape[1:], dtype=dtype)
    np.put_along_axis(out, labels[:, None].astype(np.int64), 1, axis=1)
    return out


def soft_dice_loss(logits: Tensor, target_onehot: np.ndarray, eps: float = DICE_EPS) -> Tensor:
    """1 - mean over classes of the soft Dice between softmax(logits) and target.

    Per-class Dice pools intersection and sums over the whole batch; eps in
    numerator and denominator keeps absent classes at a perfect score.
    """
    if logits.ndim != 4:
        raise ShapeError(f"expected [N,C,H,W] logits, got shape {logits.shape}")
    if target_onehot.shape != logits.shape:
        raise ShapeError(f"one-hot target shape {target_onehot.shape} "
                         f"does not match logits {logits.shape}")
    p = softmax(logits, axis=1)
    t = target_onehot.astype(p.dtype, copy=False)
    tsum = t.sum(axis=(0, 2, 3))

    inter = mul(p, Tensor(t)).sum(axis=(0, 2, 3))    # [C], differentiable
    psum = p.sum(axis=(0, 2, 3))

    num = inter * 2.0 + eps
    den = psum + Tensor(tsum.astype(p.dtype)) + eps
    dice = num / den
    return 1.0 - dice.mean()


def cross_entropy_loss(logits: Tensor, target_onehot: np.ndarray) -> Tensor:
    """Mean per-pixel cross entropy from [N,C,H,W] logits and one-hot target."""
    if logits.ndim != 4 or target_onehot.shape != logits.shape:
        raise ShapeError(f"cross entropy needs matching [N,C,H,W], got "
                         f"{logits.shape} and {target_onehot.shape}")
    n, c, h, w = logits.shape
    logp = log_softmax(logits, axis=1)
    picked = mul(logp, Tensor(target_onehot.astype(logp.dtype, copy=False)))
    return picked.sum() * (-1.0 / (n * h * w))
