"""Training and evaluation loops, run configuration, curves, prediction.

A run is described by one JSON-serializable RunConfig. Training is fully
deterministic for a given config: parameter init derives from the model
seed, batch order derives from (run seed, epoch), and metric curves are
written with fixed formatting, so identical configs produce bit-identical
curves.csv files and checkpoints on the same platform.
"""

from __future__ import annotations

import json
import os
import shutil
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .checkpoint import load_checkpoint, restore_model, save_checkpoint
from .data import (DEFAULT_CROP, MIN_FOREGROUND_DEFAULT, NUM_CLASSES, TRAIN_FRACTION,
                   SliceRecord, crop_offsets, extract_slices, load_case,
                   load_data_root, make_batch, split_dataset)
from .errors import ConfigError, DataError
from .metrics import (_confusion_matrix, _confusion_scores, cross_entropy_loss,
                      logits_to_labels, soft_dice_loss)
from .model import ConfigDocument, ModelConfig, PRESETS, SegmentationModel, build_model
from .nifti import write_nifti
from .optim import Adam
from .svol import write_svol
from .tensor import Tensor, backward, no_grad

# Dice scores reported in the literature for BraTS 2020 models, including the
# architecture this package implements. These are published numbers quoted for
# context in evaluation reports; nothing in this package reproduces them (that
# would take a full BraTS training run, not a desk-scale one).
PUBLISHED_REFERENCE = {
    "status": "published, not reproduced",
    "note": ("Published BraTS 2020 results quoted for comparison only; "
             "desk-scale runs of this package do not reproduce them."),
    "comparison_dice": {
        "AMMGS": 0.8172,
        "Encoder-Decoder with VAE": 0.8154,
        "SLIC": 0.8593,
        "SeResNet152 U-Net (proposed)": 0.8726,
    },
    "reported_metrics": {"dice": 0.87, "iou": 0.88, "mean_iou": 0.82, "accuracy": 0.8912},
}

# ---------------------------------------------------------------------------
# run configuration


@dataclass(frozen=True)
class OptimizerConfig(ConfigDocument):
    kind: str = "adam"
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


@dataclass(frozen=True)
class SplitConfig(ConfigDocument):
    fraction: float = TRAIN_FRACTION
    seed: int = 0


@dataclass(frozen=True)
class LossConfig(ConfigDocument):
    dice_weight: float = 1.0
    ce_weight: float = 0.0


@dataclass
class RunConfig(ConfigDocument):
    model: ModelConfig = field(default_factory=ModelConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    epochs: int = 100
    batch_size: int = 8
    seed: int = 0
    data_root: str = ""
    split: SplitConfig = field(default_factory=SplitConfig)
    crop: tuple[int, int] = DEFAULT_CROP
    loss: LossConfig = field(default_factory=LossConfig)
    min_foreground: float = MIN_FOREGROUND_DEFAULT
    val_on_train: bool = False
    output_dir: str = "runs/run"

    def validate(self) -> None:
        if self.optimizer.kind != "adam":
            raise ConfigError(f"unknown optimizer kind '{self.optimizer.kind}'")
        if self.optimizer.lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {self.optimizer.lr}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.val_on_train and not 0.0 < self.split.fraction < 1.0:
            raise ConfigError(f"split fraction must be in (0, 1), got {self.split.fraction}")
        if len(self.crop) != 2 or any(c % 32 or c < 32 for c in self.crop):
            raise ConfigError(f"crop must be two multiples of 32, got {self.crop}")
        if self.loss.dice_weight < 0 or self.loss.ce_weight < 0:
            raise ConfigError("loss weights must be non-negative")
        if self.loss.dice_weight == 0 and self.loss.ce_weight == 0:
            raise ConfigError("at least one loss weight must be positive")
        if not 0.0 <= self.min_foreground < 1.0:
            raise ConfigError(f"min_foreground must be in [0, 1), got {self.min_foreground}")
        if not self.data_root:
            raise ConfigError("data_root is required")
        if not self.output_dir:
            raise ConfigError("output_dir is required")


def run_preset(name: str) -> RunConfig:
    """Named starting configs; fields are meant to be overridden per run."""
    if name == "full":
        return RunConfig(model=PRESETS["full"])
    if name == "desk":
        return RunConfig(model=PRESETS["desk"], optimizer=OptimizerConfig(lr=1e-2),
                         epochs=30, batch_size=4, crop=(64, 64),
                         data_root="synth:cases=4,seed=1", output_dir="runs/desk")
    raise ConfigError(f"unknown preset '{name}' (use full or desk)")


def apply_overrides(d: dict, overrides) -> dict:
    """Apply `dotted.key=value` strings onto a nested config dict.

    Values parse as JSON when possible (numbers, lists, booleans) and fall
    back to plain strings.
    """
    for entry in overrides or ():
        if "=" not in entry:
            raise ConfigError(f"bad override '{entry}' (expected key=value)")
        key, raw = entry.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = d
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override '{key}' descends into a non-dict field")
        node[parts[-1]] = value
    return d


# ---------------------------------------------------------------------------
# metric bookkeeping


@dataclass(frozen=True)
class MetricRecord:
    epoch: int
    split: str
    loss: float
    dice: float
    iou: float
    mean_iou: float
    accuracy: float


# curves.csv has one column per MetricRecord field; floats are written to 6 decimals
_CURVES_FORMATS = {name: ".6f" if hint is float else ""
                   for name, hint in typing.get_type_hints(MetricRecord).items()}
CURVES_HEADER = ",".join(_CURVES_FORMATS)


class MetricAccumulator:
    """Pools a confusion matrix and the loss across batches.

    Its scores equal the metric functions applied to the stacked masks,
    because both are ratios of the same pooled pixel counts.
    """

    def __init__(self, num_classes: int = NUM_CLASSES):
        self.confusion = np.zeros((num_classes, num_classes), dtype=np.int64)
        self.loss_sum = 0.0
        self.loss_n = 0

    def update(self, pred: np.ndarray, target: np.ndarray) -> None:
        self.confusion += _confusion_matrix(pred, target, len(self.confusion))

    def add_loss(self, value: float, n: int) -> None:
        self.loss_sum += value * n
        self.loss_n += n

    def record(self, epoch: int, split: str) -> MetricRecord:
        scores = _confusion_scores(self.confusion)
        loss = self.loss_sum / self.loss_n if self.loss_n else 0.0
        return MetricRecord(epoch=epoch, split=split, loss=loss, dice=scores["dice_binary"],
                            iou=scores["iou_binary"], mean_iou=scores["mean_iou"],
                            accuracy=scores["accuracy"])


def export_curves(records, path: str | os.PathLike) -> None:
    """Write curves.csv: fixed 6-decimal formatting, rows sorted (epoch, split)."""
    rows = sorted(records, key=lambda r: (r.epoch, r.split))
    if not rows:
        raise ConfigError("export_curves needs at least one record")
    lines = [CURVES_HEADER]
    for r in rows:
        lines.append(",".join(format(getattr(r, k), spec) for k, spec in _CURVES_FORMATS.items()))
    tmp = str(path) + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# training


def _combined_loss(logits, targets, loss_cfg: LossConfig):
    loss = None
    if loss_cfg.dice_weight:
        loss = soft_dice_loss(logits, targets) * loss_cfg.dice_weight
    if loss_cfg.ce_weight:
        ce = cross_entropy_loss(logits, targets) * loss_cfg.ce_weight
        loss = ce if loss is None else loss + ce
    return loss


def _slices_for(samples, ids, crop, threshold) -> list[SliceRecord]:
    out = []
    for cid in ids:
        out.extend(extract_slices(samples[cid], crop, threshold))
    return out


def _eval_batches(model, records, batch_size):
    """Eval-mode forward passes over `records`: yields (batch, logits, labels).

    The caller holds `no_grad()` around the loop; a generator that held it
    would leave gradients off on this thread if it were abandoned.
    """
    for i in range(0, len(records), batch_size):
        batch = make_batch(records[i:i + batch_size])
        logits = model(Tensor(batch.images), training=False)
        yield batch, logits, logits_to_labels(logits.data)


def _eval_pass(model, records, cfg_loss, batch_size, epoch, split) -> MetricRecord:
    acc = MetricAccumulator()
    with no_grad():
        for batch, logits, pred in _eval_batches(model, records, batch_size):
            acc.update(pred, batch.labels)
            acc.add_loss(_combined_loss(logits, batch.targets, cfg_loss).item(),
                         len(batch.source))
    return acc.record(epoch, split)


def train(cfg: RunConfig, verbose: bool = False) -> dict:
    """Run the full training loop; returns paths and per-epoch records.

    Per epoch: shuffled pass over training slices (forward, loss, backward,
    Adam step), eval-mode pass over validation slices, one curves row per
    split, last.ckpt always and best.ckpt on improved validation Dice.
    """
    cfg.validate()
    samples = load_data_root(cfg.data_root)
    ids = sorted(samples)
    if cfg.val_on_train:
        train_ids, val_ids = ids, ids
    else:
        train_ids, val_ids = split_dataset(ids, cfg.split.fraction, cfg.split.seed)

    train_records = _slices_for(samples, train_ids, cfg.crop, cfg.min_foreground)
    val_records = _slices_for(samples, val_ids, cfg.crop, 0.0)
    if not train_records:
        raise DataError(f"no training slices above foreground threshold "
                        f"{cfg.min_foreground} in {cfg.data_root}")

    model = build_model(cfg.model)
    optimizer = Adam(dict(model.named_parameters()), lr=cfg.optimizer.lr,
                     beta1=cfg.optimizer.beta1, beta2=cfg.optimizer.beta2,
                     eps=cfg.optimizer.eps)

    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    curves_path = out_dir / "curves.csv"
    last_path = out_dir / "last.ckpt"
    best_path = out_dir / "best.ckpt"
    cfg_dict = cfg.to_dict()

    records: list[MetricRecord] = []
    best: Optional[dict] = None
    n_train = len(train_records)

    for epoch in range(1, cfg.epochs + 1):
        perm = np.random.default_rng([cfg.seed, epoch]).permutation(n_train)
        acc = MetricAccumulator()
        for i in range(0, n_train, cfg.batch_size):
            chunk = perm[i:i + cfg.batch_size]
            batch = make_batch([train_records[j] for j in chunk])
            logits = model(Tensor(batch.images), training=True)
            loss = _combined_loss(logits, batch.targets, cfg.loss)
            model.zero_grad()
            backward(loss)
            optimizer.step()
            acc.update(logits_to_labels(logits.data), batch.labels)
            acc.add_loss(loss.item(), len(chunk))
        train_rec = acc.record(epoch, "train")
        val_rec = _eval_pass(model, val_records, cfg.loss, cfg.batch_size, epoch, "val")
        records.extend([train_rec, val_rec])

        improved = best is None or val_rec.dice > best["dice"]
        if improved:
            best = {"epoch": epoch, "dice": val_rec.dice}
        save_checkpoint(last_path, cfg_dict, model, optimizer, epoch=epoch, best=best)
        if improved:   # same state as last.ckpt: copy its bytes, atomically
            shutil.copyfile(last_path, f"{best_path}.tmp")
            os.replace(f"{best_path}.tmp", best_path)
        export_curves(records, curves_path)
        if verbose:
            print(f"epoch {epoch}/{cfg.epochs}  "
                  f"train loss {train_rec.loss:.4f} dice {train_rec.dice:.4f}  |  "
                  f"val loss {val_rec.loss:.4f} dice {val_rec.dice:.4f}")

    return {"curves": str(curves_path), "last": str(last_path), "best": str(best_path),
            "best_record": best, "records": records}


# ---------------------------------------------------------------------------
# evaluation / prediction


def _load_run(ckpt_path) -> tuple[RunConfig, SegmentationModel]:
    """A checkpoint's run config, type-checked, and its restored model."""
    ckpt = load_checkpoint(ckpt_path)
    cfg = RunConfig.from_dict(ckpt.config)
    return cfg, restore_model(ckpt)


def _select_ids(cfg: RunConfig, ids: list[str], split: str) -> list[str]:
    if split == "all":
        return ids
    if split not in ("train", "val"):
        raise ConfigError(f"unknown split '{split}' (use train, val or all)")
    if cfg.val_on_train:
        return ids
    train_ids, val_ids = split_dataset(ids, cfg.split.fraction, cfg.split.seed)
    return train_ids if split == "train" else val_ids


def _predict_labels(model, records, batch_size) -> np.ndarray:
    """Eval-mode label maps of `records`, stacked in order."""
    with no_grad():
        return np.concatenate([pred for _, _, pred in _eval_batches(model, records, batch_size)])


def evaluate(ckpt_path: str, data_root: str, split: str = "val",
             save_masks: Optional[str] = None, out_path: Optional[str] = None,
             batch_size: int = 8) -> dict:
    """Eval-mode metrics over every slice of the selected cases.

    Metrics are computed over the center-cropped field of view the model
    sees, from pixel counts pooled case by case over the predicted and
    reference masks — the same masks that --save-masks writes out.
    """
    cfg, model = _load_run(ckpt_path)
    crop = cfg.crop

    samples = load_data_root(data_root)
    ids = _select_ids(cfg, sorted(samples), split)
    if not ids:
        raise DataError(f"no cases selected for split '{split}' in {data_root}")

    if save_masks:
        Path(save_masks).mkdir(parents=True, exist_ok=True)

    acc = MetricAccumulator()
    n_slices = 0
    for cid in ids:
        recs = extract_slices(samples[cid], crop, 0.0)
        case_pred = _predict_labels(model, recs, batch_size)
        acc.update(case_pred, np.stack([r.label for r in recs]))
        n_slices += len(recs)
        if save_masks:
            write_svol(Path(save_masks) / f"{cid}_pred.svol", case_pred)

    report = {
        "split": split,
        "data_root": data_root,
        "checkpoint": str(ckpt_path),
        "cases": len(ids),
        "slices": n_slices,
        "crop": list(crop),
        "metrics": _confusion_scores(acc.confusion),
        "reference": PUBLISHED_REFERENCE,
    }
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return report


def format_report(report: dict) -> str:
    """Human-readable table for the eval report, reference rows included."""
    m = report["metrics"]
    lines = [
        f"split: {report['split']}   cases: {report['cases']}   slices: {report['slices']}",
        "",
        f"{'metric':<22}{'value':>10}",
        f"{'dice (binary)':<22}{m['dice_binary']:>10.4f}",
    ]
    for c, v in enumerate(m["dice_per_class"]):
        lines.append(f"{f'dice class {c}':<22}{v:>10.4f}")
    lines += [
        f"{'iou (binary)':<22}{m['iou_binary']:>10.4f}",
        f"{'mean iou':<22}{m['mean_iou']:>10.4f}",
        f"{'pixel accuracy':<22}{m['accuracy']:>10.4f}",
        "",
        f"reference dice scores ({PUBLISHED_REFERENCE['status']}):",
    ]
    for name, v in PUBLISHED_REFERENCE["comparison_dice"].items():
        lines.append(f"  {name:<28}{v:>8.4f}")
    return "\n".join(lines)


def predict(ckpt_path: str, in_path: str, out_path: str, batch_size: int = 8) -> dict:
    """Segment one case directory into a 3D label volume file.

    The mask matches the input dims: predictions fill the centered crop
    window and everything outside it stays background. Output is .svol,
    plus a .nii sibling (same geometry) when the input case was NIfTI.
    """
    cfg, model = _load_run(ckpt_path)
    crop = cfg.crop

    case_dir = Path(in_path)
    if not case_dir.is_dir():
        raise DataError(f"case directory not found: {in_path}")
    sample = load_case(case_dir.parent, case_dir.name, require_seg=False)
    d, h, w = sample.dims
    if crop[0] > h or crop[1] > w:
        raise DataError(f"case planes {h}x{w} smaller than model crop {crop}")
    oh, ow = crop_offsets((h, w), crop)

    cropped = _predict_labels(model, extract_slices(sample, crop, 0.0), batch_size)

    mask = np.zeros((d, h, w), dtype=np.uint8)
    mask[:, oh:oh + crop[0], ow:ow + crop[1]] = cropped
    write_svol(out_path, mask)
    written = {"svol": str(out_path)}

    was_nifti = ((case_dir / f"{case_dir.name}_t1ce.nii").is_file()
                 or (case_dir / f"{case_dir.name}_t1ce.nii.gz").is_file())
    if was_nifti:
        nii_path = Path(out_path).with_suffix(".nii")
        write_nifti(nii_path, mask, sample.spacing)
        written["nii"] = str(nii_path)
    return written
