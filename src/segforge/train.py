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
from typing import Annotated, Optional

import numpy as np

from .checkpoint import load_checkpoint, restore_model, save_checkpoint
from .data import (DEFAULT_CROP, MIN_FOREGROUND_DEFAULT, MODALITIES, NUM_CLASSES,
                   TRAIN_FRACTION, SliceBatch, case_loaders, check_crop, crop_window,
                   extract_slices, load_case, load_data_root, make_batch, parse_synth_uri,
                   split_dataset, write_volume)
from .errors import (ConfigError, DataError, check_output_dir, make_dirs, open_input,
                     open_output)
from .metrics import (_confusion_matrix, _confusion_scores, cross_entropy_loss,
                      logits_to_labels, one_hot, soft_dice_loss)
from .model import (PRESETS, ConfigDocument, Count, ModelConfig, Range, Seed, SegmentationModel,
                    build_model)
from .optim import Adam, OptimizerConfig
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
class SplitConfig(ConfigDocument):
    KEY = "split."
    fraction: Annotated[float, Range()] = TRAIN_FRACTION   # (0, 1) unless val_on_train
    seed: Seed = 0


@dataclass(frozen=True)
class LossConfig(ConfigDocument):
    KEY = "loss."
    dice_weight: Annotated[float, Range(0.0)] = 1.0
    ce_weight: Annotated[float, Range(0.0)] = 0.0

    def __post_init__(self):
        super().__post_init__()
        if self.dice_weight == 0 and self.ce_weight == 0:
            raise ConfigError("at least one loss weight must be positive")


@dataclass(frozen=True)
class RunConfig(ConfigDocument):
    model: ModelConfig = field(default_factory=ModelConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    epochs: Count = 100
    batch_size: Count = 8
    seed: Seed = 0
    data_root: str = ""
    split: SplitConfig = field(default_factory=SplitConfig)
    crop: Annotated[tuple[int, int], Range(32)] = DEFAULT_CROP
    loss: LossConfig = field(default_factory=LossConfig)
    min_foreground: Annotated[float, Range(0.0, 1.0)] = MIN_FOREGROUND_DEFAULT
    val_on_train: bool = False
    output_dir: str = "runs/run"

    def __post_init__(self):
        super().__post_init__()
        model = self.model
        if (model.in_channels, model.num_classes) != (len(MODALITIES), NUM_CLASSES):
            raise ConfigError(f"model.in_channels and num_classes must be {len(MODALITIES)} "
                              f"and {NUM_CLASSES}, got {model.in_channels} and {model.num_classes}")
        if not self.val_on_train and not 0.0 < self.split.fraction < 1.0:
            raise ConfigError(f"split fraction must be in (0, 1), got {self.split.fraction}")
        check_crop(self.crop)

    def validate(self) -> None:   # that a run can start; the build checked every field
        if not self.data_root:
            raise ConfigError("data_root is required")
        if self.data_root.startswith("synth:"):
            parse_synth_uri(self.data_root)
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
    with open_output(path) as fh:
        fh.write(("\n".join(lines) + "\n").encode("utf-8"))


# ---------------------------------------------------------------------------
# training


def _combined_loss(logits, labels, loss_cfg: LossConfig):
    """Weighted soft Dice plus cross entropy against [N,H,W] `labels`, one-hot encoded here."""
    targets = one_hot(labels, NUM_CLASSES)
    loss = None
    if loss_cfg.dice_weight:
        loss = soft_dice_loss(logits, targets) * loss_cfg.dice_weight
    if loss_cfg.ce_weight:
        ce = cross_entropy_loss(logits, targets) * loss_cfg.ce_weight
        loss = ce if loss is None else loss + ce
    return loss


def _slices_for(samples, ids, crop, threshold) -> SliceBatch:
    parts = [extract_slices(samples[cid], crop, threshold) for cid in ids]
    return SliceBatch(images=np.concatenate([p.images for p in parts]),
                      labels=np.concatenate([p.labels for p in parts]))


def _eval_batches(model, slices: SliceBatch, batch_size):
    """Eval-mode forward passes over `slices`: yields (batch, logits, labels).

    Each batch is a view of `slices`, not a copy. Eval mode records no tape:
    the caller holds `no_grad()` around the loop, as a generator that held
    it would leave gradients off if abandoned.
    """
    for i in range(0, len(slices), batch_size):
        batch = make_batch(slices, slice(i, i + batch_size))
        logits = model(Tensor(batch.images), training=False)
        yield batch, logits, logits_to_labels(logits.data)


def _eval_pass(model, slices, cfg_loss, batch_size, epoch, split) -> MetricRecord:
    acc = MetricAccumulator()
    with no_grad():
        for batch, logits, pred in _eval_batches(model, slices, batch_size):
            acc.update(pred, batch.labels)
            acc.add_loss(_combined_loss(logits, batch.labels, cfg_loss).item(), len(batch))
    return acc.record(epoch, split)


def _train_val_ids(cfg: RunConfig, ids: list[str]) -> tuple[list[str], list[str]]:
    """A run's train and val case ids; with val_on_train, every case is both."""
    if cfg.val_on_train:
        return ids, ids
    if len(ids) < 2:
        raise DataError(f"need at least 2 cases to split into train and val, got {len(ids)}")
    return split_dataset(ids, cfg.split.fraction, cfg.split.seed)


def train(cfg: RunConfig, verbose: bool = False) -> dict:
    """Run the full training loop; returns paths and per-epoch records.

    Per epoch: shuffled pass over training slices (forward, loss, backward,
    Adam step), eval-mode pass over validation slices, one curves row per
    split, last.ckpt always and best.ckpt on improved validation Dice. A
    directory root's cases are read cut to the run's crop, so only their
    windows are held.
    """
    cfg.validate()
    out_dir = Path(cfg.output_dir)
    make_dirs(out_dir)
    samples = load_data_root(cfg.data_root, cfg.crop)
    ids = sorted(samples)
    train_ids, val_ids = _train_val_ids(cfg, ids)

    train_slices = _slices_for(samples, train_ids, cfg.crop, cfg.min_foreground)
    val_slices = _slices_for(samples, val_ids, cfg.crop, 0.0)
    if not len(train_slices):
        raise DataError(f"no training slices above foreground threshold "
                        f"{cfg.min_foreground} in {cfg.data_root}")

    model = build_model(cfg.model)
    optimizer = Adam(dict(model.named_parameters()), lr=cfg.optimizer.lr,
                     beta1=cfg.optimizer.beta1, beta2=cfg.optimizer.beta2,
                     eps=cfg.optimizer.eps)

    curves_path = out_dir / "curves.csv"
    last_path = out_dir / "last.ckpt"
    best_path = out_dir / "best.ckpt"
    cfg_dict = cfg.to_dict()

    records: list[MetricRecord] = []
    best: Optional[dict] = None
    n_train = len(train_slices)

    for epoch in range(1, cfg.epochs + 1):
        perm = np.random.default_rng([cfg.seed, epoch]).permutation(n_train)
        acc = MetricAccumulator()
        for i in range(0, n_train, cfg.batch_size):
            chunk = perm[i:i + cfg.batch_size]
            batch = make_batch(train_slices, chunk)
            logits = model(Tensor(batch.images), training=True)
            loss = _combined_loss(logits, batch.labels, cfg.loss)
            backward(loss)
            optimizer.step()   # frees each .grad, so the next backward starts from none
            acc.update(logits_to_labels(logits.data), batch.labels)
            acc.add_loss(loss.item(), len(chunk))
        train_rec = acc.record(epoch, "train")
        val_rec = _eval_pass(model, val_slices, cfg.loss, cfg.batch_size, epoch, "val")
        records.extend([train_rec, val_rec])

        improved = best is None or val_rec.dice > best["dice"]
        if improved:
            best = {"epoch": epoch, "dice": val_rec.dice}
        save_checkpoint(last_path, cfg_dict, model, optimizer, epoch=epoch, best=best)
        if improved:   # same state as last.ckpt: copy its bytes
            with open_input(last_path, "checkpoint") as src, open_output(best_path) as dst:
                shutil.copyfileobj(src, dst)
        export_curves(records, curves_path)
        if verbose:
            print(f"epoch {epoch}/{cfg.epochs}  "
                  f"train loss {train_rec.loss:.4f} dice {train_rec.dice:.4f}  |  "
                  f"val loss {val_rec.loss:.4f} dice {val_rec.dice:.4f}")

    return {"curves": str(curves_path), "last": str(last_path), "best": str(best_path),
            "best_record": best, "records": records}


# ---------------------------------------------------------------------------
# evaluation / prediction


def _load_run(ckpt_path, batch_size: int) -> tuple[RunConfig, SegmentationModel]:
    """A checkpoint's run config, checked as `train` checks it, and its model; batch_size first."""
    RunConfig(batch_size=batch_size)   # by batch_size's declared range
    ckpt = load_checkpoint(ckpt_path, optimizer_state=False)
    cfg = RunConfig.from_dict(ckpt.config)
    cfg.validate()
    return cfg, restore_model(ckpt)


def _select_ids(cfg: RunConfig, ids: list[str], split: str) -> list[str]:
    if split == "all":
        return ids
    if split not in ("train", "val"):
        raise ConfigError(f"unknown split '{split}' (use train, val or all)")
    train_ids, val_ids = _train_val_ids(cfg, ids)
    return train_ids if split == "train" else val_ids


def _predict_labels(model, slices, batch_size) -> np.ndarray:
    """Eval-mode label maps of `slices`, stacked in order."""
    with no_grad():
        return np.concatenate([pred for _, _, pred in _eval_batches(model, slices, batch_size)])


def evaluate(ckpt_path: str, data_root: str, split: str = "val",
             save_masks: Optional[str] = None, out_path: Optional[str] = None,
             batch_size: int = 8) -> dict:
    """Eval-mode metrics over every slice of the selected cases.

    Metrics are computed over the center-cropped field of view the model
    sees, from pixel counts pooled case by case over the predicted and
    reference masks — the same masks that --save-masks writes out. Cases
    are loaded one at a time, just before each is evaluated; a directory's
    cases are streamed into their crop windows (`load_case(..., crop=...)`),
    so no whole volume is held. A batch size below 1, or an `out_path` in a
    missing directory, is refused before the checkpoint is read.
    """
    if out_path:
        check_output_dir(out_path)
    cfg, model = _load_run(ckpt_path, batch_size)
    crop = cfg.crop

    loaders = case_loaders(data_root, crop)
    ids = _select_ids(cfg, sorted(loaders), split)
    if not ids:
        raise DataError(f"no cases selected for split '{split}' in {data_root}")

    if save_masks:
        make_dirs(save_masks)

    acc = MetricAccumulator()
    n_slices = 0
    for cid in ids:
        slices = extract_slices(loaders[cid](), crop, 0.0)
        case_pred = _predict_labels(model, slices, batch_size)
        acc.update(case_pred, slices.labels)
        n_slices += len(slices)
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
        with open_output(out_path) as fh:
            fh.write((json.dumps(report, indent=2, sort_keys=True) + "\n").encode("utf-8"))
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

    The case is streamed into its crop windows (`load_case(..., crop=...)`),
    so no whole volume is held. The mask matches the input dims the headers
    give: predictions fill the centered crop window and everything outside
    it stays background. Output is .svol,
    plus a .nii sibling when any modality of the input case was NIfTI; it
    takes the spacing `load_case` read from the first such modality. A
    batch size below 1, or an output path that is not .svol or is in a
    missing directory, is refused before the checkpoint is read.
    """
    if not str(out_path).endswith(".svol"):
        raise ConfigError(f"predict writes a .svol mask, not {out_path}")
    check_output_dir(out_path)
    cfg, model = _load_run(ckpt_path, batch_size)
    crop = cfg.crop

    case_dir = Path(in_path)
    sample = load_case(case_dir.parent, case_dir.name, require_seg=False, crop=crop)
    cropped = _predict_labels(model, extract_slices(sample, crop, 0.0), batch_size)

    mask = np.zeros(sample.dims, dtype=np.uint8)
    mask[crop_window(sample.dims, crop, case_dir)] = cropped
    write_svol(out_path, mask)
    written = {"svol": str(out_path)}

    if sample.spacing is not None:
        nii_path = Path(out_path).with_suffix(".nii")
        write_volume(nii_path, mask, sample.spacing)
        written["nii"] = str(nii_path)
    return written
