"""Optimizer, run config, curves, checkpoints, and the train/eval/predict loops."""

import dataclasses
import json
import re
import typing
from pathlib import Path

import numpy as np
import pytest

from segforge.checkpoint import (CheckpointData, load_checkpoint,
                                 restore_model, save_checkpoint)
from segforge.data import (MODALITIES, extract_slices, load_data_root,
                           synth_case, write_case)
from segforge.errors import (ConfigError, ContractError, DataError,
                             FormatError, NumericError)
from segforge.layers import BatchNorm2d, Conv2d, Module
from segforge.metrics import binary_dice
from segforge.model import PRESETS, ConfigDocument, build_model
from segforge.optim import Adam
from segforge.svol import read_svol
from segforge.tensor import Tensor, no_grad
from segforge.train import (CURVES_HEADER, MetricAccumulator, MetricRecord,
                            PUBLISHED_REFERENCE, RunConfig, apply_overrides,
                            evaluate, export_curves, format_report, predict,
                            run_preset, train)

from oracles import (oracle_accuracy, oracle_dice, oracle_iou,
                     oracle_mean_iou)

TINY_ROOT = "synth:cases=2,seed=3,dims=8x64x64"


def tiny_config(output_dir, **kw):
    cfg = run_preset("desk")
    fields = dict(data_root=TINY_ROOT, epochs=1, val_on_train=True,
                  output_dir=str(output_dir), seed=0)
    fields.update(kw)
    return dataclasses.replace(cfg, **fields)


# run_preset(name).to_dict(): every checkpoint stores this document, so its
# keys, key order and values must not change
PRESET_DICTS = {
    "desk": {"model": {"in_channels": 3, "num_classes": 4, "stem_width": 16,
                       "stage_depths": [1, 1, 1, 1], "reduction": 4,
                       "decoder_channels": [64, 32, 16, 16, 8], "seed": 0},
             "optimizer": {"kind": "adam", "lr": 0.01, "beta1": 0.9, "beta2": 0.999,
                           "eps": 1e-08},
             "epochs": 30, "batch_size": 4, "seed": 0, "data_root": "synth:cases=4,seed=1",
             "split": {"fraction": 0.7469635627530364, "seed": 0}, "crop": [64, 64],
             "loss": {"dice_weight": 1.0, "ce_weight": 0.0}, "min_foreground": 0.001,
             "val_on_train": False, "output_dir": "runs/desk"},
    "full": {"model": {"in_channels": 3, "num_classes": 4, "stem_width": 64,
                       "stage_depths": [3, 8, 36, 3], "reduction": 16,
                       "decoder_channels": [256, 128, 64, 32, 16], "seed": 0},
             "optimizer": {"kind": "adam", "lr": 0.0001, "beta1": 0.9, "beta2": 0.999,
                           "eps": 1e-08},
             "epochs": 100, "batch_size": 8, "seed": 0, "data_root": "",
             "split": {"fraction": 0.7469635627530364, "seed": 0}, "crop": [128, 128],
             "loss": {"dice_weight": 1.0, "ce_weight": 0.0}, "min_foreground": 0.001,
             "val_on_train": False, "output_dir": "runs/run"},
}


def config_fields(cls, prefix=""):
    """(dotted key, type) of every field of a config and of its nested sections."""
    for name, hint in typing.get_type_hints(cls).items():
        yield prefix + name, hint
        if isinstance(hint, type) and issubclass(hint, ConfigDocument):
            yield from config_fields(hint, f"{prefix}{name}.")


def wrongly_typed(hint):
    if isinstance(hint, type) and issubclass(hint, ConfigDocument):
        return [5, "x", [1], None]
    if typing.get_origin(hint) is tuple:
        return [5, "64", None, ["a", 64], [1.5, 64], [True, 64]]
    return {int: ["3", 2.9, True, None], float: ["0.5", True, None, [1.0]],
            str: [5, True, None], bool: ["no", "true", 1, 0, None]}[hint]


def with_value(key, value):
    """The desk preset's dict with one dotted key set, as `--override` sets it."""
    return apply_overrides(run_preset("desk").to_dict(), [f"{key}={json.dumps(value)}"])


class TestAdam:
    def test_no_gradient_means_no_movement(self):
        p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        opt = Adam({"w": p}, lr=0.1)
        before = p.data.copy()
        opt.step()
        opt.step()
        np.testing.assert_array_equal(p.data, before)

    def test_first_step_moves_by_about_lr(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = Adam({"w": p}, lr=1e-3)
        p.grad = np.array([1.0])
        opt.step()
        # bias-corrected mhat = g, vhat = g^2 -> update = lr * g/(|g| + eps)
        assert p.data[0] == pytest.approx(-1e-3, rel=1e-6)

    def test_hundred_steps_monotone_on_quadratic(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = Adam({"w": p}, lr=0.02)
        losses = []
        for _ in range(100):
            losses.append(float((p.data[0] - 3.0) ** 2))
            p.grad = np.array([2.0 * (p.data[0] - 3.0)])
            opt.step()
        final = float((p.data[0] - 3.0) ** 2)
        assert all(b < a for a, b in zip(losses, losses[1:] + [final]))
        assert final < 0.25 * losses[0]

    def test_nonfinite_gradient_raises_with_context(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = Adam({"w": p}, lr=0.1)
        p.grad = np.array([1.0])
        opt.step()
        p.grad = np.array([np.nan])
        with pytest.raises(NumericError, match=r"'w'.*step 2"):
            opt.step()

    def test_state_round_trip_resumes_exactly(self):
        def grads(params):
            for p in params.values():
                p.grad = 2.0 * (p.data - 3.0)

        p1 = {"w": Tensor(np.zeros(4), requires_grad=True)}
        opt1 = Adam(p1, lr=0.05)
        for _ in range(5):
            grads(p1)
            opt1.step()

        p2 = {"w": Tensor(np.zeros(4), requires_grad=True)}
        opt2 = Adam(p2, lr=0.05)
        for _ in range(3):
            grads(p2)
            opt2.step()
        state = {k: v.copy() for k, v in opt2.state_arrays().items()}
        resumed = Adam(p2, lr=0.05)
        resumed.load_state(state, opt2.step_count)
        for _ in range(2):
            grads(p2)
            resumed.step()
        np.testing.assert_array_equal(p1["w"].data, p2["w"].data)

    def test_load_state_validation(self):
        p = {"w": Tensor(np.zeros(3), requires_grad=True)}
        opt = Adam(p)
        with pytest.raises(ConfigError):
            opt.load_state({}, 1)
        bad = {"adam.m:w": np.zeros(2), "adam.v:w": np.zeros(2)}
        with pytest.raises(ConfigError):
            opt.load_state(bad, 1)

    def test_constructor_validation(self):
        p = {"w": Tensor(np.zeros(1), requires_grad=True)}
        with pytest.raises(ConfigError):
            Adam(p, lr=0.0)
        with pytest.raises(ConfigError):
            Adam(p, beta1=1.0)
        with pytest.raises(ConfigError):
            Adam({})


class TestRunConfig:
    def test_preset_desk(self):
        cfg = run_preset("desk")
        assert cfg.model == PRESETS["desk"]
        assert cfg.optimizer.lr == pytest.approx(1e-2)
        assert cfg.epochs == 30
        assert cfg.batch_size == 4
        assert cfg.crop == (64, 64)
        assert cfg.data_root.startswith("synth:")
        cfg.validate()

    def test_preset_full_and_unknown(self):
        assert run_preset("full").model == PRESETS["full"]
        with pytest.raises(ConfigError):
            run_preset("laptop")

    def test_dict_round_trip_through_json(self):
        cfg = tiny_config("out", epochs=3)
        again = RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg

    def test_from_dict_rejects_unknown_keys(self):
        for key in ("epohcs", "optimizer.lrr", "model.stem_widht"):
            d = with_value(key, 5)
            with pytest.raises(ConfigError, match=re.escape(key)):
                RunConfig.from_dict(d)

    def test_from_dict_wrong_types_are_config_errors(self):
        for key, value in [("epochs", "x"), ("crop", ["a", 64]), ("min_foreground", "lots"),
                           ("crop", 5), ("optimizer", 5), ("model", 5)]:
            d = run_preset("desk").to_dict()
            d[key] = value
            with pytest.raises(ConfigError):
                RunConfig.from_dict(d)
        for d in (5, ["epochs"]):
            with pytest.raises(ConfigError):
                RunConfig.from_dict(d)

    @pytest.mark.parametrize("name", sorted(PRESET_DICTS))
    def test_preset_dicts_are_pinned(self, name):
        d = run_preset(name).to_dict()
        assert d == PRESET_DICTS[name]
        assert json.dumps(d) == json.dumps(PRESET_DICTS[name])   # key order too
        assert RunConfig.from_dict(d) == run_preset(name)

    def test_every_field_rejects_a_wrongly_typed_value(self):
        cases = [(key, value) for key, hint in config_fields(RunConfig)
                 for value in wrongly_typed(hint)]
        assert {"crop", "model.stage_depths", "optimizer.lr", "split.seed",
                "loss.ce_weight"} <= {key for key, _ in cases}
        # values a casting codec would read as numbers or truth values, or leave to validate()
        cases += [("val_on_train", "no"), ("epochs", 2.9), ("epochs", "3"),
                  ("optimizer.lr", "x"), ("loss.dice_weight", "a"), ("split.seed", "x"),
                  ("optimizer.beta1", None), ("model.stem_width", 16.0), ("crop", 5),
                  ("crop", [64, 64, 64])]
        for key, value in cases:
            d = with_value(key, value)
            with pytest.raises(ConfigError, match=rf"^{re.escape(key)} must be "):
                RunConfig.from_dict(d)

    def test_int_for_a_float_field_is_stored_as_a_float(self):
        d = apply_overrides(run_preset("desk").to_dict(), ["optimizer.lr=1", "min_foreground=0"])
        cfg = RunConfig.from_dict(d)
        assert type(cfg.optimizer.lr) is float and type(cfg.min_foreground) is float
        assert json.dumps(cfg.to_dict()["optimizer"]["lr"]) == "1.0"

    def test_validate_catches_each_field(self):
        base = tiny_config("out")
        bad = [
            dict(optimizer=dataclasses.replace(base.optimizer, kind="sgd")),
            dict(optimizer=dataclasses.replace(base.optimizer, lr=0.0)),
            dict(epochs=0),
            dict(batch_size=0),
            dict(val_on_train=False, split=dataclasses.replace(base.split, fraction=1.0)),
            dict(crop=(60, 64)),
            dict(loss=dataclasses.replace(base.loss, dice_weight=0.0, ce_weight=0.0)),
            dict(loss=dataclasses.replace(base.loss, dice_weight=-1.0)),
            dict(min_foreground=1.5),
            dict(data_root=""),
            dict(output_dir=""),
        ]
        for kw in bad:
            with pytest.raises(ConfigError):
                dataclasses.replace(base, **kw).validate()

    def test_val_on_train_skips_fraction_check(self):
        cfg = tiny_config("out", val_on_train=True,
                          split=dataclasses.replace(tiny_config("out").split, fraction=1.0))
        cfg.validate()

    def test_apply_overrides(self):
        d = run_preset("desk").to_dict()
        apply_overrides(d, ["optimizer.lr=0.5", "epochs=7", "crop=[32,32]",
                            "val_on_train=true", "data_root=synth:cases=2"])
        assert d["optimizer"]["lr"] == 0.5
        assert d["epochs"] == 7
        assert d["crop"] == [32, 32]
        assert d["val_on_train"] is True
        assert d["data_root"] == "synth:cases=2"

    def test_apply_overrides_errors(self):
        with pytest.raises(ConfigError):
            apply_overrides({}, ["no_equals_sign"])
        with pytest.raises(ConfigError):
            apply_overrides({"epochs": 3}, ["epochs.inner=1"])


class TestCurves:
    def rec(self, epoch, split, loss=0.5):
        return MetricRecord(epoch=epoch, split=split, loss=loss, dice=0.9,
                            iou=0.8, mean_iou=0.7, accuracy=0.95)

    def test_single_epoch_gives_header_plus_two_rows(self, tmp_path):
        path = tmp_path / "curves.csv"
        export_curves([self.rec(1, "train"), self.rec(1, "val")], path)
        text = path.read_text()
        assert text.endswith("\n")
        lines = text.splitlines()
        assert lines[0] == CURVES_HEADER
        assert len(lines) == 3
        assert lines[1].startswith("1,train,") and lines[2].startswith("1,val,")

    def test_rows_sorted_and_six_decimals(self, tmp_path):
        path = tmp_path / "curves.csv"
        records = [self.rec(2, "val"), self.rec(1, "val", loss=0.123456789),
                   self.rec(2, "train"), self.rec(1, "train")]
        export_curves(records, path)
        lines = path.read_text().splitlines()
        assert [l.split(",")[:2] for l in lines[1:]] == [
            ["1", "train"], ["1", "val"], ["2", "train"], ["2", "val"]]
        assert lines[2].split(",")[2] == "0.123457"
        for line in lines[1:]:
            for cell in line.split(",")[2:]:
                whole, frac = cell.split(".")
                assert len(frac) == 6

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            export_curves([], tmp_path / "curves.csv")


def assert_scores_match_oracles(dice, iou, miou, accuracy, pred, true):
    fg_pred, fg_true = (pred != 0).astype(np.uint8), (true != 0).astype(np.uint8)
    assert dice == oracle_dice(fg_pred, fg_true, 1)
    assert iou == oracle_iou(fg_pred, fg_true, 1)
    assert miou == oracle_mean_iou(pred, true, 4)
    assert accuracy == oracle_accuracy(pred, true)


class TestMetricAccumulator:
    def test_matches_metric_functions_on_stacked_masks(self):
        # the oracles share no code with the accumulator, unlike segforge.metrics
        for seed, classes in [(0, 4), (1, 3), (2, 1)]:
            rng = np.random.default_rng(seed)
            acc = MetricAccumulator()
            chunks_p, chunks_t = [], []
            for n in (3, 1, 5, 2, 4):
                # each batch draws from a few of the first `classes` classes
                present = rng.choice(classes, size=rng.integers(1, classes + 1), replace=False)
                p = rng.choice(present, (n, 6, 6)).astype(np.uint8)
                t = rng.choice(present, (n, 6, 6)).astype(np.uint8)
                acc.update(p, t)
                chunks_p.append(p)
                chunks_t.append(t)
            pred = np.concatenate(chunks_p)
            true = np.concatenate(chunks_t)
            rec = acc.record(1, "train")
            assert_scores_match_oracles(rec.dice, rec.iou, rec.mean_iou, rec.accuracy,
                                        pred, true)

    def test_labels_outside_classes_rejected(self):
        acc = MetricAccumulator()
        p = np.zeros((1, 2, 2), dtype=np.int64)
        with pytest.raises(ContractError):
            acc.update(p, p + 4)
        with pytest.raises(ContractError):
            acc.update(p - 1, p)

    def test_loss_average_weighted_by_batch_size(self):
        acc = MetricAccumulator()
        acc.add_loss(1.0, 3)
        acc.add_loss(0.0, 1)
        p = np.zeros((1, 2, 2), dtype=np.uint8)
        acc.update(p, p)
        assert acc.record(1, "train").loss == pytest.approx(0.75)


class TestCheckpoint:
    def make_model_and_opt(self):
        model = build_model(PRESETS["desk"])
        opt = Adam(dict(model.named_parameters()), lr=1e-2)
        x = Tensor(np.random.default_rng(0).normal(0, 1, (1, 3, 64, 64)).astype(np.float32))
        from segforge.metrics import one_hot, soft_dice_loss
        from segforge.tensor import backward
        labels = np.random.default_rng(1).integers(0, 4, (1, 64, 64)).astype(np.uint8)
        logits = model(x, training=True)
        backward(soft_dice_loss(logits, one_hot(labels, 4)))
        opt.step()
        return model, opt

    def test_round_trip_preserves_everything(self, tmp_path):
        model, opt = self.make_model_and_opt()
        path = tmp_path / "m.ckpt"
        cfg = {"model": PRESETS["desk"].to_dict(), "crop": [64, 64]}
        save_checkpoint(path, cfg, model, opt, epoch=3, best={"epoch": 2, "dice": 0.5})
        ckpt = load_checkpoint(path)
        assert ckpt.config == cfg
        assert ckpt.epoch == 3
        assert ckpt.best == {"epoch": 2, "dice": 0.5}
        assert ckpt.optimizer_step == 1
        params = ckpt.params()
        for name, p in model.named_parameters():
            np.testing.assert_array_equal(params[name], p.data)
        buffers = ckpt.buffers()
        for name, b in model.named_buffers():
            np.testing.assert_array_equal(buffers[name], b)
        state = opt.state_arrays()
        for key, arr in state.items():
            np.testing.assert_array_equal(ckpt.arrays[key], arr)

    def test_restored_model_forward_is_bit_identical(self, tmp_path):
        model, opt = self.make_model_and_opt()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {"model": PRESETS["desk"].to_dict()}, model, opt, epoch=1)
        restored = restore_model(load_checkpoint(path))
        x = Tensor(np.random.default_rng(5).normal(0, 1, (2, 3, 64, 64)).astype(np.float32))
        with no_grad():
            a = model(x, training=False)
            b = restored(x, training=False)
        np.testing.assert_array_equal(a.data, b.data)

    def test_save_without_optimizer(self, tmp_path):
        model = build_model(PRESETS["desk"])
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {"model": PRESETS["desk"].to_dict()}, model)
        ckpt = load_checkpoint(path)
        assert ckpt.optimizer_step == 0
        assert not [k for k in ckpt.arrays if k.startswith("adam.")]

    def test_format_errors(self, tmp_path):
        good = tmp_path / "good.ckpt"
        model = build_model(PRESETS["desk"])
        save_checkpoint(good, {"model": PRESETS["desk"].to_dict()}, model)
        blob = good.read_bytes()

        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"NOTACKPT" + blob[8:])
        with pytest.raises(FormatError):
            load_checkpoint(bad)
        bad.write_bytes(blob[:8] + (99).to_bytes(4, "little") + blob[12:])
        with pytest.raises(FormatError):
            load_checkpoint(bad)
        bad.write_bytes(blob[:-10])
        with pytest.raises(FormatError):
            load_checkpoint(bad)
        bad.write_bytes(blob + b"\x00")
        with pytest.raises(FormatError):
            load_checkpoint(bad)
        with pytest.raises(DataError):
            load_checkpoint(tmp_path / "missing.ckpt")

    def test_every_truncation_and_byte_flip_is_a_typed_error(self, tmp_path):
        class Small(Module):
            def __init__(self):
                self.conv = Conv2d(3, 2, 3)
                self.bn = BatchNorm2d(2)

        model = Small()
        path = tmp_path / "small.ckpt"
        save_checkpoint(path, run_preset("desk").to_dict(), model,
                        Adam(dict(model.named_parameters())), epoch=2,
                        best={"epoch": 1, "dice": 0.25})
        blob = path.read_bytes()
        bad = tmp_path / "bad.ckpt"
        for end in range(len(blob)):
            bad.write_bytes(blob[:end])
            with pytest.raises(FormatError, match="byte|not a checkpoint"):
                load_checkpoint(bad)
        rejected = 0
        for pos in range(len(blob)):
            for mask in (0x01, 0x80, 0xFF):
                flipped = bytearray(blob)
                flipped[pos] ^= mask
                bad.write_bytes(flipped)
                try:
                    load_checkpoint(bad)   # a flip inside tensor data still parses
                except DataError:          # FormatError is a DataError
                    rejected += 1
        assert rejected > len(blob)

    def test_apply_rejects_architecture_mismatch(self, tmp_path):
        model = build_model(PRESETS["desk"])
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {"model": PRESETS["desk"].to_dict()}, model)
        ckpt = load_checkpoint(path)
        other = dataclasses.replace(PRESETS["desk"], stem_width=32, reduction=4)
        from segforge.checkpoint import apply_arrays
        from segforge.model import SegmentationModel
        with pytest.raises(ConfigError):
            apply_arrays(SegmentationModel(other), ckpt)

    def test_restore_needs_model_section(self):
        ckpt = CheckpointData(config={}, arrays={}, epoch=0, best=None, optimizer_step=0)
        with pytest.raises(ConfigError):
            restore_model(ckpt)

    def test_restore_rejects_wrongly_typed_model_section(self):
        for model in (5, {"stage_depths": 5}, {"decoder_channels": None}):
            ckpt = CheckpointData(config={"model": model}, arrays={}, epoch=0, best=None,
                                  optimizer_step=0)
            with pytest.raises(ConfigError):
                restore_model(ckpt)


class TestTrainLoop:
    def test_single_epoch_writes_two_curve_rows(self, tmp_path):
        cfg = tiny_config(tmp_path / "run")
        summary = train(cfg)
        lines = Path(summary["curves"]).read_text().splitlines()
        assert lines[0] == CURVES_HEADER
        assert len(lines) == 3
        assert lines[1].startswith("1,train,") and lines[2].startswith("1,val,")
        assert Path(summary["last"]).is_file() and Path(summary["best"]).is_file()
        assert load_checkpoint(summary["last"]).epoch == 1

    def test_identical_configs_are_bit_identical(self, tmp_path):
        cfg = tiny_config(tmp_path / "run", epochs=2)
        first = train(cfg)
        curves1 = Path(first["curves"]).read_bytes()
        last1 = Path(first["last"]).read_bytes()
        second = train(tiny_config(tmp_path / "run", epochs=2))
        assert Path(second["curves"]).read_bytes() == curves1
        assert Path(second["last"]).read_bytes() == last1

    def test_config_errors_surface_before_data_loading(self, tmp_path):
        cfg = tiny_config(tmp_path / "run", data_root="/definitely/not/there",
                          epochs=0)
        with pytest.raises(ConfigError):
            train(cfg)

    def test_no_foreground_slices_is_a_data_error(self, tmp_path):
        cfg = tiny_config(tmp_path / "run",
                          data_root="synth:cases=2,seed=1,dims=8x64x64,lesions=0")
        with pytest.raises(DataError):
            train(cfg)

    def test_best_checkpoint_tracks_validation_dice(self, tmp_path):
        cfg = tiny_config(tmp_path / "run", epochs=2)
        summary = train(cfg)
        best = summary["best_record"]
        assert 1 <= best["epoch"] <= 2
        assert 0.0 <= best["dice"] <= 1.0
        assert load_checkpoint(summary["best"]).best == best

    def test_best_checkpoint_is_a_copy_of_last_after_an_improving_epoch(self, tmp_path):
        summary = train(tiny_config(tmp_path / "run"))   # the first epoch always improves
        assert Path(summary["best"]).read_bytes() == Path(summary["last"]).read_bytes()
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == [
            "best.ckpt", "curves.csv", "last.ckpt"]

    def test_overfit_loss_trend(self, overfit_run):
        by_epoch = {r.epoch: r for r in overfit_run["records"] if r.split == "train"}
        losses = [by_epoch[e].loss for e in sorted(by_epoch)]
        early = np.mean(losses[:5])
        late = np.mean(losses[-5:])
        assert late < early


@pytest.fixture(scope="module")
def split_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("split_run")
    cfg = tiny_config(out, data_root="synth:cases=4,seed=5,dims=8x64x64",
                      val_on_train=False, epochs=1)
    cfg = dataclasses.replace(cfg, split=dataclasses.replace(cfg.split, fraction=0.5))
    return train(cfg), cfg


class TestEvaluate:
    def test_report_structure_and_reference_block(self, overfit_run, tmp_path):
        cfg = overfit_run["config"]
        out_json = tmp_path / "report.json"
        report = evaluate(overfit_run["best"], cfg.data_root, split="val",
                          out_path=str(out_json), batch_size=8)
        assert report["cases"] == 4  # val_on_train run evaluates every case
        assert report["slices"] > 0
        m = report["metrics"]
        assert set(m) == {"dice_binary", "dice_per_class", "iou_binary",
                          "mean_iou", "accuracy"}
        assert len(m["dice_per_class"]) == 4
        ref = report["reference"]
        assert ref["status"] == "published, not reproduced"
        assert ref["comparison_dice"]["SeResNet152 U-Net (proposed)"] == 0.8726
        assert json.loads(out_json.read_text()) == report

    def test_metrics_recompute_exactly_from_saved_masks(self, overfit_run, tmp_path):
        cfg = overfit_run["config"]
        masks = tmp_path / "masks"
        report = evaluate(overfit_run["best"], cfg.data_root, split="all",
                          save_masks=str(masks))
        samples = load_data_root(cfg.data_root)
        preds, trues = [], []
        for cid in sorted(samples):
            preds.append(read_svol(masks / f"{cid}_pred.svol"))
            recs = extract_slices(samples[cid], cfg.crop, 0.0)
            trues.append(np.stack([r.label for r in recs]))
        pred = np.concatenate(preds)
        true = np.concatenate(trues)
        m = report["metrics"]
        assert_scores_match_oracles(m["dice_binary"], m["iou_binary"], m["mean_iou"],
                                    m["accuracy"], pred, true)
        assert m["dice_per_class"] == [oracle_dice(pred, true, c) for c in range(4)]

    def test_split_selection_replays_checkpoint_split(self, split_run):
        summary, cfg = split_run
        n_train = evaluate(summary["last"], cfg.data_root, split="train")["cases"]
        n_val = evaluate(summary["last"], cfg.data_root, split="val")["cases"]
        n_all = evaluate(summary["last"], cfg.data_root, split="all")["cases"]
        assert (n_train, n_val, n_all) == (2, 2, 4)

    def test_unknown_split_rejected(self, split_run):
        summary, cfg = split_run
        with pytest.raises(ConfigError):
            evaluate(summary["last"], cfg.data_root, split="test")

    def test_format_report_mentions_reference_status(self, overfit_run):
        cfg = overfit_run["config"]
        report = evaluate(overfit_run["best"], cfg.data_root, split="val")
        text = format_report(report)
        assert "published, not reproduced" in text
        assert "dice (binary)" in text
        assert "0.8726" in text


class TestPredict:
    def test_mask_covers_input_dims_with_crop_window(self, overfit_run, tmp_path):
        case = synth_case([98, 0], dims=(12, 80, 80), case_id="pcase")
        write_case(case, tmp_path / "cases", fmt="nii")
        out = tmp_path / "pred.svol"
        written = predict(overfit_run["best"], str(tmp_path / "cases" / "pcase"), str(out))
        mask = read_svol(out)
        assert mask.shape == (12, 80, 80)
        assert mask.dtype == np.uint8
        assert set(np.unique(mask)) <= {0, 1, 2, 3}
        # everything outside the centered 64x64 window stays background
        assert not mask[:, :8, :].any() and not mask[:, 72:, :].any()
        assert not mask[:, :, :8].any() and not mask[:, :, 72:].any()
        # NIfTI input gets a NIfTI sibling with identical voxels
        from segforge.nifti import read_nifti
        assert written["nii"] == str(out.with_suffix(".nii"))
        np.testing.assert_array_equal(read_nifti(written["nii"]), mask)

    def test_overfit_model_segments_training_case_well(self, overfit_run, tmp_path):
        cfg = overfit_run["config"]
        samples = load_data_root(cfg.data_root)
        cid = sorted(samples)[0]
        write_case(samples[cid], tmp_path / "cases", fmt="nii")
        out = tmp_path / "pred.svol"
        predict(overfit_run["best"], str(tmp_path / "cases" / cid), str(out))
        mask = read_svol(out)
        assert binary_dice(mask, samples[cid].label) > 0.9

    def test_clean_case_is_mostly_background(self, overfit_run, tmp_path):
        case = synth_case([99, 0], dims=(12, 80, 80), num_lesions=0, case_id="clean")
        write_case(case, tmp_path / "cases", fmt="nii")
        out = tmp_path / "clean.svol"
        predict(overfit_run["best"], str(tmp_path / "cases" / "clean"), str(out))
        mask = read_svol(out)
        assert float(np.mean(mask == 0)) >= 0.95

    def test_svol_case_gets_no_nifti_sibling(self, overfit_run, tmp_path):
        case = synth_case([97, 0], dims=(12, 80, 80), case_id="svcase")
        write_case(case, tmp_path / "cases", fmt="svol")
        out = tmp_path / "sv.svol"
        written = predict(overfit_run["best"], str(tmp_path / "cases" / "svcase"), str(out))
        assert "nii" not in written
        assert read_svol(out).shape == (12, 80, 80)

    def test_missing_case_and_small_planes(self, overfit_run, tmp_path):
        with pytest.raises(DataError):
            predict(overfit_run["best"], str(tmp_path / "nope"), str(tmp_path / "o.svol"))
        small = synth_case([96, 0], dims=(8, 64, 64), case_id="small")
        # shrink below the 64x64 crop by writing 32x32 planes directly
        tinydir = tmp_path / "cases" / "tiny"
        tinydir.mkdir(parents=True)
        from segforge.svol import write_svol
        for m in MODALITIES:
            write_svol(tinydir / f"{m}.svol", np.ones((4, 32, 32), dtype=np.float32))
        with pytest.raises(DataError):
            predict(overfit_run["best"], str(tinydir), str(tmp_path / "t.svol"))
