"""Optimizer, run config, curves, checkpoints, and the train/eval/predict loops."""

import dataclasses
import gzip
import importlib
import json
import math
import re
import struct
import tracemalloc
import typing
import weakref
from pathlib import Path

import numpy as np
import pytest

import segforge.data as data_module
from segforge.checkpoint import (CheckpointData, apply_arrays, load_checkpoint,
                                 model_arrays, restore_model, save_checkpoint)
from segforge.data import (MODALITIES, extract_slices, load_data_root,
                           synth_case, write_case, write_volume)
from segforge.errors import (BinaryReader, ConfigError, ContractError, DataError,
                             FormatError, NumericError, ShapeError)
from segforge.layers import BatchNorm2d, Conv2d, Module
from segforge.metrics import binary_dice, cross_entropy_loss, one_hot, soft_dice_loss
from segforge.model import PRESETS, ConfigDocument, build_model
from segforge.optim import CHUNK, Adam
from segforge.svol import read_svol
from segforge.tensor import Tensor, no_grad
from segforge.nifti import read_nifti, read_spacing
from segforge.train import (CURVES_HEADER, LossConfig, MetricAccumulator, MetricRecord,
                            PUBLISHED_REFERENCE, RunConfig, _combined_loss, _eval_batches,
                            apply_overrides, evaluate, export_curves, format_report,
                            predict, run_preset, train)

from oracles import (oracle_accuracy, oracle_dice, oracle_iou,
                     oracle_mean_iou, reference_adam_step)

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
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConfigError, match="^optimizer.lr must be finite"):
                Adam(p, lr=bad)
            with pytest.raises(ConfigError, match="^optimizer.eps must be finite"):
                Adam(p, eps=bad)
        for bad in (0.0, -1.0):
            with pytest.raises(ConfigError, match="^optimizer.eps must be > 0"):
                Adam(p, eps=bad)


def assert_model_only(model_only, full):
    """`model_only` is `full` without its adam.* entries, bit for bit."""
    assert (model_only.config, model_only.epoch, model_only.best, model_only.optimizer_step) \
        == (full.config, full.epoch, full.best, full.optimizer_step)
    want = {k: v for k, v in full.arrays.items() if not k.startswith("adam.")}
    assert list(model_only.arrays) == list(want)
    assert all(same_bits(model_only.arrays[k], v) for k, v in want.items())


def same_bits(a, b):
    """Equal dtype, shape and bytes: signed zeros must match too."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestChunkedAdam:
    """Adam.step walks parameters in CHUNK-element pieces, bit-identical to whole arrays."""

    SIZES = {"below": (CHUNK - 1,), "at": (CHUNK,), "above": (CHUNK + 1,),
             "many": (3 * CHUNK + 7,), "conv": (4, 3, 3, 3), "nograd": (CHUNK + 5,)}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_steps_equal_whole_array_reference(self, dtype):
        rng = np.random.default_rng(11)
        params, ref, state = {}, {}, {}
        for name, shape in self.SIZES.items():
            params[name] = Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)
            ref[name] = params[name].data.copy()
            # resumed moments holding -0.0, which a zero gradient's +0.0 term clears
            m = rng.standard_normal(shape).astype(dtype) * dtype(1e-3)
            m.reshape(-1)[::5] = -0.0
            v = np.abs(rng.standard_normal(shape)).astype(dtype) * dtype(1e-6)
            v.reshape(-1)[::3] = 0.0
            state[f"adam.m:{name}"], state[f"adam.v:{name}"] = m, v
        opt = Adam(params, lr=1e-3)
        opt.load_state(state, step_count=3)
        ref_m = {n: state[f"adam.m:{n}"].copy() for n in params}
        ref_v = {n: state[f"adam.v:{n}"].copy() for n in params}
        for t in range(4, 9):
            grads = {}
            for name, p in params.items():
                scale = 10.0 ** rng.integers(-6, 3)
                grads[name] = None if name == "nograd" else \
                    (rng.standard_normal(p.shape) * scale).astype(dtype)
                p.grad = grads[name]
            opt.step()
            reference_adam_step(ref, grads, ref_m, ref_v, t, lr=1e-3)
            for name, p in params.items():
                assert same_bits(p.data, ref[name]), (name, t)
                assert same_bits(opt.m[name], ref_m[name]), (name, t)
                assert same_bits(opt.v[name], ref_v[name]), (name, t)
        m = opt.m["nograd"]
        assert not np.any((m == 0) & np.signbit(m))     # -0.0*b1 + 0.0 is +0.0

    def test_nonfinite_gradient_leaves_that_parameter_untouched(self):
        rng = np.random.default_rng(3)
        params = {name: Tensor(rng.standard_normal(CHUNK + 3).astype(np.float32),
                               requires_grad=True) for name in ("a", "b")}
        opt = Adam(params, lr=1e-2)
        for p in params.values():
            p.grad = rng.standard_normal(p.shape).astype(np.float32)
        opt.step()
        before = [a.copy() for a in (params["b"].data, opt.m["b"], opt.v["b"])]
        for p in params.values():   # step 1 freed its gradients
            p.grad = rng.standard_normal(p.shape).astype(np.float32)
        params["b"].grad[CHUNK + 1] = np.nan    # in the second chunk
        with pytest.raises(NumericError,
                           match=r"^non-finite gradient for parameter 'b' at step 2$"):
            opt.step()
        after = (params["b"].data, opt.m["b"], opt.v["b"])
        assert all(same_bits(x, y) for x, y in zip(before, after))

    @pytest.mark.parametrize("fault", ["nan", "shape"])
    def test_failed_step_leaves_every_parameter_untouched(self, fault):
        rng = np.random.default_rng(4)
        params = {name: Tensor(rng.standard_normal(CHUNK + 3).astype(np.float32),
                               requires_grad=True) for name in ("a", "b", "c")}
        opt = Adam(params, lr=1e-2)
        for p in params.values():
            p.grad = rng.standard_normal(p.shape).astype(np.float32)
        opt.step()
        before = {n: [a.copy() for a in (p.data, opt.m[n], opt.v[n])] for n, p in params.items()}
        for p in params.values():   # step 1 freed its gradients
            p.grad = rng.standard_normal(p.shape).astype(np.float32)
        if fault == "nan":
            params["c"].grad[-1] = np.nan
            error = pytest.raises(NumericError,
                                  match=r"^non-finite gradient for parameter 'c' at step 2$")
        else:
            params["c"].grad = params["c"].grad[:-1]
            error = pytest.raises(ShapeError, match="'c'")
        grads = {n: (p.grad, p.grad.copy()) for n, p in params.items()}
        with error:
            opt.step()
        assert opt.step_count == 1
        for n, p in params.items():
            assert all(same_bits(x, y) for x, y in zip(before[n], (p.data, opt.m[n], opt.v[n]))), n
            # a refused step frees nothing: each .grad is the same array, unchanged
            assert p.grad is grads[n][0] and same_bits(p.grad, grads[n][1]), n

    def test_step_frees_every_gradient(self):
        rng = np.random.default_rng(6)
        params = {name: Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
                  for name, shape in self.SIZES.items()}
        opt = Adam(params, lr=1e-2)
        for step in (1, 2):
            for name, p in params.items():
                p.grad = None if name == "nograd" else \
                    rng.standard_normal(p.shape).astype(np.float32)
            freed = [weakref.ref(p.grad) for p in params.values() if p.grad is not None]
            opt.step()
            assert opt.step_count == step
            assert all(p.grad is None for p in params.values())
            assert all(ref() is None for ref in freed)   # nothing else holds them

    def test_fortran_ordered_moments_are_updated_in_place(self):
        rng = np.random.default_rng(5)
        w = rng.standard_normal((CHUNK // 100, 300)).astype(np.float32)
        p = Tensor(w, requires_grad=True)
        ref, m, v = w.copy(), np.full_like(w, 1e-3), np.full_like(w, 1e-6)
        opt = Adam({"w": p}, lr=1e-3)
        opt.load_state({"adam.m:w": np.asfortranarray(m), "adam.v:w": np.asfortranarray(v)}, 1)
        ref_m, ref_v = {"w": m.copy()}, {"w": v.copy()}
        g = rng.standard_normal(w.shape).astype(np.float32)
        p.grad = g
        opt.step()
        reference_adam_step({"w": ref}, {"w": g}, ref_m, ref_v, 2, lr=1e-3)
        assert same_bits(p.data, ref)
        assert same_bits(opt.m["w"], ref_m["w"]) and same_bits(opt.v["w"], ref_v["w"])

    def test_gradient_of_another_shape_is_rejected(self):
        p = Tensor(np.zeros((2, 3)), requires_grad=True)
        opt = Adam({"w": p})
        p.grad = np.zeros(6)
        with pytest.raises(ShapeError, match="'w'"):
            opt.step()


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
            lambda: dict(optimizer=dataclasses.replace(base.optimizer, kind="sgd")),
            lambda: dict(optimizer=dataclasses.replace(base.optimizer, lr=0.0)),
            lambda: dict(epochs=0),
            lambda: dict(batch_size=0),
            lambda: dict(val_on_train=False, split=dataclasses.replace(base.split, fraction=1.0)),
            lambda: dict(crop=(60, 64)),
            lambda: dict(loss=dataclasses.replace(base.loss, dice_weight=0.0, ce_weight=0.0)),
            lambda: dict(loss=dataclasses.replace(base.loss, dice_weight=-1.0)),
            lambda: dict(min_foreground=1.5),
            lambda: dict(data_root=""),
            lambda: dict(output_dir=""),
            lambda: dict(optimizer=dataclasses.replace(base.optimizer, beta1=1.5)),
            lambda: dict(optimizer=dataclasses.replace(base.optimizer, beta2=1.0)),
            lambda: dict(optimizer=dataclasses.replace(base.optimizer, beta1=-0.1)),
            lambda: dict(model=dataclasses.replace(base.model, num_classes=3)),
            lambda: dict(model=dataclasses.replace(base.model, num_classes=5)),
            lambda: dict(model=dataclasses.replace(base.model, in_channels=4)),
        ]
        for kw in bad:
            with pytest.raises(ConfigError):
                dataclasses.replace(base, **kw()).validate()

    @pytest.mark.parametrize("override", ["optimizer.beta1=1.5", "model.num_classes=3",
                                          "model.in_channels=4"])
    def test_train_refuses_before_loading_data(self, tmp_path, monkeypatch, override):
        # `segforge.train` the attribute is the function, so fetch the module
        module = importlib.import_module("segforge.train")
        calls = []
        monkeypatch.setattr(module, "load_data_root", lambda *args: calls.append(args))
        d = apply_overrides(tiny_config(tmp_path / "run").to_dict(), [override])
        with pytest.raises(ConfigError):
            train(RunConfig.from_dict(d))
        assert calls == []
        assert not (tmp_path / "run").exists()

    def test_validate_rejects_non_finite_floats(self):
        keys = [key for key, hint in config_fields(RunConfig) if hint is float]
        assert {"optimizer.lr", "optimizer.eps", "loss.dice_weight", "split.fraction",
                "min_foreground"} <= set(keys)
        for key in keys:
            for value in (float("nan"), float("inf"), float("-inf")):
                with pytest.raises(ConfigError, match=rf"^{re.escape(key)} must be finite"):
                    RunConfig.from_dict(with_value(key, value)).validate()

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
        for name, p in model.named_parameters():
            np.testing.assert_array_equal(ckpt.arrays[f"param:{name}"], p.data)
        for name, b in model.named_buffers():
            np.testing.assert_array_equal(ckpt.arrays[f"buffer:{name}"], b)
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
        modes = (True, False)   # optimizer_state: moments read, or skipped
        for end in range(len(blob)):
            bad.write_bytes(blob[:end])
            for mode in modes:
                with pytest.raises(FormatError, match="byte|not a checkpoint"):
                    load_checkpoint(bad, optimizer_state=mode)
        rejected = dict.fromkeys(modes, 0)
        for pos in range(len(blob)):
            for mask in (0x01, 0x80, 0xFF):
                flipped = bytearray(blob)
                flipped[pos] ^= mask
                bad.write_bytes(flipped)
                loaded = {}
                for mode in modes:
                    try:
                        loaded[mode] = load_checkpoint(bad, optimizer_state=mode)
                    except DataError:   # FormatError is a DataError
                        rejected[mode] += 1
                if True in loaded:   # the model-only load refuses no file the full one takes
                    assert False in loaded, (pos, mask)
                if len(loaded) == 2:    # a flip inside tensor data still parses
                    assert_model_only(loaded[False], loaded[True])
        assert min(rejected.values()) > len(blob)

    def test_model_only_load_skips_the_moments(self, tmp_path):
        model, opt = self.make_model_and_opt()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {"model": PRESETS["desk"].to_dict()}, model, opt, epoch=1)
        full = load_checkpoint(path)
        tracemalloc.start()
        try:
            model_only = load_checkpoint(path, optimizer_state=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_model_only(model_only, full)
        model_bytes = sum(a.nbytes for a in model_arrays(model).values())
        assert peak < 1.25 * model_bytes < 0.5 * path.stat().st_size, peak
        # a model-only load still reads to the end: bytes past the last moment are refused
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="1 trailing bytes"):
            load_checkpoint(path, optimizer_state=False)

    @pytest.mark.parametrize("dims", [[1] * 65, [0] + [2**32 - 1] * 3],
                             ids=["too_many_dims", "zero_size_overflow"])
    def test_a_bad_shape_is_refused_whether_read_or_skipped(self, tmp_path, dims):
        config, meta = b"{}", json.dumps({"epoch": 0, "optimizer_step": 0}).encode()
        entry = (struct.pack("<I7sBB", 7, b"adam.m:", 0, len(dims))
                 + struct.pack(f"<{len(dims)}I", *dims) + b"\x00" * 4 * math.prod(dims))
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"SEGCKPT1" + struct.pack("<II", 1, len(config)) + config
                         + struct.pack("<I", len(meta)) + meta + struct.pack("<I", 1) + entry)
        payload_at = path.stat().st_size - 4 * math.prod(dims)
        for mode in (True, False):
            with pytest.raises(FormatError, match=rf"^bad shape .* of tensor 'adam\.m:' "
                                                  rf"at byte {payload_at} "):
                load_checkpoint(path, optimizer_state=mode)

    @pytest.mark.parametrize("gz", [False, True])
    def test_skipped_moment_cut_short_names_its_byte(self, tmp_path, gz):
        model, opt = self.make_model_and_opt()
        plain = tmp_path / "m.ckpt"
        save_checkpoint(plain, {"model": PRESETS["desk"].to_dict()}, model, opt)
        blob = plain.read_bytes()
        # a path ending in .gz is read gunzipped, so a skip inflates rather than seeks
        path = tmp_path / ("x.ckpt.gz" if gz else "x.ckpt")
        pack = (lambda b: gzip.compress(b, compresslevel=1, mtime=0)) if gz else bytes
        path.write_bytes(pack(blob))
        assert_model_only(load_checkpoint(path, optimizer_state=False), load_checkpoint(plain))
        path.write_bytes(pack(blob[:-1]))   # one byte short of the last moment's payload
        with pytest.raises(FormatError, match=r"^truncated tensor 'adam\.v:head\.bias' "
                                              rf"from byte {len(blob) - 16} "):
            load_checkpoint(path, optimizer_state=False)

    def test_apply_rejects_architecture_mismatch(self, tmp_path):
        model = build_model(PRESETS["desk"])
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {"model": PRESETS["desk"].to_dict()}, model)
        ckpt = load_checkpoint(path)
        other = dataclasses.replace(PRESETS["desk"], stem_width=32, reduction=4)
        from segforge.model import SegmentationModel
        with pytest.raises(ConfigError):
            apply_arrays(SegmentationModel(other), ckpt)

    @pytest.mark.parametrize("fault", ["missing", "extra", "buffer_shape"])
    def test_apply_rejects_a_mismatch_before_copying(self, tmp_path, fault):
        source, _ = self.make_model_and_opt()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {"model": PRESETS["desk"].to_dict()}, source)
        ckpt = load_checkpoint(path)
        key = {"missing": "param:head.bias", "extra": "buffer:head.extra",
               "buffer_shape": "buffer:decoder.4.bn2.running_var"}[fault]
        if fault == "missing":
            del ckpt.arrays[key]
        else:   # the last buffer walked, so every parameter comes before it
            ckpt.arrays[key] = np.zeros(3, dtype=np.float32)
        target = build_model(PRESETS["desk"])
        before = {k: v.copy() for k, v in model_arrays(target).items()}
        with pytest.raises(ConfigError, match=re.escape(key)):
            apply_arrays(target, ckpt)
        after = model_arrays(target)
        assert after.keys() == before.keys()
        for k, arr in before.items():
            np.testing.assert_array_equal(after[k], arr)

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
        with pytest.raises(ConfigError):
            train(tiny_config(tmp_path / "run", data_root="/definitely/not/there", epochs=0))

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

    def test_combined_loss_takes_labels_and_weights_both_terms(self):
        rng = np.random.default_rng(3)
        logits = Tensor(rng.standard_normal((2, 4, 8, 8)).astype(np.float32))
        labels = rng.integers(0, 4, (2, 8, 8)).astype(np.uint8)
        target = one_hot(labels, 4)
        got = _combined_loss(logits, labels, LossConfig(dice_weight=0.5, ce_weight=2.0))
        want = soft_dice_loss(logits, target) * 0.5 + cross_entropy_loss(logits, target) * 2.0
        assert got.data.tobytes() == want.data.tobytes()
        dice_only = _combined_loss(logits, labels, LossConfig())
        assert dice_only.data.tobytes() == soft_dice_loss(logits, target).data.tobytes()

    def test_eval_batches_hand_the_model_views_of_the_slices(self):
        slices = extract_slices(synth_case(2, dims=(10, 64, 64)), (64, 64), 0.0)
        seen = []

        def model(x, training):
            assert not training
            seen.append(x.data)
            return Tensor(np.zeros((x.shape[0], 4) + x.shape[2:], dtype=np.float32))

        with no_grad():
            batches = [batch for batch, _, _ in _eval_batches(model, slices, 4)]
        assert [len(x) for x in seen] == [4, 4, 2]
        assert all(np.shares_memory(x, slices.images) for x in seen)
        assert all(np.shares_memory(b.labels, slices.labels) for b in batches)


@pytest.fixture(scope="module")
def split_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("split_run")
    cfg = tiny_config(out, data_root="synth:cases=4,seed=5,dims=8x64x64",
                      val_on_train=False, epochs=1)
    cfg = dataclasses.replace(cfg, split=dataclasses.replace(cfg.split, fraction=0.5))
    return train(cfg), cfg


@pytest.mark.parametrize("command", ["evaluate", "predict"])
def test_inference_reads_no_optimizer_moment(overfit_run, tmp_path, monkeypatch, command):
    real, fields = BinaryReader.array, []

    def spy(self, dtype, dims, field, at=None):
        fields.append(field)
        return real(self, dtype, dims, field, at)

    monkeypatch.setattr(BinaryReader, "array", spy)
    if command == "evaluate":
        evaluate(overfit_run["best"], TINY_ROOT, split="all", out_path=str(tmp_path / "r.json"))
    else:
        write_case(synth_case([98, 0], dims=(8, 64, 64), case_id="c"), tmp_path, fmt="svol")
        predict(overfit_run["best"], str(tmp_path / "c"), str(tmp_path / "m.svol"))
    tensors = [f for f in fields if f.startswith("tensor ")]
    assert tensors and not [f for f in tensors if f.startswith("tensor 'adam.")]
    # the file holds moments, which a full load reads
    assert any(k.startswith("adam.") for k in load_checkpoint(overfit_run["best"]).arrays)


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
        samples = load_data_root(cfg.data_root, cfg.crop)
        preds, trues = [], []
        for cid in sorted(samples):
            preds.append(read_svol(masks / f"{cid}_pred.svol"))
            trues.append(extract_slices(samples[cid], cfg.crop, 0.0).labels)
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

    def test_loads_one_case_at_a_time(self, overfit_run, tmp_path, monkeypatch):
        root = tmp_path / "cases"
        for i, cid in enumerate(("ca", "cb", "cc")):
            write_case(synth_case([95, i], dims=(8, 64, 64), case_id=cid), root)
        alive, most = [], []
        real_load_case = data_module.load_case

        def counting_load_case(*args, **kwargs):
            sample = real_load_case(*args, **kwargs)
            alive.append(weakref.ref(sample))
            most.append(sum(ref() is not None for ref in alive))
            return sample

        monkeypatch.setattr(data_module, "load_case", counting_load_case)
        report = evaluate(overfit_run["best"], str(root), split="all")
        assert report["cases"] == 3
        assert most == [1, 1, 1]

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
        samples = load_data_root(cfg.data_root, cfg.crop)
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

    @pytest.mark.parametrize("nifti", ["t1ce", "t2"])
    def test_mixed_format_case_gets_a_sibling_with_the_nifti_spacing(self, overfit_run,
                                                                     tmp_path, nifti):
        case = synth_case([93, 0], dims=(12, 80, 80), case_id="mixed")
        case_dir = write_case(case, tmp_path / "cases", fmt="svol")
        (case_dir / f"{nifti}.svol").unlink()
        nii = case_dir / f"mixed_{nifti}.nii"
        write_volume(nii, case.modalities[nifti], spacing=(2.0, 1.5, 0.5))
        out = tmp_path / "mixed.svol"
        written = predict(overfit_run["best"], str(case_dir), str(out))
        assert written["nii"] == str(out.with_suffix(".nii"))
        np.testing.assert_array_equal(read_nifti(written["nii"]), read_svol(out))
        assert read_spacing(written["nii"]) == read_spacing(nii) == (2.0, 1.5, 0.5)

    def test_svol_case_gets_no_nifti_sibling(self, overfit_run, tmp_path):
        case = synth_case([97, 0], dims=(12, 80, 80), case_id="svcase")
        write_case(case, tmp_path / "cases", fmt="svol")
        out = tmp_path / "sv.svol"
        written = predict(overfit_run["best"], str(tmp_path / "cases" / "svcase"), str(out))
        assert "nii" not in written
        assert read_svol(out).shape == (12, 80, 80)

    def test_corrupt_seg_is_not_read(self, overfit_run, tmp_path):
        case = synth_case([94, 0], dims=(12, 80, 80), case_id="cseg")
        case_dir = write_case(case, tmp_path / "cases", fmt="nii")
        intact = predict(overfit_run["best"], str(case_dir), str(tmp_path / "a.svol"))
        seg = case_dir / "cseg_seg.nii"
        seg.write_bytes(seg.read_bytes()[:-100])
        corrupt = predict(overfit_run["best"], str(case_dir), str(tmp_path / "b.svol"))
        for key in ("svol", "nii"):
            assert Path(corrupt[key]).read_bytes() == Path(intact[key]).read_bytes()
        with pytest.raises(FormatError, match="cseg_seg.nii"):
            evaluate(overfit_run["best"], str(tmp_path / "cases"), split="all")

    def test_output_must_be_svol(self, tmp_path):
        # refused before the checkpoint or the case is looked at: neither exists
        out = tmp_path / "mask.nii"
        with pytest.raises(ConfigError, match="mask.nii"):
            predict(str(tmp_path / "no.ckpt"), str(tmp_path / "no_case"), str(out))
        assert not out.exists()

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
