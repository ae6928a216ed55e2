"""Acceptance suite: eight go/no-go checks, one printed verdict line each.

Each test prints `[PASS]`/`[FAIL] criterion N: ...` with capture suspended so
the verdicts reach the real stdout, then asserts.
"""

import dataclasses
import time
from pathlib import Path

import numpy as np
import pytest

from segforge.checkpoint import load_checkpoint, restore_model, save_checkpoint
from segforge.data import split_dataset
from segforge.errors import ContractError
from segforge.layers import (batch_norm, conv2d, dense, global_avg_pool,
                             maxpool2d, upsample_nearest)
from segforge.metrics import (dice_score, iou_score, mean_iou, one_hot,
                              pixel_accuracy, soft_dice_loss)
from segforge.model import (PRESETS, Bottleneck, ModelConfig, SEBlock,
                            build_model)
from segforge.svol import read_svol, write_svol
from segforge.tensor import Tensor, no_grad
from segforge.train import PUBLISHED_REFERENCE, evaluate, train

from oracles import (grad_check, he_init_module, oracle_accuracy, oracle_dice,
                     oracle_iou, oracle_mean_iou, screened_bottleneck_instances)
from test_data import build_nifti_bytes


def randt(seed, *dims, scale=1.0):
    rng = np.random.default_rng(seed)
    return Tensor((rng.normal(0, 1, dims) * scale).astype(np.float64),
                  requires_grad=True)


class TestAcceptance:
    @pytest.fixture(autouse=True)
    def _verdict_stream(self, capfd):
        self._capfd = capfd

    def announce(self, num: int, title: str, ok: bool, detail: str = "") -> None:
        verdict = "PASS" if ok else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        with self._capfd.disabled():
            print(f"\n[{verdict}] criterion {num}: {title}{suffix}", flush=True)
        assert ok, f"criterion {num} failed: {title}{suffix}"

    def test_criterion_1_reference_constants_labeled_not_asserted(self, overfit_run):
        ref = PUBLISHED_REFERENCE
        ok = (
            ref["status"] == "published, not reproduced"
            and ref["comparison_dice"]["SeResNet152 U-Net (proposed)"] == 0.8726
            and ref["comparison_dice"]["AMMGS"] == 0.8172
            and ref["comparison_dice"]["Encoder-Decoder with VAE"] == 0.8154
            and ref["comparison_dice"]["SLIC"] == 0.8593
            and ref["reported_metrics"] == {"dice": 0.87, "iou": 0.88,
                                            "mean_iou": 0.82, "accuracy": 0.8912}
            and "not reproduce" in ref["note"]
        )
        # the constants ride along in every evaluation report
        cfg = overfit_run["config"]
        report = evaluate(overfit_run["best"], cfg.data_root, split="val")
        ok = ok and report["reference"] is ref
        self.announce(1, "headline results are labeled reference constants, "
                    "never asserted as reproduced", ok)

    def test_criterion_2_gradient_suite(self):
        start = time.perf_counter()
        worst: dict[str, float] = {}

        def check(family, err):
            worst[family] = max(worst.get(family, 0.0), err)

        for seed in range(10):
            x = randt(seed, 1, 2, 6, 6)
            w = randt(seed + 100, 3, 2, 3, 3)
            b = randt(seed + 200, 3)
            stride, padding = 1 + seed % 2, seed % 3
            check("conv2d", grad_check(
                lambda: conv2d(x, w, b, stride=stride, padding=padding).sum(), [x, w, b]))

        for seed in range(10):
            x = randt(seed, 2, 3, 4, 4, scale=2.0)
            gamma = randt(seed + 100, 3)
            beta = randt(seed + 200, 3)
            rng = np.random.default_rng(seed)
            rm = rng.normal(0, 0.3, 3)
            rv = rng.uniform(0.5, 2.0, 3)
            check("batchnorm", grad_check(
                lambda: batch_norm(x, gamma, beta, rm.copy(), rv.copy(),
                                   update_running=False).sum(),
                [x, gamma, beta]))

        for seed in range(10):
            x = randt(seed, 2, 2, 7, 7, scale=3.0)
            check("maxpool", grad_check(lambda: maxpool2d(x, 3, 2, 1).sum(), [x]))

        for seed in range(10):
            x = randt(seed, 2, 3, 4, 4)
            check("global_pool", grad_check(
                lambda: (global_avg_pool(x) * global_avg_pool(x)).sum(), [x]))

        for seed in range(10):
            x = randt(seed, 2, 3, 3, 3)
            check("upsample", grad_check(
                lambda: (upsample_nearest(x, 2) * upsample_nearest(x, 2)).sum(), [x]))

        for seed in range(10):
            x = randt(seed, 3, 5)
            w = randt(seed + 100, 5, 4)
            b = randt(seed + 200, 4)
            check("dense", grad_check(lambda: (dense(x, w, b) * dense(x, w, b)).sum(),
                                      [x, w, b]))

        for seed in range(10):
            se = SEBlock(4, 2)
            params = he_init_module(se, seed)
            x = randt(seed + 300, 2, 4, 3, 3)
            check("se_block", grad_check(lambda: (se(x) * se(x)).sum(), [x] + params))

        for block, x, params in screened_bottleneck_instances(10):
            check("bottleneck", grad_check(
                lambda: (block(x, training=True) * 1.0).sum(), [x] + params))

        for seed in range(10):
            rng = np.random.default_rng(seed)
            logits = Tensor(rng.normal(0, 1.5, (2, 3, 4, 4)), requires_grad=True)
            labels = rng.integers(0, 3, (2, 4, 4)).astype(np.uint8)
            oh = one_hot(labels, 3, dtype=np.float64)
            check("soft_dice", grad_check(lambda: soft_dice_loss(logits, oh), [logits]))

        elapsed = time.perf_counter() - start
        peak = max(worst.values())
        ok = peak < 1e-4 and elapsed < 180.0 and len(worst) == 9
        self.announce(2, "finite-difference gradients for all nine layer families",
                 ok, f"10 seeds each, worst rel err {peak:.2e}, {elapsed:.1f}s")

    def test_criterion_3_metric_oracle_equivalence(self):
        rng = np.random.default_rng(2024)
        exact = True
        for _ in range(200):
            pred = rng.integers(0, 4, (8, 8)).astype(np.uint8)
            target = rng.integers(0, 4, (8, 8)).astype(np.uint8)
            for cls in range(4):
                exact &= dice_score(pred, target, cls) == oracle_dice(pred, target, cls)
                exact &= iou_score(pred, target, cls) == oracle_iou(pred, target, cls)
            exact &= mean_iou(pred, target, 4) == oracle_mean_iou(pred, target, 4)
            exact &= pixel_accuracy(pred, target) == oracle_accuracy(pred, target)

        worst_gap = 0.0
        for seed in range(200):
            r = np.random.default_rng(seed)
            pred = r.integers(0, 2, (8, 8)).astype(np.uint8)
            target = r.integers(0, 2, (8, 8)).astype(np.uint8)
            d = dice_score(pred, target, 1)
            j = iou_score(pred, target, 1)
            worst_gap = max(worst_gap, abs(d - 2.0 * j / (1.0 + j)))

        ok = exact and worst_gap <= 1e-12
        self.announce(3, "metrics match the pixel-counting oracle on 200 mask pairs "
                    "and Dice = 2*IoU/(1+IoU)", ok,
                 f"identity gap {worst_gap:.1e}")

    def test_criterion_4_architecture_shape_contract(self):
        full_cfg = PRESETS["full"]
        ok = full_cfg.tap_channels == (64, 256, 512, 1024, 2048)
        ok = ok and full_cfg.stage_depths == (3, 8, 36, 3)

        full = build_model(full_cfg)
        x = Tensor(np.random.default_rng(0).normal(0, 1, (1, 3, 128, 128)).astype(np.float32))
        start = time.perf_counter()
        with no_grad():
            taps = full.encoder(x)
            out = full(x)
        elapsed = time.perf_counter() - start
        ok = ok and out.shape == (1, 4, 128, 128)
        ok = ok and tuple(t.shape[1] for t in taps) == (64, 256, 512, 1024, 2048)
        ok = ok and elapsed < 60.0

        desk = build_model(PRESETS["desk"])
        xd = Tensor(np.random.default_rng(1).normal(0, 1, (2, 3, 64, 64)).astype(np.float32))
        with no_grad():
            outd = desk(xd)
        ok = ok and outd.shape == (2, 4, 64, 64)
        self.announce(4, "full-width and desk forward shapes with "
                    "64/256/512/1024/2048 encoder taps", ok,
                 f"full forward {elapsed:.1f}s")

    def test_criterion_5_se_and_residual_invariants(self):
        rng = np.random.default_rng(0)

        se = SEBlock(8, 4)
        for p in se.parameters():
            p.data[...] = rng.normal(0, 0.5, p.shape)
        x = Tensor(np.abs(rng.normal(0, 1, (3, 8, 5, 5))) + 0.1)
        with no_grad():
            gate = se(x).data / x.data
        gates_open = bool(np.all(gate > 0.0) and np.all(gate < 1.0))

        block = Bottleneck(16, 4, stride=1, reduction=4)  # all conv weights zero
        xb = Tensor(rng.normal(0, 1, (2, 16, 6, 6)).astype(np.float32))
        with no_grad():
            yb = block(xb, training=False)
        identity_exact = bool(np.array_equal(yb.data, np.maximum(xb.data, 0.0)))

        se2 = SEBlock(8, 4)  # fc2 weight/bias zero -> sigmoid(0) = 0.5
        se2.fc1.weight.data[...] = rng.normal(0, 0.5, se2.fc1.weight.shape)
        se2.fc1.bias.data[...] = rng.normal(0, 0.5, se2.fc1.bias.shape)
        x2 = Tensor(rng.normal(0, 1, (2, 8, 4, 4)).astype(np.float32))
        with no_grad():
            halved_exact = bool(np.array_equal(se2(x2).data, x2.data * np.float32(0.5)))

        ok = gates_open and identity_exact and halved_exact
        self.announce(5, "SE gates in (0,1); zero-residual block = relu(x); "
                    "zeroed second SE layer halves activations", ok)

    def test_criterion_6_overfit_convergence(self, overfit_run):
        cfg = overfit_run["config"]
        setup_ok = (cfg.model.stage_depths == (1, 1, 1, 1)
                    and cfg.epochs == 30
                    and cfg.seed == 1
                    and cfg.data_root == "synth:cases=4,seed=1"
                    and cfg.val_on_train)
        final = {r.split: r for r in overfit_run["records"] if r.epoch == cfg.epochs}
        train_dice = final["train"].dice
        val_dice = final["val"].dice
        gap = abs(val_dice - train_dice)
        elapsed = overfit_run["elapsed"]
        ok = setup_ok and train_dice >= 0.95 and gap <= 0.02 and elapsed < 600.0
        self.announce(6, "desk preset overfits 4 synthetic cases in 30 epochs", ok,
                 f"train dice {train_dice:.4f}, val gap {gap:.4f}, {elapsed:.0f}s")

    def test_criterion_7_determinism_and_persistence(self, tmp_path):
        cfg_kwargs = dict(seed=4, val_on_train=True, epochs=1,
                          data_root="synth:cases=2,seed=3,dims=8x64x64",
                          output_dir=str(tmp_path / "run"))
        from segforge.train import run_preset
        first = train(dataclasses.replace(run_preset("desk"), **cfg_kwargs))
        curves1 = Path(first["curves"]).read_bytes()
        ckpt1 = Path(first["last"]).read_bytes()
        second = train(dataclasses.replace(run_preset("desk"), **cfg_kwargs))
        runs_identical = (Path(second["curves"]).read_bytes() == curves1
                          and Path(second["last"]).read_bytes() == ckpt1)

        model = build_model(PRESETS["desk"])
        ckpt_path = tmp_path / "rt.ckpt"
        save_checkpoint(ckpt_path, {"model": PRESETS["desk"].to_dict()}, model)
        restored = restore_model(load_checkpoint(ckpt_path))
        x = Tensor(np.random.default_rng(0).normal(0, 1, (2, 3, 64, 64)).astype(np.float32))
        with no_grad():
            forward_identical = bool(np.array_equal(model(x).data, restored(x).data))

        rng = np.random.default_rng(1)
        svol_ok = True
        for arr in (rng.normal(0, 1, (3, 4, 5)).astype(np.float32),
                    rng.integers(0, 4, (2, 6, 6)).astype(np.uint8),
                    rng.integers(-500, 500, (4, 4, 4)).astype(np.int16)):
            write_svol(tmp_path / "t.svol", arr)
            back = read_svol(tmp_path / "t.svol")
            svol_ok = svol_ok and back.dtype == arr.dtype and np.array_equal(back, arr)

        from segforge.nifti import read_nifti, write_nifti
        fixture = np.arange(8, dtype=np.uint8).reshape(2, 2, 2)
        (tmp_path / "hand.nii").write_bytes(build_nifti_bytes(fixture))
        hand_ok = np.array_equal(read_nifti(tmp_path / "hand.nii"), fixture)
        vol = rng.integers(0, 900, (3, 5, 4)).astype(np.int16)
        write_nifti(tmp_path / "w.nii", vol, spacing=(2.0, 1.0, 0.5))
        nifti_ok = hand_ok and np.array_equal(read_nifti(tmp_path / "w.nii"), vol)

        ok = runs_identical and forward_identical and svol_ok and nifti_ok
        self.announce(7, "seeded runs, checkpoints and volume containers are "
                    "bit-exact round trips", ok)

    def test_criterion_8_split_semantics(self):
        ids = [f"case_{i:04d}" for i in range(494)]
        train_ids, val_ids = split_dataset(ids)
        ok = (len(train_ids) == 369 and len(val_ids) == 125
              and not set(train_ids) & set(val_ids)
              and sorted(train_ids + val_ids) == ids)
        repeat = split_dataset(list(reversed(ids)))
        ok = ok and repeat == (train_ids, val_ids)
        bad_fraction = False
        try:
            split_dataset(ids, 1.0)
        except ContractError:
            bad_fraction = True
        ok = ok and bad_fraction
        self.announce(8, "494 cases split 369/125 with empty intersection", ok,
                 f"{len(train_ids)}/{len(val_ids)}")
