"""CLI surface: subcommands, exit codes, end-to-end flows."""

import argparse
import gzip
import importlib
import json
import os
import shutil
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import segforge
from segforge import __version__
from segforge.checkpoint import load_checkpoint, restore_model, save_checkpoint
from segforge.cli import build_parser, main
from segforge.data import (MODALITIES, SynthSpec, VolumeSample, load_case, parse_synth_uri,
                           synth_case, synth_dataset, write_case)
from segforge.errors import ConfigError
from segforge.nifti import read_nifti, read_spacing, write_nifti
from segforge.svol import read_svol, write_svol

TINY_ROOT = "synth:cases=2,seed=3,dims=8x64x64"
ONE_CASE_ROOT = "synth:cases=1,seed=1,dims=8x64x64"


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    """One tiny training run driven through the CLI, shared by eval/predict tests."""
    out_dir = tmp_path_factory.mktemp("cli_run")
    code = run_cli(
        "train", "--preset", "desk", "--quiet",
        "--override", f"data_root={TINY_ROOT}",
        "--override", "epochs=1",
        "--override", "val_on_train=true",
        "--override", f"output_dir={out_dir}",
    )
    assert code == 0
    return out_dir


def test_every_exported_name_resolves():
    missing = [name for name in segforge.__all__ if not hasattr(segforge, name)]
    assert missing == []


class TestParserBasics:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--version")
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_no_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli()
        assert exc.value.code == 2

    def test_bad_split_choice_exits_two(self, cli_run):
        with pytest.raises(SystemExit) as exc:
            run_cli("eval", "--ckpt", str(cli_run / "best.ckpt"),
                    "--data", TINY_ROOT, "--split", "test")
        assert exc.value.code == 2


def _subcommands():
    """Each subcommand the parser declares, with its sub-parser."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


class TestEverySubcommand:
    """A sub-parser added without a handler fails here, not for a user."""

    @pytest.mark.parametrize("command", sorted(_subcommands()))
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--help")
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: segforge {command}")

    @pytest.mark.parametrize("command", sorted(_subcommands()))
    def test_minimal_command_line_has_a_handler(self, command):
        argv = [command]
        for action in _subcommands()[command]._actions:
            if action.required:   # a value every type and choice list accepts
                argv += [action.option_strings[0], next(iter(action.choices or ["1"]))]
        args = build_parser().parse_args(argv)
        assert callable(args.handler) and args.handler.__name__ == f"cmd_{command}"


class TestTrainCommand:
    def test_preset_run_with_overrides(self, cli_run, capsys):
        assert (cli_run / "curves.csv").is_file()
        assert (cli_run / "last.ckpt").is_file()
        assert (cli_run / "best.ckpt").is_file()
        ckpt = load_checkpoint(cli_run / "last.ckpt")
        assert ckpt.config["epochs"] == 1
        assert ckpt.config["data_root"] == TINY_ROOT
        assert ckpt.config["val_on_train"] is True

    def test_config_file_run(self, tmp_path, capsys):
        from segforge.train import run_preset
        cfg = run_preset("desk").to_dict()
        cfg.update(data_root=TINY_ROOT, epochs=1, val_on_train=True,
                   output_dir=str(tmp_path / "run"))
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli("train", "--config", str(cfg_path), "--quiet") == 0
        out = capsys.readouterr().out
        assert "done: best val dice" in out
        assert (tmp_path / "run" / "curves.csv").is_file()

    def test_missing_config_and_preset_is_config_error(self, capsys):
        assert run_cli("train") == 2
        assert "config error" in capsys.readouterr().err

    def test_nonexistent_config_file(self, tmp_path, capsys):
        assert run_cli("train", "--config", str(tmp_path / "nope.json")) == 2

    def test_invalid_json_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("train", "--config", str(bad)) == 2

    def test_wrongly_typed_config_value_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"data_root": TINY_ROOT, "epochs": "x",
                                   "output_dir": str(tmp_path / "run")}))
        assert run_cli("train", "--config", str(cfg)) == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("override", ["optimizer.lr=NaN", "loss.dice_weight=NaN",
                                          "optimizer.eps=Infinity"])
    def test_non_finite_override_is_config_error(self, tmp_path, capsys, override):
        assert run_cli("train", "--preset", "desk", "--quiet", "--override", override,
                       "--override", f"output_dir={tmp_path}") == 2
        assert f"config error: {override.split('=')[0]} must be finite" in capsys.readouterr().err

    def test_too_few_cases_to_split_is_data_error(self, tmp_path, capsys):
        assert run_cli("train", "--preset", "desk", "--quiet",
                       "--override", f"data_root={ONE_CASE_ROOT}",
                       "--override", f"output_dir={tmp_path}") == 3
        assert "data error: need at least 2 cases" in capsys.readouterr().err

    def test_bad_override_value_is_config_error(self, tmp_path):
        assert run_cli("train", "--preset", "desk", "--quiet",
                       "--override", "epochs") == 2

    def test_missing_data_root_is_data_error(self, tmp_path, capsys):
        assert run_cli("train", "--preset", "desk", "--quiet",
                       "--override", "data_root=/no/such/root",
                       "--override", f"output_dir={tmp_path}") == 3
        assert "data error" in capsys.readouterr().err

    def test_diverging_run_is_runtime_error(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = run_cli("train", "--preset", "desk", "--quiet",
                           "--override", f"data_root={TINY_ROOT}",
                           "--override", "val_on_train=true",
                           "--override", "optimizer.lr=1e30",
                           "--override", "epochs=1",
                           "--override", f"output_dir={tmp_path / 'boom'}")
        assert code == 4
        assert "non-finite gradient" in capsys.readouterr().err


class TestEvalCommand:
    def test_eval_writes_report_and_masks(self, cli_run, tmp_path, capsys):
        masks = tmp_path / "masks"
        report_path = tmp_path / "report.json"
        code = run_cli("eval", "--ckpt", str(cli_run / "best.ckpt"),
                       "--data", TINY_ROOT, "--split", "all",
                       "--save-masks", str(masks), "--out", str(report_path))
        assert code == 0
        out = capsys.readouterr().out
        assert "dice (binary)" in out
        assert "published, not reproduced" in out
        report = json.loads(report_path.read_text())
        assert report["cases"] == 2
        saved = sorted(p.name for p in masks.iterdir())
        assert saved == ["synth_000_pred.svol", "synth_001_pred.svol"]
        for name in saved:
            assert read_svol(masks / name).dtype == np.uint8

    def test_default_report_path_next_to_checkpoint(self, cli_run):
        code = run_cli("eval", "--ckpt", str(cli_run / "best.ckpt"),
                       "--data", TINY_ROOT, "--split", "val")
        assert code == 0
        assert (cli_run / "report_val.json").is_file()

    def test_missing_checkpoint_is_data_error(self, tmp_path, capsys):
        assert run_cli("eval", "--ckpt", str(tmp_path / "none.ckpt"),
                       "--data", TINY_ROOT) == 3

    def test_corrupt_checkpoint_is_data_error(self, cli_run, tmp_path, capsys):
        blob = (cli_run / "last.ckpt").read_bytes()
        doc = blob.index(b'{"batch_size"')    # the config document
        entry = blob.index(b"param:") - 4     # the first tensor entry
        corrupt = [blob[:doc + 40],                                   # truncated document
                   blob[:doc + 40] + b"\xff" + blob[doc + 41:],      # not UTF-8
                   blob[:doc] + b"[" + blob[doc + 1:],                # not JSON
                   blob[:entry + 2],                                  # truncated entry header
                   blob[:-1]]                                         # truncated tensor data
        bad = tmp_path / "bad.ckpt"
        for data in corrupt:
            bad.write_bytes(data)
            assert run_cli("eval", "--ckpt", str(bad), "--data", TINY_ROOT) == 3
            err = capsys.readouterr().err
            assert err.startswith("data error:") and "at byte" in err


    def test_truncated_case_file_is_data_error(self, cli_run, tmp_path, capsys):
        root = tmp_path / "cases"
        assert run_cli("synth", "--out", str(root), "--cases", "2", "--seed", "3",
                       "--dims", "8x64x64") == 0
        flair = root / "synth_001" / "synth_001_flair.nii"
        packed = gzip.compress(flair.read_bytes())
        flair.unlink()
        flair.with_name(flair.name + ".gz").write_bytes(packed[:len(packed) // 2])
        assert run_cli("eval", "--ckpt", str(cli_run / "best.ckpt"), "--data", str(root),
                       "--split", "all") == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "synth_001_flair.nii.gz" in err

    def test_wrongly_typed_model_section_is_config_error(self, cli_run, tmp_path, capsys):
        ckpt = load_checkpoint(cli_run / "last.ckpt")
        model = restore_model(ckpt)
        bad = tmp_path / "bad.ckpt"
        for section in (5, {"stage_depths": 5}, {"decoder_channels": None}):
            save_checkpoint(bad, dict(ckpt.config, model=section), model)
            assert run_cli("eval", "--ckpt", str(bad), "--data", TINY_ROOT) == 2
            assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_stored_out_of_range_seed_is_config_error(self, cli_run, tmp_path, capsys, command):
        ckpt = load_checkpoint(cli_run / "last.ckpt")
        bad = tmp_path / "bad.ckpt"
        stored = dict(ckpt.config, val_on_train=False, split=dict(ckpt.config["split"], seed=-1))
        save_checkpoint(bad, stored, restore_model(ckpt))
        where = (["--data", TINY_ROOT, "--split", "val", "--out", str(tmp_path / "r.json")]
                 if command == "eval" else
                 ["--in", str(tmp_path / "void" / "c"), "--out", str(tmp_path / "m.svol")])
        assert run_cli(command, "--ckpt", str(bad), *where) == 2
        assert capsys.readouterr().err.startswith("config error: split.seed must be >= 0")

    def test_too_few_cases_to_split_is_data_error(self, cli_run, tmp_path, capsys):
        ckpt = load_checkpoint(cli_run / "last.ckpt")
        split_ckpt = tmp_path / "split.ckpt"
        save_checkpoint(split_ckpt, dict(ckpt.config, val_on_train=False), restore_model(ckpt))
        assert run_cli("eval", "--ckpt", str(split_ckpt), "--data", ONE_CASE_ROOT,
                       "--split", "val") == 3
        assert "need at least 2 cases" in capsys.readouterr().err

    def test_wrongly_typed_crop_is_config_error(self, cli_run, tmp_path, capsys):
        ckpt = load_checkpoint(cli_run / "last.ckpt")
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, dict(ckpt.config, crop=5), restore_model(ckpt))
        assert run_cli("eval", "--ckpt", str(bad), "--data", TINY_ROOT) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: crop ")

    @pytest.mark.parametrize("crop", [[0, 64], [-32, 64]])
    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_stored_bad_crop_is_config_error(self, cli_run, tmp_path, capsys, command, crop):
        ckpt = load_checkpoint(cli_run / "last.ckpt")
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, dict(ckpt.config, crop=crop), restore_model(ckpt))
        assert run_cli("synth", "--out", str(tmp_path / "cases"), "--cases", "2",
                       "--dims", "8x64x64") == 0
        capsys.readouterr()
        where = (["--data", str(tmp_path / "cases"), "--out", str(tmp_path / "r.json")]
                 if command == "eval" else
                 ["--in", str(tmp_path / "cases" / "synth_000"), "--out", str(tmp_path / "m.svol")])
        assert run_cli(command, "--ckpt", str(bad), *where) == 2
        assert capsys.readouterr().err.startswith("config error: crop must be")
        missing = (["--data", str(tmp_path / "void")] if command == "eval" else
                   ["--in", str(tmp_path / "void" / "c"), "--out", str(tmp_path / "m.svol")])
        assert run_cli(command, "--ckpt", str(bad), *missing) == 2   # before any data is read
        assert capsys.readouterr().err.startswith("config error: crop must be")

    @pytest.mark.parametrize("size", ["0", "-3"])
    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_batch_size_below_one_is_refused_before_reading(self, cli_run, tmp_path, capsys,
                                                           monkeypatch, command, size):
        calls = []
        monkeypatch.setattr(importlib.import_module("segforge.train"), "load_checkpoint",
                            lambda *args: calls.append(args))
        where = (["--data", TINY_ROOT, "--out", str(tmp_path / "r.json")] if command == "eval"
                 else ["--in", str(tmp_path / "case"), "--out", str(tmp_path / "m.svol")])
        assert run_cli(command, "--ckpt", str(cli_run / "best.ckpt"), *where,
                       "--batch-size", size) == 2
        assert capsys.readouterr().err.startswith("config error: batch_size must be >= 1")
        assert calls == []

    def test_case_smaller_than_the_crop_is_data_error(self, cli_run, tmp_path, capsys):
        vol = np.ones((4, 32, 32), dtype=np.float32)
        write_case(VolumeSample(modalities=dict.fromkeys(MODALITIES, vol),
                                label=np.zeros((4, 32, 32), dtype=np.uint8), case_id="small"),
                   tmp_path / "cases")
        for argv in (["eval", "--data", str(tmp_path / "cases"), "--split", "all",
                      "--out", str(tmp_path / "r.json")],
                     ["predict", "--in", str(tmp_path / "cases" / "small"),
                      "--out", str(tmp_path / "m.svol")]):
            assert run_cli(*argv, "--ckpt", str(cli_run / "best.ckpt")) == 3
            assert "smaller than the crop" in capsys.readouterr().err


class TestPredictCommand:
    def test_predict_case_directory(self, cli_run, tmp_path, capsys):
        assert run_cli("synth", "--out", str(tmp_path / "cases"), "--cases", "1",
                       "--seed", "7", "--dims", "8x64x64") == 0
        out_mask = tmp_path / "mask.svol"
        code = run_cli("predict", "--ckpt", str(cli_run / "best.ckpt"),
                       "--in", str(tmp_path / "cases" / "synth_000"),
                       "--out", str(out_mask))
        assert code == 0
        assert "wrote svol" in capsys.readouterr().out
        mask = read_svol(out_mask)
        assert mask.shape == (8, 64, 64)
        assert (tmp_path / "mask.nii").is_file()  # input cases were NIfTI

    def test_non_svol_output_is_config_error(self, cli_run, tmp_path, capsys):
        assert run_cli("synth", "--out", str(tmp_path / "cases"), "--cases", "1",
                       "--dims", "8x64x64") == 0
        assert run_cli("predict", "--ckpt", str(cli_run / "best.ckpt"),
                       "--in", str(tmp_path / "cases" / "synth_000"),
                       "--out", str(tmp_path / "mask.nii")) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (tmp_path / "mask.nii").exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_voxel_is_data_error(self, cli_run, tmp_path, capsys, value):
        assert run_cli("synth", "--out", str(tmp_path / "cases"), "--cases", "1",
                       "--dims", "8x64x64") == 0
        flair = tmp_path / "cases" / "synth_000" / "synth_000_flair.nii"
        vol = read_nifti(flair)
        vol[0, 0, 0] = value   # outside the brain
        write_nifti(flair, vol)
        capsys.readouterr()
        assert run_cli("predict", "--ckpt", str(cli_run / "best.ckpt"),
                       "--in", str(tmp_path / "cases" / "synth_000"),
                       "--out", str(tmp_path / "m.svol")) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: NaN or infinite voxel values") and flair.name in err
        assert not (tmp_path / "m.svol").exists()

    def test_missing_case_dir_is_data_error(self, cli_run, tmp_path):
        assert run_cli("predict", "--ckpt", str(cli_run / "best.ckpt"),
                       "--in", str(tmp_path / "ghost"),
                       "--out", str(tmp_path / "m.svol")) == 3


class TestSynthCommand:
    def test_writes_nii_layout(self, tmp_path):
        assert run_cli("synth", "--out", str(tmp_path), "--cases", "2",
                       "--seed", "5", "--dims", "8x64x64") == 0
        case = tmp_path / "synth_000"
        for mod in ("t1ce", "t2", "flair", "seg"):
            assert (case / f"synth_000_{mod}.nii").is_file()
        assert read_nifti(case / "synth_000_seg.nii").shape == (8, 64, 64)

    def test_writes_svol_layout(self, tmp_path):
        assert run_cli("synth", "--out", str(tmp_path), "--cases", "1",
                       "--dims", "8x64x64", "--format", "svol") == 0
        assert (tmp_path / "synth_000" / "seg.svol").is_file()

    def test_bad_dims_is_config_error(self, tmp_path, capsys):
        assert run_cli("synth", "--out", str(tmp_path), "--dims", "8x64") == 2
        assert run_cli("synth", "--out", str(tmp_path), "--dims", "axbxc") == 2

    @pytest.mark.parametrize("argv", [
        "synth --out {t}/s --dims 2x64x64",
        "synth --out {t}/s --dims 4x4x4",
        "synth --out {t}/s --lesions -1",
        "train --preset desk --quiet --override data_root=synth:dims=4x4x4 "
        "--override output_dir={t}/run",
    ], ids=["dims_2x64x64", "dims_4x4x4", "lesions_-1", "train_synth_uri"])
    def test_bad_synth_values_are_config_errors(self, tmp_path, capsys, argv):
        assert run_cli(*argv.format(t=tmp_path).split()) == 2
        assert capsys.readouterr().err.startswith("config error: synth ")
        assert not (tmp_path / "s").exists()


class TestOutOfRangeValues:
    """Each refused before anything is written: exit 2, no traceback, no output_dir."""

    @pytest.mark.parametrize("argv", [
        "synth --out {t}/s --seed -1",
        *(f"train --preset desk --quiet --override {value} --override output_dir={{t}}/s"
          for value in ("seed=-1", "split.seed=-1", "model.seed=-1", "model.stem_width=0",
                        "model.decoder_channels=[0,0,0,0,0]", "optimizer.eps=-1",
                        "optimizer.eps=0", "data_root=synth:cases=2,seed=-1",
                        "data_root=synth:cases=0")),
    ])
    def test_exits_2_before_any_output(self, tmp_path, capsys, argv):
        assert run_cli(*argv.format(t=tmp_path).split()) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err
        assert not (tmp_path / "s").exists()


class TestSynthDefaults:
    """`SynthSpec` is the one home of every synthetic-case default and limit."""

    def test_every_entry_point_makes_the_same_default_case(self, tmp_path):
        from_case = synth_case([SynthSpec.seed, 0], case_id="synth_000")
        from_spec = synth_dataset(SynthSpec())[0]
        from_uri = synth_dataset(parse_synth_uri("synth:"))[0]
        assert run_cli("synth", "--out", str(tmp_path)) == 0
        from_cli = load_case(tmp_path, "synth_000")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"synth_{i:03d}" for i in range(SynthSpec.cases)]
        for sample in (from_spec, from_uri, from_cli):
            assert sample.case_id == from_case.case_id
            assert sample.label.tobytes() == from_case.label.tobytes()
            for m in MODALITIES:
                assert sample.modalities[m].tobytes() == from_case.modalities[m].tobytes()

    # synth_case makes one case, so it has no case count to refuse
    @pytest.mark.parametrize("key,value,flag,case_kwargs", [
        ("dims", (4, 4, 4), "4x4x4", {"dims": (4, 4, 4)}),
        ("lesions", -1, "-1", {"num_lesions": -1}),
        ("cases", 0, "0", None)])
    def test_every_entry_point_refuses_the_same_values(self, tmp_path, capsys,
                                                       key, value, flag, case_kwargs):
        with pytest.raises(ConfigError, match=f"^synth {key} must be "):
            SynthSpec(**{key: value})
        if case_kwargs is not None:
            with pytest.raises(ConfigError, match=f"^synth {key} must be "):
                synth_case(0, **case_kwargs)
        with pytest.raises(ConfigError, match=f"^synth {key} must be "):
            parse_synth_uri(f"synth:{key}={flag}")
        assert run_cli("synth", "--out", str(tmp_path / "s"), f"--{key}", flag) == 2
        assert capsys.readouterr().err.startswith("config error: synth ")
        assert not (tmp_path / "s").exists()


class TestConvertCommand:
    def test_nii_svol_round_trip(self, tmp_path, capsys):
        arr = np.random.default_rng(0).normal(0, 1, (4, 5, 6)).astype(np.float32)
        src = tmp_path / "a.svol"
        write_svol(src, arr)
        mid = tmp_path / "b.nii"
        back = tmp_path / "c.svol"
        assert run_cli("convert", "--in", str(src), "--out", str(mid)) == 0
        assert run_cli("convert", "--in", str(mid), "--out", str(back)) == 0
        np.testing.assert_array_equal(read_svol(back), arr)
        assert "shape 4x5x6" in capsys.readouterr().out

    def test_nifti_spacing_survives_conversion(self, tmp_path):
        arr = np.random.default_rng(1).normal(0, 1, (3, 4, 5)).astype(np.float32)
        paths = [tmp_path / name for name in ("a.nii.gz", "b.nii", "c.nii.gz", "d.svol",
                                              "e.nii")]
        write_nifti(paths[0], arr, spacing=(2.5, 1.5, 0.75))
        for src, dst in zip(paths, paths[1:]):
            assert run_cli("convert", "--in", str(src), "--out", str(dst)) == 0
        for path in paths[1:3]:
            assert read_spacing(path) == (2.5, 1.5, 0.75)
            assert read_nifti(path).tobytes() == arr.tobytes()
        # an .svol stores no spacing, so a NIfTI made from one has unit spacing
        assert read_spacing(paths[4]) == (1.0, 1.0, 1.0)
        assert read_nifti(paths[4]).tobytes() == arr.tobytes()

    def test_volume_too_wide_for_nifti_is_format_error(self, tmp_path, capsys):
        src = tmp_path / "wide.svol"
        write_svol(src, np.zeros((1, 1, 40000), dtype=np.uint8))
        assert run_cli("convert", "--in", str(src), "--out", str(tmp_path / "wide.nii")) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "at most 32767" in err
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["wide.svol"]

    def test_unknown_extension_is_config_error(self, tmp_path):
        src = tmp_path / "a.svol"
        write_svol(src, np.zeros((2, 2, 2), dtype=np.float32))
        assert run_cli("convert", "--in", str(src), "--out", str(tmp_path / "b.raw")) == 2
        assert run_cli("convert", "--in", str(tmp_path / "a.txt"),
                       "--out", str(tmp_path / "b.svol")) == 2

    def test_overflowing_svol_dims_are_format_error(self, tmp_path, capsys):
        # rank 4, dims 65536^4, no payload: 2^64 elements, which wraps to 0 in int64
        src = tmp_path / "big.svol"
        src.write_bytes(b"SVOL0001" + struct.pack("<5I", 4, *[65536] * 4) + b"\x01")
        assert run_cli("convert", "--in", str(src), "--out", str(tmp_path / "b.nii")) == 3
        assert "payload size" in capsys.readouterr().err

    def test_missing_input_is_data_error(self, tmp_path):
        assert run_cli("convert", "--in", str(tmp_path / "none.svol"),
                       "--out", str(tmp_path / "b.nii")) == 3


class TestUnusablePaths:
    """A path that cannot be opened, written or made a directory exits with a typed error.

    In each argv, {t} is the test's directory (itself a directory) and
    {run} the shared training run. {t}/a.svol and {t}/b.nii are
    directories, {t}/file is an existing file, {t}/nodir does not exist.
    """

    @pytest.mark.parametrize("code,argv", [
        (3, "convert --in {t}/a.svol --out {t}/x.nii"),
        (3, "convert --in {t}/b.nii --out {t}/x.svol"),
        (2, "convert --in {t}/v.svol --out {t}/nodir/x.svol"),
        (2, "convert --in {t}/v.svol --out {t}/nodir/x.nii"),
        (2, "train --config {t}"),
        (2, "train --config {t}/bom.json"),
        (2, f"train --preset desk --quiet --override data_root={TINY_ROOT} "
            "--override val_on_train=true --override output_dir={t}/file"),
        (2, f"eval --ckpt {{run}}/best.ckpt --data {TINY_ROOT} --out {{t}}/nodir/r.json"),
        (2, f"eval --ckpt {{run}}/best.ckpt --data {TINY_ROOT} --save-masks {{t}}/file "
            "--out {t}/r.json"),
        (2, "predict --ckpt {run}/best.ckpt --in {t}/cases/synth_000 --out {t}/nodir/m.svol"),
        (2, "synth --out {t}/file --cases 1 --dims 8x64x64"),
        (3, "predict --ckpt {t} --in {t}/cases/synth_000 --out {t}/m.svol"),
    ])
    def test_typed_error_and_no_temp_file(self, cli_run, tmp_path, capsys, code, argv):
        (tmp_path / "a.svol").mkdir()
        (tmp_path / "b.nii").mkdir()
        (tmp_path / "file").write_bytes(b"kept")
        (tmp_path / "bom.json").write_bytes(b"\xff\xfe{}")
        write_svol(tmp_path / "v.svol", np.zeros((2, 2, 2), dtype=np.uint8))
        if argv.startswith("predict"):
            assert run_cli("synth", "--out", str(tmp_path / "cases"), "--cases", "1",
                           "--dims", "8x64x64") == 0
            capsys.readouterr()
        assert run_cli(*(a.format(t=tmp_path, run=cli_run) for a in argv.split())) == code
        err = capsys.readouterr().err
        assert err.startswith("config error: " if code == 2 else "data error: ")
        assert "Traceback" not in err
        assert not [*tmp_path.rglob("*.tmp"), *cli_run.rglob("*.tmp")]
        assert (tmp_path / "file").read_bytes() == b"kept"

    # (reader the refused run must not call, refused argv, argv that does call it)
    @pytest.mark.parametrize("reader,refused,reads", [
        ("load_data_root",
         f"train --preset desk --quiet --override data_root={TINY_ROOT} "
         "--override val_on_train=true --override output_dir={t}/file",
         "train --preset desk --quiet --override data_root={t}/void "
         "--override output_dir={t}/run"),
        ("load_checkpoint",
         f"eval --ckpt {{run}}/best.ckpt --data {TINY_ROOT} --out {{t}}/nodir/r.json",
         f"eval --ckpt {{t}}/none.ckpt --data {TINY_ROOT} --out {{t}}/r.json"),
        ("load_checkpoint",
         "predict --ckpt {run}/best.ckpt --in {t}/cases/synth_000 --out {t}/nodir/m.svol",
         "predict --ckpt {t}/none.ckpt --in {t}/cases/synth_000 --out {t}/m.svol"),
    ])
    def test_output_is_refused_before_any_input_is_read(self, cli_run, tmp_path, capsys,
                                                        monkeypatch, reader, refused, reads):
        (tmp_path / "file").write_bytes(b"kept")
        assert run_cli("synth", "--out", str(tmp_path / "cases"), "--cases", "1",
                       "--dims", "8x64x64") == 0
        module = importlib.import_module("segforge.train")
        real, calls = getattr(module, reader), []

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, reader, spy)
        capsys.readouterr()
        assert run_cli(*(a.format(t=tmp_path, run=cli_run) for a in refused.split())) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert calls == []
        # the spy sees the reads a run makes when its output is usable
        assert run_cli(*(a.format(t=tmp_path, run=cli_run) for a in reads.split())) != 0
        assert len(calls) == 1


class TestInstalledEntryPoint:
    """The declared `segforge` command runs as its own process.

    Runs the installed `segforge` script when one is on PATH. From a source
    checkout it runs the `[project.scripts]` target of pyproject.toml the way
    pip's generated wrapper does, so a broken declaration still fails here.
    """

    @staticmethod
    def _command():
        exe = shutil.which("segforge")
        if exe:
            return [exe], None
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["segforge"]
        module, func = target.split(":")
        code = f"import sys; from {module} import {func}; sys.exit({func}())"
        # the child imports the same segforge as this test, from any cwd
        src = str(Path(segforge.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        return [sys.executable, "-c", code], env

    def test_console_script_runs(self, tmp_path):
        cmd, env = self._command()
        out = subprocess.run([*cmd, "--version"], capture_output=True, text=True, env=env)
        assert out.returncode == 0
        assert __version__ in out.stdout
        synth = subprocess.run(
            [*cmd, "synth", "--out", str(tmp_path), "--cases", "1", "--dims", "8x64x64"],
            capture_output=True, text=True, env=env)
        assert synth.returncode == 0
        assert (tmp_path / "synth_000" / "synth_000_seg.nii").is_file()
