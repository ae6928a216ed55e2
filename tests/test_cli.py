"""CLI surface: subcommands, exit codes, end-to-end flows."""

import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import segforge
from segforge import __version__
from segforge.checkpoint import load_checkpoint, restore_model, save_checkpoint
from segforge.cli import main
from segforge.nifti import read_nifti
from segforge.svol import read_svol, write_svol

TINY_ROOT = "synth:cases=2,seed=3,dims=8x64x64"


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


    def test_wrongly_typed_model_section_is_config_error(self, cli_run, tmp_path, capsys):
        ckpt = load_checkpoint(cli_run / "last.ckpt")
        model = restore_model(ckpt)
        bad = tmp_path / "bad.ckpt"
        for section in (5, {"stage_depths": 5}, {"decoder_channels": None}):
            save_checkpoint(bad, dict(ckpt.config, model=section), model)
            assert run_cli("eval", "--ckpt", str(bad), "--data", TINY_ROOT) == 2
            assert capsys.readouterr().err.startswith("config error:")

    def test_wrongly_typed_crop_is_config_error(self, cli_run, tmp_path, capsys):
        ckpt = load_checkpoint(cli_run / "last.ckpt")
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, dict(ckpt.config, crop=5), restore_model(ckpt))
        assert run_cli("eval", "--ckpt", str(bad), "--data", TINY_ROOT) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: crop ")


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

    def test_too_small_dims_is_runtime_error(self, tmp_path):
        # ContractError is neither config nor data, so it maps to exit 4
        assert run_cli("synth", "--out", str(tmp_path), "--dims", "2x64x64") == 4


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

    def test_unknown_extension_is_config_error(self, tmp_path):
        src = tmp_path / "a.svol"
        write_svol(src, np.zeros((2, 2, 2), dtype=np.float32))
        assert run_cli("convert", "--in", str(src), "--out", str(tmp_path / "b.raw")) == 2
        assert run_cli("convert", "--in", str(tmp_path / "a.txt"),
                       "--out", str(tmp_path / "b.svol")) == 2

    def test_missing_input_is_data_error(self, tmp_path):
        assert run_cli("convert", "--in", str(tmp_path / "none.svol"),
                       "--out", str(tmp_path / "b.nii")) == 3


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
