"""Golden hashes: training, prediction and gradients stay bit-identical.

Five outputs are hashed with sha256 and compared with `golden.json`:
`curves.csv` and `last.ckpt` of a short desk run, that run's `evaluate`
metrics, the `predict` mask of one small synthetic case, and the parameter
gradients of one training step of a narrow model with the full preset's
topology. A refactor that claims to keep every bit must leave all of them
unchanged.

Rounding depends on numpy, the BLAS build, its thread count and the CPU, so
the hashes are keyed by an environment fingerprint of those four. In an
environment with no entry the test is skipped, and the skip reason names the
fingerprint. A change that alters rounding on purpose records new hashes for
the environments it can run in:

    PYTHONPATH=src python3 tests/test_golden.py --record
"""

import ctypes
import dataclasses
import hashlib
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from segforge.data import synth_case, write_case
from segforge.metrics import one_hot, soft_dice_loss
from segforge.model import PRESETS, build_model
from segforge.tensor import Tensor, backward
from segforge.train import evaluate, predict, run_preset, train

GOLDEN = Path(__file__).with_name("golden.json")
DESK_ROOT = "synth:cases=2,seed=1,dims=8x64x64"
# the full preset's SE reduction and decoder widths, with the narrowest stem
# and one bottleneck per stage
NARROW_FULL = dataclasses.replace(PRESETS["full"], stem_width=16, stage_depths=(1, 1, 1, 1),
                                  seed=5)


def blas_threads():
    """Thread count the loaded OpenBLAS reports; None when it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def fingerprint() -> str:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return (f"numpy={np.__version__} blas={blas.get('name')}-{blas.get('version')} "
            f"blas_threads={blas_threads()} machine={platform.machine()}")


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def narrow_step_gradients() -> str:
    """sha256 over every parameter gradient of one training step, in walk order."""
    model = build_model(NARROW_FULL)
    rng = np.random.default_rng(11)
    x = rng.standard_normal((2, 3, 64, 64)).astype(np.float32)
    labels = rng.integers(0, NARROW_FULL.num_classes, (2, 64, 64))
    loss = soft_dice_loss(model(Tensor(x), training=True),
                          one_hot(labels, NARROW_FULL.num_classes))
    backward(loss)
    h = hashlib.sha256()
    for name, p in model.named_parameters():
        h.update(name.encode() + b"\0" + p.grad.tobytes())
    return h.hexdigest()


def golden_hashes(workdir: Path) -> dict:
    """Run the hashed computations under `workdir`, which must be empty.

    The run's output dir is relative because the run config, output dir
    included, is stored inside every checkpoint.
    """
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        cfg = dataclasses.replace(run_preset("desk"), data_root=DESK_ROOT, epochs=2, seed=1,
                                  val_on_train=True, output_dir="desk")
        train(cfg)
        report = evaluate("desk/last.ckpt", DESK_ROOT, split="all")
        case_dir = write_case(synth_case(seed=7, dims=(8, 64, 64)), "cases")
        predict("desk/last.ckpt", str(case_dir), "mask.svol")
        return {
            "desk_curves_csv": sha256_file("desk/curves.csv"),
            "desk_last_ckpt": sha256_file("desk/last.ckpt"),
            "evaluate_metrics": hashlib.sha256(
                json.dumps(report["metrics"], sort_keys=True).encode()).hexdigest(),
            "predict_mask_svol": sha256_file("mask.svol"),
            "narrow_full_step_grads": narrow_step_gradients(),
        }
    finally:
        os.chdir(cwd)


def test_outputs_match_golden_hashes(tmp_path):
    key = fingerprint()
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if key not in recorded:
        pytest.skip(f"no golden hashes recorded for environment '{key}'")
    assert golden_hashes(tmp_path) == recorded[key]


def record() -> None:
    """Store this environment's hashes in golden.json, keeping other entries."""
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        recorded[fingerprint()] = golden_hashes(Path(tmp))
    GOLDEN.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {fingerprint()} in {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
