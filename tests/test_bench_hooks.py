"""The benchmark's tracer still finds every hook point it times in this checkout.

`perfbench/tracer.py` replaces segforge functions and methods by name and
raises `TraceError` for any that is gone. Loading it here makes a renamed
hook point fail the test suite rather than a benchmark run. The tracer is
read from `perfbench/` and executed without writing anything there.
"""

import dataclasses
import importlib.util
import sys
import time
from pathlib import Path

import pytest

import segforge.data as data_module
from segforge.checkpoint import save_checkpoint
from segforge.data import synth_case
from segforge.model import build_model
from segforge.nifti import write_nifti
from segforge.train import predict, run_preset

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture()
def tracer_module(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # no __pycache__ in perfbench/
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_point_installs_and_uninstalls(tracer_module):
    originals = (data_module.extract_slices, data_module.make_batch)
    tracer = tracer_module.Tracer()
    tracer.install()   # raises TraceError for a hook point that is gone
    try:
        assert data_module.extract_slices is not originals[0]
        assert data_module.make_batch is not originals[1]
    finally:
        tracer.uninstall()
    assert (data_module.extract_slices, data_module.make_batch) == originals


def test_slicing_time_lands_in_its_data_metrics(tracer_module):
    sample = synth_case(1, dims=(8, 64, 64))
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        slices = data_module.extract_slices(sample, (64, 64), 0.0)
        data_module.make_batch(slices, slice(0, 4))
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(rounds=1, traced_wall_s=tracer.covered_s, overhead_frac=0.0)
    assert metrics["data.extract_slices_s"] > 0
    assert metrics["data.make_batch_s"] > 0


def test_predict_time_lands_in_spans(tracer_module, tmp_path):
    """A `brats_infer` round in miniature: its reads are timed and nearly all its time is in spans.

    Work that leaves every span, such as a read on a thread the spans do not
    reach, shows here as unattributed time before it shows in a benchmark run.
    """
    cfg = dataclasses.replace(run_preset("desk"), crop=(64, 64))
    ckpt = tmp_path / "run.ckpt"
    save_checkpoint(ckpt, cfg.to_dict(), build_model(cfg.model))
    case = synth_case(2, dims=(24, 128, 128), case_id="c")
    case_dir = tmp_path / "c"
    case_dir.mkdir()
    for name, vol in {**case.modalities, "seg": case.label}.items():
        write_nifti(case_dir / f"c_{name}.nii.gz", vol, case.spacing)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        predict(str(ckpt), str(case_dir), str(tmp_path / "mask.svol"))
        wall_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(rounds=1, traced_wall_s=wall_s, overhead_frac=0.0)
    assert metrics["nifti.read_s"] > 0
    assert tracer.covered_s >= 0.95 * wall_s, (tracer.covered_s, wall_s)
