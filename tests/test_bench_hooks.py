"""The benchmark's tracer still finds every hook point it times in this checkout.

`perfbench/tracer.py` replaces segforge functions and methods by name and
raises `TraceError` for any that is gone. Loading it here makes a renamed
hook point fail the test suite rather than a benchmark run. The tracer is
read from `perfbench/` and executed without writing anything there.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import segforge.data as data_module
from segforge.data import synth_case

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
