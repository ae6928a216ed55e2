"""Per-layer tracer for the benchmark's traced runs.

The tracer times calls into segforge's modules from outside the package: it
replaces module functions and class methods with timing wrappers in this
process only, and puts the originals back on ``uninstall``. A function that
another segforge module imported by name (``from .tensor import record``) is
replaced in that module too, so every call path goes through the wrapper.

Modules are looked up through ``importlib`` (that is, ``sys.modules``), never
through package attributes: ``segforge.train`` is the exported *function*,
which shadows the ``segforge.train`` submodule. A hook point that no longer
exists raises ``TraceError``; the tracer never reports 0 for a layer it
could not hook.

Spans nest. A span's self time is its duration minus the time of the spans
it contains; the self times of all spans add up to the time the spans cover.
Gradient rules are timed by wrapping the ``grad_fn`` handed to
``segforge.tensor.record``, and are charged to the ``*.bwd_s`` counterpart of
the innermost forward span that recorded the tape node.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from collections import defaultdict
from time import perf_counter

CONV_FAMILIES = ("k7s2", "k3s1", "k3s2", "k1s1", "k1s2")
LAYER_OPS = ("batch_norm", "maxpool2d", "upsample_nearest", "concat_channels",
             "global_avg_pool")
ELEMENTWISE_OPS = ("add", "sub", "mul", "div", "relu", "sigmoid", "softmax",
                   "log_softmax", "matmul", "reshape")
HARD_METRICS = ("binary_dice", "binary_iou", "dice_score", "iou_score", "mean_iou",
                "pixel_accuracy")
ELEMENTWISE_BWD = "tensor.elementwise.bwd_s"

# Spans reported by their whole duration; every other span by its self time.
INCLUSIVE = ("model.encoder.fwd_s", "model.decoder.fwd_s", "model.se_gate.fwd_s",
             "tensor.backward_s", "train.eval_pass_s")

MB = 1e6


class TraceError(RuntimeError):
    """A hook point is missing or a call no longer matches what the tracer expects."""


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError as exc:
        raise TraceError(f"hook module {name} is gone: {exc}") from None


def _segforge_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "segforge" or n.startswith("segforge."))]


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.covered_s = 0.0
        self._stack: list[list] = []   # [fwd name, bwd name or None, child seconds]
        self._undo: list[tuple] = []

    # -- spans

    def _timed(self, fn, label, before=None, after=None):
        """Wrap fn in a span; label is (name, bwd name) or a function of the bound call."""
        stack = self._stack
        total_s, self_s = self.total_s, self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name, bwd = label(args, kwargs) if callable(label) else label
            if before is not None:
                before(args, kwargs)
            frame = [name, bwd, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                total_s[name] += dt
                self_s[name] += dt - frame[2]
                if stack:
                    stack[-1][2] += dt
                else:
                    self.covered_s += dt
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- patching

    def _patch_function(self, module_name: str, attr: str, make_wrapper):
        mod = _module(module_name)
        orig = vars(mod).get(attr)
        if orig is None:
            raise TraceError(f"hook point {module_name}.{attr} is gone")
        wrapper = make_wrapper(orig)
        for m in _segforge_modules():
            for key, value in list(vars(m).items()):
                if value is orig:
                    self._undo.append((m, key, orig))
                    setattr(m, key, wrapper)

    def _patch_method(self, module_name: str, cls_name: str, attr: str, make_wrapper):
        cls = vars(_module(module_name)).get(cls_name)
        orig = vars(cls).get(attr) if isinstance(cls, type) else None
        if orig is None:
            raise TraceError(f"hook point {module_name}.{cls_name}.{attr} is gone")
        self._undo.append((cls, attr, orig))
        setattr(cls, attr, make_wrapper(orig))

    def _span(self, module_name, attr, name, bwd=None, **hooks):
        self._patch_function(module_name, attr,
                             lambda fn: self._timed(fn, (name, bwd), **hooks))

    def _method_span(self, module_name, cls_name, attr, name, **hooks):
        self._patch_method(module_name, cls_name, attr,
                           lambda fn: self._timed(fn, (name, None), **hooks))

    def install(self) -> None:
        if self._undo:
            raise TraceError("tracer is already installed")
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def _install(self) -> None:
        counts = self.counts
        tensor = _module("segforge.tensor")
        grad_enabled, tape_size = tensor.grad_enabled, tensor.tape_size

        # gradient rules, charged to the recording forward span
        def wrap_record(record):
            def traced_record(op, inputs, out_data, grad_fn):
                if grad_enabled() and any(t.requires_grad for t in inputs):
                    bwd = next((f[1] for f in reversed(self._stack) if f[1]), ELEMENTWISE_BWD)
                    after = None
                    if op == "conv2d":
                        oc, ic, kh, kw = inputs[1].shape
                        per_out = ic * kh * kw
                        counts["im2col_bytes"] += out_data.size // oc * per_out * out_data.itemsize
                        bwd_flops = 4 * out_data.size * per_out   # weight and input GEMMs

                        def after(args, kwargs, result):
                            counts["conv_flops"] += bwd_flops
                    grad_fn = self._timed(grad_fn, (bwd, None), after=after)
                return record(op, inputs, out_data, grad_fn)
            return functools.wraps(record)(traced_record)

        self._patch_function("segforge.tensor", "record", wrap_record)

        # conv2d, keyed by kernel and stride
        def wrap_conv(conv2d):
            sig = inspect.signature(conv2d)

            def family(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                kh = bound.arguments["weight"].shape[2]
                fam = f"k{kh}s{bound.arguments['stride']}"
                if fam not in CONV_FAMILIES:
                    raise TraceError(f"conv family {fam} is not one the benchmark reports")
                return f"layers.conv2d.{fam}.fwd_s", f"layers.conv2d.{fam}.bwd_s"

            def count(args, kwargs, out):
                w = sig.bind(*args, **kwargs).arguments["weight"]
                counts["conv_flops"] += 2 * out.size * w.shape[1] * w.shape[2] * w.shape[3]

            return self._timed(conv2d, family, after=count)

        self._patch_function("segforge.layers", "conv2d", wrap_conv)
        for op in LAYER_OPS:
            self._span("segforge.layers", op, f"layers.{op}.fwd_s", f"layers.{op}.bwd_s")
        for op in ELEMENTWISE_OPS:
            self._span("segforge.tensor", op, "tensor.elementwise.fwd_s", ELEMENTWISE_BWD)

        def count_tape(args, kwargs):
            counts["tape_nodes"] += tape_size()
            counts["steps"] += 1

        self._span("segforge.tensor", "backward", "tensor.backward_s", before=count_tape)

        self._method_span("segforge.model", "Encoder", "__call__", "model.encoder.fwd_s")
        self._method_span("segforge.model", "DecoderStage", "__call__", "model.decoder.fwd_s")
        self._method_span("segforge.model", "SEBlock", "__call__", "model.se_gate.fwd_s")

        def count_params(args, kwargs):
            counts["param_count"] = sum(p.data.size for p in args[0].params.values())

        self._method_span("segforge.optim", "Adam", "step", "optim.adam_step_s",
                          before=count_params)

        self._span("segforge.metrics", "soft_dice_loss", "metrics.soft_dice_loss.fwd_s",
                   "metrics.soft_dice_loss.bwd_s")
        self._span("segforge.metrics", "logits_to_labels", "metrics.logits_to_labels_s")
        for fn in HARD_METRICS:
            self._span("segforge.metrics", fn, "metrics.hard_s")

        self._span("segforge.train", "_eval_pass", "train.eval_pass_s")
        for attr in ("update", "add_loss", "record"):
            self._method_span("segforge.train", "MetricAccumulator", attr,
                              "train.metric_accumulate_s")

        def file_bytes(key, arg):
            def after(args, kwargs, result):
                path = args[0] if args else kwargs[arg]
                counts[key] += os.path.getsize(path)
            return after

        self._span("segforge.checkpoint", "save_checkpoint", "checkpoint.save_s",
                   after=file_bytes("save_bytes", "path"))
        self._span("segforge.checkpoint", "load_checkpoint", "checkpoint.load_s")
        self._span("segforge.checkpoint", "restore_model", "checkpoint.restore_s")

        for fn in ("load_data_root", "load_case", "extract_slices", "make_batch"):
            self._span("segforge.data", fn, f"data.{fn}_s")

        for fn in ("read_nifti", "read_spacing"):
            self._span("segforge.nifti", fn, "nifti.read_s",
                       after=file_bytes("nifti_read_bytes", "path"))
        self._span("segforge.nifti", "write_nifti", "nifti.write_s")
        self._span("segforge.svol", "write_svol", "svol.write_s",
                   after=file_bytes("svol_write_bytes", "path"))

    # -- results

    def metrics(self, rounds: int, traced_wall_s: float, overhead_frac: float) -> dict:
        """Per-layer metrics per traced round; tape and im2col figures per training step."""
        if rounds < 1:
            raise TraceError("no traced round was run")
        per = 1.0 / rounds
        steps = self.counts["steps"]
        per_step = 1.0 / steps if steps else 0.0
        out = {}
        conv_s = 0.0
        for fam in CONV_FAMILIES:
            for phase in ("fwd_s", "bwd_s"):
                name = f"layers.conv2d.{fam}.{phase}"
                conv_s += self.self_s[name]
                out[name] = self.self_s[name] * per
        flops = self.counts["conv_flops"]
        out["layers.conv2d.gflop"] = flops / 1e9 * per
        out["layers.conv2d.im2col_mb"] = self.counts["im2col_bytes"] / MB * per_step
        out["layers.conv2d.gflop_per_s"] = flops / 1e9 / conv_s if conv_s else 0.0
        for op in LAYER_OPS:
            for phase in ("fwd_s", "bwd_s"):
                name = f"layers.{op}.{phase}"
                out[name] = self.self_s[name] * per
        for name in ("model.encoder.fwd_s", "model.decoder.fwd_s", "model.se_gate.fwd_s",
                     "tensor.backward_s", "tensor.elementwise.fwd_s", ELEMENTWISE_BWD,
                     "optim.adam_step_s", "metrics.soft_dice_loss.fwd_s",
                     "metrics.soft_dice_loss.bwd_s", "metrics.logits_to_labels_s",
                     "metrics.hard_s", "train.eval_pass_s", "train.metric_accumulate_s",
                     "checkpoint.save_s", "checkpoint.load_s", "checkpoint.restore_s",
                     "data.load_data_root_s", "data.load_case_s", "data.extract_slices_s",
                     "data.make_batch_s", "nifti.read_s", "nifti.write_s", "svol.write_s"):
            source = self.total_s if name in INCLUSIVE else self.self_s
            out[name] = source[name] * per
        out["tensor.backward.overhead_s"] = self.self_s["tensor.backward_s"] * per
        out["tensor.tape_nodes"] = self.counts["tape_nodes"] * per_step
        out["optim.param_count"] = self.counts["param_count"]
        out["checkpoint.save_mb"] = self.counts["save_bytes"] / MB * per
        out["nifti.read_mb"] = self.counts["nifti_read_bytes"] / MB * per
        out["svol.write_mb"] = self.counts["svol_write_bytes"] / MB * per
        out["bench.unattributed_s"] = (traced_wall_s - self.covered_s) * per
        out["bench.trace_overhead_frac"] = overhead_frac
        return out
