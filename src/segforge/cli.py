"""Command-line interface: train, eval, predict, synth, convert.

Exit codes: 0 success, 2 configuration error, 3 data/format error,
4 runtime or numeric error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .data import SynthSpec, read_volume, synth_dataset, write_case, write_volume
from .errors import ConfigError, DataError, SegforgeError
from .train import (RunConfig, apply_overrides, evaluate, format_report,
                    predict, run_preset, train)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="segforge",
        description="Brain tumor segmentation toolkit (SE-ResNet U-Net, CPU, deterministic).")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a model from a run config")
    t.add_argument("--config", help="run config JSON file")
    t.add_argument("--preset", choices=("full", "desk"),
                   help="start from a named config instead of a file")
    t.add_argument("--override", action="append", default=[], metavar="KEY=VALUE",
                   help="override a config field, e.g. optimizer.lr=1e-3 (repeatable)")
    t.add_argument("--quiet", action="store_true", help="suppress per-epoch progress")

    e = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    e.add_argument("--ckpt", required=True)
    e.add_argument("--data", required=True, help="data root directory or synth: URI")
    e.add_argument("--split", default="val", choices=("train", "val", "all"))
    e.add_argument("--save-masks", metavar="DIR", help="write predicted masks as .svol")
    e.add_argument("--out", help="report JSON path (default: next to the checkpoint)")
    e.add_argument("--batch-size", type=int, default=8)

    pr = sub.add_parser("predict", help="segment one case directory")
    pr.add_argument("--ckpt", required=True)
    pr.add_argument("--in", dest="in_path", required=True, metavar="CASE_DIR")
    pr.add_argument("--out", required=True, metavar="MASK.svol")
    pr.add_argument("--batch-size", type=int, default=8)

    s = sub.add_parser("synth", help="generate a synthetic dataset on disk")
    s.add_argument("--seed", type=int, default=1)
    s.add_argument("--cases", type=int, default=4)
    s.add_argument("--out", required=True, metavar="DIR")
    s.add_argument("--dims", default="12x80x80", metavar="DxHxW")
    s.add_argument("--lesions", type=int, default=2)
    s.add_argument("--format", default="nii", choices=("nii", "svol"))

    c = sub.add_parser("convert", help="convert a volume between .nii and .svol")
    c.add_argument("--in", dest="in_path", required=True)
    c.add_argument("--out", required=True)
    return p


def cmd_train(args) -> int:
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                base = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {args.config}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
    elif args.preset:
        base = run_preset(args.preset).to_dict()
    else:
        raise ConfigError("train needs --config or --preset")
    apply_overrides(base, args.override)
    cfg = RunConfig.from_dict(base)
    summary = train(cfg, verbose=not args.quiet)
    best = summary["best_record"]
    print(f"done: best val dice {best['dice']:.4f} at epoch {best['epoch']}")
    print(f"curves: {summary['curves']}")
    print(f"checkpoints: {summary['last']}  {summary['best']}")
    return 0


def cmd_eval(args) -> int:
    out = args.out
    if out is None:
        out = str(Path(args.ckpt).parent / f"report_{args.split}.json")
    report = evaluate(args.ckpt, args.data, split=args.split,
                      save_masks=args.save_masks, out_path=out,
                      batch_size=args.batch_size)
    print(format_report(report))
    print(f"\nreport written to {out}")
    return 0


def cmd_predict(args) -> int:
    written = predict(args.ckpt, args.in_path, args.out, batch_size=args.batch_size)
    for kind, path in written.items():
        print(f"wrote {kind}: {path}")
    return 0


def cmd_synth(args) -> int:
    try:
        dims = tuple(int(v) for v in args.dims.split("x"))
    except ValueError:
        raise ConfigError(f"bad --dims '{args.dims}' (expected DxHxW)") from None
    if len(dims) != 3:
        raise ConfigError(f"bad --dims '{args.dims}' (expected DxHxW)")
    spec = SynthSpec(cases=args.cases, seed=args.seed, dims=dims, lesions=args.lesions)
    for sample in synth_dataset(spec):
        case_dir = write_case(sample, args.out, fmt=args.format)
        print(f"wrote case {sample.case_id} -> {case_dir}")
    return 0


def cmd_convert(args) -> int:
    arr = read_volume(args.in_path)
    write_volume(args.out, arr)
    print(f"wrote {args.out} (shape {'x'.join(map(str, arr.shape))}, dtype {arr.dtype})")
    return 0


_HANDLERS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "predict": cmd_predict,
    "synth": cmd_synth,
    "convert": cmd_convert,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except SegforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
