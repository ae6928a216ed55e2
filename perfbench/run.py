"""segforge benchmark: desk training, BraTS-size inference and full-preset steps.

    python3 perfbench/run.py                      # every workload, untraced then traced
    python3 perfbench/run.py --workload desk_train --seed 1 --seconds 25 --trace 0

With ``--workload`` one workload runs in this process for ``--seconds`` as a
closed loop (each call waits for the previous one) and the last line of
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json,
``--trace 1`` the per-layer ones. Without ``--workload`` every workload runs
in its own child process, both ways, and the results go to ``--out``.

See perfbench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = Path(".perfbench")          # relative to ROOT, which is the working directory
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ENV_KEYS = ("python", "numpy", "blas", "blas_version", "blas_threads", "platform", "nproc")
# the name each workload's own metric goes by in the printed report
WORKLOAD_NAMES = {
    "desk_train": {"op_s": "train_epoch_s"},
    "brats_infer": {"op_s": "predict_case_s", "slices_per_s": "eval_slices_per_s"},
    "full_step": {"op_s": "full_step_s"},
}
DETAIL_PREFIX = "perfbench-detail "
# largest share of a traced round that may go unattributed to any span
UNATTRIBUTED_LIMIT = 0.05


def cap_blas_threads() -> None:
    """Keep BLAS and OpenMP threads at or below nproc; must run before numpy loads."""
    for var in THREAD_VARS:
        try:
            n = int(os.environ.get(var, NPROC))
        except ValueError:
            n = NPROC
        os.environ[var] = str(min(max(n, 1), NPROC))


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def import_segforge():
    src = ROOT / "src"
    if not (src / "segforge" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no segforge sources under {src}")
    sys.path.insert(0, str(src))
    import segforge
    if not Path(segforge.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: imported segforge from {segforge.__file__}, not {src}")
    return segforge


# ---------------------------------------------------------------------------
# environment


def blas_threads():
    """Thread count OpenBLAS reports, read from the loaded library; None if unknown."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()
                    and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
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


def git_revision():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    """sha256 over the package sources, for checkouts that are not git repositories."""
    import hashlib
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "segforge").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "platform": platform.platform(),
        "nproc": NPROC,
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
    }


def environment_differences(a: dict, b: dict) -> list[str]:
    return [f"{k}: {a.get(k)} vs {b.get(k)}" for k in ENV_KEYS if a.get(k) != b.get(k)]


# ---------------------------------------------------------------------------
# one workload


def describe(values: list[float]) -> str:
    """Median plus the highest percentile that has at least ten samples beyond it."""
    n = len(values)
    text = f"median of n={n}"
    tail = [p for p in (99.9, 99, 90) if n * (100 - p) / 100 >= 10]
    if tail:
        p = tail[0]
        q = statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]
        text += f", p{p:g} {q:.6g}"
    else:
        text += ", no tail percentile (needs n>=20)"
    return text


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    spec = load_spec()
    section = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    import_segforge()
    from tracer import TraceError, Tracer
    from workloads import WORKLOADS, Clock

    if name not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {name!r}; use one of {sorted(WORKLOADS)}")
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[name](seed, work)
        setup = wl.setup()

        tracer = Tracer() if trace else None
        samples = defaultdict(list)
        walls = {False: [], True: []}
        attempted = failed = 0
        problems = []
        start = perf_counter()
        rounds = 0
        # A round starts only if it should end within the measuring time. In a
        # traced run, untraced and traced rounds alternate, so the overhead is
        # measured against rounds made under the same conditions.
        while (rounds == 0 or (perf_counter() - start) * (rounds + 1) / rounds <= seconds
               or (trace and not (walls[True] and walls[False]) and rounds < 4)):
            traced = trace and rounds % 2 == 1
            clock = Clock()
            state = None
            if traced:
                tracer.install()
            try:
                state = wl.round(clock, samples)
            except TraceError:
                raise
            except Exception as exc:
                problems.append(f"round {rounds}: {type(exc).__name__}: {exc}")
                failed += 1
            finally:
                if traced:
                    tracer.uninstall()
            attempted += clock.calls
            if state is not None:
                walls[traced].append(clock.round_s)
                found = wl.check(state)
                problems.extend(f"round {rounds}: {p}" for p in found)
                failed += min(len(found), clock.calls)
            rounds += 1
        measured_s = perf_counter() - start
        detail = wl.report()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not walls[False] or (trace and not walls[True]):
        for p in problems:
            print("    " + p)
        raise SystemExit(f"perfbench: {name}: no round ended without an error "
                         f"({failed} failed of {attempted} attempted); nothing to measure")

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if trace:
        overhead = statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
        values = tracer.metrics(len(walls[True]), sum(walls[True]), overhead)
        controls = control_verdicts(name, values, statistics.fmean(walls[True]))
        problems.extend(f"control violated: {text}" for text, ok in controls if not ok)
    else:
        values = {
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": 1.0 - failed / attempted,
            "op_s": statistics.median(samples["op_s"]),
            "slices_per_s": statistics.median(samples["slices_per_s"]),
        }
    if set(values) != set(units):
        raise SystemExit(f"perfbench: metrics {sorted(set(values) ^ set(units))} do not match "
                         f"the {section} list of BENCHMARK.json")

    env = environment()
    print(f"workload {name}  seed {seed}  trace {int(trace)}  rounds {rounds}  "
          f"measured {measured_s:.1f} s  closed loop, 1 client")
    print("environment " + json.dumps(env, sort_keys=True))
    if not trace:
        aliases = WORKLOAD_NAMES[name]
        for key in ("op_s", "slices_per_s"):
            label = aliases.get(key, key)
            print(f"  {label:<22}{values[key]:>14.6g} {units[key]:<6} ({key}; "
                  f"{describe(samples[key])})")
        print(f"  {'setup_s':<22}{values['setup_s']:>14.6g} s      (median of {len(setup)} set-ups)")
        print(f"  {'peak_rss_mb':<22}{values['peak_rss_mb']:>14.6g} MB")
        print(f"  {'error_rate':<22}{failed / attempted:>14.6g}        "
              f"({failed} failed of {attempted} attempted)")
    else:
        for key in sorted(values):
            print(f"  {key:<36}{values[key]:>14.6g} {units[key]}")
        for text, ok in controls:
            print(f"  control {text}: {'holds' if ok else 'VIOLATED'}")
    print("  output checks: " + ("pass" if not problems else f"{len(problems)} FAILED"))
    for p in problems:
        print("    " + p)
    if detail:
        print("  " + json.dumps(detail, sort_keys=True))
    print(DETAIL_PREFIX + json.dumps({"environment": env, "detail": detail,
                                      "problems": problems, "rounds": rounds,
                                      "samples": samples, "setup": setup}, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


def control_verdicts(name: str, values: dict, round_s: float) -> list[tuple[str, bool]]:
    """The traced-run predictions from the benchmark's design, as (text, holds).

    A control that does not hold is an output-check failure of the traced run.
    """
    if name == "brats_infer":
        zero = ["tensor.backward_s", "optim.adam_step_s"]
        zero += [k for k in values if k.startswith("layers.conv2d.") and k.endswith(".bwd_s")]
    else:
        zero = ["nifti.read_s"]
    verdicts = [(f"{k} == 0 (is {values[k]:.6g})", values[k] == 0) for k in zero]
    share = values["bench.unattributed_s"] / round_s
    verdicts.append((f"bench.unattributed_s share of a traced round {share:.2%} "
                     f"<= {UNATTRIBUTED_LIMIT:.0%}", share <= UNATTRIBUTED_LIMIT))
    return verdicts


# ---------------------------------------------------------------------------
# every workload


def run_all(seed: int, seconds: int, out: Path, compare: Path) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    results = {"seed": seed, "seconds": seconds, "workloads": {}}
    status = 0
    for name in names:
        entry = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"perfbench: {name} trace={trace} exited with {proc.returncode}")
                status = 1
                continue
            detail = next(json.loads(line[len(DETAIL_PREFIX):]) for line in lines
                          if line.startswith(DETAIL_PREFIX))
            results["environment"] = detail.pop("environment")
            run = entry["traced" if trace else "untraced"] = dict(json.loads(lines[-1]), **detail)
            status |= 0 if run["correct"] else 1
        results["workloads"][name] = entry

    print("\nsummary (untraced; bounds from BENCHMARK.json)")
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base = None
    if compare.is_file():
        base = json.loads(compare.read_text(encoding="utf-8"))
        diffs = environment_differences(results.get("environment", {}),
                                        base.get("environment", {}))
        print(f"compared with {compare} (seed {base.get('seed')})")
        if diffs:
            print("  environment differs, so outputs are not expected to be bit-identical: "
                  + "; ".join(diffs))
    for name, entry in results["workloads"].items():
        run = entry.get("untraced")
        if run is None:
            continue
        aliases = WORKLOAD_NAMES[name]
        base_run = (base or {}).get("workloads", {}).get(name, {}).get("untraced", {})
        for key, m in run["metrics"].items():
            line = f"  {name:<12} {aliases.get(key, key):<20} {m['value']:>14.6g} {m['unit']}"
            old = base_run.get("metrics", {}).get(key)
            if old:
                ratio = m["value"] / old["value"] - 1.0
                line += f"   {ratio:+.1%} vs baseline (bound {bounds[key]['bound']:.0%}, " \
                        f"better {bounds[key]['better']})"
            print(line)
        print(f"  {name:<12} {'error_rate':<20} {run['failed'] / run['attempted']:>14.6g}"
              f"   output checks {'pass' if run['correct'] else 'FAILED'}")
        old_hash = base_run.get("detail", {}).get("sha256")
        new_hash = run.get("detail", {}).get("sha256")
        if old_hash and new_hash and base.get("seed") == seed:
            same = "identical to" if old_hash == new_hash else "DIFFERENT from"
            print(f"  {name:<12} curves.csv and last.ckpt sha256 {same} the baseline")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"results written to {out}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload; default: all, each in a child")
    parser.add_argument("--seed", type=int, default=1, help="input seed (held out: 4242)")
    parser.add_argument("--seconds", type=int, help="measuring time per run; "
                        "default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=ROOT / WORK / "results.json",
                        help="where the all-workload run writes its results")
    parser.add_argument("--compare", type=Path, default=HERE / "baseline.json",
                        help="results file to compare the all-workload run with")
    args = parser.parse_args(argv)
    out, compare = args.out.resolve(), args.compare.resolve()
    cap_blas_threads()
    os.chdir(ROOT)
    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
    if seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload:
        return run_workload(args.workload, args.seed, seconds, bool(args.trace))
    return run_all(args.seed, seconds, out, compare)


if __name__ == "__main__":
    sys.exit(main())
