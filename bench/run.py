"""Benchmark of linsde: one workload per run, end to end or traced by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--quick]

Runs from the root of a source checkout (it imports ``src/linsde``). One
process; BLAS pools are pinned to one thread before numpy loads. A run
sets up several times (import of linsde, config generation, model
construction) and reports the median, runs one untimed warm-up pass, then
repeats timed passes of the workload for --seconds of wall time. After
each pass, outside the timed region, it checks the pass's outputs; checks
that need further program runs are made once, after the last pass. With
--trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 it alternates untraced and traced passes and reports the
per-layer metrics. --quick shrinks every workload so that the
run, with all its checks, takes seconds. Exit code 2 means the run could
not start (bad arguments, or no linsde sources next to the benchmark).
"""

from __future__ import annotations

import os

#: every BLAS/OpenMP pool the numpy stack may load, pinned before import
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
              "throughput_per_s": "1/s"}


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _purge_linsde() -> None:
    for name in [m for m in sys.modules
                 if m == "linsde" or m.startswith("linsde.")]:
        del sys.modules[name]


def _setup(wl, cfg_dir: Path):
    """Import linsde afresh, write the configs, build the models."""
    t0 = time.perf_counter()
    _purge_linsde()
    lib = importlib.import_module("linsde")
    importlib.import_module("linsde.cli")
    wl.setup(lib, cfg_dir)
    return time.perf_counter() - t0, lib


def _data_files(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p for p in sorted(root.rglob("*"))
            if p.is_file() and p.name != "provenance.txt"}


def _identical(run_dir: Path, ref_dir: Path):
    ours, theirs = _data_files(run_dir), _data_files(ref_dir)
    if list(ours) != list(theirs):
        return False, f"artifact sets differ: {list(ours)} vs {list(theirs)}"
    diff = [k for k in ours if ours[k].read_bytes() != theirs[k].read_bytes()]
    return not diff, (f"{len(ours)} data artifacts byte-identical to the "
                      "warm-up pass" if not diff else f"differ: {diff}")


def _one_pass(wl, lib, ops, out: Path, models: dict):
    """Timed pass; a failed operation ends the pass and is counted."""
    if out.exists():
        shutil.rmtree(out)
    ops.begin_pass()
    t0 = time.perf_counter()
    try:
        res = wl.run_pass(lib, ops, out, models)
    except workloads.Aborted as exc:
        res = None
        ops.missing(wl.pass_ops, f"{exc} failed")
    return time.perf_counter() - t0, res


def _verify(wl, lib, ops, out: Path, res, ref_dir: Path) -> None:
    wl.verify(lib, ops, out, {} if res is None else res)
    ops.check("artifacts byte-identical", lambda: _identical(out, ref_dir))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes for the benchmark's own test")
    args = parser.parse_args(argv)
    if not (SRC / "linsde" / "__init__.py").is_file():
        print(f"error: no linsde sources at {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; available: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](
        args.seed, "quick" if args.quick else "full")
    scratch = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    try:
        return _run(args, wl, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass


def _run(args, wl, scratch) -> int:
    cfg_dir = scratch / "configs"
    setup_s, lib = _setup(wl, cfg_dir)
    if not lib.__file__.startswith(str(SRC)):
        print(f"error: imported linsde from {lib.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    setups = [setup_s]
    run_dir, ref_dir = scratch / "run", scratch / "reference"
    _one_pass(wl, lib, workloads.Ops(), run_dir, wl.models)  # warm-up
    run_dir.mkdir(parents=True, exist_ok=True)
    run_dir.rename(ref_dir)

    ops = workloads.Ops()
    tracer = tracing.Tracer() if args.trace else None
    walls, mains, traced_walls, layers, noise = [], [], [], [], []
    started = time.perf_counter()
    while True:
        # every pass starts from a fresh set-up, so that set-up is sampled
        # as often as the passes and across the whole run
        setup_s, lib = _setup(wl, cfg_dir)
        setups.append(setup_s)
        if tracer is not None and len(walls) > len(traced_walls):
            with tracer.installed():
                tracer.reset()
                models = {k: tracer.model(v) for k, v in wl.models.items()}
                wall, res = _one_pass(wl, lib, ops, run_dir, models)
            traced_walls.append(wall)
            size = sum(p.stat().st_size
                       for p in _data_files(run_dir).values())
            layers.append(tracer.pass_metrics(size))
            noise.append(tracer.noise_seconds())
        else:
            wall, res = _one_pass(wl, lib, ops, run_dir, wl.models)
            walls.append(wall)
            if res is not None:
                mains.append(res["main_s"])
        _verify(wl, lib, ops, run_dir, res, ref_dir)
        paired = tracer is None or len(walls) == len(traced_walls)
        # the passes, their set-ups and checks fill --seconds of wall time:
        # no pass starts that would likely end after it
        elapsed = time.perf_counter() - started
        if paired and elapsed + statistics.median(walls) > args.seconds:
            break
    chk = scratch / "check"
    chk.mkdir()
    wl.verify_run(lib, ops, run_dir, chk)

    if tracer is not None:
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        metrics = tracing.summarise(layers, noise, tracer.sampling_peak_mb(),
                                    overhead)
        units = tracing.UNITS
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            # pass times are bimodal on a shared host (quiet and contended
            # stretches of seconds); the mean moves with the share of each,
            # where the median jumps between the modes
            "wall_s": statistics.fmean(walls),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "throughput_per_s":
                wl.work() / statistics.fmean(mains) if mains else 0.0}
        units = END_TO_END

    _report(args, wl, ops, setups, walls, mains, traced_walls, metrics, units)
    print(json.dumps({
        "correct": ops.correct, "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


def _report(args, wl, ops, setups, walls, mains, traced_walls, metrics,
            units) -> None:
    blas = " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    print(f"# linsde benchmark: workload={wl.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"size={'quick' if args.quick else 'full'}")
    print(f"# git={_git_sha()} cores={os.cpu_count()} "
          f"python={platform.python_version()} numpy={np.__version__} "
          f"scipy={scipy.__version__} blas_threads: {blas}")
    print(f"# passes: {len(walls)} untraced, {len(traced_walls)} traced "
          "(+1 untimed warm-up)")
    print("# set-ups (s): " + " ".join(f"{w:.4f}" for w in setups))
    print("# pass walls (s): untraced " + " ".join(f"{w:.3f}" for w in walls)
          + ("; traced " + " ".join(f"{w:.3f}" for w in traced_walls)
             if traced_walls else ""))
    print(f"# {wl.main_command} walls (s): "
          + " ".join(f"{w:.3f}" for w in mains))
    print(f"# operations: attempted={ops.attempted} failed={ops.failed}")
    for name, (attempted, failed) in ops.tally.items():
        note = ""
        if failed:
            detail, known = ops.notes[name]
            note = f"  {'KNOWN FAULT' if known else 'FAILED'}: {detail}"
        print(f"#   {name:<30} attempted={attempted:<4} failed={failed}{note}")
    for name, value in metrics.items():
        alias = f"  ({wl.work_label} of {wl.main_command})" \
            if name == "throughput_per_s" else ""
        print(f"# {name} = {value:.6g} {units[name]}{alias}")


if __name__ == "__main__":
    sys.exit(main())
