"""polyscat benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (see ``README.md`` here):
``tetra_l05``, ``tetra_l03_noisy`` and ``minkowski_random``.

With ``--trace 0`` the run times set-up several times, then runs rounds
of the workload's operations in a closed loop (one client, one operation
at a time) until ``--seconds`` have passed and prints the end-to-end
metrics.  Their times are calibrated against a reference loop timed next
to each set-up and operation (see ``calibrate.py``); the wall-clock figures
are printed beside them.  With ``--trace 1`` it sets up once under
tracing, then runs each operation untraced and traced in turn and prints
the per-layer metrics.
Metric names and units come from ``BENCHMARK.json``.  Every output is
checked.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record,
with the environment stamp, goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

# One BLAS thread, for this process and the set-up children.  With more,
# OpenBLAS's idle workers spin for a while after each operation and slow
# the reference sample that follows it by about 20% (see calibrate.py).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy  # noqa: E402

from calibrate import REFERENCE_NOMINAL_S, calibrated, reference_seconds  # noqa: E402
from loop import Outcome, closed_loop  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3
MIN_ROUNDS = 3  # of a timed run, so that each operation's median has three values

def environment_stamp(threads_env):
    import scipy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    try:
        git_sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        git_sha = None  # benchmark checkouts carry no git metadata
    try:
        openblas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{openblas['name']} {openblas['version']}"
    except (KeyError, TypeError):
        openblas = None
    blas_threads = None
    for lib in glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                blas_threads = int(fn())
                break
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "blas_threads": blas_threads,
        "POLYSCAT_THREADS": threads_env,
    }


def cold_setup_times(args, work_dir):
    """Time the workload's set-up in fresh interpreters (see setup_child.py).

    Returns the wall times and the reference sample taken in this process
    after each.
    """
    times, references = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_child.py"), args.workload,
             str(args.seed), str(work_dir)],
            capture_output=True, text=True, timeout=170, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
        references.append(reference_seconds(times[-1]))
    return times, references


def per_operation(samples):
    """Mean over a round's operations of each one's median time over the rounds."""
    by_position = {}
    for s in samples:
        by_position.setdefault(s.position, []).append(s.seconds)
    return statistics.fmean(statistics.median(v) for v in by_position.values())


def timed_run(workload, args, work_dir):
    setup, setup_refs = cold_setup_times(args, work_dir)
    samples, wall = closed_loop(workload, args.seconds, min_rounds=MIN_ROUNDS)
    rounds = samples[-1].round + 1
    times = [s.seconds for s in samples]
    references = setup_refs + [s.reference for s in samples]
    reference = statistics.fmean(references)
    setup_wall = statistics.median(setup)
    recover_wall = per_operation(samples)
    metrics = {
        "setup_s": calibrated(setup_wall, reference),
        "recover_s": calibrated(recover_wall, reference),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"calibrated; wall-clock median of {len(setup)} set-ups {setup_wall:.6g} s",
        "recover_s": f"calibrated; wall-clock {recover_wall:.6g} s, the mean over a round's "
        f"operations of each one's median over {rounds} rounds, {len(times)} operations; "
        f"p80 {numpy.percentile(times, 80):.6g} s, {len(times) / wall:.6g} operations/s; "
        f"reference loop {reference:.4g} s, mean of {len(references)} samples "
        f"from {min(references):.4g} to {max(references):.4g} s, nominal {REFERENCE_NOMINAL_S} s",
    }
    extra = {"setup": [{"seconds": t, "reference": r} for t, r in zip(setup, setup_refs)]}
    return metrics, notes, samples, None, extra


def traced_run(workload, args, work_dir, names):
    from tracing import Tracer, install_polyscat_hooks

    tracer = Tracer()
    install_polyscat_hooks(tracer)
    try:
        workload.setup()
    finally:
        tracer.uninstall()
    samples, _ = closed_loop(workload, args.seconds, tracer, install_polyscat_hooks)
    traced = [s for s in samples if s.traced]
    per_setup = tracer.totals([0])
    per_op = tracer.totals(range(1, tracer.run_id + 1))
    metrics = {
        name: per_setup.get(name, 0.0) + per_op.get(name, 0.0) / len(traced)
        for name in names
    }
    if metrics["maxima.starts"]:
        metrics["maxima.peak_yield"] = metrics["maxima.peaks_selected"] / metrics["maxima.starts"]
    metrics["trace.overhead_s"] = statistics.fmean(s.seconds for s in traced) - statistics.fmean(
        s.seconds for s in samples if not s.traced
    )
    for s in traced:
        for name, value in s.outcome.quality.items():
            metrics[name] = max(metrics[name], value)
    notes = {"trace.overhead_s": f"per operation, {len(traced)} traced and untraced pairs"}
    return metrics, notes, samples, tracer, {}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "polyscat" / "__init__.py").is_file():
        print(f"polyscat sources not found under {SRC}", file=sys.stderr)
        return 2
    threads_env = os.environ.pop("POLYSCAT_THREADS", None)
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = OUT / "work" / tag
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](args.workload, args.seed, work_dir)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if args.trace:
        metrics, notes, samples, tracer, extra = traced_run(workload, args, work_dir, units)
    else:
        metrics, notes, samples, tracer, extra = timed_run(workload, args, work_dir)

    outcomes = [s.outcome for s in samples]
    failed = [o for o in outcomes if o.status != Outcome.OK]
    correct = not any(o.status == Outcome.WRONG for o in outcomes)
    stamp = environment_stamp(threads_env)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(stamp))
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value:.6g} {units[name]}{note}")
    print(f"fail_ratio = {len(failed)}/{len(outcomes)} operations")
    for o in failed:
        print(f"  {o.status}: {o.detail}")
    quality = {}
    for o in outcomes:
        for name, value in o.quality.items():
            quality[name] = max(quality.get(name, 0.0), value)
    for name, value in quality.items():
        print(f"quality {name} = {value:.6g} (worst of the run)")

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": stamp, "metrics": metrics, "quality": quality,
        "operations": [
            {"seconds": s.seconds, "status": s.outcome.status, "detail": s.outcome.detail,
             "traced": s.traced, "round": s.round, "position": s.position,
             "reference": s.reference}
            for s in samples
        ],
        **extra,
    }
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.dump(results / f"{tag}.spans.jsonl")
    shutil.rmtree(work_dir, ignore_errors=True)

    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
