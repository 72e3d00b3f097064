"""Run one workload of the perpca benchmark and print its metrics.

    python3 perfbench/run.py --workload grid-many-clients --seed 0 --seconds 45 --trace 0

Run from the repository root; the package is imported from ``src/``. With
``--trace 0`` the run sets the inputs up several times, then repeats the
workload's operations until ``--seconds`` have passed and reports the
end-to-end metrics. With ``--trace 1`` it sets up and runs the operations
once without and once with the layer tracer, and reports the per-layer
metrics. The last line of standard output is the result as one JSON
object; the full record, with the environment, goes to
``perfbench/results/``. BLAS and OpenMP are pinned to one thread.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is first imported
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402
import perpca  # noqa: E402

from perfbench import tracer, workloads  # noqa: E402

RESULTS = ROOT / "perfbench" / "results"
clock = time.perf_counter


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def environment():
    """Machine and library record stored with every result."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = None
    return {
        "git_commit": _git_commit(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _pass(workload, seed, run):
    inputs = workload.setup(seed, run)
    for operation in workload.operations(inputs):
        run.attempt(operation)


def measure(workload, seed, seconds, trace):
    """Run a workload; returns ``(run, metric values, extra figures, tracer or None)``."""
    run = workloads.Run()
    if trace:
        t0 = clock()
        _pass(workload, seed, run)
        untraced = clock() - t0
        with tracer.Tracer() as spans:
            t0 = clock()
            _pass(workload, seed, run)
            traced = clock() - t0
        values = tracer.layer_metrics(spans, traced, untraced, run.failed_by_module())
        extra = {"spans": len(spans.name_id), "untraced_s": untraced, "traced_s": traced}
        return run, values, extra, spans

    setup_s = []
    for _ in range(workload.setup_repeats):
        t0 = clock()
        inputs = workload.setup(seed, run)
        setup_s.append(clock() - t0)
    operations = workload.operations(inputs)
    deadline = clock() + seconds
    while True:  # whole passes, so every operation is weighted alike
        for operation in operations:
            run.attempt(operation)
        if clock() >= deadline:
            break
    values, extra = workloads.end_to_end(run, setup_s)
    return run, values, extra, None


def main(argv=None):
    spec = benchmark_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="least time the timed run repeats operations for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced pass")
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if Path(perpca.__file__).resolve().parent != ROOT / "src" / "perpca":
        sys.exit(f"perpca imported from {perpca.__file__}, not from {ROOT / 'src'}")

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    RESULTS.mkdir(parents=True, exist_ok=True)
    workdir = RESULTS / f"work-{os.getpid()}"
    try:
        workload = workloads.make(args.workload, workdir, tiny=args.tiny)
        run, values, extra, spans = measure(workload, args.seed, args.seconds, args.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    mismatch = {m["name"] for m in declared} ^ set(values)
    if mismatch:
        sys.exit(f"metrics not matching BENCHMARK.json: {sorted(mismatch)}")
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "environment": environment(),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"],
                                "better": m["better"]} for m in declared},
        "extra": extra, "attempted": run.attempted, "failed": run.failed,
        "failures": run.failures,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if spans is not None:
        spans.save(RESULTS / f"{stem}-spans.npz")

    mode = "traced" if args.trace else "untraced"
    print(f"perpca benchmark: {args.workload}, seed {args.seed}, {mode}")
    for m in declared:
        print(f"  {m['name']:<44} {values[m['name']]:>14.6g} {m['unit']:<6} "
              f"({m['better']} is better)")
    if not args.trace:
        rate = extra["error_rate"]
        print(f"  {'error_rate':<44} {rate['value']:>14.6g} ratio  "
              f"({rate['failed']} of {rate['attempted']} operations failed)")
        t = extra["solve_s_tail"]
        print(f"  solve_s_tail is p{t['percentile']:.4g} of {t['solves']} solves")
    for module, message in run.failures:
        print(f"FAILED [{module}] {message}", file=sys.stderr)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
