"""Child process of the benchmark: runs one workload and prints its result.

``run.py`` starts it with the BLAS thread count pinned and ``src`` on the
path.  The last line of its standard output is one JSON object with the raw
measurements, which ``run.py`` turns into metrics.

The loop is closed with one client: each op starts when the previous one
has returned.  Whole passes run until the next one would overrun the
measuring time, with at least one pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
# inputs of the untimed reference pass, the same in every run
REFERENCE_SEED = 0


def _run_pass(ops, tracer=None, pass_id=0):
    """Run one pass; returns per-op latencies, per-unit checks and outputs."""
    latencies, checks, outcomes = [], [], []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = f"p{pass_id}.{i}"
        t0 = perf_counter()
        outcome = op.run()
        latencies.append(perf_counter() - t0)
        outcomes.append(outcome)
        try:
            checks += op.check(outcome)
        except (KeyError, TypeError, ValueError) as exc:
            print(f"bench: {op.kind} n={op.n}: unreadable output: {exc!r}", file=sys.stderr)
            checks += [(False, None)] * op.units
    if tracer is not None:
        tracer.op = None
    return latencies, checks, outcomes


def _repeat_mismatches(ops, first):
    """Run the ops again and count outputs whose exit code or bytes differ."""
    mismatches = 0
    for op, before in zip(ops, first):
        again = op.run()
        if (again.code, again.stdout) != (before.code, before.stdout):
            mismatches += 1
            print(f"bench: {op.kind} n={op.n}: second run printed other bytes", file=sys.stderr)
    return mismatches


def measure(wl, reference, seconds, tracer=None):
    """Timed passes; with a tracer, each pass is replayed once traced."""
    checks = []
    if reference is not None:
        ref_ops = reference.new_pass(0)
        _, ref_checks, ref_outcomes = _run_pass(ref_ops)
        checks += ref_checks
    else:
        wl.warm_up()
    latencies = []
    untraced_s = traced_s = 0.0
    bytes_out = 0
    passes = 0
    start = perf_counter()
    while True:
        ops = wl.new_pass(passes)
        lat, chk, _ = _run_pass(ops)
        latencies += lat
        checks += chk
        untraced_s += sum(lat)
        if tracer is not None:
            tracer.install()
            try:
                tlat, tchk, touts = _run_pass(ops, tracer, passes)
            finally:
                tracer.uninstall()
            checks += tchk
            traced_s += sum(tlat)
            bytes_out += sum(len(o.stdout.encode()) for o in touts if hasattr(o, "stdout"))
        if passes == 0:
            units_per_pass = sum(op.units for op in ops)
            if reference is None:
                ref_checks = chk
        wl.release(passes)
        passes += 1
        elapsed = perf_counter() - start
        if elapsed * (passes + 1) / passes > seconds:
            break
    mismatches = _repeat_mismatches(ref_ops, ref_outcomes) if wl.repeat_check else 0
    return {
        "passes": passes,
        "latencies_s": latencies,
        "attempted": len(checks),
        "failed": sum(1 for ok, _ in checks if not ok) + mismatches,
        "worst_residual_rel": max((r for _, r in ref_checks if r is not None), default=0.0),
        "units_per_pass": units_per_pass,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "bytes_out": bytes_out,
    }


def environment():
    import numpy as np
    import scipy

    def blas(cfg):
        dep = cfg.get("Build Dependencies", {}).get("blas", {})
        return {"name": dep.get("name"), "version": dep.get("version"),
                "config": dep.get("openblas configuration")}

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--spans", default=None, help="write the traced spans here")
    args = ap.parse_args(argv)

    import numpy as np

    import opshort

    if Path(opshort.__file__).resolve().parent != SRC / "opshort":
        raise SystemExit(f"bench: opshort imported from {opshort.__file__}, not from {SRC}")

    import tracing
    import workloads

    workdir = BENCH_DIR / "work" / f"{args.workload}-{os.getpid()}"
    tracer = None
    try:
        wl = workloads.make(args.workload, args.seed, args.tiny, workdir)
        reference = None
        if wl.seeded:
            reference = workloads.make(
                args.workload, REFERENCE_SEED, args.tiny, workdir / "reference"
            )
        if args.trace:
            modules = [getattr(opshort, name) for name in tracing.LAYERS]
            tracer = tracing.Tracer(modules, [opshort, np.linalg, np.linalg._linalg])
        result = measure(wl, reference, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still has its files there
            pass
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["environment"] = environment()
    if tracer is not None:
        overhead = (result["traced_s"] - result["untraced_s"]) / result["untraced_s"]
        values, result["inclusive_s"] = tracer.layer_metrics(
            result["passes"], result["bytes_out"], overhead
        )
        result["layers"] = {name: {"value": values[name], "unit": unit}
                            for name, unit in tracing.layer_metric_specs()}
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
