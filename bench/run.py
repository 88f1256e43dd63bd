"""opshort benchmark: one workload per call, measured in a fresh child process.

Usage (from the repository root)::

    python3 bench/run.py --workload {sweep,cli,probes,verdicts} --seed N \\
        --seconds S --trace {0,1}

The workload runs in one child process with OpenBLAS, OpenMP and MKL pinned
to one thread, importing opshort from ``src/`` of the same tree.  Set-up time
is the median import time of ``opshort.cli`` over several fresh children.
With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced replay of every pass.  The line before it records the environment.
Each result is also written under ``bench/results/``.

``--tiny`` shrinks every workload for the smoke test; its numbers are not
comparable with full runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("sweep", "cli", "probes", "verdicts")
BLAS_THREADS = 1
SETUP_SAMPLES = 7
# the whole run must end within 180 s
DEADLINE_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("ok_frac", "frac"),
    ("worst_residual_rel", "rel"),
    ("peak_rss_mb", "MB"),
)

SETUP_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import opshort.cli\n"
    "t1 = time.perf_counter()\n"
    "print(t1 - t0)\n"
    "print(opshort.cli.__file__)\n"
)


def pin_to_one_cpu():
    """Keep this process and its children on one CPU.

    Unpinned, the single worker thread migrates between CPUs and loses its
    caches; on a 2-CPU machine that cost 15-25% of throughput and varied
    from run to run.  Returns the CPU chosen.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_samples(count, deadline):
    """Import time of ``opshort.cli`` in ``count`` fresh interpreters."""
    samples = []
    for _ in range(count):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, check=True, timeout=deadline - perf_counter(),
        ).stdout.splitlines()
        if Path(out[1]).resolve().parent != SRC / "opshort":
            raise RuntimeError(f"opshort imported from {out[1]}, not from {SRC}")
        samples.append(float(out[0]))
    return samples


def git_commit():
    """HEAD of the tree being measured, or None outside a git checkout."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def end_to_end(raw, setup):
    lat_ms = [x * 1000.0 for x in raw["latencies_s"]]
    if len(lat_ms) > 1:
        p90 = statistics.quantiles(lat_ms, n=10, method="inclusive")[-1]
    else:
        p90 = lat_ms[0]
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": raw["units_per_pass"] * raw["passes"] / raw["untraced_s"],
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": p90,
        "ok_frac": (raw["attempted"] - raw["failed"]) / raw["attempted"],
        "worst_residual_rel": raw["worst_residual_rel"],
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def main(argv=None):
    start = perf_counter()
    deadline = start + DEADLINE_S
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, required=True, choices=(0, 1))
    ap.add_argument("--tiny", action="store_true", help="small sizes, for the smoke test")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "opshort" / "__init__.py").is_file():
        print(f"bench: no opshort sources under {SRC}", file=sys.stderr)
        return 2

    cpu = pin_to_one_cpu()
    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    setup = setup_samples(3 if args.tiny else SETUP_SAMPLES, deadline)
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.tiny:
        cmd.append("--tiny")
    if args.trace:
        cmd += ["--spans", str(results / f"{stem}-spans.jsonl")]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
            timeout=deadline - perf_counter(),
        )
    except subprocess.TimeoutExpired:
        print(f"bench: {args.workload} did not finish within {DEADLINE_S:.0f} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"bench: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    env = dict(raw.pop("environment"), git_commit=git_commit(), workload=args.workload,
               seed=args.seed, seconds=args.seconds, trace=args.trace, tiny=args.tiny,
               pinned_cpu=cpu)
    metrics = raw["layers"] if args.trace else end_to_end(raw, setup)
    summary = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    record = dict(summary, environment=env, setup_samples_s=setup, passes=raw["passes"],
                  latencies_s=raw["latencies_s"],
                  inclusive_s=raw.get("inclusive_s"))
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"environment": env}, sort_keys=True))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
