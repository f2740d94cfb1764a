"""Run one disklab benchmark workload and print its metrics.

    python3 bench/run.py --workload mixed-sum-scan --seed 404 --seconds 36 --trace 0

Run from the root of a source checkout: disklab is imported from ``src/``.
The run sets up (import plus input generation) in fresh interpreters, then
repeats passes over the same inputs for ``--seconds`` seconds, one call at a
time, and reports medians over passes.  With ``--trace 0`` the last line of
standard output is one JSON object with the end-to-end metrics; with
``--trace 1`` half the time runs untraced passes and half traced ones, the
metrics are the per-layer metrics of the median traced pass, and its spans
are written to ``bench/out/``.  The line before the result describes the
run (environment, counts, failures).  The exit code is 0 when every output
check passed, 1 when one failed and 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

# set-up as a user pays it: a fresh interpreter imports disklab and builds
# the workload inputs; interpreter start-up itself is not counted
_SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
import workloads
workloads.WORKLOADS[sys.argv[1]].build(int(sys.argv[2]), float(sys.argv[3]))
elapsed = time.perf_counter() - t0
import hostprobe
print(elapsed, sorted(hostprobe.probe() for _ in range(3))[1])
"""


def pin_environment() -> dict:
    """Single-threaded BLAS and no LAB_THREADS, for this process and its children."""
    os.environ.pop("LAB_THREADS", None)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(BENCH_DIR))))


def measure_setup(workload: str, seed: int, scale: float, env: dict) -> list[tuple[float, float]]:
    """(set-up seconds, host probe seconds) from each fresh interpreter."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, workload, str(seed), repr(scale)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        elapsed, probe = proc.stdout.strip().splitlines()[-1].split()
        times.append((float(elapsed), float(probe)))
    return times


def cpu_seconds() -> float:
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


@dataclass
class Pass:
    """One pass over the inputs: raw timings, the host-speed factor, verdict
    counts and check results."""

    wall: float
    cpu: float
    scale: float
    outcomes: dict
    checks: object
    tracer: object = None


def run_passes(workload, inputs, until: float, traced: bool) -> list[Pass]:
    """Repeat passes until the next one would end after `until` (at least one)."""
    import hostprobe
    import tracing
    import workloads

    passes: list[Pass] = []
    while True:
        counter = tracing.OutcomeCounter()
        if traced:
            checks, tracer = workloads.Checks(), tracing.Tracer()
            with counter, tracer:
                _, wall = tracer.root(workload.run_pass, inputs, checks)
            cpu, scale = float("nan"), float("nan")
        else:
            host, tracer = hostprobe.HostSampler(), None
            checks = workloads.Checks(host=host)
            with counter:
                c0, t0 = cpu_seconds(), time.perf_counter()
                workload.run_pass(inputs, checks)
                wall = time.perf_counter() - t0 - host.spent_wall
                cpu = cpu_seconds() - c0 - host.spent_cpu
            scale = host.scale()
        passes.append(Pass(wall, cpu, scale, dict(counter.outcomes), checks, tracer))
        typical = statistics.median(p.wall for p in passes)
        if time.perf_counter() + typical > until:
            return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="cli-scenarios, mixed-sum-scan or certificate-oracle")
    parser.add_argument("--seed", type=int, default=None, help="input seed (default: the acceptance seed)")
    parser.add_argument("--seconds", type=float, default=36.0, help="how long to repeat passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="input size factor; below 1 for self-tests")
    args = parser.parse_args(argv)

    if not (SRC / "disklab" / "__init__.py").is_file():
        print(f"error: no disklab sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    env = pin_environment()
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import numpy as np

    import hostprobe
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (known: {', '.join(workloads.WORKLOADS)})")
    workload = workloads.WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed

    setup = measure_setup(args.workload, seed, args.scale, env)
    inputs = workload.build(seed, args.scale)

    start = time.perf_counter()
    untraced_until = start + (args.seconds / 2 if args.trace else args.seconds)
    passes = run_passes(workload, inputs, untraced_until, traced=False)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced = run_passes(workload, inputs, start + args.seconds, traced=True) if args.trace else []

    failures = [f for p in passes + traced for f in p.checks.failures]
    # each pass after the first also counts as one determinism check
    attempted = sum(p.checks.attempted for p in passes + traced) + len(passes) + len(traced) - 1
    first = passes[0].outcomes
    for k, p in enumerate(passes[1:] + traced, start=2):
        if p.outcomes != first:
            failures.append(f"pass {k} decided {p.outcomes}, pass 1 decided {first}")
    decided = sum(first.values())
    raw_verdict_s = statistics.median(p.wall for p in passes)

    if args.trace:
        chosen = sorted(traced, key=lambda p: p.wall)[(len(traced) - 1) // 2]
        metrics = chosen.tracer.layer_metrics()
        metrics["trace.verdict_s"] = {"value": chosen.wall, "unit": "s"}
        metrics["trace.overhead"] = {"value": chosen.wall / raw_verdict_s, "unit": "ratio"}
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"{args.workload}-seed{seed}.spans.tsv.gz"
        chosen.tracer.write(trace_path, f"workload={args.workload} seed={seed} scale={args.scale}")
    else:
        ref = hostprobe.PROBE_REF_S
        metrics = {
            "setup_s": {"value": statistics.median(t * ref / probe for t, probe in setup), "unit": "s"},
            "verdict_s": {"value": statistics.median(p.wall * p.scale for p in passes), "unit": "s"},
            "cpu_s": {"value": statistics.median(p.cpu * p.scale for p in passes), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "undecided_share": {"value": first.get("miss_uncertain", 0) / decided if decided else 0.0, "unit": "ratio"},
        }

    info = {
        "workload": args.workload,
        "seed": seed,
        "scale": args.scale,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "passes": len(passes),
        "traced_passes": len(traced),
        "raw_pass_s": [round(p.wall, 4) for p in passes],
        "raw_pass_cpu_s": [round(p.cpu, 4) for p in passes],
        "host_scale": [round(p.scale, 4) for p in passes],
        "traced_pass_s": [round(p.wall, 4) for p in traced],
        "raw_setup_s": [round(t, 4) for t, _ in setup],
        "problems_per_pass": decided,
        "outcomes_per_pass": first,
        "checks_per_pass": passes[0].checks.attempted,
        "failed_share": len(failures) / attempted,
        "failures": failures[:20],
    }
    if args.trace:
        info["spans"] = len(chosen.tracer.spans)
        info["trace_file"] = str(trace_path.relative_to(ROOT))
        info["solve_hit_tail_percentiles"] = {
            o: tracing.tail_rank(int(metrics[f"hitsolver.solve_hit.{o}.count"]["value"]))
            for o in tracing.OUTCOMES
        }
    print(json.dumps(info))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
