"""Self-tests of the benchmark: python3 -m pytest bench -q  (about two minutes)."""

from __future__ import annotations

import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("cli-scenarios", "mixed-sum-scan", "certificate-oracle")
END_TO_END = {"setup_s": "s", "verdict_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "undecided_share": "ratio"}
TINY = ("--scale", "0.1", "--seconds", "0")


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict, dict]:
    """Run bench/run.py; returns (exit code, info line, result line)."""
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    assert len(lines) >= 2, proc.stdout + proc.stderr
    return proc.returncode, json.loads(lines[-2]), json.loads(lines[-1])


def declared_metrics() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]}, {m["name"]: m["unit"] for m in spec["per_layer"]})


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_end_to_end_metric(workload):
    code, info, result = bench("--workload", workload, "--trace", "0", *TINY)
    assert code == 0 and result["correct"] and result["failed"] == 0, info["failures"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] == (info["checks_per_pass"] + 1) * info["passes"] - 1 >= 1
    end_to_end, _ = declared_metrics()
    assert end_to_end == END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert info["cpu_count"] and info["python"] and info["numpy"]
    scaled = statistics.median(t * f for t, f in zip(info["raw_pass_s"], info["host_scale"]))
    assert math.isclose(result["metrics"]["verdict_s"]["value"], scaled, rel_tol=1e-3)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_and_self_times_add_up(workload):
    _, untraced_info, untraced = bench("--workload", workload, "--trace", "0", *TINY)
    runs = [bench("--workload", workload, "--trace", "1", *TINY) for _ in range(2)]
    _, per_layer = declared_metrics()
    for code, info, result in runs:
        assert code == 0 and result["correct"], info["failures"]
        metrics = result["metrics"]
        assert {k: v["unit"] for k, v in metrics.items()} == per_layer
        self_total = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
        assert math.isclose(self_total, metrics["trace.verdict_s"]["value"], rel_tol=1e-9, abs_tol=1e-9)

    counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] in ("count", "calls/problem")} for _, _, r in runs]
    assert counts[0] == counts[1]
    outcomes = {o: counts[0][f"hitsolver.solve_hit.{o}.count"] for o in ("hit", "miss_certified", "miss_uncertain")}
    assert outcomes == {o: untraced_info["outcomes_per_pass"].get(o, 0) for o in outcomes}
    share = outcomes["miss_uncertain"] / sum(outcomes.values())
    assert share == untraced["metrics"]["undecided_share"]["value"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_non_default_seed_passes_every_output_check(workload):
    code, info, result = bench("--workload", workload, "--seed", "17", "--seconds", "0", "--trace", "0")
    assert code == 0 and result["correct"] and result["failed"] == 0, info["failures"]
    assert info["seed"] == 17 and info["scale"] == 1.0


def test_tracer_reproduces_criterion_4_counts():
    """Criterion 4 (seed 404, 50 trials, horizon 25) has known counts."""
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    try:
        import tracing
        import workloads

        inputs = workloads.build_mixed(404, trials=50, horizon=25)
        checks = workloads.Checks()
        with tracing.Tracer() as tracer:
            tracer.root(workloads.run_mixed, inputs, checks)
    finally:
        del sys.path[:2]
    assert checks.attempted == 50 and not checks.failures
    metrics = {k: v["value"] for k, v in tracer.layer_metrics().items()}
    assert metrics["hitsolver.solve_hit.calls"] == 3874
    assert metrics["hitsolver.solve_hit.miss_uncertain.count"] == 1253
    assert metrics["hitsolver.constrained_lsq.calls"] == 99350


@pytest.mark.xfail(strict=True, reason="solver gap: an uncertain miss the 1e5-sample oracle beats (ROADMAP item 4)")
def test_known_solver_gap_at_seed_14():
    """Criterion 5's check on seed 14's dense matrices, trial 1.

    The solver ends `miss_uncertain` with a best residual of 0.888782; the
    oracle finds 0.888055.  This is why `certificate-oracle` keeps criterion
    5's own matrices.  When the solver closes the gap this test passes, which
    fails the suite: then let `--seed` draw the dense matrices again.
    """
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    try:
        import numpy as np
        import workloads

        rng = np.random.default_rng(14)
        children = np.random.SeedSequence(14).spawn(6)
        problems = [workloads.dense_problem(rng, children[3 * t : 3 * t + 2], 6) for t in range(2)]
        problem = workloads._check_against_oracle(problems[1], workloads.ORACLE_SAMPLES, children[5])
    finally:
        del sys.path[:2]
    assert problem is None, problem


def test_failed_check_exits_nonzero(tmp_path):
    """A wrong expected verdict must fail the run, not pass silently."""
    checkout = tmp_path / "checkout"
    shutil.copytree(ROOT / "src", checkout / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH_DIR, checkout / "bench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    workloads = checkout / "bench" / "workloads.py"
    text = workloads.read_text()
    workloads.write_text(text.replace('"diagonal-spectral-split": "pass"', '"diagonal-spectral-split": "fail"', 1))
    code, info, result = bench("--workload", "cli-scenarios", "--trace", "0", *TINY, cwd=checkout)
    assert code == 1 and not result["correct"] and result["failed"] >= 1
    assert any("diagonal-spectral-split" in f for f in info["failures"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-scenarios", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
