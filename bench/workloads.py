"""The three benchmark workloads, built from the acceptance suite's constructions.

Each workload is a closed loop: one caller, one call into disklab at a time.
``build(seed, scale)`` makes the inputs (this is set-up, not timed with the
verdicts); ``run_pass(inputs, checks)`` computes every verdict once and
records the output checks.  Library functions are always looked up through
their module at call time, so a tracer that patches module attributes sees
every call.

The checks test invariants that any correct solver keeps, not golden
digests: a change that turns an uncertain power into a hit or a
certificate still passes them.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field

import numpy as np

import disklab
from disklab import cli, hitsolver, transitivity

# certificate-oracle sampling sizes: criterion 5's oracle size, used for the
# certificate searches too (criterion 8 uses 1e6, too slow for repeated passes)
ORACLE_SAMPLES = 100_000
CERT_POWERS = (2, 3, 5, 9, 17, 33, 40)
DENSE_ORACLE_TRIALS = 20


@dataclass
class Checks:
    """Output checks of one pass: how many were made and which failed.

    With a host sampler, the host-speed probe runs between checks."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    host: object = None  # hostprobe.HostSampler

    def run(self, label: str, fn, *args) -> None:
        """Run one checked operation; an exception or a returned message fails it."""
        if self.host is not None:
            self.host.maybe_probe()
        self.attempted += 1
        try:
            problem = fn(*args)
        except Exception:  # a raising operation is a failed operation, not a crash
            problem = traceback.format_exc(limit=3).strip().splitlines()[-1]
        if problem:
            self.failures.append(f"{label}: {problem}")


# --- cli-scenarios ----------------------------------------------------------

# verdict each scenario returns at the seed commit with default parameters
SCENARIO_VERDICTS = {
    "shift-compound-not-mixing": "pass",
    "diagonal-spectral-split": "pass",
    "cross-junction-equivalence": "pass",
    "scalar-derivation-roundtrip": "pass",
    "compound-plus-transitive": "confirmed_up_to_horizon",
    "direct-sum-diskcyclic-criterion": "pass",
}
SEEDLESS_SCENARIOS = ("diagonal-spectral-split",)
# default trial and sample counts of the scenarios that have them
SCENARIO_COUNTS = {
    "shift-compound-not-mixing": {"trials": 5},
    "cross-junction-equivalence": {"trials": 5},
    "scalar-derivation-roundtrip": {"sample_count": 10},
    "compound-plus-transitive": {"trials": 20},
    "direct-sum-diskcyclic-criterion": {"trials": 10, "sample_count": 10},
}


def build_cli(seed: int, scale: float = 1.0) -> list[dict]:
    """One scenario config per named scenario.

    `scale` < 1 cuts trial and sample counts (never horizons, which the
    verdicts depend on) for self-tests.
    """
    configs = []
    for sid in SCENARIO_VERDICTS:
        params: dict = {"id": sid}
        if sid not in SEEDLESS_SCENARIOS:
            params["seed"] = seed
        if scale < 1.0:
            params.update({k: max(1, int(n * scale)) for k, n in SCENARIO_COUNTS.get(sid, {}).items()})
        configs.append({"experiment": "scenario", "parameters": params})
    return configs


def run_cli(configs: list[dict], checks: Checks) -> None:
    for cfg in configs:
        checks.run(cfg["parameters"]["id"], _check_scenario, cfg)


def _check_scenario(cfg: dict) -> str | None:
    outcome, _ = cli.run(cfg)
    want = SCENARIO_VERDICTS[cfg["parameters"]["id"]]
    if outcome.verdict != want:
        return f"verdict {outcome.verdict!r}, expected {want!r}"
    return None


# --- mixed-sum-scan ---------------------------------------------------------

MIXED_COMPONENT_SEED = 404
# Criterion 4 scans 50 trials to horizon 25.  A trial with a |c| >= 1.5 scalar
# ends uncertain at nearly every power or at none, so with 50 trials the work
# and the undecided share swing by about 8% (one standard deviation) from
# seed to seed.  Twice the trials at a shorter horizon cut that swing while a
# pass stays short enough to repeat within one run.
MIXED_TRIALS = 100
MIXED_HORIZON = 10


@dataclass(frozen=True)
class MixedTrial:
    components: tuple
    sources: object
    targets: object


def build_mixed(seed: int, scale: float = 1.0, trials: int = MIXED_TRIALS, horizon: int = MIXED_HORIZON) -> dict:
    """Criterion 4's direct-sum trials.

    The component tuples continue criterion 4's draw with its seed 404, so
    every seed runs the same mix of shifts and scalars; `seed` draws the balls
    as criterion 4 does.  Seed 404 with 50 trials and horizon 25 is
    criterion 4 itself.
    """
    window = disklab.IndexWindow(disklab.BILATERAL, 32)
    pool = (
        disklab.ForwardShift(disklab.WeightProfile(2.0, 3.0)),
        disklab.ForwardShift(disklab.WeightProfile(2.0, 4.0)),
        disklab.Scalar(0.5),
        disklab.Scalar(2.0),
        disklab.Scalar(complex(0.0, 1.5)),
    )
    trials = max(3, int(trials * scale))
    horizon = max(3, int(horizon * scale))
    comp_rng = np.random.default_rng(MIXED_COMPONENT_SEED)
    children = np.random.SeedSequence(seed).spawn(2 * trials)
    out = []
    for trial in range(trials):
        k = trial % 3 + 1
        comps = tuple(pool[i] for i in comp_rng.integers(0, len(pool), size=k))
        sampler = transitivity.make_ball_sampler(window, k, band=1)
        out.append(
            MixedTrial(
                comps,
                sampler(np.random.default_rng(children[2 * trial])),
                sampler(np.random.default_rng(children[2 * trial + 1])),
            )
        )
    return {"horizon": horizon, "trials": out}


def run_mixed(inputs: dict, checks: Checks) -> None:
    horizon = inputs["horizon"]
    for t, trial in enumerate(inputs["trials"]):
        checks.run(f"trial {t}", _check_mixed_trial, trial, horizon)


def _check_mixed_trial(trial: MixedTrial, horizon: int) -> str | None:
    joint = transitivity.junction_scan(trial.components, trial.sources, trial.targets, horizon)
    parts = [
        transitivity.junction_scan(
            [op],
            disklab.ProductBall((trial.sources.balls[i],)),
            disklab.ProductBall((trial.targets.balls[i],)),
            horizon,
        )
        for i, op in enumerate(trial.components)
    ]
    for n in range(horizon + 1):
        joint_hit = joint.entry(n).status == disklab.HIT
        comp_hit = all(p.entry(n).status == disklab.HIT for p in parts)
        if joint_hit != comp_hit:
            return f"n={n}: joint hit {joint_hit}, components {comp_hit}"
    return None


# --- certificate-oracle -----------------------------------------------------

CERT_DENSE_REVERIFY_OFFSET = 303  # criterion 8's dense seed 808 = 505 + 303
# criterion 5's corpus: the 20 dense problems its solver-beats-oracle claim is made on
DENSE_CORPUS_SEED = 505


def dense_problem(rng, ball_seeds, n_end: int) -> disklab.HitProblem:
    """One dense 4x4 disk problem as criteria 5 and 8 draw it: the matrix,
    then the power from `rng`; each ball from its own seed."""
    sampler = transitivity.make_ball_sampler(disklab.IndexWindow(disklab.UNILATERAL, 3), 1, support=2)
    mat = 0.5 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    return disklab.HitProblem(
        (disklab.Dense(mat),),
        int(rng.integers(1, n_end)),
        sampler(np.random.default_rng(ball_seeds[0])),
        sampler(np.random.default_rng(ball_seeds[1])),
        disklab.DISK,
    )


def build_oracle(seed: int, scale: float = 1.0) -> dict:
    """Criterion 5's dense solves and criterion 8's soundness corpus.

    The dense oracle problems are always criterion 5's (seed 505); `seed`
    seeds their oracles as criterion 5 does, so seed 505 is criterion 5
    itself.  Other dense matrices are not used because the solver's search
    over the scalar disk does not always reach the oracle's best residual on
    them (seed 14's matrices, trial 1: see ``test_known_solver_gap_at_seed_14``).
    The dense re-verification trials use seed + 303 (criterion 8's 808 at
    the default).  The certificate problems on the balanced shift are fixed;
    `seed` only seeds their oracles.
    """
    samples = max(1000, int(ORACLE_SAMPLES * scale))
    rng = np.random.default_rng(DENSE_CORPUS_SEED)
    trials = max(2, int(DENSE_ORACLE_TRIALS * scale))
    children = np.random.SeedSequence(DENSE_CORPUS_SEED).spawn(3 * trials)
    oracle_children = np.random.SeedSequence(seed).spawn(3 * trials)
    oracle_trials = [
        (dense_problem(rng, children[3 * t : 3 * t + 2], 6), oracle_children[3 * t + 2]) for t in range(trials)
    ]

    reverify_seed = seed + CERT_DENSE_REVERIFY_OFFSET
    rng = np.random.default_rng(reverify_seed)
    dense_children = np.random.SeedSequence(reverify_seed).spawn(10)
    reverify = [
        dense_problem(rng, dense_children[2 * t : 2 * t + 2], 5) for t in range(max(1, int(5 * scale)))
    ]

    shift = disklab.ForwardShift(disklab.WeightProfile(2.0, 3.0))
    window = disklab.IndexWindow(disklab.BILATERAL, 64)
    ball = disklab.ProductBall((disklab.Ball(disklab.ComplexVector.basis(window, 0), 0.5),))
    reverify += [
        disklab.HitProblem((shift,), n, ball, ball, disklab.DISK) for n in range(1, max(2, int(40 * scale)) + 1)
    ]

    cert_window = disklab.IndexWindow(disklab.BILATERAL, 48)
    cert_ball = disklab.ProductBall((disklab.Ball(disklab.ComplexVector.basis(cert_window, 0), 0.5),))
    powers = CERT_POWERS if scale >= 1.0 else CERT_POWERS[:2]
    certs = [
        (
            disklab.HitProblem((shift,), n, cert_ball, cert_ball, disklab.FIXED, (1.0,)),
            np.random.SeedSequence([seed, n]),
        )
        for n in powers
    ]
    small = disklab.IndexWindow(disklab.BILATERAL, 4)
    contraction_ball = disklab.ProductBall((disklab.Ball(disklab.ComplexVector.basis(small, 0), 0.2),))
    certs.append(
        (
            disklab.HitProblem((disklab.Scalar(0.5),), 3, contraction_ball, contraction_ball, disklab.DISK),
            np.random.SeedSequence([seed, 0]),
        )
    )
    return {"samples": samples, "oracle": oracle_trials, "reverify": reverify, "certs": certs}


def run_oracle(inputs: dict, checks: Checks) -> None:
    samples = inputs["samples"]
    for t, (p, oracle_seed) in enumerate(inputs["oracle"]):
        checks.run(f"dense oracle {t}", _check_against_oracle, p, samples, oracle_seed)
    for t, p in enumerate(inputs["reverify"]):
        checks.run(f"reverify {t}", _check_reverify, p)
    for t, (p, oracle_seed) in enumerate(inputs["certs"]):
        checks.run(f"certificate n={p.n}", _check_against_oracle, p, samples, oracle_seed)


def _check_reverify(p) -> str | None:
    result = hitsolver.solve_hit(p)
    return _check_witness(p, result) if result.status == disklab.HIT else None


def _check_witness(p, result) -> str | None:
    """A hit's residuals lie inside the target radii and re-verify to 1e-10."""
    radii = [b.radius for b in p.targets.balls]
    if not all(r < radius for r, radius in zip(result.witness.residuals, radii)):
        return f"witness residuals {result.witness.residuals} not inside the target radii {radii}"
    dev = hitsolver.reverify_witness(p, result.witness)
    if not dev <= 1e-10:
        return f"witness re-verifies to {dev:.3g} > 1e-10"
    return None


def _check_against_oracle(p, samples: int, oracle_seed) -> str | None:
    """No oracle sample beats a certificate, a hit's witness re-verifies, and
    a solver miss is at least as close as the oracle's best sample.

    A hit stops at the first point inside the target ball, so its residual
    is not compared with the oracle's best (at seed 17 three dense hits sit
    above it).
    """
    result = hitsolver.solve_hit(p)
    oracle = hitsolver.random_search(p, samples, seed=oracle_seed)
    if not result.max_kkt_residual <= 1e-8:
        return f"KKT residual {result.max_kkt_residual:.3g} > 1e-8"
    if result.status == disklab.MISS_CERTIFIED:
        c = result.certified_component
        if any(oracle.hits):
            return "a random sample hits a certified miss"
        if oracle.best_residuals[c] < result.lower_bound * (1 - 1e-12) - 1e-12:
            return f"sample residual {oracle.best_residuals[c]:.17g} below the certified bound {result.lower_bound:.17g}"
        return None
    if result.status == disklab.HIT:
        return _check_witness(p, result)
    for i, (mine, theirs) in enumerate(zip(result.best_residuals, oracle.best_residuals)):
        if not mine <= theirs + 1e-6:
            return f"component {i}: solver residual {mine:.9g} > oracle {theirs:.9g} + 1e-6"
    return None


@dataclass(frozen=True)
class Workload:
    build: object  # (seed, scale) -> inputs
    run_pass: object  # (inputs, Checks) -> None
    default_seed: int  # the acceptance seed the workload comes from


WORKLOADS = {
    "cli-scenarios": Workload(build_cli, run_cli, 0),
    "mixed-sum-scan": Workload(build_mixed, run_mixed, 404),
    "certificate-oracle": Workload(build_oracle, run_oracle, 505),
}
