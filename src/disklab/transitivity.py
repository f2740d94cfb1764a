"""Junction and cross scans over powers, and dynamical-class detection.

A junction scan asks, power by power, whether some disk scaling of T^n maps a
source ball into a target ball.  Detection runs scans over sampled ball pairs
and returns a three-way verdict: confirmed up to the horizon, refuted with a
certificate that extends beyond it, or inconclusive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .criteria import make_vector_sampler
from .hitsolver import (
    DISK,
    FIXED,
    HIT,
    MISS_CERTIFIED,
    Certificate,
    HitProblem,
    solve_hit,
)
from .operators import (
    OperatorError,
    OperatorSpec,
    apply,
    components_of,
    ensure_power_fits,
    overflow_checked,
    right_inverse,
)
from .vectorspace import (
    Ball,
    ComplexVector,
    IndexWindow,
    ProductBall,
    norm,
    trial_draws,
)

__all__ = [
    "DISK_TRANSITIVE",
    "K_BITRANSITIVE",
    "COMPOUND",
    "MIXING",
    "CONFIRMED",
    "REFUTED",
    "INCONCLUSIVE",
    "JunctionEntry",
    "JunctionReport",
    "junction_scan",
    "CrossReport",
    "cross_scan",
    "TrialRecord",
    "Verdict",
    "detect",
    "make_ball_sampler",
    "disk_orbit_norms",
    "guard_scan_window",
]

DISK_TRANSITIVE = "disk_transitive"
K_BITRANSITIVE = "k_bitransitive"
COMPOUND = "compound"
MIXING = "mixing"

CONFIRMED = "confirmed_up_to_horizon"
REFUTED = "refuted_with_certificate"
INCONCLUSIVE = "inconclusive"

_KINDS = (DISK_TRANSITIVE, K_BITRANSITIVE, COMPOUND, MIXING)

# cofinite kinds confirm only when every trial's hit tail starts within this
# share of the horizon
TAIL_FRACTION = 0.5


def guard_scan_window(
    components: Sequence[OperatorSpec],
    horizon: int,
    sources: ProductBall,
    targets: ProductBall,
) -> None:
    """Raise WindowGuardError if scanning to the horizon would shed mass of
    the ball centers (operator powers forward, right-inverse powers backward)."""
    comps = components_of(components)
    for i, op in enumerate(comps):
        ensure_power_fits(op, horizon, sources.balls[i].center)
        try:
            s = right_inverse(op)
        except OperatorError:
            continue
        ensure_power_fits(s, horizon, targets.balls[i].center)


@dataclass(frozen=True)
class JunctionEntry:
    n: int
    status: str
    alphas: tuple[complex, ...] | None = None
    residuals: tuple[float, ...] | None = None
    certificate: Certificate | None = None


@dataclass(frozen=True)
class JunctionReport:
    horizon: int
    entries: tuple[JunctionEntry, ...]  # one per n in [0, horizon]
    hit_set: frozenset[int]  # powers n >= 1 with a witnessed hit
    tail_start: int | None  # least N >= 1 with hits at every n in [N, horizon]

    def entry(self, n: int) -> JunctionEntry:
        return self.entries[n]


def junction_scan(
    components: Sequence[OperatorSpec],
    sources: ProductBall,
    targets: ProductBall,
    horizon: int,
    mode: str = DISK,
    fixed_alphas: tuple[complex, ...] | None = None,
) -> JunctionReport:
    """Solve the hit problem at every power n in [0, horizon].

    Power 0 is recorded for completeness but never counts toward hit_set or
    tail_start: the identity carries no dynamical information.  The window
    guard runs first, so no power sheds ball-center mass past the window edge.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    comps = components_of(components)
    guard_scan_window(comps, horizon, sources, targets)
    entries = []
    for n in range(horizon + 1):
        res = solve_hit(
            HitProblem(
                components=comps,
                n=n,
                sources=sources,
                targets=targets,
                mode=mode,
                fixed_alphas=fixed_alphas,
            )
        )
        witness = res.witness
        entries.append(
            JunctionEntry(
                n=n,
                status=res.status,
                alphas=witness.alphas if witness else None,
                residuals=witness.residuals if witness else res.best_residuals,
                certificate=res.certificate,
            )
        )
    hit_set = frozenset(e.n for e in entries if e.status == HIT and e.n >= 1)
    tail_start = None
    for start in range(1, horizon + 1):
        if all(m in hit_set for m in range(start, horizon + 1)):
            tail_start = start
            break
    return JunctionReport(
        horizon=horizon,
        entries=tuple(entries),
        hit_set=hit_set,
        tail_start=tail_start,
    )


@dataclass(frozen=True)
class CrossReport:
    horizon: int
    forward: frozenset[int]  # powers hitting source -> target
    backward: frozenset[int]  # powers hitting target -> source
    junction: frozenset[int]  # their intersection
    forward_report: JunctionReport
    backward_report: JunctionReport


def cross_scan(
    components: Sequence[OperatorSpec],
    a: ProductBall,
    b: ProductBall,
    horizon: int,
    mode: str = DISK,
    fixed_alphas: tuple[complex, ...] | None = None,
) -> CrossReport:
    """Hit powers in both directions between two ball tuples, plus the
    two-sided junction set."""
    fwd = junction_scan(components, a, b, horizon, mode, fixed_alphas)
    bwd = junction_scan(components, b, a, horizon, mode, fixed_alphas)
    return CrossReport(
        horizon=horizon,
        forward=fwd.hit_set,
        backward=bwd.hit_set,
        junction=fwd.hit_set & bwd.hit_set,
        forward_report=fwd,
        backward_report=bwd,
    )


@dataclass(frozen=True)
class TrialRecord:
    index: int
    first_hit: int | None
    tail_start: int | None
    certified_all: bool  # every n in [1, horizon] certified, extension valid
    certified_tail_from: int | None  # suffix fully certified, extension valid
    hit_count: int


@dataclass(frozen=True)
class Verdict:
    kind: str
    verdict: str
    horizon: int
    trials: tuple[TrialRecord, ...]
    refuting_trial: int | None = None


def make_ball_sampler(
    window: IndexWindow,
    arity: int,
    radius: float = 0.45,
    support: int = 2,
    bound: float = 1.0,
    band: int | None = None,
    modulus_lo: float | None = 0.5,
) -> Callable[[object], ProductBall]:
    """Sampler of ball tuples of one radius around the finitely supported
    vectors make_vector_sampler draws.

    The default keeps center coefficients with modulus in [0.5, 1.0] so that
    certificates have room on both sides of the radius.
    """
    centers = make_vector_sampler(window, arity, support, bound, band, modulus_lo)

    def sample(seed) -> ProductBall:
        return ProductBall(tuple(Ball(c, radius) for c in centers(seed).parts))

    return sample


def _kind_mode(kind: str, arity: int) -> tuple[str, tuple[complex, ...] | None]:
    if kind == MIXING:
        return FIXED, (1.0 + 0j,) * arity
    return DISK, None


def detect(
    kind: str,
    components: Sequence[OperatorSpec],
    ball_sampler: Callable[[object], ProductBall],
    trials: int = 20,
    horizon: int = 40,
    seed: int = 0,
) -> Verdict:
    """Sample ball tuples and scan for the behavior the kind demands.

    Existential kinds (disk_transitive, k_bitransitive) confirm when every
    trial hits at some power n >= 1; they refute only when a trial certifies
    misses at every power including past the horizon.  Cofinite kinds
    (compound, mixing) confirm when every trial hits at all powers from some
    tail_start <= TAIL_FRACTION * horizon on; they refute when a trial
    certifies a full suffix of misses that extends beyond the horizon.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    # all() over no trials is true: an empty sample must not confirm
    if trials < 1 or horizon < 1:
        raise ValueError("trials and horizon must be at least 1")
    comps = components_of(components)
    mode, fixed_alphas = _kind_mode(kind, len(comps))

    def run_trial(t: int, sources: ProductBall, targets: ProductBall) -> TrialRecord:
        rep = junction_scan(comps, sources, targets, horizon, mode, fixed_alphas)
        cert_tail = _certified_suffix(rep)
        return TrialRecord(
            index=t,
            first_hit=min(rep.hit_set) if rep.hit_set else None,
            tail_start=rep.tail_start,
            certified_all=cert_tail == 1,
            certified_tail_from=cert_tail,
            hit_count=len(rep.hit_set),
        )

    draws = trial_draws(seed, trials, (ball_sampler, ball_sampler))
    records = [run_trial(t, sources, targets) for t, (sources, targets) in enumerate(draws)]
    if kind in (DISK_TRANSITIVE, K_BITRANSITIVE):
        refutes = lambda r: r.certified_all
        confirms = lambda r: r.first_hit is not None
    else:
        tail_cut = max(1, math.ceil(horizon * TAIL_FRACTION))
        refutes = lambda r: r.certified_tail_from is not None
        confirms = lambda r: r.tail_start is not None and r.tail_start <= tail_cut
    refuting = next((r.index for r in records if refutes(r)), None)
    if refuting is not None:
        verdict = REFUTED
    elif all(confirms(r) for r in records):
        verdict = CONFIRMED
    else:
        verdict = INCONCLUSIVE
    return Verdict(
        kind=kind,
        verdict=verdict,
        horizon=horizon,
        trials=tuple(records),
        refuting_trial=refuting,
    )


def _certified_suffix(rep: JunctionReport) -> int | None:
    """Least n0 >= 1 with every n in [n0, horizon] certified missed and the
    horizon certificate valid for all larger powers; None if no such suffix."""
    last = rep.entries[rep.horizon]
    if last.certificate is None or not last.certificate.extends_past_horizon:
        return None
    n0 = rep.horizon
    while n0 > 1 and rep.entries[n0 - 1].status == MISS_CERTIFIED:
        n0 -= 1
    return n0


@overflow_checked(lambda op, x, horizon: f"powers up to {horizon}")
def disk_orbit_norms(op: OperatorSpec, x: ComplexVector, horizon: int) -> np.ndarray:
    """Norms ||T^n x|| for n in [0, horizon] on the truncated window."""
    norms = [norm(x)]
    for _ in range(horizon):
        x = apply(op, x)
        norms.append(norm(x))
    return np.array(norms)
