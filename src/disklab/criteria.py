"""Sufficient-condition checkers and witness builders for disk-scaled dynamics.

Every criterion runs on one engine: each sampled pair is evaluated once into
its orbit norms ||T^n x||, ||S_n y|| and ||T^n S_n y - y|| per component and
power, and the scaled, scalar-free and derived-scalar forms are arithmetic on
those norms.  The compound criteria are the same conditions on one component
at every power n = 1..N rather than along a subsequence.  Two constructive
witnesses close the module: the eigenvector-split witness for diagonal-like
operators and the two-sided weighted shift witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from .hitsolver import ALPHA_FLOOR
from .operators import (
    ForwardShift,
    OperatorSpec,
    WeightProfile,
    apply,
    ensure_power_fits,
    overflow_checked,
    power_apply,
    right_inverse,
)
from .vectorspace import (
    ComplexVector,
    IndexWindow,
    ProductVector,
    as_rng,
    norm,
    sample_finite_support,
    trial_draws,
)

__all__ = [
    "CriterionError",
    "CriterionData",
    "ConditionCurve",
    "CriterionReport",
    "check_scaled_criterion",
    "check_scalar_free_criterion",
    "PairScalars",
    "DerivedScalars",
    "derive_scalars",
    "RoundTripReport",
    "roundtrip_scalar_derivation",
    "check_compound_scaled",
    "check_compound_scalar_free",
    "powers_of_right_inverse",
    "SpectralSplit",
    "SpectralWitnessReport",
    "spectral_witness",
    "ShiftWitness",
    "shift_witness",
    "make_vector_sampler",
]

TREND_SLACK = 1e-9


class CriterionError(ValueError):
    """Criterion preconditions violated or a construction has no answer."""


def make_vector_sampler(
    window: IndexWindow,
    arity: int = 1,
    support: int = 2,
    bound: float = 1.0,
    band: int | None = None,
    modulus_lo: float | None = None,
) -> Callable[[object], ProductVector]:
    """Finitely supported random vectors standing in for a dense set."""
    if arity < 1:
        raise ValueError("arity must be at least 1")

    def sample(seed) -> ProductVector:
        rng = as_rng(seed)
        return ProductVector(
            tuple(
                sample_finite_support(window, support, bound, rng, band, modulus_lo)
                for _ in range(arity)
            )
        )

    return sample


def _check_scalars(lams: Sequence[complex]) -> None:
    if any(v == 0 for v in lams):
        raise CriterionError("scalar sequences must be nonzero")
    if any(abs(v) > 1 + 1e-12 for v in lams):
        raise CriterionError("scalar sequences must stay in the closed unit disk")


BackwardMap = Callable[[int, ComplexVector], ComplexVector]


@dataclass(frozen=True)
class CriterionData:
    """Inputs for every criterion: operator tuple, backward maps, powers to
    probe, optional scalar sequences, and samplers for the pairs.

    A backward map is an operator S, meaning S_n = S^n and window-guarded
    like the components, or a callable (n, v) -> S_n v for an arbitrary
    sequence of maps, which is not guarded.  The compound criteria take one
    component probed at every power nk = (1, ..., N).
    """

    components: tuple[OperatorSpec, ...]
    smaps: tuple[OperatorSpec | BackwardMap, ...]
    nk: tuple[int, ...]
    xsampler: Callable[[object], ProductVector]
    ysampler: Callable[[object], ProductVector]
    lambdas: tuple[tuple[complex, ...], ...] | None = None
    tol: float = 1e-6
    sample_count: int = 25
    seed: int = 0

    def __post_init__(self):
        comps = tuple(self.components)
        smaps = tuple(self.smaps)
        nk = tuple(int(n) for n in self.nk)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "smaps", smaps)
        object.__setattr__(self, "nk", nk)
        if len(smaps) != len(comps):
            raise CriterionError("one backward map per component is required")
        if not nk or any(b <= a for a, b in zip(nk, nk[1:])) or nk[0] < 1:
            raise CriterionError("powers must be strictly increasing and positive")
        if self.lambdas is not None:
            lams = tuple(tuple(complex(v) for v in row) for row in self.lambdas)
            if len(lams) != len(comps) or any(len(row) != len(nk) for row in lams):
                raise CriterionError("scalar sequences must be per component, one per power")
            for row in lams:
                _check_scalars(row)
            object.__setattr__(self, "lambdas", lams)
        if self.sample_count < 1:
            raise CriterionError("sample_count must be at least 1")


@dataclass(frozen=True)
class ConditionCurve:
    label: str
    values: tuple[float, ...]  # envelope over sampled pairs, one per power
    passed: bool


@dataclass(frozen=True)
class CriterionReport:
    steps: tuple[int, ...]
    conditions: tuple[ConditionCurve, ...]
    passed: bool
    pairs: tuple[tuple[ProductVector, ProductVector], ...]
    per_pair: tuple[tuple[tuple[float, ...], ...], ...]  # [pair][condition][step]

    def condition(self, label: str) -> ConditionCurve:
        for c in self.conditions:
            if c.label == label:
                return c
        raise KeyError(label)


def _trend_ok(values: Sequence[float]) -> bool:
    q = max(2, math.ceil(len(values) / 4))
    tail = values[-q:]
    return all(b <= a * (1 + TREND_SLACK) + 1e-15 for a, b in zip(tail, tail[1:]))


def _passes(values: Sequence[float], tol: float) -> bool:
    return len(values) > 0 and values[-1] < tol and _trend_ok(values)


class _OrbitNorms(NamedTuple):
    """One sampled pair's norms, each [component][step]."""

    forward: list[list[float]]  # ||T^n x_i||
    backward: list[list[float]]  # ||S_n y_i||
    defect: list[list[float]]  # ||T^n S_n y_i - y_i||


@overflow_checked(lambda data, x, y: f"powers up to {data.nk[-1]}")
def _orbit_norms(data: CriterionData, x: ProductVector, y: ProductVector) -> _OrbitNorms:
    """The three norms of one sampled pair at every probed power, with each
    power applied once."""
    k = len(data.components)
    if x.arity != k or y.arity != k:
        raise CriterionError(
            f"samplers must draw one part per component ({k}), got {x.arity} and {y.arity}"
        )
    parts = tuple(zip(data.components, data.smaps, x.parts, y.parts))
    for t, s, xi, yi in parts:
        ensure_power_fits(t, data.nk[-1], xi)
        if isinstance(s, OperatorSpec):
            ensure_power_fits(s, data.nk[-1], yi)
    norms = _OrbitNorms([], [], [])
    for t, s, xi, yi in parts:
        rows = _OrbitNorms([], [], [])
        for n in data.nk:
            sn_y = power_apply(s, n, yi) if isinstance(s, OperatorSpec) else s(n, yi)
            rows.forward.append(norm(power_apply(t, n, xi)))
            rows.backward.append(norm(sn_y))
            rows.defect.append(norm(power_apply(t, n, sn_y) - yi))
        for table, row in zip(norms, rows):
            table.append(row)
    return norms


def _curves(norms: _OrbitNorms, lambdas=None) -> tuple[tuple[float, ...], ...]:
    """One pair's three condition curves, components summed in order.

    With scalars lambdas[component][step]: |lam| ||T^n x|| and
    ||S_n y|| / |lam|.  Scalar-free: ||T^n x|| ||S_n y|| and plain ||S_n y||.
    The round-trip defect is common to both forms.
    """
    forward, backward, defect = norms
    c1, c2, c3 = [], [], []
    for j in range(len(forward[0])):
        v1 = v2 = v3 = 0.0
        for i in range(len(forward)):
            tn_x, sn = forward[i][j], backward[i][j]
            if lambdas is None:
                v1 += tn_x * sn
                v2 += sn
            else:
                lam = abs(lambdas[i][j])
                v1 += lam * tn_x
                v2 += sn / lam
            v3 += defect[i][j]
        c1.append(v1)
        c2.append(v2)
        c3.append(v3)
    return tuple(c1), tuple(c2), tuple(c3)


def _sample_pairs(data: CriterionData) -> list[tuple[ProductVector, ProductVector]]:
    return trial_draws(data.seed, data.sample_count, (data.xsampler, data.ysampler))


def _evaluate(data: CriterionData) -> tuple[list, list[_OrbitNorms]]:
    pairs = _sample_pairs(data)
    return pairs, [_orbit_norms(data, x, y) for x, y in pairs]


def _report(data: CriterionData, pairs, per_pair, labels) -> CriterionReport:
    """Three conditions, each the envelope over the sampled pairs of their
    curves, one value per power."""
    envelopes = tuple(
        tuple(max(pp[c][j] for pp in per_pair) for j in range(len(data.nk))) for c in range(3)
    )
    conditions = tuple(
        ConditionCurve(label=labels[c], values=envelopes[c], passed=_passes(envelopes[c], data.tol))
        for c in range(3)
    )
    return CriterionReport(
        steps=data.nk,
        conditions=conditions,
        passed=all(c.passed for c in conditions),
        pairs=tuple(pairs),
        per_pair=tuple(per_pair),
    )


def _check(data: CriterionData, lambdas, labels) -> CriterionReport:
    pairs, norms = _evaluate(data)
    return _report(data, pairs, [_curves(nm, lambdas) for nm in norms], labels)


SCALED_LABELS = ("forward_decay", "backward_decay", "identity_defect")
SCALAR_FREE_LABELS = ("product_decay", "backward_decay", "identity_defect")


def check_scaled_criterion(data: CriterionData) -> CriterionReport:
    """Three decay conditions along the power subsequence, with scalars:
    scaled forward images of x vanish, inversely scaled backward images of y
    vanish, and forward-after-backward returns y."""
    if data.lambdas is None:
        raise CriterionError("the scaled criterion needs scalar sequences")
    return _check(data, data.lambdas, SCALED_LABELS)


def check_scalar_free_criterion(data: CriterionData) -> CriterionReport:
    """Scalar-free variant: the product of forward and backward image norms
    vanishes, backward images of y vanish, and forward-after-backward
    returns y.  Any scalar sequences on the data are ignored."""
    return _check(data, None, SCALAR_FREE_LABELS)


@dataclass(frozen=True)
class PairScalars:
    lambdas: tuple[tuple[float, ...], ...]  # [component][step], clamped to <= 1
    raw: tuple[tuple[float, ...], ...]  # unclamped ||S^n y|| / eps
    tail_index: int  # first step index from which no component needs clamping
    degenerate: bool  # some backward image vanished exactly


@dataclass(frozen=True)
class DerivedScalars:
    eps: float
    steps: tuple[int, ...]
    per_pair: tuple[PairScalars, ...]


def _check_eps(eps: float) -> None:
    if not (eps > 0):
        raise CriterionError("eps must be positive")


def _pair_scalars(norms: _OrbitNorms, eps: float) -> PairScalars:
    backward = norms.backward
    raw = tuple(tuple(sv / eps for sv in row) for row in backward)
    steps = len(raw[0])
    # one past the last step at which some component still needs clamping
    tail_index = max((j + 1 for j in range(steps) if not all(row[j] <= 1.0 for row in raw)), default=0)
    if tail_index == steps:
        raise CriterionError("eps too large: backward mass stays above it through the horizon")
    return PairScalars(
        lambdas=tuple(
            tuple(ALPHA_FLOOR if sv == 0.0 else min(sv / eps, 1.0) for sv in row) for row in backward
        ),
        raw=raw,
        tail_index=tail_index,
        degenerate=any(sv == 0.0 for row in backward for sv in row),
    )


def derive_scalars(data: CriterionData, eps: float) -> DerivedScalars:
    """Scalars lambda = ||S^n y|| / eps for each sampled pair.

    On the tail where ||S^n y|| <= eps this makes the inversely scaled
    backward mass exactly eps and keeps |lambda| <= 1; earlier steps clamp to
    1.  A vanishing backward image degenerates to a floor scalar and is
    flagged.  Raises when even the final power has backward mass above eps.
    """
    _check_eps(eps)
    per_pair = tuple(_pair_scalars(_orbit_norms(data, x, y), eps) for x, y in _sample_pairs(data))
    return DerivedScalars(eps=eps, steps=data.nk, per_pair=per_pair)


@dataclass(frozen=True)
class RoundTripReport:
    scalar_free: CriterionReport
    derived: DerivedScalars
    scaled_values: tuple[tuple[tuple[float, ...], ...], ...]  # [pair][condition][step]
    scaled_passes: tuple[bool, ...]
    tol: float
    passed: bool


def roundtrip_scalar_derivation(data: CriterionData, eps: float) -> RoundTripReport:
    """Scalar-free pass, derived scalars, then the scaled conditions re-checked
    pair by pair with those scalars, all from one evaluation of the pairs.

    The inversely scaled backward mass sits exactly at eps on the tail, so the
    scaled re-check runs at tolerance 1.01 * eps (or data.tol if larger).
    """
    pairs, norms = _evaluate(data)
    free = _report(data, pairs, [_curves(nm) for nm in norms], SCALAR_FREE_LABELS)
    _check_eps(eps)
    derived = DerivedScalars(eps, data.nk, tuple(_pair_scalars(nm, eps) for nm in norms))
    tol = max(data.tol, 1.01 * eps)
    scaled_values = tuple(_curves(nm, scal.lambdas) for nm, scal in zip(norms, derived.per_pair))
    passes = tuple(all(_passes(v, tol) for v in values) for values in scaled_values)
    return RoundTripReport(
        scalar_free=free,
        derived=derived,
        scaled_values=scaled_values,
        scaled_passes=passes,
        tol=tol,
        passed=free.passed and all(passes),
    )


def powers_of_right_inverse(op: OperatorSpec) -> BackwardMap:
    """The standard backward map sequence S_n = S^n, as an unguarded callable."""
    s = right_inverse(op)
    return lambda n, v: power_apply(s, n, v)


def _check_whole_sequence(data: CriterionData) -> None:
    # nk is strictly increasing and positive, so it is 1..N exactly when it ends at N
    if len(data.components) != 1 or len(data.nk) < 2 or data.nk[-1] != len(data.nk):
        raise CriterionError("compound criteria take one component and every power 1..N, N >= 2")


def check_compound_scaled(data: CriterionData) -> CriterionReport:
    """Whole-sequence scaled conditions: every power counts, no subsequence."""
    _check_whole_sequence(data)
    if data.lambdas is None:
        raise CriterionError("the scaled compound criterion needs scalars")
    return _check(data, data.lambdas, SCALED_LABELS)


def check_compound_scalar_free(data: CriterionData) -> CriterionReport:
    """Whole-sequence scalar-free conditions."""
    _check_whole_sequence(data)
    return _check(data, None, SCALAR_FREE_LABELS)


@dataclass(frozen=True)
class SpectralSplit:
    """Eigendata split by modulus around a threshold p, plus the connecting
    scalar c with p <= |c| < every large modulus."""

    op: OperatorSpec
    p: float
    small: tuple
    large: tuple
    c: complex

    def __post_init__(self):
        object.__setattr__(self, "small", tuple(self.small))
        object.__setattr__(self, "large", tuple(self.large))
        object.__setattr__(self, "c", complex(self.c))
        if not (self.p > 0):
            raise CriterionError("threshold p must be positive")
        if not self.large:
            raise CriterionError("at least one large eigenpair is required")
        if any(abs(e.value) >= self.p for e in self.small):
            raise CriterionError("small eigenvalues must have modulus below p")
        if any(abs(e.value) <= self.p for e in self.large):
            raise CriterionError("large eigenvalues must have modulus above p")
        lo_large = min(abs(e.value) for e in self.large)
        if not (self.p <= abs(self.c) < lo_large):
            raise CriterionError("need p <= |c| < every large eigenvalue modulus")
        for e in (*self.small, *self.large):
            img = apply(self.op, e.vector)
            if norm(img - e.vector * e.value) > 1e-10 * max(1.0, abs(e.value)) * norm(e.vector):
                raise CriterionError("a declared eigenpair is not an eigenpair of op")
        small_support = set()
        for e in self.small:
            small_support |= set(e.vector.support())
        for e in self.large:
            if small_support & set(e.vector.support()):
                raise CriterionError("small and large eigenvectors must not share support")


@dataclass(frozen=True)
class SpectralWitnessReport:
    r: int  # least power from which both curves stay inside their radii
    steps: tuple[int, ...]
    correction_norms: tuple[float, ...]  # ||z_n||
    image_residuals: tuple[float, ...]  # ||(1/c^n) T^n (x + z_n) - y||
    x: ComplexVector
    y: ComplexVector


def spectral_witness(
    split: SpectralSplit,
    x_coeffs: Sequence[complex],
    y_coeffs: Sequence[complex],
    eps: float,
    delta: float,
    horizon: int,
) -> SpectralWitnessReport:
    """Eigenvector-split witness: x combines small eigenvectors, y large ones,
    and the correction z_n = sum_i b_i (c / value_i)^n vector_i shrinks while
    (1/c^n) T^n (x + z_n) lands exactly on y plus a vanishing term.

    Returns the least r with ||z_n|| < eps and image residual < delta for all
    n in [r, horizon]; raises when no power within the horizon works.
    """
    if len(x_coeffs) != len(split.small) or len(y_coeffs) != len(split.large):
        raise CriterionError("coefficient counts must match the eigenpair lists")
    if horizon < 1:
        raise CriterionError("horizon must be at least 1")
    window = split.large[0].vector.window
    x = ComplexVector.zero(window)
    for a, e in zip(x_coeffs, split.small):
        x = x + e.vector * a
    y = ComplexVector.zero(window)
    for b, e in zip(y_coeffs, split.large):
        y = y + e.vector * b
    steps = tuple(range(1, horizon + 1))
    z_norms, residuals = [], []
    for n in steps:
        z = ComplexVector.zero(window)
        for b, e in zip(y_coeffs, split.large):
            z = z + e.vector * (b * (split.c / e.value) ** n)
        z_norms.append(norm(z))
        image = power_apply(split.op, n, x + z) * (1.0 / split.c**n)
        residuals.append(norm(image - y))
    r = None
    for idx in range(len(steps)):
        if all(z_norms[j] < eps and residuals[j] < delta for j in range(idx, len(steps))):
            r = steps[idx]
            break
    if r is None:
        raise CriterionError("no witness power within the horizon")
    return SpectralWitnessReport(
        r=r,
        steps=steps,
        correction_norms=tuple(z_norms),
        image_residuals=tuple(residuals),
        x=x,
        y=y,
    )


@dataclass(frozen=True)
class ShiftWitness:
    scalar: float
    z: ComplexVector
    residual_in: float  # ||z - x||
    residual_out: float  # ||scalar * T^N z - y||


def shift_witness(
    r1: float, r2: float, x: ComplexVector, y: ComplexVector, big_n: int
) -> ShiftWitness:
    """Witness for the two-sided shift with weight r1 above and r2 below zero.

    The scalar is sqrt(||B^N y|| / ||T^N x||) with B the right inverse; the
    point is z = x + (1/scalar) B^N y.  Both residuals then agree at
    sqrt(||T^N x|| ||B^N y||), which is the reason 1 < r1 < r2 pushes them
    to zero as N grows.
    """
    if not (1.0 < r1 < r2):
        raise CriterionError("weights must satisfy 1 < r1 < r2")
    if x.window != y.window:
        raise CriterionError("x and y must share a window")
    t = ForwardShift(WeightProfile(pos=float(r1), neg=float(r2)))
    b = right_inverse(t)
    ensure_power_fits(t, big_n, x)
    ensure_power_fits(b, big_n, y)
    tn_x = power_apply(t, big_n, x)
    bn_y = power_apply(b, big_n, y)
    tu, bv = norm(tn_x), norm(bn_y)
    if tu == 0.0:
        raise CriterionError("x must be nonzero")
    if bv == 0.0:
        raise CriterionError("B^N y vanishes, so the scalar would be 0")
    lam = math.sqrt(bv / tu)
    z = x + bn_y * (1.0 / lam)
    residual_in = norm(z - x)
    residual_out = norm(power_apply(t, big_n, z) * lam - y)
    return ShiftWitness(scalar=lam, z=z, residual_in=residual_in, residual_out=residual_out)
