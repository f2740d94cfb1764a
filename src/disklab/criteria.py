"""Sufficient-condition checkers and witness builders for disk-scaled dynamics.

Three families live here: subsequence criteria over component tuples (with
and without scalar sequences, plus the derivation that turns the scalar-free
form into the scaled one), whole-sequence criteria for compound behavior with
arbitrary backward map sequences, and two constructive witnesses: the
eigenvector-split witness for diagonal-like operators and the two-sided
weighted shift witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .hitsolver import ALPHA_FLOOR
from .operators import (
    ForwardShift,
    OperatorSpec,
    WeightProfile,
    apply,
    ensure_power_fits,
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
    "CompoundData",
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


@dataclass(frozen=True)
class CriterionData:
    """Inputs for the subsequence criteria: operator tuple, backward maps,
    powers to probe, optional scalar sequences, and samplers for the pairs."""

    components: tuple[OperatorSpec, ...]
    smaps: tuple[OperatorSpec, ...]
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


def _sample_pairs(data) -> list[tuple[ProductVector, ProductVector]]:
    return trial_draws(data.seed, data.sample_count, (data.xsampler, data.ysampler))


def _guard_pair(components, smaps, max_n, x: ProductVector, y: ProductVector):
    for i, (t, s) in enumerate(zip(components, smaps)):
        ensure_power_fits(t, max_n, x.parts[i])
        ensure_power_fits(s, max_n, y.parts[i])


def _eval_subsequence_pair(
    components, smaps, nk, lambdas, x: ProductVector, y: ProductVector, scaled: bool
) -> tuple[tuple[float, ...], ...]:
    """Three condition values per power for one sampled pair.

    scaled: |lam| ||T^n x|| and ||S^n y|| / |lam|, summed over components.
    scalar-free: ||T^n x|| * ||S^n y|| per component, and plain ||S^n y||.
    The round-trip defect is common to both forms.
    """
    c1, c2, c3 = [], [], []
    for idx, n in enumerate(nk):
        v1 = v2 = v3 = 0.0
        for i, (t, s) in enumerate(zip(components, smaps)):
            tn_x = norm(power_apply(t, n, x.parts[i]))
            sn_y = power_apply(s, n, y.parts[i])
            sn = norm(sn_y)
            if scaled:
                lam = abs(lambdas[i][idx])
                v1 += lam * tn_x
                v2 += sn / lam
            else:
                v1 += tn_x * sn
                v2 += sn
            v3 += norm(power_apply(t, n, sn_y) - y.parts[i])
        c1.append(v1)
        c2.append(v2)
        c3.append(v3)
    return tuple(c1), tuple(c2), tuple(c3)


def _criterion_report(data, steps: tuple[int, ...], labels, evaluate) -> CriterionReport:
    """Three conditions, each the envelope over the sampled pairs of the
    values evaluate(x, y) returns for it, one per step."""
    pairs = _sample_pairs(data)
    per_pair = tuple(evaluate(x, y) for x, y in pairs)
    envelopes = tuple(
        tuple(max(pp[c][j] for pp in per_pair) for j in range(len(steps))) for c in range(3)
    )
    conditions = tuple(
        ConditionCurve(label=labels[c], values=envelopes[c], passed=_passes(envelopes[c], data.tol))
        for c in range(3)
    )
    return CriterionReport(
        steps=steps,
        conditions=conditions,
        passed=all(c.passed for c in conditions),
        pairs=tuple(pairs),
        per_pair=per_pair,
    )


def _subsequence_report(data: CriterionData, scaled: bool, labels) -> CriterionReport:
    def evaluate(x: ProductVector, y: ProductVector):
        _guard_pair(data.components, data.smaps, data.nk[-1], x, y)
        return _eval_subsequence_pair(data.components, data.smaps, data.nk, data.lambdas, x, y, scaled)

    return _criterion_report(data, data.nk, labels, evaluate)


SCALED_LABELS = ("forward_decay", "backward_decay", "identity_defect")
SCALAR_FREE_LABELS = ("product_decay", "backward_decay", "identity_defect")


def check_scaled_criterion(data: CriterionData) -> CriterionReport:
    """Three decay conditions along the power subsequence, with scalars:
    scaled forward images of x vanish, inversely scaled backward images of y
    vanish, and forward-after-backward returns y."""
    if data.lambdas is None:
        raise CriterionError("the scaled criterion needs scalar sequences")
    return _subsequence_report(data, scaled=True, labels=SCALED_LABELS)


def check_scalar_free_criterion(data: CriterionData) -> CriterionReport:
    """Scalar-free variant: the product of forward and backward image norms
    vanishes, backward images of y vanish, and forward-after-backward
    returns y.  Any scalar sequences on the data are ignored."""
    return _subsequence_report(data, scaled=False, labels=SCALAR_FREE_LABELS)


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


def derive_scalars(data: CriterionData, eps: float) -> DerivedScalars:
    """Scalars lambda = ||S^n y|| / eps for each sampled pair.

    On the tail where ||S^n y|| <= eps this makes the inversely scaled
    backward mass exactly eps and keeps |lambda| <= 1; earlier steps clamp to
    1.  A vanishing backward image degenerates to a floor scalar and is
    flagged.  Raises when even the final power has backward mass above eps.
    """
    if not (eps > 0):
        raise CriterionError("eps must be positive")
    pairs = _sample_pairs(data)
    max_n = data.nk[-1]
    out = []
    for x, y in pairs:
        _guard_pair(data.components, data.smaps, max_n, x, y)
        raw_rows, lam_rows = [], []
        degenerate = False
        for i, s in enumerate(data.smaps):
            raw_row, lam_row = [], []
            for n in data.nk:
                sv = norm(power_apply(s, n, y.parts[i]))
                r = sv / eps
                raw_row.append(r)
                if sv == 0.0:
                    degenerate = True
                    lam_row.append(ALPHA_FLOOR)
                else:
                    lam_row.append(min(r, 1.0))
            raw_rows.append(tuple(raw_row))
            lam_rows.append(tuple(lam_row))
        tail_index = None
        for idx in range(len(data.nk)):
            if all(row[j] <= 1.0 for row in raw_rows for j in range(idx, len(data.nk))):
                tail_index = idx
                break
        if tail_index is None:
            raise CriterionError("eps too large: backward mass stays above it through the horizon")
        out.append(
            PairScalars(
                lambdas=tuple(lam_rows),
                raw=tuple(raw_rows),
                tail_index=tail_index,
                degenerate=degenerate,
            )
        )
    return DerivedScalars(eps=eps, steps=data.nk, per_pair=tuple(out))


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
    pair by pair with those scalars.

    The inversely scaled backward mass sits exactly at eps on the tail, so the
    scaled re-check runs at tolerance 1.01 * eps (or data.tol if larger).
    """
    free = check_scalar_free_criterion(data)
    derived = derive_scalars(data, eps)
    tol = max(data.tol, 1.01 * eps)
    all_values = []
    passes = []
    for (x, y), scal in zip(free.pairs, derived.per_pair):
        values = _eval_subsequence_pair(
            data.components, data.smaps, data.nk, scal.lambdas, x, y, scaled=True
        )
        all_values.append(values)
        passes.append(all(_passes(v, tol) for v in values))
    return RoundTripReport(
        scalar_free=free,
        derived=derived,
        scaled_values=tuple(all_values),
        scaled_passes=tuple(passes),
        tol=tol,
        passed=free.passed and all(passes),
    )


@dataclass(frozen=True)
class CompoundData:
    """Whole-sequence criterion inputs: one operator, a backward map for every
    power (an arbitrary sequence of maps, not necessarily powers of one), and
    optional scalars indexed by n = 1..horizon."""

    op: OperatorSpec
    smap: Callable[[int, ComplexVector], ComplexVector]
    horizon: int
    xsampler: Callable[[object], ProductVector]
    ysampler: Callable[[object], ProductVector]
    lambdas: tuple[complex, ...] | None = None
    tol: float = 1e-6
    sample_count: int = 25
    seed: int = 0

    def __post_init__(self):
        if self.horizon < 2:
            raise CriterionError("horizon must be at least 2")
        if self.lambdas is not None:
            lams = tuple(complex(v) for v in self.lambdas)
            if len(lams) != self.horizon:
                raise CriterionError("one scalar per power n = 1..horizon is required")
            _check_scalars(lams)
            object.__setattr__(self, "lambdas", lams)
        if self.sample_count < 1:
            raise CriterionError("sample_count must be at least 1")


def powers_of_right_inverse(op: OperatorSpec) -> Callable[[int, ComplexVector], ComplexVector]:
    """The standard backward map sequence S_n = S^n."""
    s = right_inverse(op)
    return lambda n, v: power_apply(s, n, v)


def _eval_compound_pair(data: CompoundData, x: ComplexVector, y: ComplexVector, scaled: bool):
    ensure_power_fits(data.op, data.horizon, x)
    c1, c2, c3 = [], [], []
    for n in range(1, data.horizon + 1):
        tn_x = norm(power_apply(data.op, n, x))
        sn_y = data.smap(n, y)
        sn = norm(sn_y)
        if scaled:
            lam = abs(data.lambdas[n - 1])
            c1.append(lam * tn_x)
            c2.append(sn / lam)
        else:
            c1.append(tn_x * sn)
            c2.append(sn)
        c3.append(norm(power_apply(data.op, n, sn_y) - y))
    return tuple(c1), tuple(c2), tuple(c3)


def _compound_report(data: CompoundData, scaled: bool, labels) -> CriterionReport:
    def evaluate(x: ProductVector, y: ProductVector):
        if x.arity != 1 or y.arity != 1:
            raise CriterionError("compound criteria take single-component samplers")
        return _eval_compound_pair(data, x.parts[0], y.parts[0], scaled)

    return _criterion_report(data, tuple(range(1, data.horizon + 1)), labels, evaluate)


def check_compound_scaled(data: CompoundData) -> CriterionReport:
    """Whole-sequence scaled conditions: every power counts, no subsequence."""
    if data.lambdas is None:
        raise CriterionError("the scaled compound criterion needs scalars")
    return _compound_report(data, scaled=True, labels=SCALED_LABELS)


def check_compound_scalar_free(data: CompoundData) -> CriterionReport:
    """Whole-sequence scalar-free conditions."""
    return _compound_report(data, scaled=False, labels=SCALAR_FREE_LABELS)


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
