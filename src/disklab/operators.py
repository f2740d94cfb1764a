"""Weighted shifts, diagonal and dense operators, their powers and growth bounds.

Operators are symbolic: a spec carries weights or entries, and application
happens on a chosen window.  Shift powers drop mass that leaves the window;
scans that must not lose mass call ensure_power_fits first.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .vectorspace import (
    BILATERAL,
    UNILATERAL,
    ComplexVector,
    IndexWindow,
    ProductVector,
)

__all__ = [
    "WeightProfile",
    "OperatorSpec",
    "ForwardShift",
    "BackwardShift",
    "Diagonal",
    "Scalar",
    "Dense",
    "DirectSum",
    "EigenPair",
    "GrowthBounds",
    "PowerMap",
    "OperatorError",
    "WindowGuardError",
    "apply",
    "power_apply",
    "power_map",
    "right_inverse",
    "growth",
    "components_of",
    "ensure_power_fits",
    "overflow_checked",
]


class OperatorError(ValueError):
    """Unsupported operator variant or invalid operator data."""


class WindowGuardError(RuntimeError):
    """A shift power would push recorded support outside the window."""


@dataclass(frozen=True)
class WeightProfile:
    """Weight at index m: table[m] if present, else pos for m >= 0, neg for m < 0."""

    pos: float
    neg: float
    table: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self):
        vals = [self.pos, self.neg, *self.table.values()]
        if any(not (v > 0) or not np.isfinite(v) for v in vals):
            raise OperatorError("shift weights must be positive and finite")
        object.__setattr__(self, "table", dict(self.table))

    def weight(self, m: int) -> float:
        w = self.table.get(m)
        if w is not None:
            return w
        return self.pos if m >= 0 else self.neg

    def weights_on(self, lo: int, hi: int) -> np.ndarray:
        """Weights at indices lo..hi inclusive."""
        out = np.full(max(0, hi - lo + 1), float(self.pos))
        out[: max(0, -lo)] = self.neg  # indices below 0
        for m, w in self.table.items():
            if lo <= m <= hi:
                out[m - lo] = w
        return out

    def reciprocal(self) -> "WeightProfile":
        return WeightProfile(
            pos=1.0 / self.pos,
            neg=1.0 / self.neg,
            table={k: 1.0 / v for k, v in self.table.items()},
        )


class OperatorSpec:
    """Marker base class for operator variants."""

    __slots__ = ()


@dataclass(frozen=True)
class ForwardShift(OperatorSpec):
    """e_n -> w(n) e_{n+1}."""

    weights: WeightProfile


@dataclass(frozen=True)
class BackwardShift(OperatorSpec):
    """e_n -> w(n-1) e_{n-1}; the weight is indexed by the target."""

    weights: WeightProfile


@dataclass(frozen=True)
class Diagonal(OperatorSpec):
    """e_n -> entries[n] e_n.  With default=None the table must cover every
    index actually touched; a numeric default fills the rest of the lattice."""

    entries: Mapping[int, complex]
    default: complex | None = None

    def __post_init__(self):
        object.__setattr__(self, "entries", {int(k): complex(v) for k, v in self.entries.items()})
        if self.default is not None:
            object.__setattr__(self, "default", complex(self.default))

    def entry(self, j: int) -> complex:
        if j in self.entries:
            return self.entries[j]
        if self.default is None:
            raise OperatorError(f"diagonal has no entry at index {j} and no default")
        return self.default

    def entries_on(self, window: IndexWindow) -> np.ndarray:
        return np.array([self.entry(j) for j in window.indices()], dtype=np.complex128)


@dataclass(frozen=True)
class Scalar(OperatorSpec):
    value: complex

    def __post_init__(self):
        object.__setattr__(self, "value", complex(self.value))


@dataclass(frozen=True)
class Dense(OperatorSpec):
    """Explicit matrix on the window, indexed like the coefficient array."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.matrix, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise OperatorError("dense operator needs a square matrix")
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)


@dataclass(frozen=True)
class DirectSum(OperatorSpec):
    components: tuple[OperatorSpec, ...]

    def __post_init__(self):
        if not self.components:
            raise OperatorError("direct sum needs at least one component")
        object.__setattr__(self, "components", tuple(self.components))


def components_of(ops: Sequence[OperatorSpec]) -> tuple[OperatorSpec, ...]:
    """The components a problem or scan works on: a lone DirectSum stands
    for its components, any other sequence for itself."""
    ops = tuple(ops)
    if len(ops) == 1 and isinstance(ops[0], DirectSum):
        return ops[0].components
    return ops


@dataclass(frozen=True)
class EigenPair:
    """Eigenvalue with a unit-normalized eigenvector is not required; any
    nonzero eigenvector is accepted."""

    value: complex
    vector: ComplexVector


@dataclass(frozen=True)
class GrowthBounds:
    """Operator-norm upper bound and minimum-modulus lower bound for the
    un-truncated power."""

    opnorm_upper: float
    minmod_lower: float


def overflow_checked(powers: Callable[..., str] = lambda op, n, *rest, **kwargs: f"power {n}"):
    """Decorator: run the function with numpy raising on overflow and invalid
    values, and turn that error, or Python's OverflowError from c**n, into an
    OperatorError naming the function and powers(*args), by default argument n."""

    def wrap(fn):
        raising = np.errstate(over="raise", invalid="raise")(fn)

        @functools.wraps(fn)
        def checked(*args, **kwargs):
            try:
                return raising(*args, **kwargs)
            except (FloatingPointError, OverflowError) as exc:
                raise OperatorError(f"{fn.__name__} overflows a float at {powers(*args, **kwargs)}: {exc}") from exc

        return checked

    return wrap


def _shift_products(profile: WeightProfile, lo: int, hi: int, n: int) -> np.ndarray:
    """Products w(j) w(j+1) ... w(j+n-1) for each start j in lo..hi, multiplied left to right."""
    w = profile.weights_on(lo, hi + n - 1)
    prods = np.ones(hi - lo + 1)
    for t in range(n):
        prods *= w[t : t + prods.size]
    return prods


@dataclass(frozen=True)
class PowerMap:
    """T^n on a window, in a form the least-squares kernel can consume.

    Shift, diagonal, and scalar powers have orthogonal columns: column j is
    coeffs[j] times a basis vector at tgt[j] (coeff 0 means the column died at
    the window edge).  Dense powers carry the explicit matrix.
    """

    kind: str  # "ortho" | "dense"
    window: IndexWindow
    coeffs: np.ndarray | None = None
    tgt: np.ndarray | None = None
    matrix: np.ndarray | None = None

    def scaled(self, alpha: complex) -> "PowerMap":
        """alpha times this map."""
        if self.kind == "dense":
            return replace(self, matrix=alpha * self.matrix)
        return replace(self, coeffs=alpha * self.coeffs)

    def apply_vec(self, arr: np.ndarray) -> np.ndarray:
        if self.kind == "dense":
            return self.matrix @ arr
        out = np.zeros_like(arr)
        live = self.coeffs != 0
        out[self.tgt[live]] = self.coeffs[live] * arr[live]
        return out


@overflow_checked()
def power_map(op: OperatorSpec, n: int, window: IndexWindow) -> PowerMap:
    """T^n on the window; shift mass that leaves the window is dropped."""
    d = window.dim
    if isinstance(op, (ForwardShift, BackwardShift)):
        # source j moves to j+n (forward) or j-n (backward), carrying the product
        # over the run [j, j+n) or [j-n, j); either way the runs start at lo..hi-n
        forward = isinstance(op, ForwardShift)
        coeffs = np.zeros(d, dtype=np.complex128)
        if n < d:
            survivors = slice(0, d - n) if forward else slice(n, d)
            coeffs[survivors] = _shift_products(op.weights, window.lo, window.hi - n, n)
        tgt = np.clip(np.arange(d) + (n if forward else -n), 0, d - 1)
        return PowerMap("ortho", window, coeffs=coeffs, tgt=tgt)
    if isinstance(op, Diagonal):
        entries = op.entries_on(window)
        # numpy's complex power saturates at the float maximum without a flag
        # ([2+0j]**1024 is 1.797e308); the moduli's real power flags it
        np.abs(entries) ** n
        return PowerMap("ortho", window, coeffs=entries**n, tgt=np.arange(d))
    if isinstance(op, Scalar):
        value = op.value**n
        if not cmath.isfinite(value):  # parts that cancel give NaN: (1e160+1e160j)**2
            raise OverflowError("complex exponentiation")
        coeffs = np.full(d, value, dtype=np.complex128)
        return PowerMap("ortho", window, coeffs=coeffs, tgt=np.arange(d))
    if isinstance(op, Dense):
        if op.matrix.shape[0] != d:
            raise OperatorError("dense matrix size does not match the window")
        matrix = np.linalg.matrix_power(op.matrix, n)
        # a multi-threaded BLAS may overflow in a worker thread numpy does not watch
        if not np.isfinite(matrix).all():
            raise FloatingPointError("overflow encountered in matrix_power")
        return PowerMap("dense", window, matrix=matrix)
    raise OperatorError(f"unsupported operator variant {type(op).__name__}")


def power_apply(op: OperatorSpec, n: int, x):
    """Apply the n-th power of op.  n must be a nonnegative integer."""
    if n < 0 or int(n) != n:
        raise ValueError("power must be a nonnegative integer")
    n = int(n)
    if isinstance(op, DirectSum):
        if not isinstance(x, ProductVector) or x.arity != len(op.components):
            raise ValueError("direct sum expects a matching product vector")
        return ProductVector(tuple(power_apply(c, n, p) for c, p in zip(op.components, x.parts)))
    if not isinstance(x, ComplexVector):
        raise TypeError("expected a ComplexVector")
    return ComplexVector(x.window, power_map(op, n, x.window).apply_vec(x.coeffs))


def apply(op: OperatorSpec, x):
    return power_apply(op, 1, x)


def right_inverse(op: OperatorSpec) -> OperatorSpec:
    """Map S with T^n S^n = identity wherever no mass leaves the window.

    Defined for forward shifts (backward shift with reciprocal weights),
    diagonal operators with nonzero entries, nonzero scalars, and direct sums
    of those.
    """
    if isinstance(op, ForwardShift):
        return BackwardShift(op.weights.reciprocal())
    if isinstance(op, Diagonal):
        if any(v == 0 for v in op.entries.values()) or op.default == 0:
            raise OperatorError("diagonal right inverse needs nonzero entries")
        default = None if op.default is None else 1.0 / op.default
        return Diagonal({k: 1.0 / v for k, v in op.entries.items()}, default)
    if isinstance(op, Scalar):
        if op.value == 0:
            raise OperatorError("zero scalar has no right inverse")
        return Scalar(1.0 / op.value)
    if isinstance(op, DirectSum):
        return DirectSum(tuple(right_inverse(c) for c in op.components))
    raise OperatorError(f"right inverse undefined for {type(op).__name__}")


def _profile_window_products(profile: WeightProfile, n: int, lattice: str) -> np.ndarray:
    """All distinct length-n running products of the weight sequence."""
    keys = list(profile.table.keys())
    lo_t = min(keys, default=0)
    hi_t = max(keys, default=0)
    lo_j = lo_t - n - 1
    hi_j = hi_t + 1
    if lattice == UNILATERAL:
        lo_j = max(lo_j, 0)
        hi_j = max(hi_j, 0)
    cands = list(_shift_products(profile, lo_j, hi_j, n))
    cands.append(profile.pos**n)  # far right
    if lattice == BILATERAL:
        cands.append(profile.neg**n)  # far left
    return np.array(cands, dtype=float)


@overflow_checked()
def growth(op: OperatorSpec, n: int, lattice: str = BILATERAL) -> GrowthBounds:
    """(opnorm upper, minimum-modulus lower) bounds for the un-truncated n-th power.

    Exact for weighted shifts, diagonal, and scalar operators; dense and
    direct-sum variants are out of scope.
    """
    if n < 0 or int(n) != n:
        raise ValueError("power must be a nonnegative integer")
    n = int(n)
    if lattice not in (BILATERAL, UNILATERAL):
        raise ValueError(f"unknown lattice {lattice!r}")
    if n == 0:
        return GrowthBounds(1.0, 1.0)
    if isinstance(op, (ForwardShift, BackwardShift)):
        prods = _profile_window_products(op.weights, n, lattice)
        if isinstance(op, BackwardShift) and lattice == UNILATERAL:
            # e_0 .. e_{n-1} are annihilated
            return GrowthBounds(float(prods.max()), 0.0)
        return GrowthBounds(float(prods.max()), float(prods.min()))
    if isinstance(op, Diagonal):
        moduli = [abs(v) for v in op.entries.values()]
        if op.default is not None:
            moduli.append(abs(op.default))
        if not moduli:
            raise OperatorError("diagonal growth needs at least one entry")
        arr = np.array(moduli, dtype=float) ** n
        return GrowthBounds(float(arr.max()), float(arr.min()))
    if isinstance(op, Scalar):
        v = abs(op.value) ** n
        return GrowthBounds(v, v)
    raise OperatorError(f"growth bounds unavailable for {type(op).__name__}")


def ensure_power_fits(op: OperatorSpec, n: int, x):
    """Raise WindowGuardError if T^n x would shed mass at an artificial edge.

    Only shift variants move support.  The top of any window is an artificial
    cutoff, as is the bottom of a bilateral one; the bottom of a unilateral
    window is a true lattice boundary, where a backward shift genuinely
    annihilates, so no guard fires there.  For a DirectSum the check runs
    componentwise against the matching part of a product vector.  x must be
    what power_apply takes: a product vector of matching arity for a
    DirectSum, a ComplexVector for any other operator.
    """
    if isinstance(op, DirectSum):
        if not isinstance(x, ProductVector) or x.arity != len(op.components):
            raise ValueError("direct sum expects a matching product vector")
        for c, p in zip(op.components, x.parts):
            ensure_power_fits(c, n, p)
        return
    if not isinstance(x, ComplexVector):
        raise TypeError("expected a ComplexVector")
    if not isinstance(op, (ForwardShift, BackwardShift)):
        return
    bounds = x.support_bounds()
    if bounds is None:
        return
    win = x.window
    lo_s, hi_s = bounds
    if isinstance(op, ForwardShift) and hi_s + n > win.hi:
        raise WindowGuardError(
            f"forward power {n} pushes support {hi_s} past window top {win.hi}"
        )
    if isinstance(op, BackwardShift) and win.kind == BILATERAL and lo_s - n < win.lo:
        raise WindowGuardError(
            f"backward power {n} pushes support {lo_s} past window bottom {win.lo}"
        )
