"""Weighted shifts, diagonal and dense operators, their powers and growth bounds.

Operators are symbolic: a spec carries weights or entries, and application
happens on a chosen window.  Shift powers drop mass that leaves the window;
scans that must not lose mass call ensure_power_fits first.
"""

from __future__ import annotations

import cmath
import functools
import math
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
    "PowerStack",
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
    "named_overflow",
]


# a batch of powers holds at most this many cells (powers times window
# dimension): a shift stack's chunk of powers, and a scan's batch of
# criterion pins, whose memory it bounds whatever the horizon
PIN_CELLS = 1 << 16


def _is_integer(v) -> bool:
    """Whether v is a finite number equal to an integer."""
    return -math.inf < v < math.inf and int(v) == v


def _power(n) -> int:
    """n as an int: a power must be a nonnegative integer."""
    if not (n >= 0 and _is_integer(n)):
        raise ValueError("power must be a nonnegative integer")
    return int(n)


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


class named_overflow:
    """Context manager: run the block with numpy raising on overflow and
    invalid values, and turn that error, or Python's OverflowError from c**n,
    into an OperatorError naming `name` and `where`."""

    __slots__ = ("name", "where", "_state")

    def __init__(self, name: str, where: str):
        self.name, self.where = name, where

    def __enter__(self):
        self._state = np.errstate(over="raise", invalid="raise")
        self._state.__enter__()

    def __exit__(self, kind, exc, tb):
        self._state.__exit__(kind, exc, tb)
        if isinstance(exc, (FloatingPointError, OverflowError)):
            raise OperatorError(f"{self.name} overflows a float at {self.where}: {exc}") from exc
        return False


def overflow_checked(powers: Callable[..., str] = lambda op, n, *rest, **kwargs: f"power {n}"):
    """Decorator: run the function under named_overflow, naming the function
    and powers(*args), by default argument n."""

    def wrap(fn):
        @functools.wraps(fn)
        def checked(*args, **kwargs):
            with named_overflow(fn.__name__, powers(*args, **kwargs)):
                return fn(*args, **kwargs)

        return checked

    return wrap


class _RunProducts:
    """Products w(j) w(j+1) ... w(j+n-1) of a weight profile, of length n, for
    every start j whose run stays inside the weights at lo..hi.

    Each power's products are the previous power's times one more weight
    each: the same operands, multiplied in the same left-to-right order, as
    forming that power's runs alone.  Only the latest power's row is kept; a
    lower power starts again from ones.  A product past the float range reads
    inf, so a power is refused for the runs it reads, not for the others."""

    def __init__(self, profile: WeightProfile, lo: int, hi: int):
        self.lo = lo
        self.weights = profile.weights_on(lo, hi)
        self.n, self._row = 0, np.ones(self.weights.size + 1)

    def rows(self, first: int, stop: int) -> list[np.ndarray]:
        """The products of length n for every start from lo, at each power n
        from first to stop - 1 (stop > first); inf past the float range."""
        if first < self.n:
            self.n, self._row = 0, np.ones(self.weights.size + 1)
        rows = []
        with np.errstate(over="ignore"):
            while self.n < stop - 1:
                if self.n >= first:
                    rows.append(self._row)
                self._row = self._row[:-1] * self.weights[self.n :]
                self.n += 1
        rows.append(self._row)
        return rows


def _growth_starts(profile: WeightProfile, n: int, lattice: str) -> tuple[int, int]:
    """First and last start of the runs growth bounds read at power n: from
    lo_t - n - 1 to hi_t + 1, where lo_t, hi_t bound the table, and from 0 up
    on a unilateral lattice.  With the constant runs far right and (bilateral)
    far left, these are every distinct length-n run of the weight sequence."""
    first = min(profile.table, default=0) - n - 1
    last = max(profile.table, default=0) + 1
    if lattice == UNILATERAL:
        first, last = max(first, 0), max(last, 0)
    return first, last


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
        return self.apply_rows(arr[None])[0]

    def apply_rows(self, rows: np.ndarray) -> np.ndarray:
        """This map applied to each row of rows.  An orthogonal-column map
        scatters its live columns onto their targets for all rows at once,
        with its coefficients spread to full shape: numpy's complex multiply
        can round a product differently where one operand is broadcast.  A
        dense map is applied row by row, since a matrix product can round
        differently from a matrix-vector one.  So each row's image does not
        depend on the other rows, bit for bit."""
        if self.kind == "dense":
            return np.array([self.matrix @ row for row in rows])
        cols = self.coeffs.nonzero()[0]
        src = rows.take(cols, axis=1)
        coeffs = np.empty(src.shape, self.coeffs.dtype)
        coeffs[:] = self.coeffs[cols]
        out = np.zeros_like(rows)
        out[:, self.tgt[cols]] = coeffs * src
        return out


class PowerStack:
    """T^0 .. T^horizon of one operator on one window: each power is formed
    when first asked for and kept, and growth bounds of the un-truncated
    powers, on the window's lattice, come from run products kept the same way.

    A shift stack forms a chunk of powers at a time: the power asked for and
    the ones after it, up to the horizon, the next power already formed or
    PIN_CELLS cells, as rows of one coefficient table and one target table,
    each power's PowerMap a row of both.  Its growth bounds are filled a
    chunk at a time too, from one pass over the growth runs.  Each power's
    run products are the previous power's times one more weight each (see
    _RunProducts), so every power equals the one formed alone bit for bit.
    A chunk keeps, in place of a power whose runs pass the float range, the
    error that refuses it; asking for that power raises the error again,
    named as power_map or growth names it, and forms nothing.  A diagonal,
    scalar or dense power is formed alone, as entries**n, c**n or
    matrix_power.  A horizon, or a power inside 0..horizon, that is not a
    nonnegative integer is power_map's ValueError; a power outside 0..horizon
    is a ValueError that names the horizon.
    """

    def __init__(self, op: OperatorSpec, window: IndexWindow, horizon: int):
        self.op, self.window, self.horizon = op, window, _power(horizon)
        self._shift = isinstance(op, (ForwardShift, BackwardShift))
        # a power a chunk refused is kept as the error that refused it; T^0 is
        # the identity, whatever the operator
        self._maps: dict[int, PowerMap | ArithmeticError] = {}
        self._bounds: dict[int, GrowthBounds | ArithmeticError] = {0: GrowthBounds(1.0, 1.0)}
        # (first power, coefficient rows, target rows) of each chunk
        self._tables: list[tuple[int, np.ndarray, np.ndarray]] = []
        self._runs: _RunProducts | None = None
        self._growth_runs: _RunProducts | None = None

    def power_map(self, n: int) -> PowerMap:
        """T^n on the window; shift mass that leaves the window is dropped."""
        return self._read(self._maps, "power_map", n, self._fill_maps, self._form)

    def rows(self, first: int, last: int) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients and targets of T^first .. T^last of an orthogonal-column
        operator, one power a row: slices of a chunk's tables where one chunk
        formed them all, else stacked from their maps."""
        maps = [self.power_map(n) for n in range(first, last + 1)]
        for start, coeffs, tgt in self._tables:
            if start <= first and last < start + len(coeffs):
                return coeffs[first - start : last + 1 - start], tgt[first - start : last + 1 - start]
        return np.array([m.coeffs for m in maps]), np.array([m.tgt for m in maps])

    def growth(self, n: int) -> GrowthBounds:
        """growth(op, n, lattice of the window), for n up to the horizon."""
        return self._read(self._bounds, "growth", n, self._fill_bounds, lambda n: _growth_bounds(self.op, n))

    def _read(self, kept: dict, name: str, n: int, fill: Callable[[int], None], form: Callable[[int], object]):
        """kept[n], formed first if need be: a shift's by fill, with the
        chunk after it, any other's by form alone; where a chunk kept the
        error that refused n, that error, named as named_overflow names it."""
        if n not in kept:
            if not 0 <= n <= self.horizon:
                raise ValueError(f"power {n} lies outside the stack's 0..{self.horizon}")
            n = _power(n)
            if self._shift:
                fill(n)
            else:
                with named_overflow(name, f"power {n}"):
                    kept[n] = form(n)
        value = kept[n]
        if isinstance(value, ArithmeticError):
            with named_overflow(name, f"power {n}"):
                raise type(value)(*value.args)
        return value

    def _fill_maps(self, first: int) -> None:
        """Form the shift powers from first on as one chunk (see the class)."""
        op, window, d = self.op, self.window, self.window.dim
        later = (k for k in self._maps if k > first)
        stop = min(self.horizon + 1, first + max(1, PIN_CELLS // d), *later)
        coeffs = np.zeros((stop - first, d), dtype=np.complex128)
        # source j moves to j+n (forward) or j-n (backward), carrying the product
        # over the run [j, j+n) or [j-n, j); either way the runs start at lo..hi-n
        forward = isinstance(op, ForwardShift)
        live = range(first, min(stop, d))  # the powers with columns inside the window
        if live:
            if self._runs is None:
                self._runs = _RunProducts(op.weights, window.lo, window.hi - 1)
            for row, n, prods in zip(coeffs, live, self._runs.rows(live.start, live.stop)):
                row[slice(0, d - n) if forward else slice(n, d)] = prods
        # a column that dies at the edge points at the edge
        powers = np.arange(first, stop)[:, None]
        tgt = np.minimum(powers + np.arange(d), d - 1) if forward else np.maximum(np.arange(d) - powers, 0)
        # a product past the float range reads inf
        refused = np.isinf(coeffs.real).any(axis=1).tolist()
        for k, n in enumerate(range(first, stop)):
            pmap = PowerMap("ortho", window, coeffs=coeffs[k], tgt=tgt[k])
            self._maps[n] = FloatingPointError("overflow encountered in multiply") if refused[k] else pmap
        self._tables.append((first, coeffs, tgt))

    def _fill_bounds(self, first: int) -> None:
        """growth's bounds of the shift at the powers from first >= 1 on, up to
        the horizon or PIN_CELLS cells of growth runs, from one pass over the
        runs; a power whose runs or end weights pass the float range keeps
        the error that refuses it."""
        op, lattice = self.op, self.window.kind
        if self._growth_runs is None:
            # the runs every power up to the horizon reads
            lo, hi = _growth_starts(op.weights, self.horizon, lattice)
            self._growth_runs = _RunProducts(op.weights, lo, hi + self.horizon - 1)
        runs = self._growth_runs
        powers = range(first, min(self.horizon + 1, first + max(1, PIN_CELLS // runs.weights.size)))
        reads = []
        for n, row in zip(powers, runs.rows(powers.start, powers.stop)):
            lo, hi = _growth_starts(op.weights, n, lattice)
            reads.append(row[lo - runs.lo : hi - runs.lo + 1])
        # each power's runs are one segment of flat; a max or min is exact in
        # any order, so a segment's equals that of the power's runs alone
        flat = np.concatenate(reads)
        starts = np.cumsum([0, *map(len, reads[:-1])])
        over = np.logical_or.reduceat(np.isinf(flat), starts).tolist()
        tops = np.maximum.reduceat(flat, starts).tolist()
        bottoms = np.minimum.reduceat(flat, starts).tolist()
        # pos**n or neg**n may overflow, as a Python float or a numpy one
        with np.errstate(over="raise", invalid="raise"):
            for n, inf, top, bottom in zip(powers, over, tops, bottoms):
                try:
                    if inf:
                        raise FloatingPointError("overflow encountered in multiply")
                    self._bounds[n] = _shift_bounds(op, n, lattice, top, bottom)
                except (FloatingPointError, OverflowError) as exc:
                    self._bounds[n] = exc.with_traceback(None)

    def _form(self, n: int) -> PowerMap:
        op, window = self.op, self.window
        d = window.dim
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


def power_map(op: OperatorSpec, n: int, window: IndexWindow) -> PowerMap:
    """T^n on the window; shift mass that leaves the window is dropped."""
    n = _power(n)
    return PowerStack(op, window, n).power_map(n)


def power_apply(op: OperatorSpec, n: int, x):
    """Apply the n-th power of op.  n must be a nonnegative integer."""
    n = _power(n)
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


@overflow_checked()
def growth(op: OperatorSpec, n: int, lattice: str = BILATERAL) -> GrowthBounds:
    """(opnorm upper, minimum-modulus lower) bounds for the un-truncated n-th power.

    Exact for weighted shifts, diagonal, and scalar operators; dense and
    direct-sum variants are out of scope.
    """
    n = _power(n)
    if lattice not in (BILATERAL, UNILATERAL):
        raise ValueError(f"unknown lattice {lattice!r}")
    # the bounds read only the lattice, so a window of one index serves
    return PowerStack(op, IndexWindow(lattice, 0), n).growth(n)


def _growth_bounds(op: OperatorSpec, n: int) -> GrowthBounds:
    """growth's bounds at a power from 1 up of any operator but a shift, whose
    stack forms its bounds a chunk at a time."""
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


def _shift_bounds(op: OperatorSpec, n: int, lattice: str, top: float, bottom: float) -> GrowthBounds:
    """growth's bounds of a shift at power n >= 1, from the largest and the
    smallest run product the power reads."""
    profile = op.weights
    ends = (profile.pos**n, profile.neg**n) if lattice == BILATERAL else (profile.pos**n,)
    top = max(top, *ends)
    if isinstance(op, BackwardShift) and lattice == UNILATERAL:
        # e_0 .. e_{n-1} are annihilated
        return GrowthBounds(top, 0.0)
    return GrowthBounds(top, min(bottom, *ends))


def ensure_power_fits(op: OperatorSpec, n: int, x):
    """Raise WindowGuardError if T^n x would shed mass at an artificial edge.

    Only shift variants move support.  The top of any window is an artificial
    cutoff, as is the bottom of a bilateral one; the bottom of a unilateral
    window is a true lattice boundary, where a backward shift genuinely
    annihilates, so no guard fires there.  For a DirectSum the check runs
    componentwise against the matching part of a product vector.  x must be
    what power_apply takes: a product vector of matching arity for a
    DirectSum, a ComplexVector for any other operator, and n a nonnegative
    integer, as power_apply takes it.
    """
    n = _power(n)
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
