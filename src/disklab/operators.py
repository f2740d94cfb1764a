"""Weighted shifts, diagonal and dense operators, their powers and growth bounds.

Operators are symbolic: a spec carries weights or entries, and application
happens on a chosen window.  Shift powers drop mass that leaves the window;
scans that must not lose mass call ensure_power_fits first.
"""

from __future__ import annotations

import cmath
import contextlib
import contextvars
import math
import numbers
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
    "shared_stacks",
    "stack_of",
    "OperatorError",
    "WindowGuardError",
    "apply",
    "power_apply",
    "power_map",
    "right_inverse",
    "growth",
    "components_of",
    "ensure_power_fits",
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


def _index(key) -> int:
    """A table key as an int: an integer, an integral float or a numpy
    integer; a bool, a string or a fraction is an OperatorError."""
    if isinstance(key, bool) or not isinstance(key, numbers.Real) or not _is_integer(key):
        raise OperatorError(f"table key {key!r} is not an integer index")
    return int(key)


def _finite(value, what: str) -> complex:
    """value as a complex number; NaN or inf is an OperatorError naming what."""
    z = complex(value)
    if not cmath.isfinite(z):
        raise OperatorError(f"{what} must be finite, got {value!r}")
    return z


class WindowGuardError(RuntimeError):
    """A shift power would push recorded support outside the window."""


@dataclass(frozen=True)
class WeightProfile:
    """Weight at index m: table[m] if present, else pos for m >= 0, neg for m < 0."""

    pos: float
    neg: float
    table: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self):
        table = {_index(m): w for m, w in self.table.items()}
        if any(not (v > 0) or not np.isfinite(v) for v in (self.pos, self.neg, *table.values())):
            raise OperatorError("shift weights must be positive and finite")
        # as floats, equal profiles form the same powers and growth bounds
        # bit for bit
        object.__setattr__(self, "pos", float(self.pos))
        object.__setattr__(self, "neg", float(self.neg))
        object.__setattr__(self, "table", {m: float(w) for m, w in table.items()})

    def __hash__(self):
        return hash((self.pos, self.neg, frozenset(self.table.items())))

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
    index actually touched; a numeric default fills the rest of the lattice.
    Keys must be integer indices, and entries and default finite."""

    entries: Mapping[int, complex]
    default: complex | None = None

    def __post_init__(self):
        entries = {_index(k): v for k, v in self.entries.items()}
        object.__setattr__(self, "entries", {k: _finite(v, f"diagonal entry {k}") for k, v in entries.items()})
        if self.default is not None:
            object.__setattr__(self, "default", _finite(self.default, "diagonal default"))

    def __hash__(self):
        return hash((frozenset(self.entries.items()), self.default))

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
    """c e_n for every n; c must be finite."""

    value: complex

    def __post_init__(self):
        object.__setattr__(self, "value", _finite(self.value, "scalar value"))


@dataclass(frozen=True)
class Dense(OperatorSpec):
    """Explicit matrix on the window, indexed like the coefficient array, with
    finite entries.  Two are equal when their matrices' bytes are: the
    matrix is a square complex array, so its bytes fix its shape and every
    entry."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.matrix, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise OperatorError("dense operator needs a square matrix")
        bad = np.argwhere(~np.isfinite(arr))
        if bad.size:
            i, j = bad[0].tolist()
            raise OperatorError(f"dense matrix entry ({i}, {j}) must be finite, got {arr[i, j]}")
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)

    def __eq__(self, other):
        if not isinstance(other, Dense):
            return NotImplemented
        return self.matrix.tobytes() == other.matrix.tobytes()

    def __hash__(self):
        return hash(self.matrix.tobytes())


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
    """An eigenvalue and an eigenvector of it; the vector may be any nonzero
    eigenvector, not necessarily of unit norm."""

    value: complex
    vector: ComplexVector


@dataclass(frozen=True)
class GrowthBounds:
    """Operator-norm upper bound and minimum-modulus lower bound for the
    un-truncated power."""

    opnorm_upper: float
    minmod_lower: float


@contextlib.contextmanager
def named_overflow(name: str, where: str):
    """Run the block with numpy raising on overflow and invalid values, and
    turn that error, or Python's OverflowError from c**n, into an
    OperatorError naming `name` and `where`, chained to it; any other error
    passes through.  numpy's error state is restored after the block."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except (FloatingPointError, OverflowError) as exc:
        raise OperatorError(f"{name} overflows a float at {where}: {exc}") from exc


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

    A shift stack keeps one _RunProducts, spanning the runs of the window's
    powers, and, once a growth bound has been read, those of every growth
    bound up to the horizon too; _fill forms a chunk of powers at a time:
    the power asked for and the ones after it, up to the horizon, the next
    power already formed or PIN_CELLS cells of that span.  One pass over the
    run products gives the chunk's powers, each power's PowerMap a row of
    one coefficient array and one target array, and, once a bound has been
    read, their growth bounds.  Each power's run products are the previous
    power's times one more weight each (see _RunProducts), so every power
    and bound equals the one formed alone bit for bit.  A stack hands out a
    power one way only, as power_map's PowerMap; a reader that wants a run
    of powers stacks their maps.
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
        self._runs: _RunProducts | None = None
        self._bounded = False  # whether a growth bound has been read

    def power_map(self, n: int) -> PowerMap:
        """T^n on the window; shift mass that leaves the window is dropped."""
        return self._read(self._maps, "power_map", n, self._form)

    def growth(self, n: int) -> GrowthBounds:
        """growth(op, n, lattice of the window), for n up to the horizon."""
        return self._read(self._bounds, "growth", n, lambda n: _growth_bounds(self.op, n))

    def _read(self, kept: dict, name: str, n: int, form: Callable[[int], object]):
        """kept[n], formed first if need be: a shift's by _fill, with the
        chunk after it, any other's by form alone; where a chunk kept the
        error that refused n, that error, named as named_overflow names it."""
        if n not in kept:
            if not 0 <= n <= self.horizon:
                raise ValueError(f"power {n} lies outside the stack's 0..{self.horizon}")
            n = _power(n)
            if self._shift:
                self._bounded = self._bounded or kept is self._bounds
                self._fill(n)
            else:
                with named_overflow(name, f"power {n}"):
                    kept[n] = form(n)
        value = kept[n]
        if isinstance(value, ArithmeticError):
            with named_overflow(name, f"power {n}"):
                raise type(value)(*value.args)
        return value

    def _run_products(self) -> _RunProducts:
        """The stack's run products: the runs of the window's powers, which
        start at lo..hi-1 (see _fill), and, once a bound has been read, the
        runs every growth bound up to the horizon reads; a stack whose first
        bound is read after its maps spans them anew."""
        op, window = self.op, self.window
        lo, hi = window.lo, window.hi - 1
        if self._bounded:
            first, last = _growth_starts(op.weights, self.horizon, window.kind)
            lo, hi = min(lo, first), max(hi, last + self.horizon - 1)
        if self._runs is None or (self._runs.lo, self._runs.weights.size) != (lo, hi - lo + 1):
            self._runs = _RunProducts(op.weights, lo, hi)
        return self._runs

    def _fill(self, first: int) -> None:
        """Form the shift's powers, and its growth bounds once one has been
        read, from first on as one chunk (see the class), from one pass over
        its run products."""
        op, window, lattice, d = self.op, self.window, self.window.kind, self.window.dim
        runs = self._run_products()
        # a chunk forms every power's map, so a power with a bound has a map
        later = (k for k in (self._bounds if self._bounded else self._maps) if k > first)
        stop = min(self.horizon + 1, first + max(1, PIN_CELLS // runs.weights.size), *later)
        rows = runs.rows(first, stop)

        coeffs = np.zeros((stop - first, d), dtype=np.complex128)
        # source j moves to j+n (forward) or j-n (backward), carrying the product
        # over the run [j, j+n) or [j-n, j); either way the runs start at lo..hi-n
        forward = isinstance(op, ForwardShift)
        offset = window.lo - runs.lo
        # the powers below d have columns inside the window
        for row, n, prods in zip(coeffs, range(first, min(stop, d)), rows):
            row[slice(0, d - n) if forward else slice(n, d)] = prods[offset : offset + d - n]
        # a column that dies at the edge points at the edge
        powers = np.arange(first, stop)[:, None]
        tgt = np.minimum(powers + np.arange(d), d - 1) if forward else np.maximum(np.arange(d) - powers, 0)
        # a product past the float range reads inf
        refused = np.isinf(coeffs.real).any(axis=1).tolist()
        for k, n in enumerate(range(first, stop)):
            pmap = PowerMap("ortho", window, coeffs=coeffs[k], tgt=tgt[k])
            self._maps[n] = FloatingPointError("overflow encountered in multiply") if refused[k] else pmap
        if not self._bounded:
            return

        reads = []
        for n, row in zip(range(first, stop), rows):
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
            for n, inf, top, bottom in zip(range(first, stop), over, tops, bottoms):
                if n == 0:
                    continue  # T^0's bounds are kept from the start
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


# the open sharing scope's stacks, keyed by (op, window, horizon)
_SHARED = contextvars.ContextVar("shared_stacks", default=None)


@contextlib.contextmanager
def shared_stacks():
    """A scope, usable as a decorator, in which stack_of returns one stack
    per operator value, window and horizon: operators that compare equal
    share it.  A nested scope shares the outer one's stacks.  A power and
    its growth bounds depend only on the operator's value, not on which
    caller formed them first or on how its chunks fell (see PowerStack), so
    every caller reads the bits it would form alone.  The one exception is
    the sign of a zero: Scalar(-0.0) equals Scalar(0.0), and the scope
    hands it the stack of whichever came first."""
    token = _SHARED.set({}) if _SHARED.get() is None else None
    try:
        yield
    finally:
        if token is not None:
            _SHARED.reset(token)


def stack_of(op: OperatorSpec, window: IndexWindow, horizon: int) -> PowerStack:
    """The PowerStack of op on the window up to the horizon: the open
    scope's one for an equal operator, formed on first use, or a new one
    outside any scope."""
    shared = _SHARED.get()
    if shared is None:
        return PowerStack(op, window, horizon)
    if (op, window, horizon) not in shared:
        shared[op, window, horizon] = PowerStack(op, window, horizon)
    return shared[op, window, horizon]


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


def growth(op: OperatorSpec, n: int, lattice: str = BILATERAL) -> GrowthBounds:
    """(opnorm upper, minimum-modulus lower) bounds for the un-truncated n-th power.

    Exact for weighted shifts, diagonal, and scalar operators; dense and
    direct-sum variants are out of scope.
    """
    n = _power(n)
    if lattice not in (BILATERAL, UNILATERAL):
        raise ValueError(f"unknown lattice {lattice!r}")
    # the bounds read only the lattice, so a window of one index serves
    with named_overflow("growth", f"power {n}"):
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
