"""Truncated complex sequence spaces, direct products, and ball sampling."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

__all__ = [
    "BILATERAL",
    "UNILATERAL",
    "IndexWindow",
    "ComplexVector",
    "ProductVector",
    "Ball",
    "ProductBall",
    "norm",
    "sample_finite_support",
    "sample_ball",
    "as_rng",
    "trial_draws",
]

BILATERAL = "bilateral"
UNILATERAL = "unilateral"


def as_rng(seed) -> np.random.Generator:
    """Accept an int seed or a Generator and return a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def trial_draws(
    seed, trials: int, samplers: Sequence[Callable[[np.random.Generator], object]]
) -> list[tuple]:
    """One tuple of draws per trial, each draw from its own child seed.

    Draw i of trial t comes from child t*k + i of the seed's SeedSequence,
    where k = len(samplers); each draw gets a fresh generator, so no draw
    depends on how much randomness another one consumed.
    """
    k = len(samplers)
    children = np.random.SeedSequence(seed).spawn(k * trials)
    return [
        tuple(sample(np.random.default_rng(children[t * k + i])) for i, sample in enumerate(samplers))
        for t in range(trials)
    ]


@dataclass(frozen=True)
class IndexWindow:
    """Finite index range: [-m, m] when bilateral, [0, m] when unilateral."""

    kind: str
    m: int

    def __post_init__(self):
        if self.kind not in (BILATERAL, UNILATERAL):
            raise ValueError(f"unknown window kind {self.kind!r}")
        if self.m < 0:
            raise ValueError("window bound m must be >= 0")

    @property
    def lo(self) -> int:
        return -self.m if self.kind == BILATERAL else 0

    @property
    def hi(self) -> int:
        return self.m

    @property
    def dim(self) -> int:
        return self.hi - self.lo + 1

    def contains(self, j: int) -> bool:
        return self.lo <= j <= self.hi

    def position(self, j: int) -> int:
        """Array position of sequence index j."""
        if not self.contains(j):
            raise IndexError(f"index {j} outside window [{self.lo}, {self.hi}]")
        return j - self.lo

    def indices(self) -> np.ndarray:
        return np.arange(self.lo, self.hi + 1)


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=np.complex128)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ComplexVector:
    """Coefficients over an IndexWindow; immutable once built."""

    window: IndexWindow
    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs)
        if arr.shape != (self.window.dim,):
            raise ValueError(
                f"coefficient array has shape {arr.shape}, window needs ({self.window.dim},)"
            )
        object.__setattr__(self, "coeffs", _frozen(arr))

    @staticmethod
    def zero(window: IndexWindow) -> "ComplexVector":
        return ComplexVector(window, np.zeros(window.dim, dtype=np.complex128))

    @staticmethod
    def basis(window: IndexWindow, j: int, coeff: complex = 1.0) -> "ComplexVector":
        arr = np.zeros(window.dim, dtype=np.complex128)
        arr[window.position(j)] = coeff
        return ComplexVector(window, arr)

    @staticmethod
    def from_coeffs(window: IndexWindow, table: Mapping[int, complex]) -> "ComplexVector":
        arr = np.zeros(window.dim, dtype=np.complex128)
        for j, c in table.items():
            arr[window.position(int(j))] = c
        return ComplexVector(window, arr)

    def __getitem__(self, j: int) -> complex:
        return complex(self.coeffs[self.window.position(j)])

    def __add__(self, other: "ComplexVector") -> "ComplexVector":
        self._check_window(other)
        return ComplexVector(self.window, self.coeffs + other.coeffs)

    def __sub__(self, other: "ComplexVector") -> "ComplexVector":
        self._check_window(other)
        return ComplexVector(self.window, self.coeffs - other.coeffs)

    def __mul__(self, scalar: complex) -> "ComplexVector":
        return ComplexVector(self.window, self.coeffs * scalar)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, ComplexVector):
            return NotImplemented
        return self.window == other.window and np.array_equal(self.coeffs, other.coeffs)

    def _check_window(self, other: "ComplexVector"):
        if self.window != other.window:
            raise ValueError("vectors live on different windows")

    def support(self) -> np.ndarray:
        """Sequence indices with nonzero coefficients."""
        mask = self.coeffs != 0
        return self.window.indices()[mask]

    def support_bounds(self) -> tuple[int, int] | None:
        s = self.support()
        if s.size == 0:
            return None
        return int(s[0]), int(s[-1])


@dataclass(frozen=True)
class ProductVector:
    """Tuple of component vectors; the direct-sum norm is the sum of part norms."""

    parts: tuple[ComplexVector, ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("product vector needs at least one part")
        object.__setattr__(self, "parts", tuple(self.parts))

    @property
    def arity(self) -> int:
        return len(self.parts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProductVector):
            return NotImplemented
        return self.parts == other.parts


def norm(x) -> float:
    """l2 norm of a vector; sum of part norms for a product vector."""
    if isinstance(x, ProductVector):
        return float(sum(norm(p) for p in x.parts))
    return float(np.linalg.norm(x.coeffs))


@dataclass(frozen=True)
class Ball:
    """Open ball around a center vector."""

    center: ComplexVector
    radius: float

    def __post_init__(self):
        if not (self.radius > 0):
            raise ValueError("ball radius must be positive")

    def contains(self, x: ComplexVector) -> bool:
        return norm(x - self.center) < self.radius


@dataclass(frozen=True)
class ProductBall:
    balls: tuple[Ball, ...]

    def __post_init__(self):
        if not self.balls:
            raise ValueError("product ball needs at least one component")
        object.__setattr__(self, "balls", tuple(self.balls))

    @property
    def arity(self) -> int:
        return len(self.balls)

    def contains(self, x: ProductVector) -> bool:
        if x.arity != self.arity:
            raise ValueError("arity mismatch")
        return all(b.contains(p) for b, p in zip(self.balls, x.parts))


def sample_finite_support(
    window: IndexWindow,
    support: int,
    bound: float,
    seed,
    band: int | None = None,
    modulus_lo: float | None = None,
) -> ComplexVector:
    """Random vector with exactly `support` nonzero coefficients.

    Support indices are drawn without replacement from the window, or from
    its intersection with [-band, band] when band is given.  Each nonzero
    coefficient has modulus in [modulus_lo, bound] (default bound/4) and a
    uniform phase.
    """
    if support < 1:
        raise ValueError("support must be >= 1")
    if not (bound > 0):
        raise ValueError("bound must be positive")
    rng = as_rng(seed)
    lo, hi = window.lo, window.hi
    if band is not None:
        lo, hi = max(lo, -band), min(hi, band)
    pool = np.arange(lo, hi + 1)
    if support > pool.size:
        raise ValueError(f"support {support} exceeds {pool.size} available indices")
    idx = rng.choice(pool, size=support, replace=False)
    floor = bound / 4 if modulus_lo is None else modulus_lo
    if not (0 <= floor <= bound):
        raise ValueError("modulus_lo must lie in [0, bound]")
    moduli = rng.uniform(floor, bound, size=support)
    phases = rng.uniform(0.0, 2 * np.pi, size=support)
    arr = np.zeros(window.dim, dtype=np.complex128)
    arr[idx - window.lo] = moduli * np.exp(1j * phases)
    return ComplexVector(window, arr)


_STRICT_SHRINK = 1.0 - 1e-9


def sample_ball(ball: Ball, seed) -> ComplexVector:
    """Point strictly inside the ball, near-uniform in volume."""
    rng = as_rng(seed)
    d = ball.center.window.dim
    direction = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    dn = np.linalg.norm(direction)
    if dn == 0:
        return ball.center
    # radius ~ R * U^(1/2d) is the uniform-in-ball law for d complex dims
    r = ball.radius * rng.uniform() ** (1.0 / (2 * d)) * _STRICT_SHRINK
    return ball.center + ComplexVector(ball.center.window, direction * (r / dn))
