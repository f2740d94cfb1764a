"""Single-power hit solving: can alpha T^n map a source ball into a target ball.

The joint problem over (alpha, z) is solved per component by single
alternation steps from a few starts, then a disk grid: each step is an exact
disk-projected scalar fit followed by an exact trust-region least-squares step
in z.  A component where alpha T^n is a multiple of the identity (a scalar,
or any operator at n = 0) is decided in closed form instead.  Misses are
certified, when possible, by that closed form or by growth bounds of the
un-truncated operator.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .operators import (
    BackwardShift,
    ForwardShift,
    OperatorError,
    OperatorSpec,
    PowerMap,
    Scalar,
    WindowGuardError,
    components_of,
    ensure_power_fits,
    growth,
    overflow_checked,
    power_apply,
    power_map,
    right_inverse,
)
from .vectorspace import (
    Ball,
    ComplexVector,
    IndexWindow,
    ProductBall,
    ProductVector,
    as_rng,
    norm,
)

__all__ = [
    "DISK",
    "FIXED",
    "HIT",
    "MISS_CERTIFIED",
    "MISS_UNCERTAIN",
    "HitProblem",
    "Witness",
    "HitResult",
    "TrsResult",
    "PowerMap",
    "power_map",
    "best_alpha",
    "constrained_lsq",
    "certify_miss",
    "Certificate",
    "solve_hit",
    "random_search",
    "SearchReport",
    "reverify_witness",
]

DISK = "disk"
FIXED = "fixed"

HIT = "hit"
MISS_CERTIFIED = "miss_certified"
MISS_UNCERTAIN = "miss_uncertain"

# tolerances shared by the solve and certification paths
RESIDUAL_SLACK = 1e-9  # hits need residual < delta - slack
ALPHA_FLOOR = 1e-12  # smallest scalar modulus ever returned
STRICT_MARGIN = 1e-9  # source balls shrink by this factor for strictness
CERT_MARGIN = 1e-12  # certificates need lower_bound >= delta + this

# random_search draws its samples in blocks of this many; a helper thread
# draws the next block while this one is scored, which bounds the oracle's
# memory at two blocks: four real normal arrays of block by window dimension.
# It scores a block in chunks of about this many cells (rows times
# dimension), so that the passes over a chunk run in cache
SEARCH_BATCH = 20000
SCORE_CELLS = 256 * 97


@dataclass(frozen=True)
class HitProblem:
    components: tuple[OperatorSpec, ...]
    n: int
    sources: ProductBall
    targets: ProductBall
    mode: str = DISK
    fixed_alphas: tuple[complex, ...] | None = None

    def __post_init__(self):
        comps = components_of(self.components)
        object.__setattr__(self, "components", comps)
        k = len(comps)
        if self.sources.arity != k or self.targets.arity != k:
            raise ValueError("ball arity does not match the number of components")
        if self.n < 0 or int(self.n) != self.n:
            raise ValueError("power must be a nonnegative integer")
        if self.mode not in (DISK, FIXED):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == FIXED:
            if self.fixed_alphas is None or len(self.fixed_alphas) != k:
                raise ValueError("fixed mode needs one alpha per component")
            alphas = tuple(complex(a) for a in self.fixed_alphas)
            if any(a == 0 or abs(a) > 1 + 1e-15 for a in alphas):
                raise ValueError("fixed alphas must be nonzero with modulus <= 1")
            object.__setattr__(self, "fixed_alphas", alphas)
        elif self.fixed_alphas is not None:
            raise ValueError("fixed_alphas only apply in fixed mode")


@dataclass(frozen=True)
class Witness:
    n: int
    alphas: tuple[complex, ...]
    point: ProductVector
    residuals: tuple[float, ...]


@dataclass(frozen=True)
class Certificate:
    """Proof that one component misses at a power; certify_miss builds it."""

    kind: str  # "opnorm" or "minmod" (growth bounds), or "scalar_exact"
    component: int
    lower_bound: float  # on inf ||alpha T^n z - v|| over the closed source ball
    extends_past_horizon: bool  # the miss holds at every larger power too


@dataclass(frozen=True)
class HitResult:
    status: str
    witness: Witness | None = None
    certificate: Certificate | None = None
    best_residuals: tuple[float, ...] | None = None
    best_alphas: tuple[complex, ...] | None = None
    max_kkt_residual: float = 0.0

    @property
    def lower_bound(self) -> float | None:
        """The certificate's lower bound, under the name bench/workloads.py reads."""
        return None if self.certificate is None else self.certificate.lower_bound

    @property
    def certified_component(self) -> int | None:
        """The certificate's component, under the name bench/workloads.py reads."""
        return None if self.certificate is None else self.certificate.component


def best_alpha(w: ComplexVector, v: ComplexVector) -> complex:
    """Disk-projected minimizer of ||alpha w - v|| over the closed unit disk.

    The unconstrained optimum inner(v, w)/inner(w, w) is projected radially;
    w = 0 returns 1, and an exactly zero optimum returns ALPHA_FLOOR.
    """
    ww = float(np.vdot(w.coeffs, w.coeffs).real)
    if ww == 0.0:
        return 1.0 + 0.0j
    a0 = complex(np.vdot(w.coeffs, v.coeffs)) / ww  # conjugates w: <v, w>/<w, w>
    if a0 == 0:
        return complex(ALPHA_FLOOR)
    m = abs(a0)
    return a0 / m if m > 1.0 else a0


@dataclass(frozen=True)
class TrsResult:
    z: ComplexVector
    residual: float
    kkt_residual: float


def _secular_solve(q: np.ndarray, s: np.ndarray, eps: float) -> tuple[float, float]:
    """Solve sum s_i/(q_i+mu)^2 = eps^2 for mu >= 0; returns (mu, norm at mu).

    Every term needs q_i > 0 or s_i > 0.  Below sqrt(s_i)/eps - q_i one term
    alone keeps the norm above eps, so the largest of these bounds (or 0)
    lies left of the root; 1/norm is concave and increasing in mu, so Newton
    from there climbs to the root inside the bracket [0, ||g||/eps].
    """

    def nrm(mu: float) -> float:
        return math.sqrt(float(np.sum(s / (q + mu) ** 2)))

    g_norm = math.sqrt(float(np.sum(s)))
    mu_hi = g_norm / eps
    mu_lo = 0.0
    mu = max(0.0, float(np.max(np.sqrt(s) / eps - q)))
    val = nrm(mu)
    for _ in range(200):
        if abs(val - eps) <= 1e-14 * eps:
            break
        # Newton on f(mu) = 1/nrm - 1/eps, monotone increasing
        deriv = float(np.sum(s / (q + mu) ** 3)) / val**3
        if val > eps:
            mu_lo = mu
        else:
            mu_hi = mu
        step = (1.0 / val - 1.0 / eps) / deriv
        nxt = mu - step
        if not (mu_lo < nxt < mu_hi):
            nxt = 0.5 * (mu_lo + mu_hi)
        if nxt == mu:
            break
        mu = nxt
        val = nrm(mu)
    return mu, val


def _trs_core(q: np.ndarray, g: np.ndarray, eps: float) -> tuple[np.ndarray, float, float]:
    """min ||A d - r||, ||d|| <= eps, expressed through q = eig(A^H A), g = A^H r.

    Returns (d, mu, norm_gap) with norm_gap = | ||d|| - eps | / eps when the
    solution sits on the boundary, else 0.
    """
    s = np.abs(g) ** 2
    if not np.any(s > 0):
        return np.zeros_like(g), 0.0, 0.0
    live = q > 0
    free_mass = bool(np.any(~live & (s > 0)))
    if not free_mass:
        d0 = np.zeros_like(g)
        d0[live] = g[live] / q[live]
        if float(np.linalg.norm(d0)) <= eps:
            return d0, 0.0, 0.0
    # a term with s = 0 adds nothing to the norm and gets d = 0 at any mu;
    # q = 1 there keeps q = s = 0 (a column that died at the window edge)
    # from giving 0/0 at mu = 0
    q = np.where(s > 0, q, 1.0)
    mu, val = _secular_solve(q, s, eps)
    d = g / (q + mu)
    return d, mu, abs(val - eps) / eps


def _gram_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (clipped at 0) and eigenvectors of m^H m."""
    evals, evecs = np.linalg.eigh(m.conj().T @ m)
    return np.clip(evals, 0.0, None), evecs


def constrained_lsq(A: PowerMap, u: ComplexVector, eps: float, target: ComplexVector) -> TrsResult:
    """Exact minimizer of ||A z - target|| over the closed ball ||z - u|| <= eps.

    The reported kkt_residual is scale-invariant: stationarity is scaled by
    max(1, ||A^H r||), the ball violation and complementarity gap by eps.
    """
    if not (eps > 0):
        raise ValueError("ball radius must be positive")
    window = u.window
    r = target.coeffs - A.apply_vec(u.coeffs)
    if A.kind == "ortho":
        q = np.abs(A.coeffs) ** 2
        g = np.zeros(window.dim, dtype=np.complex128)
        live = A.coeffs != 0
        g[live] = np.conj(A.coeffs[live]) * r[A.tgt[live]]
        d, mu, gap = _trs_core(q, g, eps)
        stat = float(np.linalg.norm((q + mu) * d - g))
    else:
        m = A.matrix
        evals, evecs = _gram_eigh(m)
        g_full = m.conj().T @ r
        g = evecs.conj().T @ g_full
        d_eig, mu, gap = _trs_core(evals, g, eps)
        d = evecs @ d_eig
        stat = float(np.linalg.norm((evals + mu) * d_eig - g))
        g = g_full
    g_scale = max(1.0, float(np.linalg.norm(g)))
    dn = float(np.linalg.norm(d))
    feas = max(0.0, dn - eps) / eps
    kkt = max(stat / g_scale, feas, gap)
    z = ComplexVector(window, u.coeffs + d)
    residual = float(np.linalg.norm(A.apply_vec(z.coeffs) - target.coeffs))
    return TrsResult(z=z, residual=residual, kkt_residual=kkt)


def _secular_rows(q: np.ndarray, s: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """_secular_solve on every row of (q, s) at once: bracketed Newton on
    1/||d(mu)|| - 1/eps with its own bracket and stopping test per row, but
    started at the bracket's midpoint, not at the single-term lower bound.

    The loop runs until its slowest row stops, and on the disk-grid rows the
    lower-bound start took more passes than the midpoint.  The midpoint also
    keeps mu > 0, so terms with q = s = 0 need no masking here.
    """
    hi = np.sqrt(np.sum(s, axis=1)) / eps
    lo = np.zeros_like(hi)
    mu = 0.5 * hi
    val = np.empty_like(mu)
    rows = np.arange(len(mu))  # rows still iterating; m, lo, hi, q, s below are theirs
    m = mu.copy()
    for it in range(201):
        x = q + m[:, None]
        w = s / x**2
        v = np.sqrt(np.sum(w, axis=1))
        val[rows] = v
        going = np.abs(v - eps) > 1e-14 * eps
        if not going.all():
            rows, m, v, lo, hi, q, s, x, w = (a[going] for a in (rows, m, v, lo, hi, q, s, x, w))
        if rows.size == 0 or it == 200:
            break
        deriv = np.sum(w / x, axis=1) / v**3
        over = v > eps
        lo = np.where(over, m, lo)
        hi = np.where(over, hi, m)
        nxt = m - (1.0 / v - 1.0 / eps) / deriv
        outside = ~((lo < nxt) & (nxt < hi))
        nxt[outside] = 0.5 * (lo + hi)[outside]
        moved = nxt != m
        rows, m, lo, hi, q, s = (a[moved] for a in (rows, nxt, lo, hi, q, s))
        mu[rows] = m
    return mu, val


def _grid_lsq(
    A: PowerMap, alphas: np.ndarray, u: ComplexVector, eps: float, target: ComplexVector
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """constrained_lsq for alphas[k] * A, every k at once; A is T^n at alpha 1.

    Returns the minimizers, residuals and KKT residuals by row.  Row k repeats
    constrained_lsq(A.scaled(alphas[k]), u, eps, target) step
    for step, up to rounding: sums, norms and the Newton derivative are formed
    in another order, and a dense map is diagonalized once, since
    (alpha A)^H (alpha A) = |alpha|^2 A^H A keeps the eigenvectors of A^H A.
    """
    if A.kind == "dense":
        m = A.matrix
        evals, evecs = _gram_eigh(m)

        def apply(x: np.ndarray) -> np.ndarray:
            return alphas[:, None] * (x @ m.T)

        r = target.coeffs - apply(u.coeffs)
        q = np.abs(alphas[:, None]) ** 2 * evals
        g_full = np.conj(alphas)[:, None] * (r @ m.conj())  # (alpha A)^H r by row
        g = g_full @ evecs.conj()  # in the eigenbasis
    else:
        live = A.coeffs != 0
        dst = A.tgt[live]
        c = alphas[:, None] * A.coeffs  # the coeffs A.scaled(alpha) holds at each alpha

        def apply(x: np.ndarray) -> np.ndarray:
            out = np.zeros(c.shape, dtype=np.complex128)
            out[:, dst] = c[:, live] * x[..., live]
            return out

        r = target.coeffs - apply(u.coeffs)
        q = np.abs(c) ** 2
        g = np.zeros_like(c)
        g[:, live] = np.conj(c[:, live]) * r[:, dst]
        g_full = g
    s = np.abs(g) ** 2
    # _trs_core row by row: no gradient, interior Newton point, or boundary
    mu = np.zeros(len(alphas))
    gap = np.zeros(len(alphas))
    d = np.zeros_like(g)
    has_grad = np.any(s > 0, axis=1)
    free_mass = np.any((q == 0) & (s > 0), axis=1)
    d0 = np.divide(g, q, out=np.zeros_like(g), where=q > 0)
    interior = has_grad & ~free_mass & (np.linalg.norm(d0, axis=1) <= eps)
    d[interior] = d0[interior]
    boundary = has_grad & ~interior
    if boundary.any():
        mu_b, val_b = _secular_rows(q[boundary], s[boundary], eps)
        mu[boundary] = mu_b
        d[boundary] = g[boundary] / (q[boundary] + mu_b[:, None])
        gap[boundary] = np.abs(val_b - eps) / eps
    stat = np.linalg.norm((q + mu[:, None]) * d - g, axis=1)
    if A.kind == "dense":
        d = d @ evecs.T  # back from the eigenbasis
    feas = np.maximum(0.0, np.linalg.norm(d, axis=1) - eps) / eps
    kkt = np.maximum(np.maximum(stat / np.maximum(1.0, np.linalg.norm(g_full, axis=1)), feas), gap)
    z = u.coeffs + d
    residual = np.linalg.norm(apply(z) - target.coeffs, axis=1)
    return z, residual, kkt


def _growth_certificate(op, n, src: Ball, tgt: Ball, mode, alpha, component: int) -> tuple[float, Certificate] | None:
    """Growth-bound certificate of one component, with its margin over the radius.

    The lattice for the growth bound is the kind of the window the balls live
    on: un-truncated dynamics on that lattice is what the bound models.
    """
    lattice = src.center.window.kind
    try:
        gb = growth(op, n, lattice)
    except (OperatorError, ValueError):
        return None
    nu = norm(src.center)
    nv = norm(tgt.center)
    cands: list[tuple[float, str]] = []
    if mode == FIXED:
        a = abs(alpha)
        if nu > src.radius:
            cands.append((a * gb.minmod_lower * (nu - src.radius) - nv, "minmod"))
        cands.append((nv - a * gb.opnorm_upper * (nu + src.radius), "opnorm"))
    else:
        # any |alpha| <= 1 obeys the image-norm bound; the minimum-modulus
        # bound dies as alpha -> 0 and cannot certify disk-scaled problems
        cands.append((nv - gb.opnorm_upper * (nu + src.radius), "opnorm"))
    lb, kind = max(cands, key=lambda t: t[0])
    margin = lb - tgt.radius
    if not margin >= CERT_MARGIN:
        return None
    # the bound holds at every larger power when one step of the un-truncated
    # operator, on the lattice the bound used, cannot weaken it
    step = growth(op, 1, lattice)
    extends = step.minmod_lower >= 1.0 if kind == "minmod" else step.opnorm_upper <= 1.0
    return margin, Certificate(kind=kind, component=component, lower_bound=lb, extends_past_horizon=extends)


def certify_miss(p: HitProblem) -> Certificate | None:
    """Certificate that no feasible (alpha, z) hits at p.n; the one with the
    widest margin over components, or None.

    A component where alpha T^n is a multiple of the identity (a scalar, or
    any operator at n = 0) is bounded exactly; shift and diagonal components
    by growth bounds; a dense component at n >= 1 is not certified.
    """
    best: tuple[float, Certificate] | None = None
    for i, op in enumerate(p.components):
        src, tgt = p.sources.balls[i], p.targets.balls[i]
        alpha = p.fixed_alphas[i] if p.mode == FIXED else None
        scalar = _scalar_power(op, p.n, src, tgt)
        if scalar is not None:
            got = scalar.certificate(i, p.mode, alpha)
        else:
            got = _growth_certificate(op, p.n, src, tgt, p.mode, alpha, i)
        if got is not None and (best is None or got[0] > best[0]):
            best = got
    return None if best is None else best[1]


@dataclass
class _ComponentSolve:
    hit: bool
    alpha: complex
    z: ComplexVector | None
    residual: float
    max_kkt: float


# |beta| past which the scalar route forms no point and scales no bound
# further up: a positive excess taken there is still a lower bound, and its
# products with the problem's norms stay finite
_BETA_CAP = 2.0**800
_UNIT_ROUNDOFF = 2.0**-53


def _exp(x: float) -> float:
    """exp that reads inf past the float range instead of raising."""
    return math.exp(x) if x < 709.0 else math.inf


def _log(x: float) -> float:
    """log that reads -inf at 0 instead of raising."""
    return math.log(x) if x > 0 else -math.inf


@dataclass(frozen=True)
class _ScalarPower:
    """One component where alpha T^n = beta I with beta = alpha c^n: a
    Scalar(c), or any operator at n = 0 (c = 1).

    As z ranges over the closed ball B(u, eps), beta z covers B(beta u,
    |beta| eps), so the infimum of ||beta z - v|| is max(0, e(beta)) with the
    excess e(beta) = ||beta u - v|| - |beta| eps.  With b0 = <v, u>/||u||^2 and
    p = ||v - b0 u||, e(beta) = hypot(nu |beta - b0|, p) - |beta| eps.  In
    beta's phase the excess is least at b0's, where it is
    g(t) = hypot(nu (t - |b0|), p) - t eps for t = |beta|; g is convex, with
    its stationary point at t* = |b0| + eps p / (nu sqrt(nu^2 - eps^2)) when
    eps < nu.  Coordinates off the window only add |beta z_j|^2, so every
    bound holds on the un-truncated lattice.  |c|^n and alpha are taken in log
    form, so no power overflows.
    """

    log_r: float  # log |c^n|; -inf for c = 0
    arg_r: float  # arg c^n
    log_c: float | None  # log |c| when every power is scalar; None when only T^0 is
    window: IndexWindow
    u: np.ndarray
    v: np.ndarray
    nu: float
    nv: float
    b0: complex
    p: float
    eps: float
    delta: float
    # rounding bound relative to ||v|| + |beta| (||u|| + eps): the dot
    # products of dimension d, and |c|^n, arg c^n and alpha formed from n log|c|
    # and n arg c
    rel: float

    def slack(self, t: float) -> float:
        """Bound on the rounding error of an excess at |beta| = t."""
        return self.rel * (self.nv + t * (self.nu + self.eps))

    def excess(self, t: float, angle: float, cap: float = _BETA_CAP) -> float:
        """e(beta) at beta = t exp(i angle).  Past t = 1 it is formed as t times
        e(beta)/t, so that a large t cannot overflow the terms; past the cap a
        positive excess is taken at the cap, where it is smaller."""
        phase = cmath.rect(1.0, angle)
        if t <= 1.0:
            return math.hypot(self.nu * abs(t * phase - self.b0), self.p) - t * self.eps
        h = math.hypot(self.nu * abs(phase - self.b0 / t), self.p / t) - self.eps
        return min(t, cap) * h if h > 0 else (t * h if h < 0 else 0.0)

    def _tangent(self, t: float) -> float:
        """g(t) - t max(0, g'(t)): by convexity, a lower bound on g over [0, t].
        At a kink the slope -eps, which lies in the subdifferential, is used."""
        if t > _BETA_CAP:
            return -math.inf
        b = abs(self.b0)
        a, q = (self.nu * (t - b), self.p) if t <= 1.0 else (self.nu * (1.0 - b / t), self.p / t)
        r = math.hypot(a, q)
        slope = (self.nu * a / r if r > 0 else 0.0) - self.eps
        return self.excess(t, cmath.phase(self.b0)) - t * max(0.0, slope)

    def _interior(self) -> tuple[float, float] | None:
        """(t*, g(t*)); None when eps is not below ||u|| by more than rounding."""
        gap = self.nu - self.eps
        if gap <= 16.0 * self.rel * self.nu:
            return None
        root = math.sqrt(gap * (self.nu + self.eps))
        b = abs(self.b0)
        return b + self.eps * self.p / (self.nu * root), self.p * root / self.nu - b * self.eps

    def lowest(self, lo: float, hi: float) -> tuple[float, float]:
        """Lower bound on g over [lo, hi], where lo = 0 or hi = inf, and the
        |beta| its rounding error scales with.

        The stationary point's value is used where t* lies clearly inside; g at
        the end (or its tangent bound) where t* lies clearly outside; the
        larger of the two valid bounds in between.
        """
        star = self._interior()
        if hi == math.inf:
            if star is None:
                return -math.inf, math.inf
            if star[0] >= 2.0 * lo:
                return star[1], star[0]
            if star[0] > 0.5 * lo:
                return star[1], 2.0 * lo
            return self.excess(lo, cmath.phase(self.b0)), min(lo, _BETA_CAP)
        if star is not None and star[0] <= 0.5 * hi:
            return star[1], star[0]
        if star is not None and star[0] < 2.0 * hi:
            return max(star[1], self._tangent(hi)), 2.0 * hi
        return self._tangent(hi), hi

    def _modulus_and_angle(self, mode: str, alpha: complex | None) -> tuple[float, float]:
        """log |beta| and arg beta of the pinned scalar; in disk mode log |c^n|."""
        if mode == FIXED:
            return _log(abs(alpha)) + self.log_r, cmath.phase(alpha) + self.arg_r
        return self.log_r, cmath.phase(self.b0)

    def certificate(self, component: int, mode: str, alpha: complex | None) -> tuple[float, Certificate] | None:
        """The exact certificate, with its margin over the radius once the
        rounding slack is taken off, or None."""
        log_t, angle = self._modulus_and_angle(mode, alpha)
        t = _exp(log_t)
        lb, ts = (self.excess(t, angle), min(t, _BETA_CAP)) if mode == FIXED else self.lowest(0.0, t)
        margin = lb - self.slack(ts) - self.delta
        if not margin >= CERT_MARGIN:
            return None
        return margin, Certificate("scalar_exact", component, lb, self._extends(t, mode))

    def _extends(self, t: float, mode: str) -> bool:
        """Whether g still clears the radius, with twice the slack, over every
        |beta| a larger power reaches: [0, inf) or [0, |c|^n] in disk mode;
        [|alpha||c|^n, inf) for |c| > 1 and [0, |alpha||c|^n] for |c| <= 1 in
        fixed mode, where the phase turns with n.  t is |c|^n, or
        |alpha||c|^n in fixed mode.  Other operators than scalars stop at
        n = 0."""
        if self.log_c is None:
            return False
        if self.log_c > 0:
            lb, ts = self.lowest(t if mode == FIXED else 0.0, math.inf)
        else:
            lb, ts = self.lowest(0.0, t)
        return lb - 2.0 * self.slack(ts) - self.delta >= CERT_MARGIN

    def solve(self, mode: str, alpha: complex | None) -> _ComponentSolve:
        """The closed-form best point: in disk mode at t* clipped to
        [ALPHA_FLOOR |c|^n, |c|^n]; in fixed mode at the pinned scalar.

        Past _BETA_CAP no point is formed, and the residual is the infimum at
        that scalar, max(0, e(beta)), clipped to the float range: a miss, with
        no witness, whichever way that infimum falls.
        """
        log_t, angle = self._modulus_and_angle(mode, alpha)
        if mode == DISK:
            star = self._interior()
            if star is not None and star[0] < _exp(self.log_r):
                log_t = _log(star[0])
            log_t = max(log_t, self.log_r + math.log(ALPHA_FLOOR))
            # c = 0 leaves beta = 0 at every alpha
            alpha = cmath.rect(_exp(log_t - self.log_r), angle - self.arg_r) if self.log_r > -math.inf else 1.0 + 0j
        t = _exp(log_t)
        if t > _BETA_CAP:
            residual = min(max(0.0, self.excess(t, angle, cap=math.inf)), sys.float_info.max)
            return _ComponentSolve(hit=False, alpha=alpha, z=None, residual=residual, max_kkt=0.0)
        beta = cmath.rect(t, angle)
        # z is v/beta projected onto the source ball shrunk by the strictness
        # margin and by the rounding slack, so that it stays inside once rounded;
        # y is (v/beta - u) times `scale`, formed without dividing by a small beta
        eps_w = max(0.0, self.eps * (1.0 - STRICT_MARGIN) - self.rel * (self.nu + self.eps))
        if t <= 1.0:
            y, scale = (self.v - beta * self.u) * cmath.rect(1.0, -angle), t
        else:
            y, scale = self.v / beta - self.u, 1.0
        ny = float(np.linalg.norm(y))
        if ny < eps_w * scale:
            z = self.u + y / scale
        else:
            z = self.u + y * (eps_w / ny) if ny > 0 else self.u
        residual = float(np.linalg.norm(beta * z - self.v))
        # the witness's own norm bounds what rounding beta moves its image by
        slack = self.rel * (self.nv + t * float(np.linalg.norm(z)))
        hit = residual + slack < self.delta - RESIDUAL_SLACK
        return _ComponentSolve(hit=hit, alpha=alpha, z=ComplexVector(self.window, z), residual=residual, max_kkt=0.0)


def _scalar_power(op: OperatorSpec, n: int, src: Ball, tgt: Ball) -> _ScalarPower | None:
    """The exact route's view of a component, when alpha T^n is a multiple of
    the identity; None otherwise."""
    if isinstance(op, Scalar):
        log_c = _log(abs(op.value))
        log_r, arg_r = (n * log_c, n * cmath.phase(op.value)) if n else (0.0, 0.0)
    elif n == 0:
        log_c, log_r, arg_r = None, 0.0, 0.0
    else:
        return None
    u, v = src.center.coeffs, tgt.center.coeffs
    nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
    b0 = complex(np.vdot(u, v)) / nu**2 if nu > 0 else 0j
    log_err = abs(log_r) if math.isfinite(log_r) else 0.0
    return _ScalarPower(
        log_r=log_r,
        arg_r=arg_r,
        log_c=log_c,
        window=src.center.window,
        u=u,
        v=v,
        nu=nu,
        nv=nv,
        b0=b0,
        p=float(np.linalg.norm(v - b0 * u)),
        eps=src.radius,
        delta=tgt.radius,
        rel=(4 * u.size + 4 * log_err + 16 * n + 32) * _UNIT_ROUNDOFF,
    )


def _criterion_scalar(op, n, base: PowerMap, src: Ball, tgt: Ball) -> tuple[complex, ComplexVector] | None:
    """Scalar lambda_n = sqrt(||S^n v|| / ||T^n u||) and the seed u + (1/lambda) S^n v.

    base is power_map(op, n) on the balls' window."""
    try:
        s = right_inverse(op)
    except OperatorError:
        return None
    u, v = src.center, tgt.center
    try:
        ensure_power_fits(op, n, u)
        ensure_power_fits(s, n, v)
    except WindowGuardError:
        return None
    tn_u = ComplexVector(u.window, base.apply_vec(u.coeffs))
    sn_v = power_apply(s, n, v)
    tu, sv = norm(tn_u), norm(sn_v)
    lam = math.sqrt(sv / tu) if tu > 0 and sv > 0 else 1.0
    lam = min(lam, 1.0)
    if lam == 0.0:
        # underflowed ratio; any nonzero scalar is legal, zero is not
        lam = ALPHA_FLOOR
    seed = u + sn_v * (1.0 / lam)
    return complex(lam), seed


_GRID_MODULI = (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0)
_GRID_PHASES = 8
# disk-grid scalars in the order they are tried: modulus-major, phase-minor
_GRID_ALPHAS = tuple(
    mod * complex(math.cos(2.0 * math.pi * j / _GRID_PHASES), math.sin(2.0 * math.pi * j / _GRID_PHASES))
    for mod in _GRID_MODULI
    for j in range(_GRID_PHASES)
)


@overflow_checked()
def _solve_component(
    op: OperatorSpec,
    n: int,
    src: Ball,
    tgt: Ball,
    mode: str,
    fixed_alpha: complex | None,
) -> _ComponentSolve:
    scalar = _scalar_power(op, n, src, tgt)
    if scalar is not None:
        return scalar.solve(mode, fixed_alpha)
    window = src.center.window
    u, v = src.center, tgt.center
    eps_eff = src.radius * (1.0 - STRICT_MARGIN)
    delta = tgt.radius
    hit_level = delta - RESIDUAL_SLACK
    # T^n is built once; every scalar tried below uses base.scaled(alpha)
    base = power_map(op, n, window)

    best = _ComponentSolve(hit=False, alpha=1.0 + 0j, z=None, residual=math.inf, max_kkt=0.0)

    def track(alpha: complex, z: ComplexVector, residual: float, kkt: float = 0.0) -> bool:
        best.max_kkt = max(best.max_kkt, kkt)
        # a hit ends the solve, so until one best.residual >= hit_level, and
        # every hit is also an improvement
        if residual < best.residual:
            best.residual = residual
            best.alpha = alpha
            best.z = z
        best.hit = residual < hit_level
        return best.hit

    def pinned(alpha: complex) -> bool:
        sol = constrained_lsq(base.scaled(alpha), u, eps_eff, v)
        return track(alpha, sol.z, sol.residual, sol.kkt_residual)

    if mode == FIXED:
        pinned(fixed_alpha)
        return best

    def alternate(z: ComplexVector) -> bool:
        """One alternation step from z: refit alpha at z, keep z itself when
        it lies inside the source ball, then pin that alpha."""
        w = ComplexVector(window, base.apply_vec(z.coeffs))
        alpha = best_alpha(w, v)
        if norm(z - u) < src.radius and track(alpha, z, norm(w * alpha - v)):
            return True
        return pinned(alpha)

    crit = _criterion_scalar(op, n, base, src, tgt)
    # criterion-pinned scalar first: where it hits, the recorded alpha is the
    # construction's lambda_n, not a refit
    if crit is not None and pinned(crit[0]):
        return best
    if alternate(u):
        return best
    if crit is not None and alternate(crit[1]):
        return best
    # the z-subproblem at fixed alpha is convex and solved exactly, so the
    # joint landscape is nonconvex only through alpha; a coarse disk grid
    # (alpha = 1 is its modulus-1, phase-0 row) plus one polishing step
    # covers the scalars the steps above did not reach.  The grid is one
    # batched solve, replayed through track() in grid order, so the first
    # hit, the best point and max_kkt are those of pinning each grid alpha
    # in turn
    zs, residuals, kkts = _grid_lsq(base, np.array(_GRID_ALPHAS), u, eps_eff, v)
    for alpha, z, residual, kkt in zip(_GRID_ALPHAS, zs, residuals.tolist(), kkts.tolist()):
        # track() keeps z only from a row that improves on the best or hits
        kept = ComplexVector(window, z) if residual < max(best.residual, hit_level) else None
        if track(alpha, kept, residual, kkt):
            return best
    if best.z is not None:
        alternate(best.z)
    return best


def solve_hit(p: HitProblem) -> HitResult:
    """Solve the joint hit problem; the product structure separates by component."""
    cert = certify_miss(p)
    if cert is not None:
        return HitResult(status=MISS_CERTIFIED, certificate=cert)
    solves = [
        _solve_component(
            op,
            p.n,
            p.sources.balls[i],
            p.targets.balls[i],
            p.mode,
            p.fixed_alphas[i] if p.mode == FIXED else None,
        )
        for i, op in enumerate(p.components)
    ]
    max_kkt = max(s.max_kkt for s in solves)
    if all(s.hit for s in solves):
        witness = Witness(
            n=p.n,
            alphas=tuple(s.alpha for s in solves),
            point=ProductVector(tuple(s.z for s in solves)),
            residuals=tuple(s.residual for s in solves),
        )
        return HitResult(status=HIT, witness=witness, max_kkt_residual=max_kkt)
    return HitResult(
        status=MISS_UNCERTAIN,
        best_residuals=tuple(s.residual for s in solves),
        best_alphas=tuple(s.alpha for s in solves),
        max_kkt_residual=max_kkt,
    )


@dataclass(frozen=True)
class SearchReport:
    best_residuals: tuple[float, ...]
    best_alphas: tuple[complex, ...]
    hits: tuple[bool, ...]  # found residual < target radius, per component


def _squared_residuals(pmap: PowerMap, v: np.ndarray) -> Callable[..., np.ndarray]:
    """Kernel for random_search: given the real and imaginary parts x, y of
    points z (one per row) and a column of one alpha per row, return the
    squared residuals |alpha T^n z - v|^2.  x and y are overwritten.

    An orthogonal-column map works on x and y in real arithmetic: column j
    meets only row tgt[j], so the residual is a sum over columns of
    |k_j z_j - v[tgt[j]]|^2 with k = alpha coeffs, plus |v|^2 over the rows no
    live column reaches.  A dense map forms the complex block.
    """
    if pmap.kind == "dense":
        matrix_t = pmap.matrix.T

        def dense(x: np.ndarray, y: np.ndarray, alphas: np.ndarray) -> np.ndarray:
            diff = alphas * ((x + 1j * y) @ matrix_t) - v
            return np.add.reduce((diff.conj() * diff).real, axis=1)

        return dense
    live = pmap.coeffs != 0
    vcol = np.where(live, v[pmap.tgt], 0)
    vr, vi = np.ascontiguousarray(vcol.real), np.ascontiguousarray(vcol.imag)
    rest = np.ones(v.size, dtype=bool)
    rest[pmap.tgt[live]] = False
    rest_sq = float(np.sum((v[rest].conj() * v[rest]).real))

    def ortho(x: np.ndarray, y: np.ndarray, alphas: np.ndarray) -> np.ndarray:
        k = alphas * pmap.coeffs
        # contiguous parts broadcast over the rows at full speed
        kr, ki = np.ascontiguousarray(k.real), np.ascontiguousarray(k.imag)
        # re(k z - v) into a, im(k z - v) into y
        a = x * kr
        tmp = y * ki
        a -= tmp
        a -= vr
        y *= kr
        np.multiply(x, ki, out=tmp)
        y += tmp
        y -= vi
        return np.einsum("ij,ij->i", a, a) + np.einsum("ij,ij->i", y, y) + rest_sq

    return ortho


def _scale_exponent(pmap: PowerMap, reach: float, v: np.ndarray) -> int:
    """The e >= 0 that brings B = |T^n| reach + |v| to at most 2^500, where
    |T^n| is the largest coefficient of an orthogonal-column map or the
    Frobenius norm of a dense one.  Every residual |alpha T^n z - v| with
    |z| <= reach and |alpha| <= 1 is at most B, so once the map and v are
    scaled by 2^-e its square stays inside the float range, and a power of
    two scales exactly.  B is bounded through binary exponents, as it can
    pass the float range itself."""
    entries = np.abs(pmap.matrix if pmap.kind == "dense" else pmap.coeffs)
    big = float(np.max(entries, initial=0.0))
    if pmap.kind == "dense" and big > 0:
        reach *= float(np.linalg.norm(entries / big))  # |M|_F = big |M / big|_F
    size = float(np.linalg.norm(v))
    top = max(math.frexp(big)[1], math.frexp(size)[1])
    bound = math.ldexp(big, -top) * reach + math.ldexp(size, -top)
    return max(0, math.ceil(math.log2(bound)) + top - 500) if bound > 0 else 0


def random_search(p: HitProblem, samples: int, seed) -> SearchReport:
    """Brute-force feasible sampling oracle for the hit problem.

    Draws (alpha, z) with z strictly inside each source ball and alpha uniform
    on the disk (or pinned in fixed mode); reports the best residual seen per
    component.  Sound but not sharp: it never proves a miss, only fails to
    find a hit.  The draws are the same for every kind of map: component by
    component, per block the real and then the imaginary normals, the radius
    uniforms, and in disk mode the magnitude and phase uniforms.  One helper
    thread makes the next block's draws while this block is scored; each draw
    starts after the one before has finished, so the generator is used by one
    thread at a time, in that order.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    rng = as_rng(seed)
    k = len(p.components)
    dims = [ball.center.window.dim for ball in p.sources.balls]
    # every component's map first, so a map that cannot be built fails
    # before anything is drawn
    scorers = []
    for op, src, tgt in zip(p.components, p.sources.balls, p.targets.balls):
        pmap, v = power_map(op, p.n, src.center.window), tgt.center.coeffs
        # residuals are scored in units of 2^e, so that their squares cannot overflow
        e = _scale_exponent(pmap, norm(src.center) + src.radius, v)
        residuals = _squared_residuals(pmap.scaled(2.0**-e), v * 2.0**-e)
        centre = (np.ascontiguousarray(src.center.coeffs.real), np.ascontiguousarray(src.center.coeffs.imag))
        scorers.append((residuals, centre, 2.0**e))
    blocks = [(i, min(SEARCH_BATCH, samples - lo)) for i in range(k) for lo in range(0, samples, SEARCH_BATCH)]
    # two pairs of flat buffers, filled in turn, each block viewing its first b*d cells
    cells = min(SEARCH_BATCH, samples) * max(dims)
    buffers = [(np.empty(cells), np.empty(cells)) for _ in range(2)]

    def draw(step: int):
        i, b = blocks[step]
        d = dims[i]
        x, y = (buf[: b * d].reshape(b, d) for buf in buffers[step % 2])
        rng.standard_normal(out=x)
        rng.standard_normal(out=y)
        radii = p.sources.balls[i].radius * rng.uniform(size=b) ** (1.0 / (2 * d)) * (1.0 - 1e-12)
        if p.mode == FIXED:
            alphas = np.full(b, p.fixed_alphas[i], dtype=np.complex128)
        else:
            mags = np.sqrt(rng.uniform(size=b))
            alphas = mags * np.exp(2j * np.pi * rng.uniform(size=b))
        return x, y, radii, alphas

    best_res = [math.inf] * k
    best_alpha_found = [1.0 + 0j] * k
    # imported here, not at module level: concurrent.futures (and logging
    # through it) takes about 10 ms to load (python -X importtime), and only
    # the oracle uses it, so `import disklab` does not pay for it
    from concurrent.futures import ThreadPoolExecutor

    # one helper thread draws the next block; result() re-raises its error
    # here, and leaving the block joins it, whatever the scoring raised
    with ThreadPoolExecutor(max_workers=1) as helper:
        pending = helper.submit(draw, 0)
        for step, (i, b) in enumerate(blocks):
            x, y, radii, alphas = pending.result()
            if step + 1 < len(blocks):
                pending = helper.submit(draw, step + 1)
            residuals, (cr, ci), unit = scorers[i]
            chunk = max(1, SCORE_CELLS // dims[i])
            sq = np.empty(b)
            for lo in range(0, b, chunk):
                rows = slice(lo, lo + chunk)
                xr, yr = x[rows], y[rows]
                norms = np.sqrt(np.einsum("ij,ij->i", xr, xr) + np.einsum("ij,ij->i", yr, yr))
                norms[norms == 0] = 1.0
                scale = (radii[rows] / norms)[:, None]
                xr *= scale
                xr += cr
                yr *= scale
                yr += ci
                sq[rows] = residuals(xr, yr, alphas[rows, None])
            j = int(np.argmin(sq))
            res = math.sqrt(sq[j]) * unit
            if res < best_res[i]:
                best_res[i] = res
                best_alpha_found[i] = complex(alphas[j])
    return SearchReport(
        best_residuals=tuple(best_res),
        best_alphas=tuple(best_alpha_found),
        hits=tuple(best_res[i] < p.targets.balls[i].radius for i in range(k)),
    )


def reverify_witness(p: HitProblem, w: Witness) -> float:
    """Recompute witness residuals on an enlarged window; return the largest
    absolute deviation from the recorded values.  Also re-checks membership."""
    devs = []
    for i, op in enumerate(p.components):
        src, tgt = p.sources.balls[i], p.targets.balls[i]
        z = w.point.parts[i]
        if norm(z - src.center) >= src.radius:
            raise AssertionError("witness point is not strictly inside its source ball")
        if isinstance(op, (ForwardShift, BackwardShift)):
            # shifts move mass: recompute where the window edge cannot interfere
            old = z.window
            big = IndexWindow(old.kind, old.m + p.n)
            zi, vi = _embed(z, big), _embed(tgt.center, big)
        else:
            zi, vi = z, tgt.center
        res = norm(power_apply(op, p.n, zi) * w.alphas[i] - vi)
        devs.append(abs(res - w.residuals[i]))
    return max(devs)


def _embed(x: ComplexVector, window: IndexWindow) -> ComplexVector:
    out = np.zeros(window.dim, dtype=np.complex128)
    old = x.window
    out[old.lo - window.lo : old.lo - window.lo + old.dim] = x.coeffs
    return ComplexVector(window, out)
