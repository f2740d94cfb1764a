"""Single-power hit solving: can alpha T^n map a source ball into a target ball.

The joint problem over (alpha, z) is solved per component by single
alternation steps from a few starts, then a disk grid: each step is an exact
disk-projected scalar fit followed by an exact trust-region least-squares step
in z.  A component where alpha T^n is a multiple of the identity (a scalar,
or any operator at n = 0) is decided in closed form instead.  Misses are
certified, when possible, by that closed form or by growth bounds of the
un-truncated operator.

The problems of a scan over powers share a PowerScan: each component's
stacks of powers and growth bounds, and its criterion pins, solved in
batches across the powers a call stages, from the first to the last.
Within a sharing scope (operators.shared_stacks) the scans share one stack
per operator value too.

Each component's solve is a route (_component_route): a generator that
yields the trust-region solves it needs, one round at a time, each as sets
of rows (_Staged).  One driver (_drive) runs routes: stage_problems runs
those of many problems together, under one numpy error state, and solves
each round's rows in one _active_lsq call per (source radius, active
width), the criterion pins in one pass and then the component routes in
another; every row sees only its own operands, so each problem gets the
result it gets alone, bit for bit.  One failure rule holds: a call that
raises is solved again one set at a time, each solve gets its own rows'
results or error, and a route that raises keeps its error for solve_hit
to raise at that power.  solve_hit solves one power per call: it returns
a staged result, or stages the problem alone, a batch of one.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .operators import (
    PIN_CELLS,
    BackwardShift,
    ForwardShift,
    OperatorError,
    OperatorSpec,
    PowerMap,
    PowerStack,
    Scalar,
    WindowGuardError,
    _is_integer,
    _power,
    components_of,
    ensure_power_fits,
    named_overflow,
    power_apply,
    power_map,
    right_inverse,
    stack_of,
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
    "PowerScan",
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
# the modulus put in place of a zero scalar: best_alpha's zero optimum, an
# underflowed criterion pin, and the exact scalar route's lower clip.  It is
# not a floor on every scalar: a criterion pin can be far smaller
ALPHA_FLOOR = 1e-12
STRICT_MARGIN = 1e-9  # source balls shrink by this factor for strictness
CERT_MARGIN = 1e-12  # certificates need lower_bound >= delta + this

# random_search draws its samples in blocks of this many; a helper thread
# draws the next block while this one is scored, which bounds the oracle's
# memory at two blocks: four real normal arrays of block by the active
# columns (the window dimension only for a dense map, or for balls of full
# support) and two arrays of block by the passive groups.  It scores a
# block in chunks of about this many cells (rows times active columns and
# groups), so that the passes over a chunk run in cache
SEARCH_BATCH = 20000
SCORE_CELLS = 256 * 97


def _check_alphas(alphas: Sequence[complex] | None, k: int) -> tuple[complex, ...]:
    """Fixed mode's alphas as complex numbers: one per component of k, each
    nonzero with modulus <= 1."""
    if alphas is None or len(alphas) != k:
        raise ValueError("fixed mode needs one alpha per component")
    alphas = tuple(complex(a) for a in alphas)
    if any(a == 0 or not abs(a) <= 1 + 1e-15 for a in alphas):
        raise ValueError("fixed alphas must be nonzero with modulus <= 1")
    return alphas


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
        # numpy takes only an int as a matrix power or a shift's index offset
        object.__setattr__(self, "n", _power(self.n))
        if self.mode not in (DISK, FIXED):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == FIXED:
            object.__setattr__(self, "fixed_alphas", _check_alphas(self.fixed_alphas, k))
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
    from there climbs to the root inside the bracket [0, ||g||/eps].  The
    Newton derivative divides the norm's terms s_i/(q_i+mu)^2 once more by
    q_i+mu: a cube of q_i+mu would overflow far sooner than its square.
    """

    def terms(mu: float) -> tuple[np.ndarray, np.ndarray, float]:
        x = q + mu
        w = s / x**2
        return x, w, math.sqrt(float(w.sum()))

    g_norm = math.sqrt(float(s.sum()))
    mu_hi = g_norm / eps
    mu_lo = 0.0
    mu = max(0.0, float((np.sqrt(s) / eps - q).max()))
    x, w, val = terms(mu)
    for _ in range(200):
        if abs(val - eps) <= 1e-14 * eps:
            break
        # Newton on f(mu) = 1/nrm - 1/eps, monotone increasing
        deriv = float((w / x).sum()) / val**3
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
        x, w, val = terms(mu)
    return mu, val


def _trs_core(q: np.ndarray, g: np.ndarray, eps: float) -> tuple[np.ndarray, float, float]:
    """min ||A d - r||, ||d|| <= eps, expressed through q = eig(A^H A), g = A^H r.

    Returns (d, mu, norm_gap) with norm_gap = | ||d|| - eps | / eps when the
    solution sits on the boundary, else 0.
    """
    s = np.abs(g) ** 2
    if not (s > 0).any():
        return np.zeros_like(g), 0.0, 0.0
    live = q > 0
    if not (~live & (s > 0)).any():  # no free mass
        d0 = np.divide(g, q, out=np.zeros_like(g), where=live)
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
    An orthogonal-column map is solved on its active columns (_active).
    """
    if not (eps > 0):
        raise ValueError("ball radius must be positive")
    window = u.window
    if A.kind == "ortho":
        return _solo(_lsq_rows(A, u, eps, target))
    m = A.matrix
    evals, evecs = _gram_eigh(m)
    g_full = m.conj().T @ (target.coeffs - A.apply_vec(u.coeffs))
    g = evecs.conj().T @ g_full
    d_eig, mu, gap = _trs_core(evals, g, eps)
    d = evecs @ d_eig
    stat = float(np.linalg.norm((evals + mu) * d_eig - g))
    z = ComplexVector(window, u.coeffs + d)
    residual = float(np.linalg.norm(A.apply_vec(z.coeffs) - target.coeffs))
    return TrsResult(z=z, residual=residual, kkt_residual=float(_kkt_rows(stat, g_full, d, eps, gap)))


def _sq_norms(x: np.ndarray) -> np.ndarray:
    """Squared norms along the last axis of x: the dot products of its real
    and imaginary parts.  vecdot takes each row's dot product with the dot
    loop of a 1-D array, so a row's value is that of the row alone."""
    return np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag)


def _row_norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row of x (or of x itself, when 1-D), bit for
    bit: that norm of a 1-D complex array is the square root of _sq_norms."""
    return np.sqrt(_sq_norms(x))


def _active(coeffs: np.ndarray, tgt: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Mask of the active columns of orthogonal-column maps (one map, or one
    per row of coeffs and tgt) against the ball centres u and v: the live
    columns (c_j != 0) with u_j != 0 or v[tgt_j] != 0.

    Live columns have distinct targets, so on any other column the gradient
    conj(c_j) (v[tgt_j] - c_j u_j) is 0.  The trust-region subproblem is
    convex, and such a column gets a zero step at every multiplier (Moré and
    Sorensen 1983), so z_j stays u_j and the row it reaches keeps residual
    0.  The active columns carry the whole solve.
    """
    return (coeffs != 0) & ((u != 0) | (v != 0)[tgt])


def _unreached(t: np.ndarray, v: np.ndarray) -> np.ndarray:
    """||v||^2 over the rows that none of the active columns with targets t
    (along the last axis) reaches: the part of the residual no step can
    change.  It is summed over v's support, the same operands for every map."""
    support = np.flatnonzero(v)
    reached = (t[..., None, :] == support[:, None]).any(axis=-1)
    return _sq_norms(np.where(reached, 0.0, v[support]))


def _active_lsq(
    c: np.ndarray, up: np.ndarray, vt: np.ndarray, rest: np.ndarray, eps: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """constrained_lsq on the active columns of orthogonal-column maps.

    Along the last axis, c, up and vt hold a map's coefficients, the source
    centre and the target entries v[tgt_j] on its active columns, and rest
    is _unreached of those columns.  One map (1-D arrays) goes through
    _trs_core, maps of one width (one per row) through the rows loop.
    Returns the minimizers on the active columns, the residuals and the KKT
    residuals.  Every step is elementwise or a sum along the last axis, so a
    row of the rows loop sees the operands of its map solved alone, given
    operands at full shape (see _grid_rows).
    """
    q = np.abs(c) ** 2
    g = np.conj(c) * (vt - c * up)
    d, mu, gap = (_trs_core if c.ndim == 1 else _trs_rows)(q, g, eps)
    stat = _row_norms((q + np.asarray(mu)[..., None]) * d - g)
    zp = up + d
    residuals = np.sqrt(_sq_norms(c * zp - vt) + rest)
    return zp, residuals, _kkt_rows(stat, g, d, eps, gap)


def _secular_solve_rows(q: np.ndarray, s: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """_secular_solve on every row of (q, s), with its own bracket, Newton
    and bracket steps and stopping test per row.

    Each row starts where _secular_solve starts, at the largest single-term
    lower bound, and repeats its steps bit for bit: sums along a row equal
    the 1-D sums, and val**3 is taken in Python as there (numpy's power can
    differ in the last bit).
    """
    hi = np.sqrt(s.sum(axis=1)) / eps
    lo = np.zeros_like(hi)
    start = (np.sqrt(s) / eps - q).max(axis=1)
    mu = np.where(start > 0.0, start, 0.0)  # max(0.0, start)
    x = q + mu[:, None]
    w = s / x**2
    val = np.sqrt(w.sum(axis=1))
    rows = np.arange(len(mu))  # rows still iterating; m, v, lo, hi, q, s, x, w below are theirs
    m, v = mu, val
    for _ in range(200):
        going = np.abs(v - eps) > 1e-14 * eps
        if not going.all():
            rows, m, v, lo, hi, q, s, x, w = (a[going] for a in (rows, m, v, lo, hi, q, s, x, w))
            if rows.size == 0:
                break
        deriv = (w / x).sum(axis=1) / np.array([y**3 for y in v.tolist()])
        over = v > eps
        lo = np.where(over, m, lo)
        hi = np.where(over, hi, m)
        nxt = m - (1.0 / v - 1.0 / eps) / deriv
        outside = ~((lo < nxt) & (nxt < hi))
        if outside.any():
            nxt[outside] = 0.5 * (lo + hi)[outside]
        moved = nxt != m
        if not moved.all():
            rows, nxt, lo, hi, q, s = (a[moved] for a in (rows, nxt, lo, hi, q, s))
            if rows.size == 0:
                break
        m = nxt
        x = q + m[:, None]
        w = s / x**2
        v = np.sqrt(w.sum(axis=1))
        mu[rows] = m
        val[rows] = v
    return mu, val


def _trs_rows(q: np.ndarray, g: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_trs_core on every row of (q, g), bit for bit: returns d, mu and the
    norm gap by row."""
    s = np.abs(g) ** 2
    has_grad = (s > 0).any(axis=1)
    live = q > 0
    # the interior Newton point is tried on rows with a gradient and no free mass
    tried = has_grad & ~(~live & (s > 0)).any(axis=1)
    d = np.divide(g, q, out=np.zeros_like(g), where=live & tried[:, None])
    inside = tried & (_row_norms(d) <= eps)
    # every other row with a gradient is overwritten below; the rest keep d = 0
    boundary = has_grad & ~inside
    mu = np.zeros(len(g))
    gap = np.zeros(len(g))
    if boundary.any():
        # q = 1 where s = 0, as in _trs_core
        qb = np.where(s[boundary] > 0, q[boundary], 1.0)
        mu_b, val_b = _secular_solve_rows(qb, s[boundary], eps)
        mu[boundary] = mu_b
        d[boundary] = g[boundary] / (qb + mu_b[:, None])
        gap[boundary] = np.abs(val_b - eps) / eps
    return d, mu, gap


def _kkt_rows(stat: np.ndarray, g: np.ndarray, d: np.ndarray, eps: float, gap: np.ndarray) -> np.ndarray:
    """constrained_lsq's KKT residual by row (or of one map, on 1-D arrays),
    from the stationarity norms, the gradients A^H r, the steps and the norm
    gaps."""
    feas = np.maximum(0.0, _row_norms(d) - eps) / eps
    return np.maximum(np.maximum(stat / np.maximum(1.0, _row_norms(g)), feas), gap)


class _Rows(NamedTuple):
    """Rows of one width for _active_lsq, every operand at full shape: the
    maps' coefficients, the source centre and the target entries on the
    active columns, one map a row, and each row's _unreached."""

    eps: float
    c: np.ndarray
    up: np.ndarray
    vt: np.ndarray
    rest: np.ndarray


class _Staged(NamedTuple):
    """A solve as sets of rows, and the function that makes its result from
    their (minimizers, residuals, KKT residuals), in the order of the sets.
    A dense map's solve has no rows: its finish solves it."""

    sets: list[_Rows]
    finish: Callable[[list[tuple[np.ndarray, np.ndarray, np.ndarray]]], object]


def _groups(sets: Sequence[_Rows]) -> list[list[int]]:
    """The indices of sets, grouped by (eps, width): the sets _solve_group
    can take in one call."""
    groups: dict[tuple[float, int], list[int]] = {}
    for i, rows in enumerate(sets):
        groups.setdefault((rows.eps, rows.c.shape[1]), []).append(i)
    return list(groups.values())


def _solve_group(sets: Sequence[_Rows]) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """_active_lsq on sets of one eps and one width, in one call: their rows
    go through the rows loop together, or through _trs_core where there is
    one row in all, which is faster on one row.  Every step of either sees
    only its own row, so each row gets the bits it gets alone."""
    operands = [np.concatenate(parts) for parts in zip(*(rows[1:] for rows in sets))]
    if len(operands[0]) == 1:
        zp, residuals, kkts = _active_lsq(*(a[0] for a in operands), sets[0].eps)
        zp, residuals, kkts = zp[None], np.atleast_1d(residuals), np.atleast_1d(kkts)
    else:
        zp, residuals, kkts = _active_lsq(*operands, sets[0].eps)
    stops = np.cumsum([len(rows.c) for rows in sets]).tolist()
    return [(zp[a:b], residuals[a:b], kkts[a:b]) for a, b in zip([0, *stops], stops)]


def _solo(staged: _Staged):
    """A staged solve solved by itself, outside any route: _solve_group on
    each group of its sets.  constrained_lsq solves one row this way."""
    results: list = [None] * len(staged.sets)
    for group in _groups(staged.sets):
        for i, result in zip(group, _solve_group([staged.sets[i] for i in group])):
            results[i] = result
    return staged.finish(results)


def _lsq_rows(A: PowerMap, u: ComplexVector, eps: float, target: ComplexVector) -> _Staged:
    """constrained_lsq as a staged solve: of an orthogonal-column map, one
    row on its active columns (_active); of a dense map, no rows.  Finishes
    as constrained_lsq's TrsResult."""
    if A.kind != "ortho":
        return _Staged([], lambda results: constrained_lsq(A, u, eps, target))
    v = target.coeffs
    cols = np.flatnonzero(_active(A.coeffs, A.tgt, u.coeffs, v))
    t = A.tgt[cols]
    rows = _Rows(eps, A.coeffs[cols][None], u.coeffs[cols][None], v[t][None], _unreached(t, v)[None])

    def finish(results):
        ((zp, residual, kkt),) = results
        z = u.coeffs.copy()
        z[cols] = zp[0]
        return TrsResult(z=ComplexVector(u.window, z), residual=float(residual[0]), kkt_residual=float(kkt[0]))

    return _Staged([rows], finish)


def _pin_rows(coeffs: np.ndarray, tgt: np.ndarray, u: np.ndarray, eps: float, v: np.ndarray) -> _Staged:
    """constrained_lsq for orthogonal-column maps held one per row of coeffs
    and tgt, as one set of rows per width: row k's minimizer, residual and
    KKT residual are those of constrained_lsq(A_k, u, eps, v), bit for bit.

    Each row is solved on its own active columns.  The rows of one width go
    through the rows loop together (_solve_group), so that every sum along a
    row sees exactly the operands of its map solved alone (a row padded
    with zeros could round differently).
    """
    active = _active(coeffs, tgt, u, v)
    widths = np.count_nonzero(active, axis=1)
    sets, places = [], []
    for width in sorted(set(widths.tolist())):
        rows = np.flatnonzero(widths == width)
        at = rows[:, None], np.nonzero(active[rows])[1].reshape(len(rows), width)
        t = tgt[at]
        sets.append(_Rows(eps, coeffs[at], u[at[1]], v[t], _unreached(t, v)))
        places.append((rows, at))

    def finish(results):
        z = np.repeat(u[None], len(coeffs), axis=0)
        residuals, kkts = np.empty(len(coeffs)), np.empty(len(coeffs))
        for (rows, at), (zp, res, kkt) in zip(places, results):
            z[at], residuals[rows], kkts[rows] = zp, res, kkt
        return z, residuals, kkts

    return _Staged(sets, finish)


@dataclass(frozen=True)
class _GridPoints:
    """The disk grid's minimizers on the window, held as u and the rows of
    the active columns: row k is formed only when asked for."""

    u: np.ndarray
    cols: np.ndarray
    rows: np.ndarray

    def __getitem__(self, k: int) -> np.ndarray:
        z = self.u.copy()
        z[self.cols] = self.rows[k]
        return z


def _grid_rows(A: PowerMap, alphas: np.ndarray, u: ComplexVector, eps: float, target: ComplexVector) -> _Staged:
    """constrained_lsq for alphas[k] * A, every k at once, as a staged
    solve; A is T^n at alpha 1, and the alphas are any nonzero scalars: the
    disk grid's, led on an orthogonal-column map by the disk route's refit
    scalars (_disk_sets).

    Finishes as the minimizers (indexed by row), residuals and KKT
    residuals by row.  On an orthogonal-column map the rows alphas[k] *
    coeffs are one set, sharing one set of active columns, found once on A,
    and a row's minimizer on the window is formed only when asked for; row
    k is then constrained_lsq(A.scaled(alphas[k]), u, eps, target), bit for
    bit.  A dense map has no rows (_dense_grid).
    """
    if A.kind != "ortho":
        return _Staged([], lambda results: _dense_grid(A, alphas, u, eps, target))
    v = target.coeffs
    cols = np.flatnonzero(_active(A.coeffs, A.tgt, u.coeffs, v))
    # every operand at full shape: numpy's complex multiply can round a
    # product differently where one operand is broadcast along the loop,
    # which would make a row's bits depend on the rows solved with it
    at = np.broadcast_to(cols, (len(alphas), cols.size))
    # the coeffs A.scaled(alpha) holds at each alpha, on the active columns
    c = np.repeat(alphas, cols.size).reshape(at.shape) * A.coeffs[at]
    rest = np.full(len(alphas), _unreached(A.tgt[cols], v))
    rows = _Rows(eps, c, u.coeffs[at], v[A.tgt[at]], rest)
    return _Staged([rows], lambda results: (_GridPoints(u.coeffs, cols, results[0][0]), *results[0][1:]))


def _dense_grid(
    A: PowerMap, alphas: np.ndarray, u: ComplexVector, eps: float, target: ComplexVector
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_grid_rows of a dense map, solved through the rows loop.  It is
    diagonalized once, since (alpha A)^H (alpha A) = |alpha|^2 A^H A keeps
    the eigenvectors of A^H A, and solved in that eigenbasis, which equals
    constrained_lsq up to rounding."""
    m = A.matrix
    evals, evecs = _gram_eigh(m)
    r = target.coeffs - alphas[:, None] * (u.coeffs @ m.T)
    q = np.abs(alphas[:, None]) ** 2 * evals
    g_full = np.conj(alphas)[:, None] * (r @ m.conj())  # (alpha A)^H r by row
    g = g_full @ evecs.conj()  # in the eigenbasis
    d, mu, gap = _trs_rows(q, g, eps)
    stat = _row_norms((q + mu[:, None]) * d - g)
    d = d @ evecs.T  # back from the eigenbasis
    z = u.coeffs + d
    residuals = _row_norms(alphas[:, None] * (z @ m.T) - target.coeffs)
    return z, residuals, _kkt_rows(stat, g_full, d, eps, gap)


def _growth_certificate(comp: "_ComponentScan", n: int, component: int) -> tuple[float, Certificate] | None:
    """Growth-bound certificate of one component, with its margin over the radius.

    The lattice for the growth bound is the kind of the window the balls live
    on, which is the stack's window: un-truncated dynamics on that lattice is
    what the bound models.
    """
    stack, src, tgt = comp.powers, comp.src, comp.tgt
    try:
        gb = stack.growth(n)
    except (OperatorError, ValueError):
        return None
    nu, nv = comp.nu, comp.nv
    cands: list[tuple[float, str]] = []
    if comp.mode == FIXED:
        a = abs(comp.fixed_alpha)
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
    step = stack.growth(1)
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
    for i, comp in enumerate(_in_scan(p).scan._components):
        scalar = comp.scalar_power(p.n)
        if scalar is not None:
            got = scalar.certificate(i, p.mode, comp.fixed_alpha)
        else:
            got = _growth_certificate(comp, p.n, i)
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


def _scalar_power(comp: "_ComponentScan", n: int) -> _ScalarPower | None:
    """The exact route's view of a component, when alpha T^n is a multiple of
    the identity; None otherwise."""
    op = comp.op
    if isinstance(op, Scalar):
        log_c = _log(abs(op.value))
        log_r, arg_r = (n * log_c, n * cmath.phase(op.value)) if n else (0.0, 0.0)
    elif n == 0:
        log_c, log_r, arg_r = None, 0.0, 0.0
    else:
        return None
    u, v = comp.src.center.coeffs, comp.tgt.center.coeffs
    b0, p = comp.projection
    log_err = abs(log_r) if math.isfinite(log_r) else 0.0
    return _ScalarPower(
        log_r=log_r,
        arg_r=arg_r,
        log_c=log_c,
        window=comp.src.center.window,
        u=u,
        v=v,
        nu=comp.nu,
        nv=comp.nv,
        b0=b0,
        p=p,
        eps=comp.src.radius,
        delta=comp.tgt.radius,
        rel=(4 * u.size + 4 * log_err + 16 * n + 32) * _UNIT_ROUNDOFF,
    )


@dataclass(frozen=True)
class _Pin:
    """The criterion pin of one component at one power: the scalar
    lambda_n = sqrt(||S^n v|| / ||T^n u||), the seed u + (1/lambda_n) S^n v,
    and constrained_lsq's solve at lambda_n, as arrays on the window."""

    alpha: complex
    seed: np.ndarray
    z: np.ndarray
    residual: float
    kkt: float


class _ComponentScan:
    """What the solves of one component share across the powers of a scan:
    its stack of T on the source window and of the right inverse S on the
    target window, from stack_of, so that the scans and checks of one
    sharing scope read one stack per operator value, its criterion pins,
    solved in batches, and the norms of its ball centres, taken once for
    every power's certificates and exact route.

    _stage_pins solves the pins of every power from the first one asked for
    to the last, in batches of at most PIN_CELLS cells (pin_route).  If a
    batch leaves the float range, or a power cannot be formed, at a power
    the scan may never reach, the batch is split in halves, each solved the
    same way, down to the first power that fails alone.  That power keeps
    its error, which pin() raises in the solve of that power, and the
    powers of the batch after it keep the same error unsolved: a scan
    raises at its first refused power and never reads past it.
    """

    def __init__(self, op: OperatorSpec, src: Ball, tgt: Ball, mode: str, fixed_alpha, horizon: int):
        self.op, self.src, self.tgt = op, src, tgt
        self.mode, self.fixed_alpha = mode, fixed_alpha
        self.horizon = horizon
        self.powers = stack_of(op, src.center.window, horizon)
        self._pins: dict[int, _Pin | None | Exception] = {}
        self.nu, self.nv = norm(src.center), norm(tgt.center)
        self._scalars: dict[int, _ScalarPower | None] = {}

    @functools.cached_property
    def projection(self) -> tuple[complex, float]:
        """b0 = <v, u>/||u||^2 and p = ||v - b0 u|| of the ball centres u, v
        (see _ScalarPower)."""
        u, v = self.src.center.coeffs, self.tgt.center.coeffs
        b0 = complex(np.vdot(u, v)) / self.nu**2 if self.nu > 0 else 0j
        return b0, float(np.linalg.norm(v - b0 * u))

    def scalar_power(self, n: int) -> _ScalarPower | None:
        """_scalar_power at power n, built once for the certificate and the
        solve."""
        if n not in self._scalars:
            self._scalars[n] = _scalar_power(self, n)
        return self._scalars[n]

    @functools.cached_property
    def inverse(self) -> PowerStack | None:
        """The stack of the right inverse S on the target window; None where
        T has no right inverse."""
        try:
            return stack_of(right_inverse(self.op), self.tgt.center.window, self.horizon)
        except OperatorError:
            return None

    def pin(self, n: int) -> _Pin | None:
        """The pin at power n, as _stage_pins solved it; None where the
        criterion has no scalar: no right inverse, or a ball centre whose
        power the window guard refuses.  A power whose pin fails alone
        raises its error here."""
        pin = self._pins[n]
        if isinstance(pin, Exception):
            raise pin
        return pin

    def batch_end(self, n: int, last: int) -> int:
        """The last power of a batch of pins from n: at most PIN_CELLS cells, and at most last."""
        return min(last, n + max(1, PIN_CELLS // self.src.center.window.dim) - 1)

    def _fits(self, s: OperatorSpec, n: int) -> bool:
        try:
            ensure_power_fits(self.op, n, self.src.center)
            ensure_power_fits(s, n, self.tgt.center)
        except WindowGuardError:
            return False
        return True

    def pin_route(self, powers: range):
        """The route (see _drive) that solves the pins of powers as one batch
        and keeps them.  Where the batch fails, it solves the first half the
        same way, and then the second half, unless the first half holds a
        refused power: then each power of the second half keeps that
        refusal.  So the halving goes down to the first power that fails
        alone, which keeps its error, and every power after it keeps the
        same error unsolved."""
        try:
            self._pins.update((yield from self._pin_batch(powers)))
        except (ArithmeticError, OperatorError) as exc:
            if len(powers) == 1:
                self._pins[powers[0]] = exc
                return
            half = (len(powers) + 1) // 2
            yield from self.pin_route(powers[:half])
            # the powers after a refused one keep its error, so the first
            # half holds a refusal exactly when its last power does
            refused = self._pins[powers[half - 1]]
            if isinstance(refused, Exception):
                self._pins.update(dict.fromkeys(powers[half:], refused))
            else:
                yield from self.pin_route(powers[half:])

    def _pin_batch(self, powers: range):
        """The route that solves the pins of powers in one batch, returning
        them by power."""
        if self.inverse is None:
            return dict.fromkeys(powers)
        s, powers = self.inverse.op, list(powers)
        # the guard only tightens as n grows
        fit = powers if self._fits(s, powers[-1]) else list(itertools.takewhile(lambda n: self._fits(s, n), powers))
        pins: dict[int, _Pin | None] = dict.fromkeys(powers)
        if not fit:
            return pins
        u, v = self.src.center.coeffs, self.tgt.center.coeffs
        su, sv = np.flatnonzero(u), np.flatnonzero(v)
        maps = [self.powers.power_map(n) for n in fit]
        coeffs, tgt = np.array([m.coeffs for m in maps]), np.array([m.tgt for m in maps])
        # S^n is read only on v's support, the columns S^n v takes
        maps = [self.inverse.power_map(n) for n in fit]
        s_coeffs, s_tgt = np.array([m.coeffs for m in maps])[:, sv], np.array([m.tgt for m in maps])[:, sv]
        # the entries of T^n u and S^n v from the supports of u and v: a
        # column meets one row, so these are all their nonzero entries.  The
        # centres are spread to full shape, as _grid_rows' operands are, so
        # a power's products do not depend on the powers batched with it
        tn_u = coeffs[:, su] * u[np.broadcast_to(su, (len(fit), su.size))]
        sn_v = s_coeffs * v[np.broadcast_to(sv, (len(fit), sv.size))]
        lams = []
        for tu, sv_norm in zip(_row_norms(tn_u).tolist(), _row_norms(sn_v).tolist()):
            lam = min(math.sqrt(sv_norm / tu) if tu > 0 and sv_norm > 0 else 1.0, 1.0)
            # an underflowed ratio; any nonzero scalar is legal, zero is not
            lams.append(ALPHA_FLOOR if lam == 0.0 else lam)
        lam = np.array(lams)
        # seed = u + (1/lambda_n) S^n v, one column of v's support at a time:
        # a dead column adds 0 at the edge row it points to
        seeds = np.repeat(u[None], len(fit), axis=0)
        rows = np.arange(len(fit))
        for k in range(sv.size):
            seeds[rows, s_tgt[:, k]] += sn_v[:, k] * (1.0 / lam)
        # row k holds the coefficients of base.scaled(lambda_n) at its power
        eps = self.src.radius * (1.0 - STRICT_MARGIN)
        z, residuals, kkts = yield _pin_rows(lam[:, None] * coeffs, tgt, u, eps, v)
        for k, (n, residual, kkt) in enumerate(zip(fit, residuals.tolist(), kkts.tolist())):
            pins[n] = _Pin(complex(lams[k]), seeds[k], z[k], residual, kkt)
        return pins


class PowerScan:
    """The hit problems of one scan, at every power 0..horizon, sharing what
    their solves can share: each component's PowerStack, and its criterion
    pins, solved in batches across the powers.

    solve_hit gives each problem the result it gives that problem alone,
    bit for bit: a problem that stage_problems solved with others gets the
    result staged for it, and any other is staged by itself.  The one
    exception lies past a refused criterion pin: the powers after the first
    one refused in a pin batch are not solved, and raise that refusal at
    their own power; a scan raises at the first and never reads them.  A
    problem of no scan is solved as the one power of a PowerScan of its own.
    """

    def __init__(
        self,
        components,
        sources: ProductBall,
        targets: ProductBall,
        horizon: int,
        mode: str = DISK,
        fixed_alphas: tuple[complex, ...] | None = None,
    ):
        # the problem at the horizon checks the scan's inputs once
        p = self._top = HitProblem(components, horizon, sources, targets, mode, fixed_alphas)
        self._components = tuple(
            _ComponentScan(op, src, tgt, p.mode, p.fixed_alphas[i] if p.mode == FIXED else None, p.n)
            for i, (op, src, tgt) in enumerate(zip(p.components, p.sources.balls, p.targets.balls))
        )
        # results stage_problems solved, by power, until solve_hit reads them
        self._staged: dict[int, HitResult] = {}

    def problem(self, n: int) -> HitProblem:
        """The hit problem at power n of the scan."""
        p = self._top
        if not 0 <= n <= p.n:
            raise ValueError(f"power {n} lies outside the scan's 0..{p.n}")
        return _ScanProblem(p.components, n, p.sources, p.targets, p.mode, p.fixed_alphas, scan=self)


@dataclass(frozen=True)
class _ScanProblem(HitProblem):
    """One power of a PowerScan."""

    scan: PowerScan = field(kw_only=True, repr=False, compare=False)


def _in_scan(p: HitProblem) -> _ScanProblem:
    """p as a power of a PowerScan: a problem of no scan as the one power of
    a PowerScan of its own."""
    if isinstance(p, _ScanProblem):
        return p
    return PowerScan(p.components, p.sources, p.targets, p.n, p.mode, p.fixed_alphas).problem(p.n)


_GRID_MODULI = (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0)
_GRID_PHASES = 8
# disk-grid scalars in the order they are tried: modulus-major, phase-minor
_GRID_ALPHAS = tuple(
    mod * complex(math.cos(2.0 * math.pi * j / _GRID_PHASES), math.sin(2.0 * math.pi * j / _GRID_PHASES))
    for mod in _GRID_MODULI
    for j in range(_GRID_PHASES)
)


def _disk_sets(
    A: PowerMap, refits: tuple[complex, ...], u: ComplexVector, eps: float, target: ComplexVector
) -> _Staged:
    """The disk route's solves as a staged solve: constrained_lsq for
    alpha * A at each refit scalar and then at each _GRID_ALPHAS, as rows
    (see _grid_rows).

    An orthogonal-column map solves every row in one set, whose rows are
    constrained_lsq's bit for bit.  A dense map's grid rows equal
    constrained_lsq only up to rounding, so there the refit rows stay on
    constrained_lsq and only the grid is batched.
    """
    if A.kind == "ortho":
        return _grid_rows(A, np.array(refits + _GRID_ALPHAS), u, eps, target)
    grid = _grid_rows(A, np.array(_GRID_ALPHAS), u, eps, target)

    def finish(results):
        sols = [constrained_lsq(A.scaled(alpha), u, eps, target) for alpha in refits]
        zs, residuals, kkts = grid.finish(results)
        return (
            np.concatenate([[sol.z.coeffs for sol in sols], zs]),
            np.concatenate([[sol.residual for sol in sols], residuals]),
            np.concatenate([[sol.kkt_residual for sol in sols], kkts]),
        )

    return _Staged([], finish)


def _drive(routes: dict) -> dict:
    """Run routes together, to what each returns or raises, by key.

    A route is a generator that yields each trust-region solve it needs as
    a _Staged solve and is sent its result.  Each round solves the rows of
    the solves every unfinished route yields with one _solve_group call per
    (eps, width), and finishes each solve; a dense map's solve, without
    rows, is solved by its finish.  A group that raises ArithmeticError is
    solved again one set at a time, and a solve whose own set raises it, or
    whose finish does, has that error thrown at its yield, as it has when
    solved alone.  A route that raises ends with its exception, which the
    caller raises where the route's result is read.
    """
    done, asks = {}, {}

    def advance(key, result: Callable[[], object] = lambda: None) -> None:
        route = routes[key]
        try:
            try:
                got = result()
            except ArithmeticError as exc:
                asks[key] = route.throw(exc)
            else:
                asks[key] = route.send(got)
        except StopIteration as stop:
            done[key] = stop.value
        except Exception as exc:  # kept as the route's outcome, not dropped
            done[key] = exc

    for key in routes:
        advance(key)
    while asks:
        current, asks = asks, {}
        sets = [rows for solve in current.values() for rows in solve.sets]
        results: list = [None] * len(sets)
        for group in _groups(sets):
            try:
                solved = _solve_group([sets[i] for i in group])
            except ArithmeticError:
                # each set alone: its own rows' results, or the error they raise
                solved = []
                for i in group:
                    try:
                        solved += _solve_group([sets[i]])
                    except ArithmeticError as exc:
                        solved.append(exc)
            for i, result in zip(group, solved):
                results[i] = result
        # each solve's sets are consecutive in sets, in the order of current
        parts = iter(results)
        for key, solve in current.items():
            advance(key, functools.partial(_finished, solve, list(itertools.islice(parts, len(solve.sets)))))
    return done


def _finished(solve: _Staged, results: list):
    """solve's result from those of its sets; the error of a set that
    failed is raised instead."""
    for result in results:
        if isinstance(result, ArithmeticError):
            raise result
    return solve.finish(results)


def _component_route(comp: _ComponentScan, n: int):
    """One component's solve at power n, as a route (see _drive): a
    generator that yields each trust-region solve it needs (a _Staged), and
    returns the _ComponentSolve."""
    src, tgt, mode = comp.src, comp.tgt, comp.mode
    scalar = comp.scalar_power(n)
    if scalar is not None:
        return scalar.solve(mode, comp.fixed_alpha)
    window = src.center.window
    u, v = src.center, tgt.center
    eps_eff = src.radius * (1.0 - STRICT_MARGIN)
    delta = tgt.radius
    hit_level = delta - RESIDUAL_SLACK
    # T^n comes from the component's stack; every scalar tried below uses base.scaled(alpha)
    base = comp.powers.power_map(n)

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

    def pinned(alpha: complex):
        sol = yield _lsq_rows(base.scaled(alpha), u, eps_eff, v)
        return track(alpha, sol.z, sol.residual, sol.kkt_residual)

    if mode == FIXED:
        yield from pinned(comp.fixed_alpha)
        return best

    def refit(z: ComplexVector) -> tuple[complex, ComplexVector, float]:
        """The disk-projected scalar fit at z, with z and its residual there."""
        w = ComplexVector(window, base.apply_vec(z.coeffs))
        alpha = best_alpha(w, v)
        return alpha, z, norm(w * alpha - v)

    def inside(z: ComplexVector) -> bool:
        return norm(z - u) < src.radius

    pin = comp.pin(n)
    # criterion-pinned scalar first: where it hits, the recorded alpha is the
    # construction's lambda_n, not a refit
    if pin is not None and track(pin.alpha, ComplexVector(window, pin.z), pin.residual, pin.kkt):
        return best
    # one refit step from u and one from the criterion seed: each keeps its
    # start when that lies inside the source ball, then pins the refit
    # scalar.  u lies inside its own ball, and its check costs no solve
    fits = [refit(u)]
    if track(*fits[0]):
        return best
    if pin is not None:
        fits.append(refit(ComplexVector(window, pin.seed)))
    # the z-subproblem at fixed alpha is convex and solved exactly, so the
    # joint landscape is nonconvex only through alpha; a coarse disk grid
    # (alpha = 1 is its modulus-1, phase-0 row) plus one polishing step
    # covers the scalars the refits do not reach.  The refit scalars and the
    # grid are solved as one set of rows, replayed through track() in the
    # order of solving them one at a time (each start's check before its
    # refit row, then the grid in grid order), so the first hit, the best
    # point and max_kkt are those of solving the rows one at a time
    refits = tuple(alpha for alpha, _, _ in fits)
    try:
        zs, residuals, kkts = yield _disk_sets(base, refits, u, eps_eff, v)
        residuals, kkts = residuals.tolist(), kkts.tolist()
    except ArithmeticError:
        # a row left the float range (a large scalar on a huge power): each
        # row is then solved alone when the replay reaches it, so that a row
        # the route never reaches refuses no solve
        zs = None
    for k, alpha in enumerate(refits + _GRID_ALPHAS):
        # the seed itself goes before its refit row, where it lies in the ball
        if 0 < k < len(fits) and inside(fits[k][1]) and track(*fits[k]):
            return best
        if zs is None:
            hit = yield from pinned(alpha)
        else:
            # track() keeps z only from a row that improves on the best or hits
            kept = ComplexVector(window, zs[k]) if residuals[k] < max(best.residual, hit_level) else None
            hit = track(alpha, kept, residuals[k], kkts[k])
        if hit:
            return best
    if best.z is not None:
        alpha, z, residual = refit(best.z)
        if not (inside(z) and track(alpha, z, residual)):
            yield from pinned(alpha)
    return best


def _stage_pins(problems: Sequence[HitProblem]) -> None:
    """Solve, in one driver pass, the criterion pins that the disk routes of
    problems read: each component's in the batches pin_route forms, from
    the first power not yet solved to the last asked for, so that every
    power asked for up to a batch's first refused power has its pin or the
    error it fails with alone, and every power after that one keeps the
    same error unsolved.  A pin route that raises any other error raises it
    here."""
    needs: dict[_ComponentScan, set[int]] = {}
    for p in problems:
        if p.mode == DISK:
            for comp in p.scan._components:
                if comp.scalar_power(p.n) is None:
                    needs.setdefault(comp, set()).add(p.n)
    batches = {}
    for comp, powers in needs.items():
        powers, last = sorted(powers), -1
        for n in powers:
            if n > last and n not in comp._pins:
                last = comp.batch_end(n, powers[-1])
                batches[comp, n] = comp.pin_route(range(n, last + 1))
    for outcome in _drive(batches).values():
        if isinstance(outcome, Exception):
            raise outcome


def stage_problems(problems: Sequence[HitProblem]) -> None:
    """Solve problems of PowerScans together; solve_hit then returns each
    one's result as it was staged, or raises its error.

    Each problem's miss certificate is sought first, as for a problem
    solved alone.  The others run through one driver (_drive), with numpy
    raising on overflow and invalid values: first, in one pass, the
    criterion pins their disk routes read (_stage_pins), then every
    component's route.  Each round of trust-region solves, across all the
    problems, is one _active_lsq call per (source radius, active width):
    the criterion pins, the disk-route rows, the polishes and the
    fixed-mode solves.  Each row sees only its own operands, so each
    problem gets the result it gets alone, bit for bit.  A problem whose
    component route raises keeps the error of the first such component,
    for solve_hit to raise.
    """
    live = []
    for p in problems:
        cert = certify_miss(p)
        if cert is not None:
            p.scan._staged[p.n] = HitResult(status=MISS_CERTIFIED, certificate=cert)
        else:
            live.append(p)
    with np.errstate(over="raise", invalid="raise"):
        _stage_pins(live)
        comps = [(j, i, comp) for j, p in enumerate(live) for i, comp in enumerate(p.scan._components)]
        solved = _drive({(j, i): _component_route(comp, live[j].n) for j, i, comp in comps})
    for j, p in enumerate(live):
        solves = [solved[j, i] for i in range(len(p.components))]
        errors = [s for s in solves if isinstance(s, Exception)]
        p.scan._staged[p.n] = errors[0] if errors else _joint_result(p.n, solves)


def _joint_result(n: int, solves: Sequence[_ComponentSolve]) -> HitResult:
    """The hit result at power n of the uncertified problem whose components
    solved as solves."""
    max_kkt = max(s.max_kkt for s in solves)
    if all(s.hit for s in solves):
        witness = Witness(
            n=n,
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


def solve_hit(p: HitProblem) -> HitResult:
    """Solve the joint hit problem; the product structure separates by
    component.  A problem that stage_problems has not solved is staged by
    itself, as the one power of a PowerScan of its own when it belongs to
    no scan.  The error a route of p raised is raised here, and an
    overflow is named at p's power."""
    p = _in_scan(p)
    if p.n not in p.scan._staged:
        stage_problems([p])
    result = p.scan._staged.pop(p.n)
    if isinstance(result, Exception):
        with named_overflow("solve_hit", f"power {p.n}"):
            raise result
    return result


@dataclass(frozen=True)
class SearchReport:
    best_residuals: tuple[float, ...]
    best_alphas: tuple[complex, ...]
    hits: tuple[bool, ...]  # found residual < target radius, per component


def _squared_residuals(pmap: PowerMap, v: np.ndarray, alpha: complex | None = None) -> Callable[..., np.ndarray]:
    """Kernel for random_search: given the real and imaginary parts x, y of
    points z (one per row) and a column of one alpha per row, return the
    squared residuals |alpha T^n z - v|^2.  x and y are overwritten.

    An orthogonal-column map works on x and y in real arithmetic: column j
    meets only row tgt[j], so the residual is a sum over columns of
    |k_j z_j - v[tgt[j]]|^2 with k = alpha coeffs, plus |v|^2 over the rows no
    live column reaches; random_search passes a map's active columns only,
    and the rows its other columns reach have v = 0.  Given the one alpha of
    a fixed-mode search, it forms k once, not for every row; the column then
    holds that alpha.  A dense map forms the complex block.
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

    def parts(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # contiguous parts broadcast over the rows at full speed
        return np.ascontiguousarray(k.real), np.ascontiguousarray(k.imag)

    fixed = None if alpha is None else parts(np.complex128(alpha) * pmap.coeffs)

    def ortho(x: np.ndarray, y: np.ndarray, alphas: np.ndarray) -> np.ndarray:
        kr, ki = fixed or parts(alphas * pmap.coeffs)
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


def _search_columns(pmap: PowerMap, u: np.ndarray, v: np.ndarray) -> tuple[PowerMap, np.ndarray, np.ndarray, np.ndarray]:
    """The columns random_search draws for, given the source centre u and
    the target centre v: the map on its active columns, their mask, and the
    moduli and sizes of the passive groups.

    A column of an orthogonal-column map is active where u is nonzero, or
    where it is live and v is nonzero at its target.  On any other column j,
    z_j = s g_j, and the residual reads it only through |alpha c_j s g_j|^2
    (0 on a dead column), so such columns are grouped by the exact value of
    |c_j|, the dead ones in the group of modulus 0.  A dense map keeps every
    column and has no groups.
    """
    if pmap.kind == "dense":
        return pmap, np.ones(u.size, dtype=bool), np.empty(0), np.empty(0, dtype=np.int64)
    active = (u != 0) | ((pmap.coeffs != 0) & (v != 0)[pmap.tgt])
    moduli, sizes = np.unique(np.abs(pmap.coeffs[~active]), return_counts=True)
    # rows that only passive columns reach have v = 0, so the residual over
    # the rows no active column reaches is unchanged
    return replace(pmap, coeffs=pmap.coeffs[active], tgt=pmap.tgt[active]), active, moduli, sizes


def random_search(p: HitProblem, samples: int, seed) -> SearchReport:
    """Brute-force feasible sampling oracle for the hit problem.

    Draws (alpha, z) with z strictly inside each source ball and alpha uniform
    on the disk (or pinned in fixed mode); reports the best residual seen per
    component.  Sound but not sharp: it never proves a miss, only fails to
    find a hit.

    A point is u + s g with g a standard complex normal vector of the window's
    dimension d, s = rho / |g| and rho = R U^(1/(2d)) (Muller 1959), but g is
    drawn only where the residual reads it.  An orthogonal-column map reads
    g_j itself on its active columns (see _search_columns); a passive group G
    enters only through S_G = sum over G of |g_j|^2, which is chi-square with
    2|G| degrees of freedom, drawn as 2 gamma(|G|).  The coordinates of g are
    independent, so (g_A, S_G) has the joint law it has when all of g is
    drawn, |g|^2 = |g_A|^2 + sum_G S_G, and every sample has the law of a
    full draw.  Component by component, per block, it draws the real and
    then the imaginary normals of the active columns, one gamma per row of
    each group in order of modulus, the radius uniforms, and in disk mode the
    magnitude and phase uniforms.  A dense map, or an orthogonal-column map
    with no passive column, draws every normal, as a full draw does.

    One helper thread makes the next block's draws while this block is
    scored; each draw starts after the one before has finished, so the
    generator is used by one thread at a time, in that order.
    """
    if not (samples >= 1 and _is_integer(samples)):
        raise ValueError("samples must be at least 1")
    samples = int(samples)
    rng = as_rng(seed)
    k = len(p.components)
    dims = [ball.center.window.dim for ball in p.sources.balls]
    # every component's map first, so a map that cannot be built fails
    # before anything is drawn
    scorers, widths, group_sizes = [], [], []
    for i, (op, src, tgt) in enumerate(zip(p.components, p.sources.balls, p.targets.balls)):
        pmap, v = power_map(op, p.n, src.center.window), tgt.center.coeffs
        # residuals are scored in units of 2^e, so that their squares cannot overflow
        e = _scale_exponent(pmap, norm(src.center) + src.radius, v)
        alpha = p.fixed_alphas[i] if p.mode == FIXED else None
        pmap, v = pmap.scaled(2.0**-e), v * 2.0**-e
        drawn, active, moduli, sizes = _search_columns(pmap, src.center.coeffs, v)
        u = src.center.coeffs[active]
        centre = (np.ascontiguousarray(u.real), np.ascontiguousarray(u.imag))
        scorers.append((_squared_residuals(drawn, v, alpha), centre, moduli[:, None], 2.0**e))
        widths.append(u.size)
        group_sizes.append(sizes)
    groups = [sizes.size for sizes in group_sizes]
    blocks = [(i, min(SEARCH_BATCH, samples - lo)) for i in range(k) for lo in range(0, samples, SEARCH_BATCH)]
    # two triples of flat buffers, filled in turn, each block viewing its
    # first b*width normals and b*groups gammas
    block_rows = min(SEARCH_BATCH, samples)
    buffers = [tuple(np.empty(block_rows * max(n)) for n in (widths, widths, groups)) for _ in range(2)]

    def draw(step: int):
        i, b = blocks[step]
        xbuf, ybuf, sbuf = buffers[step % 2]
        x, y = (buf[: b * widths[i]].reshape(b, widths[i]) for buf in (xbuf, ybuf))
        rng.standard_normal(out=x)
        rng.standard_normal(out=y)
        group_sq = sbuf[: b * groups[i]].reshape(groups[i], b)
        for row, size in zip(group_sq, group_sizes[i]):
            rng.standard_gamma(size, out=row)
        group_sq *= 2.0
        radii = p.sources.balls[i].radius * rng.uniform(size=b) ** (1.0 / (2 * dims[i])) * (1.0 - 1e-12)
        if p.mode == FIXED:
            alphas = np.full(b, p.fixed_alphas[i], dtype=np.complex128)
        else:
            mags = np.sqrt(rng.uniform(size=b))
            alphas = mags * np.exp(2j * np.pi * rng.uniform(size=b))
        return x, y, group_sq, radii, alphas

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
            x, y, group_sq, radii, alphas = pending.result()
            if step + 1 < len(blocks):
                pending = helper.submit(draw, step + 1)
            residuals, (cr, ci), moduli, unit = scorers[i]
            chunk = max(1, SCORE_CELLS // (widths[i] + groups[i]))
            sq = np.empty(b)
            for lo in range(0, b, chunk):
                rows = slice(lo, lo + chunk)
                xr, yr = x[rows], y[rows]
                norms_sq = np.einsum("ij,ij->i", xr, xr) + np.einsum("ij,ij->i", yr, yr)
                if groups[i]:
                    sr = group_sq[:, rows]
                    norms_sq += np.add.reduce(sr, axis=0)
                norms = np.sqrt(norms_sq)
                norms[norms == 0] = 1.0
                scale = radii[rows] / norms
                xr *= scale[:, None]
                xr += cr
                yr *= scale[:, None]
                yr += ci
                sq[rows] = residuals(xr, yr, alphas[rows, None])
                if groups[i]:
                    # |alpha c_G s|^2 S_G, formed as the square of
                    # |c_G| |alpha| s sqrt(S_G), which is at most the
                    # scaled bound on any residual, so it cannot overflow
                    terms = np.sqrt(sr)
                    terms *= scale * np.abs(alphas[rows])
                    terms *= moduli
                    sq[rows] += np.einsum("ij,ij->j", terms, terms)
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
