import math
import sys
import threading
import types
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from disklab import hitsolver
from disklab.hitsolver import (
    DISK,
    FIXED,
    HIT,
    MISS_CERTIFIED,
    MISS_UNCERTAIN,
    HitProblem,
    Witness,
    best_alpha,
    certify_miss,
    constrained_lsq,
    power_map,
    random_search,
    reverify_witness,
    solve_hit,
)
from disklab.operators import (
    BackwardShift,
    Dense,
    Diagonal,
    DirectSum,
    ForwardShift,
    OperatorError,
    Scalar,
    WeightProfile,
    apply,
)
from disklab.transitivity import junction_scan, make_ball_sampler
from disklab.vectorspace import (
    BILATERAL,
    UNILATERAL,
    Ball,
    ComplexVector,
    IndexWindow,
    ProductBall,
    ProductVector,
    norm,
    sample_ball,
)

EXAMPLE_SHIFT = ForwardShift(WeightProfile(2.0, 3.0))


def apply_batch(pmap, block):
    """pmap applied to each row of a complex block; orthogonal-column maps
    scatter column j to row tgt[j]."""
    if pmap.kind == "dense":
        return block @ pmap.matrix.T
    out = np.zeros_like(block)
    live = pmap.coeffs != 0
    out[:, pmap.tgt[live]] = block[:, live] * pmap.coeffs[live]
    return out


def as_dense(op, window):
    """Matrix of the truncated operator on coefficient arrays: the reference
    that takes any operator down the solver's dense path."""
    # rows of the identity are the basis vectors, so their images are the columns
    return apply_batch(power_map(op, 1, window), np.eye(window.dim, dtype=np.complex128)).T


def test_dense_reference_matches_apply():
    t = ForwardShift(WeightProfile(2.0, 3.0, {0: 0.5}))
    w = IndexWindow(BILATERAL, 3)
    m = as_dense(t, w)
    rng = np.random.default_rng(3)
    x = ComplexVector(w, rng.standard_normal(w.dim) + 1j * rng.standard_normal(w.dim))
    assert np.allclose(m @ x.coeffs, apply(t, x).coeffs)


def unit_ball_problem(window_m=16, n=10, radius=0.5, mode=DISK, alphas=None):
    w = IndexWindow(BILATERAL, window_m)
    e0 = ComplexVector.basis(w, 0)
    return HitProblem(
        components=(EXAMPLE_SHIFT,),
        n=n,
        sources=ProductBall((Ball(e0, radius),)),
        targets=ProductBall((Ball(e0, radius),)),
        mode=mode,
        fixed_alphas=alphas,
    )


def test_best_alpha_frozen_cases():
    w = IndexWindow(UNILATERAL, 2)
    e0 = ComplexVector.basis(w, 0)
    e1 = ComplexVector.basis(w, 1)
    assert best_alpha(e0, e0 * 0.5) == 0.5
    assert best_alpha(e0, e0 * 2.0) == 1.0  # clamped to the disk rim
    assert best_alpha(ComplexVector.zero(w), e0) == 1.0
    assert abs(best_alpha(e0, e1)) == 1e-12  # orthogonal: floor, not zero
    a = best_alpha(e0, e0 * (3.0 * np.exp(0.7j)))
    assert abs(a) == pytest.approx(1.0)
    assert np.angle(a) == pytest.approx(0.7)


def test_constrained_lsq_identity_closed_form():
    w = IndexWindow(UNILATERAL, 3)
    rng = np.random.default_rng(0)
    for _ in range(20):
        u = ComplexVector(w, rng.standard_normal(4) + 1j * rng.standard_normal(4))
        v = ComplexVector(w, rng.standard_normal(4) + 1j * rng.standard_normal(4))
        eps = float(rng.uniform(0.1, 3.0))
        sol = constrained_lsq(power_map(Scalar(1.0), 1, w), u, eps, v)
        assert sol.residual == pytest.approx(max(0.0, norm(u - v) - eps), abs=1e-10)
        assert sol.kkt_residual <= 1e-10


def test_constrained_lsq_beats_sampling_oracle():
    w = IndexWindow(UNILATERAL, 3)
    rng = np.random.default_rng(1)
    for trial in range(5):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        pmap = power_map(Dense(m), 2, w).scaled(0.7 * np.exp(0.3j))
        u = ComplexVector(w, rng.standard_normal(4) + 1j * rng.standard_normal(4))
        v = ComplexVector(w, rng.standard_normal(4) + 1j * rng.standard_normal(4))
        eps = 0.8
        sol = constrained_lsq(pmap, u, eps, v)
        assert sol.kkt_residual <= 1e-8
        best = math.inf
        for _ in range(40):
            block = rng.standard_normal((500, 4)) + 1j * rng.standard_normal((500, 4))
            block /= np.linalg.norm(block, axis=1)[:, None]
            radii = eps * rng.uniform(size=500) ** (1 / 8)
            z = u.coeffs + block * radii[:, None]
            res = np.linalg.norm(apply_batch(pmap, z) - v.coeffs, axis=1)
            best = min(best, float(res.min()))
        assert sol.residual <= best + 1e-9


def test_ortho_and_dense_routes_agree():
    w = IndexWindow(BILATERAL, 6)
    t = ForwardShift(WeightProfile(2.0, 3.0, {0: 0.5}))
    alpha = 0.37 * np.exp(0.9j)
    native = power_map(t, 3, w).scaled(alpha)
    via_dense = power_map(Dense(as_dense(t, w)), 3, w).scaled(alpha)
    rng = np.random.default_rng(2)
    u = ComplexVector(w, rng.standard_normal(w.dim) + 1j * rng.standard_normal(w.dim))
    v = ComplexVector(w, rng.standard_normal(w.dim) + 1j * rng.standard_normal(w.dim))
    a = constrained_lsq(native, u, 0.6, v)
    b = constrained_lsq(via_dense, u, 0.6, v)
    assert a.residual == pytest.approx(b.residual, rel=1e-9, abs=1e-9)
    assert a.kkt_residual <= 1e-9 and b.kkt_residual <= 1e-8
    assert norm(a.z - b.z) <= 1e-7 * (1 + norm(a.z))


def test_grid_lsq_matches_per_alpha_constrained_lsq():
    """The batched disk-grid kernel against constrained_lsq at each grid alpha.

    On an orthogonal-column map every row runs constrained_lsq's steps on
    the same operands, so it must equal it bit for bit: the minimizer's
    bytes, the residual and the KKT residual.  Besides fixed shifts,
    diagonals and scalars, random maps (shifts on both lattices whose
    columns die at the edge, diagonals with zero entries, scalars, random
    targets) meet centres of support 1 up to the dimension and radii from
    1e-2 to 10.  A dense map is solved in the eigenbasis of A^H A, which
    takes sums in another order, so there agreement is required to 1e-12:
    relative for points, absolute for the (already scale-free) KKT
    residuals, and for residuals relative to the target norm as well, since
    an interior solution leaves a residual of pure rounding error.
    """
    alphas = np.array(hitsolver._GRID_ALPHAS)
    w = IndexWindow(BILATERAL, 4)
    d = w.dim
    rng = np.random.default_rng(7)
    u = ComplexVector(w, rng.standard_normal(d) + 1j * rng.standard_normal(d))
    v = ComplexVector(w, rng.standard_normal(d) + 1j * rng.standard_normal(d))
    shifts = (ForwardShift(WeightProfile(2.0, 3.0, {0: 0.5})), BackwardShift(WeightProfile(0.5, 3.0)))
    cases = [(power_map(op, n, w), u, eps, v) for op in shifts for n in (0, 3, d, d + 2) for eps in (0.05, 50.0)]
    diag = Diagonal({j: (0.0 if j == 1 else 1.5 - 0.25j * j) for j in range(-4, 5)})
    cases += [(power_map(op, 2, w), u, eps, v) for op in (diag, Scalar(0.8 + 0.6j)) for eps in (0.05, 50.0)]
    # zero gradient at alpha = 1: the target is the image of the centre
    cases.append((power_map(Scalar(1.3), 2, w), u, 0.3, ComplexVector(w, power_map(Scalar(1.3), 2, w).apply_vec(u.coeffs))))
    for trial in range(100):
        rw = IndexWindow((BILATERAL, UNILATERAL)[trial % 2], 5)
        pmap = random_ortho_map(rng, rw)
        centre, target = (random_centre(rng, rw, int(rng.integers(1, rw.dim + 1))) for _ in range(2))
        cases.append((pmap, centre, float(10.0 ** rng.uniform(-2, 1)), target))
    # dense: unitary times singular values in [1, 2], so A^H A is well conditioned
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    dense = Dense(q * np.linspace(1.0, 2.0, d))
    cases += [(power_map(dense, n, w), u, eps, v) for n in (1, 2) for eps in (0.05, 50.0)]
    kinds = set()
    for pmap, centre, eps, target in cases:
        zs, residuals, kkts = hitsolver._solo(hitsolver._grid_rows(pmap, alphas, centre, eps, target))
        for k, alpha in enumerate(hitsolver._GRID_ALPHAS):
            ref = constrained_lsq(pmap.scaled(alpha), centre, eps, target)
            kinds.add((pmap.kind, "boundary" if abs(norm(ref.z - centre) - eps) <= 1e-12 * eps else "interior"))
            if pmap.kind == "ortho":
                assert zs[k].tobytes() == ref.z.coeffs.tobytes()
                assert (residuals[k], kkts[k]) == (ref.residual, ref.kkt_residual)
            else:
                assert abs(residuals[k] - ref.residual) <= 1e-12 * max(ref.residual, norm(target))
                assert np.linalg.norm(zs[k] - ref.z.coeffs) <= 1e-12 * norm(ref.z)
                assert abs(kkts[k] - ref.kkt_residual) <= 1e-12
    assert kinds == {(kind, where) for kind in ("ortho", "dense") for where in ("boundary", "interior")}


_GRID_REPLAY_CASES = [
    # hits first at grid alpha 0.5j, after (as c I) the criterion pin,
    # alternation and the first 26 grid points have missed
    (
        1.5j,
        1,
        Ball(ComplexVector.from_coeffs(IndexWindow(BILATERAL, 3), {0: -0.6j, 1: 0.4 + 0.5j}), 0.4),
        Ball(ComplexVector.from_coeffs(IndexWindow(BILATERAL, 3), {-1: 0.3 + 0.4j, 1: -0.4 - 0.3j}), 0.4),
        HIT,
    ),
    # no grid point hits; the polish from the best grid point misses too
    (
        2.0,
        5,
        Ball(ComplexVector.basis(IndexWindow(UNILATERAL, 4), 0), 0.45),
        Ball(ComplexVector.basis(IndexWindow(UNILATERAL, 4), 1), 0.45),
        MISS_UNCERTAIN,
    ),
]


# what the exact route decides for each case's Scalar, by power: a hit, and a
# miss certified at min g = sqrt(1 - 0.45^2) (e0 to e1, eps = 0.45, t* < |c|^5)
_CLOSED_FORM = {1: (HIT, None), 5: (MISS_CERTIFIED, math.sqrt(1.0 - 0.45**2))}


# each case as a scalar, as the same scalar held as a dense matrix and as a
# constant diagonal; only the twins reach the grid, a scalar is decided in
# closed form
@pytest.mark.parametrize(
    "op, n, src, tgt, status",
    [
        (make(value, src.center.window.dim), n, src, tgt, status)
        for make in (lambda c, d: Scalar(c), lambda c, d: Dense(c * np.eye(d)), lambda c, d: Diagonal({}, default=c))
        for value, n, src, tgt, status in _GRID_REPLAY_CASES
    ],
)
def test_batched_grid_replays_the_sequential_grid(monkeypatch, op, n, src, tgt, status):
    p = HitProblem(components=(op,), n=n, sources=ProductBall((src,)), targets=ProductBall((tgt,)))
    batches = []
    former = hitsolver._grid_rows
    monkeypatch.setattr(hitsolver, "_grid_rows", lambda *a: batches.append(a) or former(*a))
    got = solve_hit(p)
    if isinstance(op, Scalar):
        want, bound = _CLOSED_FORM[n]
        assert batches == [] and got.status == want
        if bound is None:
            assert reverify_witness(p, got.witness) <= 1e-10
        else:
            assert got.certificate.kind == "scalar_exact"
            assert got.certificate.lower_bound == pytest.approx(bound, rel=1e-12)
        return
    assert len(batches) == 1 and got.status == status

    # reference: the grid alphas pinned one at a time through constrained_lsq
    def per_alpha(base, alphas, u, eps, target):
        def finish(results):
            sols = [constrained_lsq(base.scaled(alpha), u, eps, target) for alpha in alphas]
            zs = np.array([sol.z.coeffs for sol in sols])
            return zs, np.array([sol.residual for sol in sols]), np.array([sol.kkt_residual for sol in sols])

        return hitsolver._Staged([], finish)

    monkeypatch.setattr(hitsolver, "_grid_rows", per_alpha)
    want = solve_hit(p)
    assert want.status == status
    if status == HIT:
        assert got.witness.alphas == want.witness.alphas
        assert got.witness.alphas[0] in hitsolver._GRID_ALPHAS
        got_res, want_res = got.witness.residuals, want.witness.residuals
    else:
        assert got.best_alphas == want.best_alphas
        got_res, want_res = got.best_residuals, want.best_residuals
    if isinstance(op, Diagonal):
        # an orthogonal-column grid row is constrained_lsq's, bit for bit
        assert (got_res, got.max_kkt_residual) == (want_res, want.max_kkt_residual)
        if status == HIT:
            assert got.witness.point.parts[0].coeffs.tobytes() == want.witness.point.parts[0].coeffs.tobytes()
    else:
        assert got_res == pytest.approx(want_res, rel=1e-12)
        assert got.max_kkt_residual == pytest.approx(want.max_kkt_residual, abs=1e-12)


def sequential_disk_route(comp, n, exits):
    """The disk route solved one scalar at a time, as it was before the
    refits joined the grid batch: an alternation step from u (check u, then
    pin its refit scalar), one from the criterion seed, the grid, then a
    polishing step from the best point.  Orthogonal-column grid rows go
    through constrained_lsq one alpha at a time; a dense grid is the one
    batch it always was.  Appends to exits where the solve ended: the step
    that hit, or "uncertain".  Past the criterion pin, which it reads as
    staged, it solves nothing through the driver, so it is the routes'
    independent reference (sequential_route hooks it in)."""
    base = comp.powers.power_map(n)
    window = comp.src.center.window
    u, v = comp.src.center, comp.tgt.center
    eps = comp.src.radius * (1.0 - hitsolver.STRICT_MARGIN)
    hit_level = comp.tgt.radius - hitsolver.RESIDUAL_SLACK
    best = hitsolver._ComponentSolve(hit=False, alpha=1.0 + 0j, z=None, residual=math.inf, max_kkt=0.0)

    def track(exit, alpha, z, residual, kkt=0.0):
        best.max_kkt = max(best.max_kkt, kkt)
        if residual < best.residual:
            best.residual, best.alpha, best.z = residual, alpha, z
        best.hit = residual < hit_level
        if best.hit:
            exits.append(exit)
        return best.hit

    def alternate(z, start):
        w = ComplexVector(window, base.apply_vec(z.coeffs))
        alpha = best_alpha(w, v)
        if norm(z - u) < comp.src.radius and track(f"{start} check", alpha, z, norm(w * alpha - v)):
            return True
        sol = constrained_lsq(base.scaled(alpha), u, eps, v)
        return track(f"{start} refit", alpha, sol.z, sol.residual, sol.kkt_residual)

    pin = comp.pin(n)
    if pin is not None and track("pin", pin.alpha, ComplexVector(window, pin.z), pin.residual, pin.kkt):
        return best
    if alternate(u, "u") or (pin is not None and alternate(ComplexVector(window, pin.seed), "seed")):
        return best
    if base.kind == "ortho":
        sols = [constrained_lsq(base.scaled(alpha), u, eps, v) for alpha in hitsolver._GRID_ALPHAS]
        rows = [(sol.z, sol.residual, sol.kkt_residual) for sol in sols]
    else:
        zs, residuals, kkts = hitsolver._solo(hitsolver._grid_rows(base, np.array(hitsolver._GRID_ALPHAS), u, eps, v))
        rows = [(ComplexVector(window, z), r, k) for z, r, k in zip(zs, residuals.tolist(), kkts.tolist())]
    for alpha, (z, residual, kkt) in zip(hitsolver._GRID_ALPHAS, rows):
        if track("grid", alpha, z, residual, kkt):
            return best
    if best.z is None or not alternate(best.z, "polish"):
        exits.append("uncertain")
    return best


def sequential_route(exits):
    """sequential_disk_route, hooked in place of _component_route: a route
    that asks the driver for nothing and returns the sequential solve, run
    in the driver's numpy error state."""

    def route(comp, n):
        return sequential_disk_route(comp, n, exits)
        yield  # a generator, as a route is

    return route


def staged_pin(p):
    """The criterion pin of p's one component at p.n, as _stage_pins solves
    it for a lone solve_hit."""
    q = hitsolver._in_scan(p)
    hitsolver._stage_pins([q])
    return q.scan._components[0].pin(p.n)


def _route_problem(rng, trial):
    """A one-component disk problem on a random window of either lattice.

    Even trials draw a forward or backward shift, a diagonal with a zero
    entry or a 4x4 dense map, with random centres and radii.  Odd trials
    draw a forward shift or a diagonal with nonzero entries, which have a
    criterion seed, and centres on two basis vectors that the power keeps
    apart; the source radius lies near the seed's distance from u and the
    target radius below ||v||, which is where the seed's steps hit."""
    lattice = (BILATERAL, UNILATERAL)[trial // 2 % 2]
    kind = ("forward", "backward", "diagonal", "dense")[trial // 4 % 4]
    w = IndexWindow(UNILATERAL, 3) if kind == "dense" and trial % 2 == 0 else IndexWindow(lattice, int(rng.integers(3, 7)))
    idx = w.indices().tolist()
    if trial % 2:
        n = int(rng.integers(1, 3))
        moduli = rng.uniform(0.5, 2.0, w.dim)
        if kind in ("forward", "backward"):
            op = ForwardShift(WeightProfile(*rng.uniform(0.5, 2.0, 2), dict(zip(idx, moduli.tolist()))))
            j = int(rng.integers(w.lo, w.hi - n + 1))
            k = int(rng.choice([i for i in idx if i != j + n and i - n >= w.lo]))
        else:
            op = Diagonal(dict(zip(idx, (moduli * np.exp(2j * np.pi * rng.uniform(size=w.dim))).tolist())))
            j, k = (int(i) for i in rng.choice(idx, size=2, replace=False))
        a, b = (complex(x) for x in rng.standard_normal(2) + 1j * rng.standard_normal(2))
        u, v = ComplexVector.basis(w, j) * a, ComplexVector.basis(w, k) * b
        unit = ProductBall((Ball(u, 1.0),)), ProductBall((Ball(v, 1.0),))
        seed = staged_pin(HitProblem((op,), n, *unit)).seed
        reach = norm(ComplexVector(w, seed) - u)
        src, tgt = Ball(u, reach * float(rng.uniform(0.9, 1.1))), Ball(v, norm(v) * float(rng.uniform(0.7, 1.0)))
        return HitProblem((op,), n, ProductBall((src,)), ProductBall((tgt,)))
    if kind in ("forward", "backward"):
        table = {int(j): float(rng.uniform(0.3, 3.0)) for j in rng.integers(w.lo, w.hi + 1, size=3)}
        op = (ForwardShift if kind == "forward" else BackwardShift)(WeightProfile(*rng.uniform(0.5, 2.0, 2), table))
    elif kind == "diagonal":
        entries = rng.uniform(0.5, 1.5, w.dim) * np.exp(2j * np.pi * rng.uniform(size=w.dim))
        entries[rng.integers(w.dim)] = 0.0
        op = Diagonal(dict(zip(idx, entries.tolist())))
    else:
        op = Dense(0.5 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))))
    u, v = (random_centre(rng, w, int(rng.integers(1, w.dim + 1))) for _ in range(2))
    src = Ball(u, norm(u) * float(10.0 ** rng.uniform(-1.5, 0.3)))
    tgt = Ball(v, norm(v) * float(10.0 ** rng.uniform(-1.0, 0.2)))
    return HitProblem((op,), int(rng.integers(1, 4)), ProductBall((src,)), ProductBall((tgt,)))


def _u_refit_before_seed_check():
    """The unweighted unilateral shift at n = 1 from 0.6 e_1 (radius 0.85) to
    0.8i e_2 (radius 0.1), where the u-refit row and the seed check both
    hit: the pin (lambda = 1) leaves 0.15 and u itself 0.2, the refit
    scalar i reaches v exactly from 0.8 e_1, and the seed (0.6 + 0.8i) e_1
    lies inside the source ball and reaches v at its own scalar.  So the
    route ends at the u refit only if it replays that row first."""
    w = IndexWindow(UNILATERAL, 4)
    src, tgt = Ball(ComplexVector.basis(w, 1) * 0.6, 0.85), Ball(ComplexVector.basis(w, 2) * 0.8j, 0.1)
    return HitProblem((ForwardShift(WeightProfile(1.0, 1.0)),), 1, ProductBall((src,)), ProductBall((tgt,)))


def test_batched_disk_route_equals_the_sequential_route(monkeypatch):
    """solve_hit with the refit scalars and the grid solved as one set of
    rows against the route that solves them one at a time
    (sequential_disk_route), bit for bit: status, scalars, residuals,
    max_kkt_residual and the witness's bytes.  The corpus ends the
    sequential route at every step it can end at after the pin, and holds
    a solve where the u refit and the seed check both hit, which pins
    their order."""
    rng = np.random.default_rng(26)
    exits = []
    for p in [*(_route_problem(rng, trial) for trial in range(240)), _u_refit_before_seed_check()]:
        got = solve_hit(p)
        with monkeypatch.context() as m:
            m.setattr(hitsolver, "_component_route", sequential_route(exits))
            want = solve_hit(p)
        assert (got.status, got.max_kkt_residual) == (want.status, want.max_kkt_residual)
        if got.status == HIT:
            assert (got.witness.alphas, got.witness.residuals) == (want.witness.alphas, want.witness.residuals)
            assert got.witness.point.parts[0].coeffs.tobytes() == want.witness.point.parts[0].coeffs.tobytes()
        else:
            assert (got.best_alphas, got.best_residuals) == (want.best_alphas, want.best_residuals)
            assert got.certificate == want.certificate
    assert {"u check", "u refit", "seed check", "seed refit", "grid", "uncertain"} <= set(exits)
    assert exits[-1] == "u refit"


def test_a_row_past_the_float_range_refuses_only_a_solve_that_reaches_it(monkeypatch):
    """Shift weights of 1e15 to 1e25 at n = 3 and 4 take the grid rows at
    |alpha| near 1 past the float range, while a refit scalar can stay small
    enough to hit.  The batch of rows then raises, and each row is solved
    alone when the replay reaches it: a solve that ends before the first
    such row gets the sequential route's result, bit for bit, and one that
    reaches it is refused there as in the sequential route, with the same
    message."""
    rng = np.random.default_rng(7)
    w = IndexWindow(BILATERAL, 4)
    outcomes, failed_batches = set(), []
    solve_group = hitsolver._solve_group

    def recorded(sets):
        try:
            return solve_group(sets)
        except ArithmeticError:
            failed_batches.append(sum(len(rows.c) for rows in sets))
            raise

    monkeypatch.setattr(hitsolver, "_solve_group", recorded)
    for _ in range(40):
        op = ForwardShift(WeightProfile(1.0, 1.0, {j: float(10.0 ** rng.uniform(15, 25)) for j in w.indices().tolist()}))
        n = int(rng.integers(3, 5))
        u = ComplexVector.from_coeffs(w, {j: complex(*rng.standard_normal(2)) * 10.0 ** rng.uniform(-6, 0) for j in (-4, -3, -2)})
        v = ComplexVector.from_coeffs(w, {j: complex(*rng.standard_normal(2)) * 10.0 ** rng.uniform(-3, 0) for j in range(n - 5, 5)})
        src, tgt = Ball(u, norm(u) * float(rng.uniform(0.05, 0.8))), Ball(v, norm(v) * float(rng.uniform(0.1, 1.0)))
        p = HitProblem((op,), n, ProductBall((src,)), ProductBall((tgt,)))
        del failed_batches[:]
        results = []
        for route in (None, sequential_route([])):
            with monkeypatch.context() as m:
                if route is not None:
                    m.setattr(hitsolver, "_component_route", route)
                try:
                    results.append(solve_hit(p))
                except OperatorError as err:
                    results.append(str(err))
        got, want = results
        if isinstance(got, str) or isinstance(want, str):
            assert got == want and "solve_hit overflows a float at power" in got
            outcomes.add("refused")
            continue
        assert (got.status, got.max_kkt_residual) == (want.status, want.max_kkt_residual)
        if got.status == HIT:
            assert (got.witness.alphas, got.witness.residuals) == (want.witness.alphas, want.witness.residuals)
            assert got.witness.point.parts[0].coeffs.tobytes() == want.witness.point.parts[0].coeffs.tobytes()
            if any(rows > 1 for rows in failed_batches):
                outcomes.add("hit after a failed batch")
    assert outcomes == {"refused", "hit after a failed batch"}


def test_disk_solve_takes_one_step_from_each_start(monkeypatch):
    """A disk-route miss makes one criterion pin row, one single-scalar
    solve and one batch of rows: the batch holds the refit scalar from u,
    the one from the criterion seed and the disk grid, and the single solve
    is the polishing step after it.  A hit at the criterion pin ends the
    solve with no single-scalar solve and no batch, with the construction's
    scalar.  Pin rows are counted at _pin_rows, single-scalar solves at
    _lsq_rows, batch rows as the scalars of each _grid_rows batch."""
    calls, batches, pin_rows = [], [], []
    lsq, grid, pins = hitsolver._lsq_rows, hitsolver._grid_rows, hitsolver._pin_rows
    monkeypatch.setattr(hitsolver, "_lsq_rows", lambda *a: calls.append(a) or lsq(*a))
    monkeypatch.setattr(hitsolver, "_grid_rows", lambda *a: batches.append(a) or grid(*a))
    monkeypatch.setattr(hitsolver, "_pin_rows", lambda *a: pin_rows.extend(a[0]) or pins(*a))
    sample = make_ball_sampler(IndexWindow(BILATERAL, 32), 1, band=1)
    sources, targets = sample(np.random.default_rng(0)), sample(np.random.default_rng(1000))
    assert solve_hit(HitProblem((EXAMPLE_SHIFT,), 1, sources, targets)).status == MISS_UNCERTAIN
    assert (len(pin_rows), len(calls), len(batches)) == (1, 1, 1)
    assert sum(len(alphas) for _, alphas, *_ in batches) == len(hitsolver._GRID_ALPHAS) + 2

    calls.clear()
    batches.clear()
    pin_rows.clear()
    ball = ProductBall((Ball(ComplexVector.basis(IndexWindow(BILATERAL, 64), 0), 0.5),))
    got = solve_hit(HitProblem((EXAMPLE_SHIFT,), 5, ball, ball))
    assert got.status == HIT and (len(pin_rows), len(calls), len(batches)) == (1, 0, 0)
    assert got.witness.alphas[0] == pytest.approx(6.0**-2.5, rel=1e-12)


def test_pin_rows_equal_constrained_lsq_bit_for_bit():
    """Each row of the criterion-pin kernel against constrained_lsq on that
    row's map: the same minimizer bytes, residual and KKT residual.  The rows
    mix shift and diagonal powers (dead columns, zero entries) with real and
    complex scalars and radii on both sides of the Newton point, so the batch
    holds interior rows, boundary rows and rows with no gradient at all.  A
    coefficient of 1e-163 has a square that underflows to 0 while its
    gradient entry against a far target does not: free mass, which
    orthogonal columns have only that way."""
    rng = np.random.default_rng(16)
    kinds = set()
    for lattice in (BILATERAL, UNILATERAL):
        w = IndexWindow(lattice, 6)
        d = w.dim
        u = ComplexVector(w, rng.standard_normal(d) + 1j * rng.standard_normal(d))
        v = ComplexVector(w, rng.standard_normal(d) + 1j * rng.standard_normal(d))
        profile = WeightProfile(*rng.uniform(0.3, 3.0, 2), {0: 0.5, 2: 4.0})
        diag = Diagonal({j: (0.0 if j == 1 else rng.uniform(0.5, 2.0) * np.exp(2j * rng.uniform(0, np.pi))) for j in w.indices().tolist()})
        maps = [power_map(op, n, w) for op in (ForwardShift(profile), BackwardShift(profile)) for n in (1, 3, d - 1, d + 2)]
        maps += [power_map(diag, n, w) for n in (1, 4)]
        maps.append(power_map(Diagonal({j: 1e-163 if j == 0 else 1.0 for j in w.indices().tolist()}), 1, w))
        for eps in (0.01, 0.7, 50.0):
            scalars = [rng.uniform(0.05, 1.0) * (1.0 if k % 2 else np.exp(2j * rng.uniform(0, np.pi))) for k in range(len(maps))]
            scaled = [pmap.scaled(alpha) for pmap, alpha in zip(maps, scalars)]
            # zero gradient: the target is the image of the centre
            image = ComplexVector(w, scaled[0].apply_vec(u.coeffs))
            for target in (v, image, v * 1e10):
                coeffs = np.array([m.coeffs for m in scaled])
                tgt = np.array([m.tgt for m in scaled])
                with np.errstate(over="raise", invalid="raise", divide="raise"):
                    zs, residuals, kkts = hitsolver._solo(hitsolver._pin_rows(coeffs, tgt, u.coeffs, eps, target.coeffs))
                for k, pmap in enumerate(scaled):
                    ref = constrained_lsq(pmap, u, eps, target)
                    assert zs[k].tobytes() == ref.z.coeffs.tobytes()
                    assert (residuals[k], kkts[k]) == (ref.residual, ref.kkt_residual)
                    q, g = np.abs(pmap.coeffs) ** 2, np.conj(pmap.coeffs) * (target.coeffs - pmap.apply_vec(u.coeffs))[pmap.tgt]
                    if not np.any(g != 0):
                        kinds.add("no gradient")
                    elif np.any((q == 0) & (g != 0)):
                        kinds.add("free mass")
                    else:
                        kinds.add("interior" if norm(ref.z - u) < eps * (1 - 1e-12) else "boundary")
    assert kinds == {"no gradient", "free mass", "interior", "boundary"}


def test_criterion_pin_may_hit_below_alpha_floor():
    """ALPHA_FLOOR is the modulus put in place of a zero scalar, not a floor
    on every scalar: the (2, 3) shift from e_-420 to e_-120 hits at n = 300
    with lambda_300 = sqrt(2^-150 3^-150 / 3^300), far below it, and the
    witness re-verifies."""
    w = IndexWindow(BILATERAL, 500)
    p = HitProblem((EXAMPLE_SHIFT,), 300, *(ProductBall((Ball(ComplexVector.basis(w, j), 0.5),)) for j in (-420, -120)))
    got = solve_hit(p)
    assert got.status == HIT and abs(got.witness.alphas[0]) < hitsolver.ALPHA_FLOOR
    assert reverify_witness(p, got.witness) <= 1e-10


def test_trs_overflows_only_in_a_square():
    """The secular Newton forms its derivative from the squares of q + mu,
    not their cubes: on the (2, 3) shift from u = e_-200 + 0.5 e_-199 to 0,
    the cube overflowed from power 108 on, while the square holds until the
    map's entries reach about 1.3e77, at power 162.  The 1-D solve and a pin
    row overflow first there, in that square, as the disk grid does."""
    w = IndexWindow(BILATERAL, 500)
    u = ComplexVector.from_coeffs(w, {-200: 1.0, -199: 0.5})
    v = ComplexVector.zero(w)
    solves = {
        "constrained_lsq": lambda pmap: constrained_lsq(pmap, u, 0.5, v),
        "pin row": lambda pmap: hitsolver._solo(hitsolver._pin_rows(pmap.coeffs[None], pmap.tgt[None], u.coeffs, 0.5, v.coeffs)),
    }
    for name, solve in solves.items():
        for n in range(1, 163):
            pmap = power_map(EXAMPLE_SHIFT, n, w)
            try:
                with np.errstate(over="raise", invalid="raise"):
                    solve(pmap)
            except FloatingPointError as exc:
                assert (name, n, str(exc)) == (name, 162, "overflow encountered in square")
                break
        else:
            pytest.fail(f"{name} did not overflow by power 162")


def reference_apply_rows(coeffs, tgt, x):
    """PowerMap.apply_vec on each row of coeffs and tgt, at full width: a dead
    column may share its target with a live one, so it writes to a spare
    last column, which is dropped."""
    count, dim = coeffs.shape
    out = np.zeros((count, dim + 1), dtype=np.complex128)
    np.put_along_axis(out, np.where(coeffs != 0, tgt, dim), coeffs * x, axis=1)
    return out[:, :dim]


def full_width_rows(coeffs, tgt, u, eps, v):
    """The full-width solve of orthogonal-column rows that the active-column
    form replaced: every column of the window, dead or without gradient,
    goes through the rows loop, and each residual is taken over the window."""
    live = coeffs != 0
    r = v - reference_apply_rows(coeffs, tgt, u)
    q = np.abs(coeffs) ** 2
    g = np.multiply(np.conj(coeffs), np.take_along_axis(r, tgt, axis=1), out=np.zeros_like(coeffs), where=live)
    d, mu, gap = hitsolver._trs_rows(q, g, eps)
    stat = hitsolver._row_norms((q + mu[:, None]) * d - g)
    z = u + d
    residuals = hitsolver._row_norms(reference_apply_rows(coeffs, tgt, z) - v)
    return z, residuals, hitsolver._kkt_rows(stat, g, d, eps, gap)


def full_width_lsq(pmap, u, eps, v):
    """The full-width 1-D solve of an orthogonal-column map, through
    _trs_core on every column of the window: (z, residual, kkt)."""
    r = v - pmap.apply_vec(u)
    live = pmap.coeffs != 0
    q = np.abs(pmap.coeffs) ** 2
    g = np.zeros_like(u)
    g[live] = np.conj(pmap.coeffs[live]) * r[pmap.tgt[live]]
    d, mu, gap = hitsolver._trs_core(q, g, eps)
    stat = float(np.linalg.norm((q + mu) * d - g))
    kkt = max(stat / max(1.0, float(np.linalg.norm(g))), max(0.0, float(np.linalg.norm(d)) - eps) / eps, gap)
    return u + d, float(np.linalg.norm(pmap.apply_vec(u + d) - v)), kkt


def random_ortho_map(rng, w):
    """A random orthogonal-column map on w: a shift power whose columns die
    at the edge, a diagonal with zero entries, a scalar power, or live
    columns with distinct random targets and dead columns pointing at the
    targets of live ones."""
    d = w.dim
    kind = int(rng.integers(0, 4))
    if kind == 0:
        profile = WeightProfile(*rng.uniform(0.5, 2.0, 2), {0: 0.5})
        op = (ForwardShift, BackwardShift)[int(rng.integers(0, 2))](profile)
        return power_map(op, int(rng.choice([1, 2, d - 3, d - 1, d + 1])), w)
    if kind == 1:
        entries = rng.uniform(0.5, 2.0, d) * np.exp(2j * np.pi * rng.uniform(size=d))
        entries[rng.choice(d, size=int(rng.integers(1, 4)), replace=False)] = 0.0
        return power_map(Diagonal(dict(zip(w.indices().tolist(), entries.tolist()))), int(rng.integers(1, 4)), w)
    if kind == 2:
        return power_map(Scalar(complex(rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.uniform()))), int(rng.integers(1, 4)), w)
    tgt = rng.permutation(d)
    coeffs = rng.uniform(0.3, 3.0, d) * np.exp(2j * np.pi * rng.uniform(size=d))
    dead = rng.choice(d, size=int(rng.integers(1, d // 2)), replace=False)
    coeffs[dead] = 0.0
    tgt[dead] = rng.choice(np.delete(tgt, dead), size=dead.size)
    return hitsolver.PowerMap("ortho", w, coeffs=coeffs, tgt=tgt)


def random_centre(rng, w, size):
    """A vector on w supported on `size` random coordinates."""
    x = np.zeros(w.dim, dtype=np.complex128)
    at = rng.choice(w.dim, size=size, replace=False)
    x[at] = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return ComplexVector(w, x)


def assert_close_to_full_width(zs, residuals, kkts, ref, target):
    """Minimizers and residuals within 1e-14 relative, KKT residuals (already
    scale-free) within 1e-14.  A residual is relative to the target norm as
    well, since an interior solution leaves a residual of pure rounding."""
    ref_z, ref_res, ref_kkt = ref
    for z, res, kkt, rz, rres, rkkt in zip(zs, residuals, kkts, ref_z, ref_res, ref_kkt):
        assert np.linalg.norm(z - rz) <= 1e-14 * np.linalg.norm(rz)
        assert abs(res - rres) <= 1e-14 * max(rres, norm(target))
        assert abs(kkt - rkkt) <= 1e-14


def test_active_columns_match_the_full_width_solve():
    """constrained_lsq, the criterion pins and the disk grid, solved on the
    active columns, against the full-width solves they replaced: random
    orthogonal-column maps (shifts whose columns die at the edge, diagonals
    with zero entries, scalars, random targets with dead columns sharing a
    live column's target), centres of support 1 up to the dimension, and
    radii and targets that give rows with no gradient, interior steps and
    boundary steps.  Sums over the active columns group their terms unlike
    sums over the window, so agreement is to rounding."""
    rng = np.random.default_rng(18)
    kinds, widths = set(), set()
    alphas = np.array(hitsolver._GRID_ALPHAS)
    for trial in range(60):
        w = IndexWindow((BILATERAL, UNILATERAL)[trial % 2], 6)
        d = w.dim
        maps = [random_ortho_map(rng, w) for _ in range(6)]
        u = random_centre(rng, w, int(rng.integers(1, d + 1)))
        v = random_centre(rng, w, int(rng.integers(1, d + 1)))
        for eps in (0.01, 1.0, 100.0):
            for target in (v, ComplexVector(w, maps[0].apply_vec(u.coeffs))):
                coeffs, tgt = np.array([m.coeffs for m in maps]), np.array([m.tgt for m in maps])
                with np.errstate(over="raise", invalid="raise", divide="raise"):
                    ref = full_width_rows(coeffs, tgt, u.coeffs, eps, target.coeffs)
                    assert_close_to_full_width(*hitsolver._solo(hitsolver._pin_rows(coeffs, tgt, u.coeffs, eps, target.coeffs)), ref, target)
                    for k, pmap in enumerate(maps):
                        sol = constrained_lsq(pmap, u, eps, target)
                        one = full_width_lsq(pmap, u.coeffs, eps, target.coeffs)
                        assert_close_to_full_width([sol.z.coeffs], [sol.residual], [sol.kkt_residual], [[x] for x in one], target)
                        widths.add(int(np.count_nonzero(hitsolver._active(pmap.coeffs, pmap.tgt, u.coeffs, target.coeffs))))
                        if not np.any(ref[0][k] != u.coeffs):
                            kinds.add("no gradient")
                        else:
                            kinds.add("interior" if np.linalg.norm(ref[0][k] - u.coeffs) < eps * (1 - 1e-12) else "boundary")
                    grid_rows = alphas[:, None] * maps[1].coeffs
                    ref = full_width_rows(grid_rows, np.broadcast_to(maps[1].tgt, grid_rows.shape), u.coeffs, eps, target.coeffs)
                    zs, residuals, kkts = hitsolver._solo(hitsolver._grid_rows(maps[1], alphas, u, eps, target))
                    assert_close_to_full_width([zs[k] for k in range(len(alphas))], residuals, kkts, ref, target)
    assert kinds == {"no gradient", "interior", "boundary"}
    assert max(widths) >= 8 and min(widths) <= 1


def solved_pins(comp, powers):
    """comp's pins at powers, solved as one pin_route batch."""
    assert hitsolver._drive({None: comp.pin_route(powers)}) == {None: None}
    return {n: comp.pin(n) for n in powers}


def test_a_row_solves_alike_in_any_batch():
    """A criterion pin row, or a disk-grid row, gets the same bits whether
    it is solved alone or with other rows, of its width or of others: the
    rows of one width run through the rows loop together, a row alone in
    its width through _trs_core, and every step sees only its own row.  A
    component's pins (scalar, seed, point, residual, KKT residual) are the
    same solved in one batch of powers or one power at a time."""
    rng = np.random.default_rng(1818)
    alphas = np.array(hitsolver._GRID_ALPHAS)
    for trial in range(12):
        w = IndexWindow((BILATERAL, UNILATERAL)[trial % 2], 6)
        u = random_centre(rng, w, int(rng.integers(1, 5)))
        v = random_centre(rng, w, int(rng.integers(1, 5)))
        for support in (1, 2):
            entries = rng.uniform(0.5, 2.0, w.dim) * np.exp(2j * np.pi * rng.uniform(size=w.dim))
            op = ForwardShift(WeightProfile(*rng.uniform(0.5, 2.0, 2))) if trial % 3 == 0 else Diagonal(dict(zip(w.indices().tolist(), entries.tolist())))
            balls = tuple(ProductBall((Ball(random_centre(rng, w, support), 0.5),)) for _ in range(2))
            scan, alone = (hitsolver.PowerScan((op,), *balls, 8)._components[0] for _ in range(2))
            batch = solved_pins(scan, range(1, 9))
            for n in range(1, 9):
                one = solved_pins(alone, range(n, n + 1))[n]
                assert repr(batch[n]) == repr(one)
                if one is not None:
                    assert [x.tobytes() for x in (batch[n].seed, batch[n].z)] == [x.tobytes() for x in (one.seed, one.z)]
        maps = [random_ortho_map(rng, w) for _ in range(10)]
        coeffs = np.array([m.coeffs for m in maps]) * rng.uniform(0.05, 1.0, (len(maps), 1))
        tgt = np.array([m.tgt for m in maps])
        for eps in (0.05, 2.0):
            batch = hitsolver._solo(hitsolver._pin_rows(coeffs, tgt, u.coeffs, eps, v.coeffs))
            subsets = [[k] for k in range(len(maps))] + [np.flatnonzero(rng.uniform(size=len(maps)) < 0.5) for _ in range(4)]
            for rows in subsets:
                if len(rows):
                    part = hitsolver._solo(hitsolver._pin_rows(coeffs[rows], tgt[rows], u.coeffs, eps, v.coeffs))
                    for got, whole in zip(part, batch):
                        assert got.tobytes() == whole[rows].tobytes()
            zs, residuals, kkts = hitsolver._solo(hitsolver._grid_rows(maps[0], alphas, u, eps, v))
            for rows in ([k] for k in range(0, len(alphas), 7)):
                z1, r1, k1 = hitsolver._solo(hitsolver._grid_rows(maps[0], alphas[rows], u, eps, v))
                assert (z1[0].tobytes(), r1.tobytes(), k1.tobytes()) == (zs[rows[0]].tobytes(), residuals[rows].tobytes(), kkts[rows].tobytes())


def test_staging_pins_only_the_powers_from_the_first_asked_for_to_the_last():
    """stage_problems on powers 3 and 7 of a scan to horizon 40 solves the
    criterion pins of 3..7, in one contiguous batch, and of no power past
    the last one asked for."""
    ball = ProductBall((Ball(ComplexVector.basis(IndexWindow(BILATERAL, 64), 0), 0.5),))
    scan = hitsolver.PowerScan((EXAMPLE_SHIFT,), ball, ball, 40)
    hitsolver.stage_problems([scan.problem(3), scan.problem(7)])
    assert sorted(scan._components[0]._pins) == list(range(3, 8))


def criterion_4_trials(trials=10):
    """Criterion 4's first trials (seed 404): each trial's components, source
    balls and target balls, drawn as bench/workloads.build_mixed draws them."""
    window = IndexWindow(BILATERAL, 32)
    pool = (EXAMPLE_SHIFT, ForwardShift(WeightProfile(2.0, 4.0)), Scalar(0.5), Scalar(2.0), Scalar(complex(0.0, 1.5)))
    rng = np.random.default_rng(404)
    children = np.random.SeedSequence(404).spawn(2 * trials)
    for trial in range(trials):
        k = trial % 3 + 1
        comps = tuple(pool[i] for i in rng.integers(0, len(pool), size=k))
        sampler = make_ball_sampler(window, k, band=1)
        yield comps, sampler(np.random.default_rng(children[2 * trial])), sampler(np.random.default_rng(children[2 * trial + 1]))


def test_trust_region_rows_are_no_wider_than_the_ball_supports(monkeypatch):
    """Criterion 4's first 10 trials at horizon 10 (seed 404): every row the
    secular solvers are handed has at most |supp u| + |supp v| terms for the
    component being solved, since a live column carries a gradient only
    from u's support or onto v's.  Rows as wide as the window fail here,
    with no timing involved.  The rows of several components are solved
    together, so a row is checked against the least support of the sets
    its call solves (a call's sets share one width)."""
    bound, supports, rows = {}, [], []

    def forming(make, centres):
        def formed(*args):
            staged = make(*args)
            u, v = (np.asarray(getattr(x, "coeffs", x)) for x in centres(*args))
            for s in staged.sets:
                bound[id(s.c)] = np.count_nonzero(u) + np.count_nonzero(v)
            return staged

        return formed

    solve_group = hitsolver._solve_group

    def bounded(sets):
        supports.append(min(bound[id(s.c)] for s in sets))
        try:
            return solve_group(sets)
        finally:
            supports.pop()

    def watched(kernel):
        return lambda q, *a, **k: rows.append((q.shape[-1], supports[-1])) or kernel(q, *a, **k)

    monkeypatch.setattr(hitsolver, "_lsq_rows", forming(hitsolver._lsq_rows, lambda A, u, eps, v: (u, v)))
    monkeypatch.setattr(hitsolver, "_grid_rows", forming(hitsolver._grid_rows, lambda A, a, u, eps, v: (u, v)))
    monkeypatch.setattr(hitsolver, "_pin_rows", forming(hitsolver._pin_rows, lambda c, t, u, eps, v: (u, v)))
    monkeypatch.setattr(hitsolver, "_solve_group", bounded)
    monkeypatch.setattr(hitsolver, "_secular_solve", watched(hitsolver._secular_solve))
    monkeypatch.setattr(hitsolver, "_secular_solve_rows", watched(hitsolver._secular_solve_rows))
    for comps, sources, targets in criterion_4_trials():
        junction_scan(comps, sources, targets, 10)
    assert len(rows) >= 10
    assert all(width <= support for width, support in rows)


class BisectionProbe(np.ndarray):
    """An array that counts the entries its boolean-masked writes replace.
    Handed to the rows loop as q and s, it passes to the arrays derived from
    them, and the only such write is the bisection step's."""

    bisected = 0

    def __setitem__(self, key, value):
        if isinstance(key, np.ndarray) and key.dtype == bool:
            BisectionProbe.bisected += int(np.count_nonzero(key))
        super().__setitem__(key, value)


def test_secular_rows_never_bisect(monkeypatch):
    """Every row of the rows loop starts at the largest single-term lower
    bound, where Newton climbs to the root inside its bracket, so no row
    takes the bisection step.  The draw is criterion 4's at 10 trials and
    horizon 10 (seed 404), each trial scanned jointly and by component; a
    start at the bracket's midpoint bisects 8 rows here."""
    rows = []
    kernel = hitsolver._secular_solve_rows

    def watched(q, s, eps):
        rows.append(len(q))
        mu, val = kernel(q.view(BisectionProbe), s.view(BisectionProbe), eps)
        return np.asarray(mu), np.asarray(val)

    monkeypatch.setattr(BisectionProbe, "bisected", 0)
    monkeypatch.setattr(hitsolver, "_secular_solve_rows", watched)
    for comps, sources, targets in criterion_4_trials():
        junction_scan(comps, sources, targets, 10)
        for i, op in enumerate(comps):
            junction_scan([op], ProductBall((sources.balls[i],)), ProductBall((targets.balls[i],)), 10)
    assert sum(rows) >= 1000
    assert BisectionProbe.bisected == 0


def test_trs_boundary_case_is_tight():
    w = IndexWindow(UNILATERAL, 2)
    # far target forces the solution onto the ball boundary
    u = ComplexVector.zero(w)
    v = ComplexVector.basis(w, 0) * 100.0
    sol = constrained_lsq(power_map(Scalar(1.0), 1, w), u, 1.0, v)
    assert norm(sol.z - u) == pytest.approx(1.0, rel=1e-12)
    assert sol.residual == pytest.approx(99.0, rel=1e-12)


def bisect_secular(q, s, eps):
    """Root of sum s/(q+mu)^2 = eps^2 by plain bisection on [0, ||g||/eps],
    halved until the midpoint is an endpoint; terms with s = 0 are left out."""
    terms = [(float(qi), float(si)) for qi, si in zip(q, s) if si > 0]
    lo, hi = 0.0, math.sqrt(math.fsum(si for _, si in terms)) / eps
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if math.fsum(si / (qi + mid) ** 2 for qi, si in terms) > eps * eps:
            lo = mid
        else:
            hi = mid
    return hi


def check_secular_root(mu, q, s, eps):
    """mu against bisection to 1e-12, and against the rows loop, which
    takes _secular_solve's steps, bit for bit."""
    assert mu == pytest.approx(bisect_secular(q, s, eps), rel=1e-12)
    q = np.where(s > 0, q, 1.0)  # as _trs_core and _trs_rows hand q to the secular solve
    mu_rows, val_rows = hitsolver._secular_solve_rows(q[None, :], s[None, :], eps)
    assert (mu_rows[0], val_rows[0]) == hitsolver._secular_solve(q, s, eps)
    assert mu_rows[0] == mu


def test_secular_newton_climbs_from_below(monkeypatch):
    """Why every secular solve starts at the largest single-term lower
    bound: on this cli-scenarios solve (compound-plus-transitive) a start at
    the bracket midpoint ||g||/(2 eps) falls right of the root and takes 34
    steps, 31 of them bisections, while from the lower bound, left of the
    root, where 1/||d(mu)|| is concave and increasing, Newton needs two."""
    q = np.array([1.8086045703329551e08, 4.5215114258323878e07, 1.0039772182129675e-08, 1.0039772182129675e-08])
    s = np.array([6.8656334601717412e07, 2.4015192093115658e07, 7.3069170996626985e-17, 6.5938370770724885e-17])
    eps = 0.44999999955000003
    norms = []  # one square root for ||g||, then one per norm evaluation
    monkeypatch.setattr(hitsolver, "math", types.SimpleNamespace(sqrt=lambda x: norms.append(x) or math.sqrt(x)))
    with np.errstate(all="raise"):
        mu, val = hitsolver._secular_solve(q, s, eps)
    monkeypatch.undo()
    assert len(norms) <= 4
    assert abs(val - eps) <= 1e-14 * eps
    with np.errstate(all="raise"):
        check_secular_root(mu, q, s, eps)


def secular_case(rng):
    """Random (q, g, eps) for a boundary trust-region solve: q spans 1e-10 to
    1e10, with free mass (q = 0, s > 0) and massless terms (q = s = 0) mixed
    in; eps is the norm at a root drawn from 1e-10 to 1e10.  Draws where the
    norm barely moves with mu are drawn again: there a norm within 1e-14 of
    eps pins mu only to about 1e-14 over mu |d log||d|| / d mu|."""
    while True:
        n = int(rng.integers(1, 9))
        q = 10.0 ** rng.uniform(-10, 10, n)
        g = 10.0 ** rng.uniform(-5, 5, n) * np.exp(2j * np.pi * rng.uniform(size=n))
        kind = rng.integers(0, 4, n)  # 0, 1: ordinary; 2: free mass; 3: massless
        q[kind >= 2] = 0.0
        g[kind == 3] = 0.0
        s = np.abs(g) ** 2
        if not np.any(s > 0):
            continue
        mu = 10.0 ** rng.uniform(-10, 10)
        w = s[s > 0] / (q[s > 0] + mu) ** 2
        if mu * np.sum(w / (q[s > 0] + mu)) / np.sum(w) >= 0.1:
            return q, g, math.sqrt(float(np.sum(w)))


def test_trs_core_secular_root_matches_references():
    rng = np.random.default_rng(11)
    # every single term has norm at most eps at mu = 0, so the solve starts
    # there, next to a massless term
    at_zero = (np.array([1.0, 4.0, 0.0]), np.array([1.0, 3.0 + 2.0j, 0.0]), 1.2)
    kinds = set()
    for q, g, eps in [at_zero] + [secular_case(rng) for _ in range(300)]:
        s = np.abs(g) ** 2
        kinds.update(("free" if si > 0 else "massless") for qi, si in zip(q, s) if qi == 0)
        with np.errstate(all="raise"):
            d, mu, gap = hitsolver._trs_core(q, g, eps)
            assert gap <= 1e-14
            assert np.all(np.isfinite(d)) and np.all(d[s == 0] == 0)
            assert float(np.linalg.norm(d)) == pytest.approx(eps, rel=1e-13)
            check_secular_root(mu, q, s, eps)
    assert kinds == {"free", "massless"}


def test_criterion_scalar_is_recorded_on_hits():
    res = solve_hit(unit_ball_problem(n=10))
    assert res.status == HIT
    lam = res.witness.alphas[0]
    assert abs(lam) == pytest.approx(6.0**-5, rel=1e-12)
    assert res.witness.residuals[0] < 0.5 - 1e-9
    assert res.max_kkt_residual <= 1e-8
    # the recorded scalar follows sqrt(backward mass / forward mass) at every
    # tail power, not just n = 10
    for n in (6, 9, 14):
        r = solve_hit(unit_ball_problem(n=n))
        assert r.status == HIT
        assert abs(r.witness.alphas[0]) == pytest.approx(6.0 ** (-n / 2), rel=1e-10)


def test_witness_reverifies_on_larger_window():
    p = unit_ball_problem(n=10)
    res = solve_hit(p)
    assert reverify_witness(p, res.witness) <= 1e-10


def test_fixed_unit_scaling_certified_miss():
    p = unit_ball_problem(n=2, mode=FIXED, alphas=(1.0,))
    res = solve_hit(p)
    assert res.status == MISS_CERTIFIED
    cert = res.certificate
    assert cert.kind == "minmod"
    # min-modulus 2^2 times inner radius 0.5, minus target center norm 1
    assert cert.lower_bound == pytest.approx(1.0)
    assert cert.component == 0
    # one step multiplies by at least 2, so every larger power misses too
    assert cert.extends_past_horizon


def test_fixed_miss_not_certified_at_n1():
    res = solve_hit(unit_ball_problem(n=1, mode=FIXED, alphas=(1.0,)))
    assert res.status in (MISS_UNCERTAIN, MISS_CERTIFIED)
    # the growth bound gives exactly 2 * 0.5 - 1 = 0 at n = 1: too weak
    assert certify_miss(unit_ball_problem(n=1, mode=FIXED, alphas=(1.0,))) is None


def test_disk_mode_contraction_certified_by_opnorm():
    w = IndexWindow(UNILATERAL, 2)
    e0 = ComplexVector.basis(w, 0)
    p = HitProblem(
        components=(Scalar(0.5),),
        n=2,
        sources=ProductBall((Ball(e0, 0.25),)),
        targets=ProductBall((Ball(e0, 0.25),)),
    )
    res = solve_hit(p)
    assert res.status == MISS_CERTIFIED
    cert = res.certificate
    # a scalar is bounded exactly: g(t) = |1 - t| - 0.25 t is least at
    # t = |c|^2 = 0.25, which is the opnorm bound 0.25 applied to norms <= 1.25
    assert cert.kind == "scalar_exact"
    assert cert.lower_bound == pytest.approx(1.0 - 0.25 * 1.25)
    assert cert.component == 0
    assert cert.extends_past_horizon
    # the same contraction as a diagonal is certified by the opnorm bound
    diag = certify_miss(HitProblem((Diagonal({}, default=0.5),), 2, p.sources, p.targets))
    assert diag.kind == "opnorm"
    assert diag.lower_bound == pytest.approx(1.0 - 0.25 * 1.25)
    assert diag.extends_past_horizon


def test_opnorm_certificate_of_an_expanding_scalar_stops_at_the_horizon():
    w = IndexWindow(UNILATERAL, 2)
    e0 = ComplexVector.basis(w, 0)
    p = HitProblem(
        components=(Scalar(1.5),),
        n=2,
        sources=ProductBall((Ball(e0, 0.25),)),
        targets=ProductBall((Ball(e0 * 10.0, 0.25),)),
    )
    cert = solve_hit(p).certificate
    # 10 - 1.5^2 * 1.25: certified at n = 2, but 1.5^6 * 1.25 > 10 - 0.25
    # (exactly: g(t) = |10 - t| - 0.25 t is least at t = |c|^n while |c|^n <= 10)
    assert cert.kind == "scalar_exact"
    assert cert.lower_bound == pytest.approx(10.0 - 2.25 * 1.25)
    assert not cert.extends_past_horizon
    assert certify_miss(HitProblem(p.components, 6, p.sources, p.targets)) is None


def _random_certifiable_component(rng, lattice):
    """An operator, its source and target balls on a small window of the lattice,
    and a fixed scalar; weights and moduli all below 1, all above, mixed, or near 1."""
    lo, hi = ((0.3, 1.0), (1.0, 3.0), (0.3, 3.0), (0.85, 1.15))[rng.integers(4)]
    w = IndexWindow(lattice, 4)
    kind = rng.integers(4)
    if kind < 2:
        table = {int(k): float(rng.uniform(lo, hi)) for k in rng.integers(-4, 5, size=rng.integers(4))}
        profile = WeightProfile(float(rng.uniform(lo, hi)), float(rng.uniform(lo, hi)), table)
        op = (ForwardShift, BackwardShift)[kind](profile)
    else:
        moduli = rng.uniform(lo, hi, size=3) * np.exp(2j * np.pi * rng.uniform(size=3))
        op = Diagonal({0: moduli[0], 1: moduli[1]}, default=moduli[2]) if kind == 2 else Scalar(moduli[0])

    def ball():
        center = rng.standard_normal(w.dim) + 1j * rng.standard_normal(w.dim)
        center *= np.exp(rng.uniform(np.log(0.05), np.log(10.0))) / np.linalg.norm(center)
        return Ball(ComplexVector(w, center), float(rng.uniform(0.05, 1.0)))

    alpha = rng.uniform(0.1, 1.0) * np.exp(2j * np.pi * rng.uniform())
    return op, ball(), ball(), complex(alpha)


def test_extending_certificates_hold_at_the_next_thirty_powers():
    rng = np.random.default_rng(2026)
    extending = 0
    for _ in range(600):
        lattice = (BILATERAL, UNILATERAL)[rng.integers(2)]
        parts = [_random_certifiable_component(rng, lattice) for _ in range(rng.integers(1, 3))]
        ops, srcs, tgts, alphas = zip(*parts)
        mode = (DISK, FIXED)[rng.integers(2)]
        fixed = alphas if mode == FIXED else None
        n = int(rng.integers(0, 9))
        cert = certify_miss(HitProblem(ops, n, ProductBall(srcs), ProductBall(tgts), mode, fixed))
        if cert is None or not cert.extends_past_horizon:
            continue
        extending += 1
        c = cert.component
        alone = (alphas[c],) if mode == FIXED else None
        for m in range(n, n + 31):
            sub = HitProblem((ops[c],), m, ProductBall((srcs[c],)), ProductBall((tgts[c],)), mode, alone)
            assert certify_miss(sub) is not None, (ops[c], n, m)
    assert extending >= 100


def _exact_sq_distance(x, y):
    """||x - y||^2 of two complex coefficient arrays, exactly: every float is a rational."""
    return sum((Fraction(a.real) - Fraction(b.real)) ** 2 + (Fraction(a.imag) - Fraction(b.imag)) ** 2 for a, b in zip(x, y))


def _exact_witness_holds(p, witness):
    """Whether a one-component witness of a problem whose T^n is c^n I (a Scalar,
    the identity, or any operator at n = 0) lies strictly inside both balls,
    checked in exact rational arithmetic: ||z - u||^2 < eps^2 and
    ||alpha c^n z - v||^2 < delta^2."""
    (op,), (src,), (tgt,) = p.components, p.sources.balls, p.targets.balls
    c = op.value if isinstance(op, Scalar) else 1.0
    re, im = Fraction(1), Fraction(0)
    for factor in [witness.alphas[0]] + [c] * (p.n if isinstance(op, Scalar) else 0):
        fr, fi = Fraction(factor.real), Fraction(factor.imag)
        re, im = re * fr - im * fi, re * fi + im * fr
    z = witness.point.parts[0].coeffs
    image = sum(
        (Fraction(zj.real) * re - Fraction(zj.imag) * im - Fraction(vj.real)) ** 2
        + (Fraction(zj.real) * im + Fraction(zj.imag) * re - Fraction(vj.imag)) ** 2
        for zj, vj in zip(z, tgt.center.coeffs)
    )
    inside = _exact_sq_distance(z, src.center.coeffs) < Fraction(src.radius) ** 2
    return inside and image < Fraction(tgt.radius) ** 2


def _identity_problem(rng, offset, op=Scalar(1.0)):
    """The fixed-mode unit scaling of the identity op at n = 1 on a 2-point
    window, with ||u|| = 10^U(6, 9), v = s u for s ~ U(1.5, 3), source radius 0.5 and
    the target radius the least float at least `offset` above the exact
    infimum ||u - v|| - 0.5 (taken to 60 digits)."""
    w = IndexWindow(UNILATERAL, 1)
    direction = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    u = direction * (10.0 ** rng.uniform(6, 9) / np.linalg.norm(direction))
    v = u * rng.uniform(1.5, 3.0)
    sq = _exact_sq_distance(u, v)
    with localcontext() as ctx:
        ctx.prec = 60
        target = (Decimal(sq.numerator) / Decimal(sq.denominator)).sqrt() - Decimal("0.5") + Decimal(offset)
        delta = float(target)
        while Decimal(delta) < target:
            delta = math.nextafter(delta, math.inf)
    src, tgt = Ball(ComplexVector(w, u), 0.5), Ball(ComplexVector(w, v), delta)
    return HitProblem((op,), 1, ProductBall((src,)), ProductBall((tgt,)), FIXED, (1.0,))


def test_scalar_route_is_sound_in_floating_point():
    """Terms of size up to 3e9 carry rounding errors far above 3e-9, so with
    the target radius 3e-9 above the exact infimum a hit exists, but neither
    a certificate nor a float-checked witness may be trusted: the route must
    end uncertain rather than certify or return a witness that fails the
    exact check.  With the radius 1e-5 ||v|| away on either side, far past the
    rounding slack, it decides."""
    rng = np.random.default_rng(0)
    statuses = []
    for _ in range(500):
        p = _identity_problem(rng, "3e-9")
        res = solve_hit(p)
        statuses.append(res.status)
        assert res.status != MISS_CERTIFIED
        if res.status == HIT:
            assert _exact_witness_holds(p, res.witness)
    assert statuses.count(MISS_UNCERTAIN) == 500
    for _ in range(50):
        near = _identity_problem(rng, "0")
        scale = norm(near.targets.balls[0].center)
        for offset, want in ((1e-5, HIT), (-1e-5, MISS_CERTIFIED)):
            tgt = Ball(near.targets.balls[0].center, near.targets.balls[0].radius + offset * scale)
            p = HitProblem(near.components, 1, near.sources, ProductBall((tgt,)), FIXED, (1.0,))
            res = solve_hit(p)
            assert res.status == want
            if want == HIT:
                assert _exact_witness_holds(p, res.witness)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: CERT_MARGIN and RESIDUAL_SLACK are absolute off the scalar route")
def test_growth_bound_and_trust_region_routes_are_sound_in_floating_point():
    """ROADMAP item 3's reproduction: the draws of the test above, on the
    identity as Diagonal({}, default=1.0), which takes the growth bounds and
    the TRS rather than the scalar route.  The target radius is the least
    float at least 3e-9 above the exact infimum, so a hit exists in every
    draw: no draw may end certified, and every witness must pass the exact
    check.  Terms near 3e9 round by far more than the absolute margins:
    the 400 draws give 9 false opnorm certificates and 69 witnesses that
    fail the exact check."""
    rng = np.random.default_rng(0)
    false = []
    for draw in range(400):
        p = _identity_problem(rng, "3e-9", Diagonal({}, default=1.0))
        res = solve_hit(p)
        if res.status == MISS_CERTIFIED or (res.status == HIT and not _exact_witness_holds(p, res.witness)):
            false.append((draw, res.status, res.certificate))
    assert false == []


def test_large_scalar_powers_end_in_a_status():
    """No power of a scalar overflows, raises or warns: |c|^n and alpha are
    formed in log form."""
    w = IndexWindow(BILATERAL, 4)
    e0, e1 = ComplexVector.basis(w, 0), ComplexVector.basis(w, 1)

    def problem(op, n, u, v, mode=DISK):
        alphas = (1.0,) if mode == FIXED else None
        return HitProblem((op,), n, ProductBall((Ball(u, 0.45),)), ProductBall((Ball(v, 0.45),)), mode, alphas)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # min g = sqrt(1 - 0.45^2) at t* < 2^n, and 2^n only grows
        for n in (5, 1000, 1100, 2000, 5000):
            res = solve_hit(problem(Scalar(2.0), n, e0, e1))
            assert res.status == MISS_CERTIFIED
            assert res.certificate.kind == "scalar_exact"
            assert res.certificate.lower_bound == pytest.approx(math.sqrt(1.0 - 0.45**2), rel=1e-12)
            assert res.certificate.extends_past_horizon
        # e0 to e0 hits only at |alpha| = 2^-n, below ALPHA_FLOOR: uncertain, no witness
        res = solve_hit(problem(Scalar(2.0), 1000, e0, e0))
        assert res.status == MISS_UNCERTAIN and res.witness is None
        assert abs(res.best_alphas[0]) >= hitsolver.ALPHA_FLOOR
        # a contracting scalar, 6^(-n/2), whose power underflows
        contraction = Scalar(6.0**-0.5)
        for n in (1000, 5000):
            for mode in (DISK, FIXED):
                res = solve_hit(problem(contraction, n, e0, e1, mode))
                assert res.status == MISS_CERTIFIED and res.certificate.extends_past_horizon
                assert res.certificate.lower_bound == pytest.approx(1.0)
                res = solve_hit(problem(contraction, n, e0, e0 * 0.3, mode))
                # the image is about 0, within 0.3 < 0.45 of the target centre, at alpha = 1
                assert res.status == HIT and res.witness.alphas == (1.0,)
                assert res.witness.residuals[0] == pytest.approx(0.3)


def _random_scalar_route_problem(rng):
    """A one-component problem the exact route decides: a Scalar with |c| in
    [0.3, 3] at n in 0..8, or at n = 0 a shift, diagonal or dense operator; a
    window of dimension at most 5; disk or fixed mode."""
    kind = (BILATERAL, UNILATERAL)[rng.integers(2)]
    w = IndexWindow(kind, int(rng.integers(0, 3 if kind == BILATERAL else 5)))
    n = int(rng.integers(0, 9))
    if n == 0 and rng.integers(2):
        op = _random_operator(("forward", "backward", "diagonal", "dense")[rng.integers(4)], w, rng)
    else:
        op = Scalar(complex(rng.uniform(0.3, 3.0) * np.exp(2j * np.pi * rng.uniform())))

    def ball():
        center = rng.standard_normal(w.dim) + 1j * rng.standard_normal(w.dim)
        center *= np.exp(rng.uniform(np.log(0.05), np.log(3.0))) / np.linalg.norm(center)
        return Ball(ComplexVector(w, center), float(rng.uniform(0.05, 1.0)))

    mode = (DISK, FIXED)[rng.integers(2)]
    alphas = (complex(rng.uniform(0.1, 1.0) * np.exp(2j * np.pi * rng.uniform())),) if mode == FIXED else None
    return HitProblem((op,), n, ProductBall((ball(),)), ProductBall((ball(),)), mode, alphas)


def test_scalar_route_against_the_oracle():
    """Every scalar or n = 0 problem is decided; each certificate survives the
    sampling oracle, and each witness re-verifies and passes the exact check."""
    rng = np.random.default_rng(404)
    counts = {HIT: 0, MISS_CERTIFIED: 0}
    for k in range(200):
        p = _random_scalar_route_problem(rng)
        res = solve_hit(p)
        counts[res.status] += 1
        assert res.max_kkt_residual == 0.0
        if res.status == MISS_CERTIFIED:
            assert res.certificate.kind == "scalar_exact"
            search = random_search(p, samples=20000, seed=k)
            assert search.best_residuals[0] >= res.certificate.lower_bound
        else:
            assert abs(res.witness.alphas[0]) <= 1.0
            assert res.witness.residuals[0] < p.targets.balls[0].radius
            assert reverify_witness(p, res.witness) <= 1e-10
            assert _exact_witness_holds(p, res.witness)
    assert min(counts.values()) >= 40


def test_disk_mode_certificate_never_uses_minmod():
    # expanding operator, disk scaling: tiny alpha always reaches the target
    p = unit_ball_problem(n=6)
    cert = certify_miss(p)
    assert cert is None
    assert solve_hit(p).status == HIT


def test_criterion_route_skipped_at_window_edge_still_solves():
    w = IndexWindow(BILATERAL, 4)
    edge = ComplexVector.basis(w, 3)
    p = HitProblem(
        components=(EXAMPLE_SHIFT,),
        n=3,
        sources=ProductBall((Ball(edge, 0.5),)),
        targets=ProductBall((Ball(ComplexVector.basis(w, 0), 0.5),)),
    )
    res = solve_hit(p)  # forward power of the center leaves the window
    assert res.status in (HIT, MISS_UNCERTAIN)


def test_direct_sum_flattens_to_components():
    w = IndexWindow(BILATERAL, 12)
    e0 = ComplexVector.basis(w, 0)
    joint = HitProblem(
        components=(DirectSum((EXAMPLE_SHIFT, Scalar(1.0))),),
        n=5,
        sources=ProductBall((Ball(e0, 0.5), Ball(e0, 0.5))),
        targets=ProductBall((Ball(e0, 0.5), Ball(e0, 0.5))),
    )
    assert len(joint.components) == 2
    res = solve_hit(joint)
    seps = [
        solve_hit(
            HitProblem(
                components=(op,),
                n=5,
                sources=ProductBall((Ball(e0, 0.5),)),
                targets=ProductBall((Ball(e0, 0.5),)),
            )
        )
        for op in (EXAMPLE_SHIFT, Scalar(1.0))
    ]
    assert (res.status == HIT) == all(s.status == HIT for s in seps)
    if res.status == HIT:
        for i, s in enumerate(seps):
            assert res.witness.alphas[i] == pytest.approx(s.witness.alphas[0])


def test_monotone_in_target_radius():
    for n in range(3, 12):
        tight = solve_hit(unit_ball_problem(n=n, radius=0.5))
        if tight.status != HIT:
            continue
        w = IndexWindow(BILATERAL, 16)
        e0 = ComplexVector.basis(w, 0)
        loose = HitProblem(
            components=(EXAMPLE_SHIFT,),
            n=n,
            sources=ProductBall((Ball(e0, 0.5),)),
            targets=ProductBall((Ball(e0, 0.75),)),
        )
        assert solve_hit(loose).status == HIT


def test_random_search_is_deterministic_and_finds_easy_hits():
    w = IndexWindow(UNILATERAL, 3)
    e0 = ComplexVector.basis(w, 0)
    p = HitProblem(
        components=(Scalar(1.0),),
        n=1,
        sources=ProductBall((Ball(e0, 0.5),)),
        targets=ProductBall((Ball(e0, 0.5),)),
    )
    a = random_search(p, samples=2000, seed=11)
    b = random_search(p, samples=2000, seed=11)
    assert a == b
    assert a.hits == (True,)
    assert a.best_residuals[0] < 0.5


def test_random_search_respects_fixed_alpha():
    p = unit_ball_problem(n=4, mode=FIXED, alphas=(1.0,))
    rep = random_search(p, samples=3000, seed=5)
    assert rep.best_alphas == (1.0,)
    assert rep.hits == (False,)


def reference_search(p, samples, seed):
    """random_search as a loop on complex blocks through apply_batch, for every
    map kind: the reference the real-valued kernel must reproduce."""
    rng = np.random.default_rng(seed)
    k = len(p.components)
    best_res = [math.inf] * k
    best_alpha_found = [1.0 + 0j] * k
    for i, op in enumerate(p.components):
        src, tgt = p.sources.balls[i], p.targets.balls[i]
        d = src.center.window.dim
        pmap = power_map(op, p.n, src.center.window)
        left = samples
        while left > 0:
            b = min(hitsolver.SEARCH_BATCH, left)
            left -= b
            dirs = rng.standard_normal((b, d)) + 1j * rng.standard_normal((b, d))
            norms = np.linalg.norm(dirs, axis=1)
            norms[norms == 0] = 1.0
            radii = src.radius * rng.uniform(size=b) ** (1.0 / (2 * d)) * (1.0 - 1e-12)
            z_block = src.center.coeffs + dirs * (radii / norms)[:, None]
            w_block = apply_batch(pmap, z_block)
            if p.mode == FIXED:
                alphas = np.full(b, p.fixed_alphas[i], dtype=np.complex128)
            else:
                mags = np.sqrt(rng.uniform(size=b))
                alphas = mags * np.exp(2j * np.pi * rng.uniform(size=b))
            res = np.linalg.norm(alphas[:, None] * w_block - tgt.center.coeffs, axis=1)
            j = int(np.argmin(res))
            if res[j] < best_res[i]:
                best_res[i] = float(res[j])
                best_alpha_found[i] = complex(alphas[j])
    return best_res, best_alpha_found, [best_res[i] < p.targets.balls[i].radius for i in range(k)]


def _random_operator(kind, window, rng):
    if kind in ("forward", "backward"):
        table = {int(j): float(rng.uniform(0.3, 3.0)) for j in rng.integers(window.lo, window.hi + 1, size=3)}
        profile = WeightProfile(float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0)), table)
        return (ForwardShift if kind == "forward" else BackwardShift)(profile)
    if kind == "diagonal":
        entries = rng.uniform(0.5, 1.5, window.dim) * np.exp(2j * np.pi * rng.uniform(size=window.dim))
        entries[rng.integers(window.dim)] = 0.0  # a dead column, and a row no column reaches
        return Diagonal(dict(zip(window.indices(), entries)))
    if kind == "scalar":
        return Scalar(complex(rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.uniform())))
    return Dense(rng.standard_normal((window.dim, window.dim)) + 1j * rng.standard_normal((window.dim, window.dim)))


def _random_ball(window, rng, radius_range, spread=1.0):
    coeffs = spread * (rng.standard_normal(window.dim) + 1j * rng.standard_normal(window.dim))
    return Ball(ComplexVector(window, coeffs), float(rng.uniform(*radius_range)))


# (kinds, n) on the window of dimension 7; n >= 7 leaves every shift column dead
SEARCH_GUARD_CASES = [
    (("forward",), 3),
    (("backward",), 2),
    (("forward",), 7),
    (("backward",), 9),
    (("diagonal",), 3),
    (("scalar",), 5),
    (("backward", "diagonal"), 2),
    (("forward", "scalar", "backward"), 4),
    (("diagonal", "forward", "backward"), 8),
    (("dense", "forward"), 2),
]


@pytest.mark.parametrize("mode", [FIXED, DISK])
@pytest.mark.parametrize(
    "case", range(len(SEARCH_GUARD_CASES)), ids=["-".join(k) + f"-n{n}" for k, n in SEARCH_GUARD_CASES]
)
def test_random_search_matches_reference_loop(case, mode):
    kinds, n = SEARCH_GUARD_CASES[case]
    rng = np.random.default_rng([case, mode == FIXED])
    w = IndexWindow(BILATERAL, 3)
    p = HitProblem(
        components=tuple(_random_operator(kind, w, rng) for kind in kinds),
        n=n,
        sources=ProductBall(tuple(_random_ball(w, rng, (0.2, 1.0)) for _ in kinds)),
        targets=ProductBall(tuple(_random_ball(w, rng, (0.5, 2.5), spread=0.5) for _ in kinds)),
        mode=mode,
        fixed_alphas=tuple(rng.uniform(0.2, 1.0) * np.exp(2j * np.pi * rng.uniform()) for _ in kinds)
        if mode == FIXED
        else None,
    )
    # two blocks, the second one short
    samples = hitsolver.SEARCH_BATCH + 5000
    seed = 1000 + case
    ref_res, ref_alphas, ref_hits = reference_search(p, samples, seed)
    got = random_search(p, samples, seed)
    assert got.best_alphas == tuple(ref_alphas)
    assert got.hits == tuple(ref_hits)
    for a, b in zip(got.best_residuals, ref_res):
        assert abs(a - b) <= 4 * np.spacing(max(a, b))
    if n >= w.dim and "forward" in kinds:
        # every shift column is dead: each residual is the target centre's norm
        i = kinds.index("forward")
        assert got.best_residuals[i] == pytest.approx(norm(p.targets.balls[i].center), rel=1e-15)


def _mixed_dimension_problem(mode):
    """A dense map on a window of dimension 4 and a backward shift on one of
    dimension 13, so the two components view the shared buffers differently."""
    rng = np.random.default_rng([77, mode == FIXED])
    small, large = IndexWindow(UNILATERAL, 3), IndexWindow(BILATERAL, 6)
    kinds, windows = ("dense", "backward"), (small, large)
    return HitProblem(
        components=tuple(_random_operator(kind, w, rng) for kind, w in zip(kinds, windows)),
        n=2,
        sources=ProductBall(tuple(_random_ball(w, rng, (0.2, 1.0)) for w in windows)),
        targets=ProductBall(tuple(_random_ball(w, rng, (0.5, 2.5), spread=0.5) for w in windows)),
        mode=mode,
        fixed_alphas=(0.6j, -0.8) if mode == FIXED else None,
    )


def _assert_matches_reference(got, ref):
    ref_res, ref_alphas, ref_hits = ref
    assert got.best_alphas == tuple(ref_alphas)
    assert got.hits == tuple(ref_hits)
    for a, b in zip(got.best_residuals, ref_res):
        assert abs(a - b) <= 4 * np.spacing(max(a, b))


@pytest.mark.parametrize("mode", [FIXED, DISK])
@pytest.mark.parametrize("samples", [hitsolver.SEARCH_BATCH // 3, 2 * hitsolver.SEARCH_BATCH + 5000])
def test_drawing_ahead_keeps_the_stream(samples, mode):
    """One short block, or three blocks per component so each buffer pair is
    filled more than once and the second component's first block is drawn
    while the first component's last block is scored: the reports match the
    serial reference loop, and a caller's generator ends in the same state.
    The second search runs with a short thread switch interval, so the two
    threads interleave as often as they can."""
    p = _mixed_dimension_problem(mode)
    _assert_matches_reference(random_search(p, samples, 2024), reference_search(p, samples, 2024))
    ours, theirs = np.random.default_rng(9), np.random.default_rng(9)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = random_search(p, samples, ours)
    finally:
        sys.setswitchinterval(interval)
    _assert_matches_reference(got, reference_search(p, samples, theirs))
    assert ours.bit_generator.state == theirs.bit_generator.state


def reference_columns(pmap, u, v):
    """The active mask and the passive groups' moduli and sizes that
    random_search draws for: a column is active where u is nonzero, or where
    it is live and v is nonzero at its target; the others are grouped by
    |c_j|.  A dense map has every column active."""
    if pmap.kind == "dense":
        return np.ones(u.size, dtype=bool), np.empty(0), np.empty(0, dtype=int)
    active = (u != 0) | ((pmap.coeffs != 0) & (v[pmap.tgt] != 0))
    moduli, sizes = np.unique(np.abs(pmap.coeffs[~active]), return_counts=True)
    return active, moduli, sizes


def grouped_reference_search(p, samples, seed):
    """reference_search drawing only what the residual reads: per block the
    real and imaginary normals of the active columns, 2 gamma(|G|) for each
    passive group G (the squared norm of its normals), the radius uniforms
    and the alphas.  Points are formed on the active columns and go through
    apply_batch; a group adds |alpha c_G|^2 s^2 S_G.  Residuals are taken in
    units of a power of two past the largest entry, so that powers such as
    2^1000 keep finite squares."""
    rng = np.random.default_rng(seed)
    k = len(p.components)
    best_res = [math.inf] * k
    best_alpha_found = [1.0 + 0j] * k
    for i, op in enumerate(p.components):
        src, tgt = p.sources.balls[i], p.targets.balls[i]
        d = src.center.window.dim
        pmap = power_map(op, p.n, src.center.window)
        unit = 2.0 ** math.frexp(float(np.max(np.abs(pmap.matrix if pmap.kind == "dense" else pmap.coeffs))))[1]
        pmap, v = pmap.scaled(1 / unit), tgt.center.coeffs / unit
        active, moduli, sizes = reference_columns(pmap, src.center.coeffs, v)
        left = samples
        while left > 0:
            b = min(hitsolver.SEARCH_BATCH, left)
            left -= b
            dirs = rng.standard_normal((b, active.sum())) + 1j * rng.standard_normal((b, active.sum()))
            group_sq = 2 * np.array([rng.standard_gamma(size, size=b) for size in sizes]).reshape(sizes.size, b)
            norms = np.sqrt(np.linalg.norm(dirs, axis=1) ** 2 + group_sq.sum(axis=0))
            radii = src.radius * rng.uniform(size=b) ** (1.0 / (2 * d)) * (1.0 - 1e-12)
            if p.mode == FIXED:
                alphas = np.full(b, p.fixed_alphas[i], dtype=np.complex128)
            else:
                mags = np.sqrt(rng.uniform(size=b))
                alphas = mags * np.exp(2j * np.pi * rng.uniform(size=b))
            s = radii / norms
            z_block = np.tile(src.center.coeffs, (b, 1))
            z_block[:, active] += dirs * s[:, None]
            w_block = apply_batch(pmap, z_block)
            sq = np.linalg.norm(alphas[:, None] * w_block - v, axis=1) ** 2
            sq += np.abs(alphas) ** 2 * s**2 * (moduli**2 @ group_sq)
            res = np.sqrt(sq) * unit
            j = int(np.argmin(res))
            if res[j] < best_res[i]:
                best_res[i] = float(res[j])
                best_alpha_found[i] = complex(alphas[j])
    return best_res, best_alpha_found, [best_res[i] < p.targets.balls[i].radius for i in range(k)]


def _sparse_operator(kind, window, rng):
    if kind == "diagonal":
        # two moduli under random phases, and a dead column
        moduli = rng.choice([0.7, 1.3], size=window.dim)
        entries = moduli * np.exp(2j * np.pi * rng.uniform(size=window.dim))
        entries[rng.integers(window.dim)] = 0.0
        return Diagonal(dict(zip(window.indices(), entries)))
    return _random_operator(kind, window, rng)


def _basis_ball(window, rng, radius_range):
    j = int(rng.integers(window.lo, window.hi + 1))
    phase = complex(np.exp(2j * np.pi * rng.uniform()))
    return Ball(ComplexVector.basis(window, j, phase), float(rng.uniform(*radius_range)))


def _sparse_problem(kinds, windows, n, mode, rng):
    """Basis-vector balls: most columns are passive, shift and diagonal
    weights repeat, so groups hold several columns, and n >= dim leaves a
    shift's columns dead."""
    return HitProblem(
        components=tuple(_sparse_operator(kind, w, rng) for kind, w in zip(kinds, windows)),
        n=n,
        sources=ProductBall(tuple(_basis_ball(w, rng, (0.2, 1.0)) for w in windows)),
        targets=ProductBall(tuple(_basis_ball(w, rng, (0.5, 2.5)) for w in windows)),
        mode=mode,
        fixed_alphas=tuple(rng.uniform(0.2, 1.0) * np.exp(2j * np.pi * rng.uniform()) for _ in kinds)
        if mode == FIXED
        else None,
    )


_SEVEN, _FOUR, _THIRTEEN = IndexWindow(BILATERAL, 3), IndexWindow(UNILATERAL, 3), IndexWindow(BILATERAL, 6)
# (kinds, windows, n): forward and backward shifts at several n, a diagonal,
# a scalar, and two components on windows of dimension 4 and 13
SPARSE_GUARD_CASES = [
    (("forward",), (_SEVEN,), 1),
    (("forward",), (_SEVEN,), 3),
    (("forward",), (_SEVEN,), 8),
    (("backward",), (_SEVEN,), 2),
    (("backward",), (_SEVEN,), 5),
    (("diagonal",), (_SEVEN,), 2),
    (("scalar",), (_SEVEN,), 3),
    (("forward", "backward"), (_FOUR, _THIRTEEN), 2),
    (("diagonal", "scalar"), (_THIRTEEN, _FOUR), 1),
]


@pytest.mark.parametrize("mode", [FIXED, DISK])
@pytest.mark.parametrize(
    "case",
    range(len(SPARSE_GUARD_CASES)),
    ids=["-".join(k) + f"-dims{'-'.join(str(w.dim) for w in ws)}-n{n}" for k, ws, n in SPARSE_GUARD_CASES],
)
def test_random_search_draws_grouped_marginals(case, mode):
    """On balls centred at basis vectors most columns are passive: the search
    draws the grouped stream of grouped_reference_search, over two blocks,
    the second one short, and leaves a caller's generator in the same state."""
    kinds, windows, n = SPARSE_GUARD_CASES[case]
    p = _sparse_problem(kinds, windows, n, mode, np.random.default_rng([case, mode == FIXED, 21]))
    groups = [
        reference_columns(power_map(op, n, src.center.window), src.center.coeffs, tgt.center.coeffs)[2].size
        for op, src, tgt in zip(p.components, p.sources.balls, p.targets.balls)
    ]
    assert min(groups) >= 1
    samples = hitsolver.SEARCH_BATCH + 5000
    _assert_matches_reference(random_search(p, samples, 300 + case), grouped_reference_search(p, samples, 300 + case))
    ours, theirs = np.random.default_rng(case), np.random.default_rng(case)
    _assert_matches_reference(random_search(p, samples, ours), grouped_reference_search(p, samples, theirs))
    assert ours.bit_generator.state == theirs.bit_generator.state


def _ks_statistic(a, b):
    """The two-sample Kolmogorov-Smirnov statistic: the largest gap between
    the empirical distribution functions of a and b."""
    a, b = np.sort(a), np.sort(b)
    at = np.concatenate([a, b])
    return float(np.max(np.abs(np.searchsorted(a, at, side="right") / a.size - np.searchsorted(b, at, side="right") / b.size)))


@pytest.mark.parametrize("mode", [FIXED, DISK])
def test_grouped_draws_keep_the_law_of_full_draws(mode):
    """The best residual of 40 samples on the (2, 3) shift from e0 to e2 at
    n = 2, where five of seven columns fall in passive groups: 2,000 runs of
    random_search and 2,000 full-draw reference runs on other seeds are one
    law by the two-sample KS test at level 0.01.  The seeds are fixed, so
    the test is deterministic."""
    w = IndexWindow(BILATERAL, 3)
    alphas = (0.8j,) if mode == FIXED else None
    balls = [ProductBall((Ball(ComplexVector.basis(w, j), 0.6),)) for j in (0, 2)]
    p = HitProblem((EXAMPLE_SHIFT,), 2, *balls, mode, alphas)
    runs, samples = 2000, 40
    ours = [random_search(p, samples, seed).best_residuals[0] for seed in range(runs)]
    theirs = [reference_search(p, samples, runs + seed)[0][0] for seed in range(runs)]
    critical = math.sqrt(-math.log(0.01 / 2) / 2) * math.sqrt(2 / runs)
    assert _ks_statistic(ours, theirs) < critical


class CountingDraws:
    """A generator that counts what is drawn from it."""

    def __init__(self, rng):
        self.rng, self.normals, self.gammas = rng, 0, []

    def standard_normal(self, out):
        self.normals += out.size
        return self.rng.standard_normal(out=out)

    def standard_gamma(self, shape, out):
        self.gammas.append((shape, out.size))
        return self.rng.standard_gamma(shape, out=out)

    def uniform(self, size):
        return self.rng.uniform(size=size)


@pytest.mark.parametrize("mode", [FIXED, DISK])
def test_passive_columns_cost_one_gamma_per_group(monkeypatch, mode):
    """e0 to e0 under the (2, 3) shift at n = 2 on m = 48 (dimension 97):
    the residual reads columns 0 and -2, so a sample takes four normals and
    one gamma for each passive modulus, never 2 * 97 normals."""
    w = IndexWindow(BILATERAL, 48)
    ball = ProductBall((Ball(ComplexVector.basis(w, 0), 0.5),))
    p = HitProblem((EXAMPLE_SHIFT,), 2, ball, ball, mode, (1.0,) if mode == FIXED else None)
    coeffs = power_map(EXAMPLE_SHIFT, 2, w).coeffs
    passive = np.delete(np.abs(coeffs), [48, 48 - 2])
    moduli = np.unique(passive)
    samples = hitsolver.SEARCH_BATCH + 5000
    counter = CountingDraws(np.random.default_rng(4))
    monkeypatch.setattr(hitsolver, "as_rng", lambda seed: counter)
    random_search(p, samples, seed=None)
    assert counter.normals == 2 * 2 * samples < 2 * w.dim * samples
    assert len(counter.gammas) == 2 * moduli.size
    assert [size for _, size in counter.gammas] == [hitsolver.SEARCH_BATCH] * moduli.size + [5000] * moduli.size
    assert [shape for shape, _ in counter.gammas] == 2 * [int(np.sum(passive == m)) for m in moduli]
    assert sum(shape for shape, _ in counter.gammas[: moduli.size]) == w.dim - 2


def test_random_search_needs_a_sample():
    p = unit_ball_problem()
    for samples in (0, -5, 2.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="samples must be at least 1"):
            random_search(p, samples, seed=1)
    assert random_search(p, 4.0, seed=1) == random_search(p, 4, seed=1)


class _Boom(Exception):
    pass


def test_failures_reach_the_caller_and_no_thread_outlives_the_search(monkeypatch):
    """A kernel that raises in the middle of the second block, and a normal
    or a gamma draw that raises on the helper thread, all surface in the
    caller, and every helper thread has been joined by then."""
    p = _mixed_dimension_problem(DISK)
    samples = 2 * hitsolver.SEARCH_BATCH
    threads = threading.active_count()
    kernel = hitsolver._squared_residuals
    calls = []

    def failing_kernel(pmap, v, alpha=None):
        inner = kernel(pmap, v, alpha)

        def score(x, y, alphas):
            calls.append(len(x))
            if len(calls) == 6:
                raise _Boom("kernel")
            return inner(x, y, alphas)

        return score

    monkeypatch.setattr(hitsolver, "_squared_residuals", failing_kernel)
    with pytest.raises(_Boom, match="kernel"):
        random_search(p, samples, seed=3)
    assert len(calls) == 6 and sum(calls[:-1]) > hitsolver.SEARCH_BATCH  # into the second block
    assert threading.active_count() == threads
    monkeypatch.undo()

    class FailingDraws:
        def __init__(self, rng, failing="draw"):
            self.rng, self.calls, self.failing = rng, 0, failing

        def standard_normal(self, out):
            self.calls += 1
            if self.calls == 3 and self.failing == "draw":  # the second block's real normals
                raise _Boom("draw")
            return self.rng.standard_normal(out=out)

        def standard_gamma(self, shape, out):
            if self.calls > 2 and self.failing == "gamma":  # a gamma of the second block
                raise _Boom("gamma")
            return self.rng.standard_gamma(shape, out=out)

        def uniform(self, size):
            return self.rng.uniform(size=size)

    monkeypatch.setattr(hitsolver, "as_rng", lambda seed: FailingDraws(np.random.default_rng(seed)))
    with pytest.raises(_Boom, match="draw"):
        random_search(p, samples, seed=3)
    assert threading.active_count() == threads
    # e0 to e0 leaves passive columns, so the second block draws gammas
    # after its normals
    monkeypatch.setattr(hitsolver, "as_rng", lambda seed: FailingDraws(np.random.default_rng(seed), "gamma"))
    with pytest.raises(_Boom, match="gamma"):
        random_search(unit_ball_problem(), samples, seed=3)
    assert threading.active_count() == threads


def test_overflowing_scalar_powers_are_named_errors_in_the_oracle():
    """Scalar(2.0) at n = 1100 is decided by the exact route, but the oracle
    and the witness check, which form 2^1100, refuse it with an OperatorError;
    at n = 600 and 1000 the power is finite and the oracle runs, and its best
    residual, whose square passes the float range, stays finite, no smaller
    than the exact route's lower bound, and equal to that of the grouped
    reference loop on the same draws."""
    w = IndexWindow(BILATERAL, 4)
    e0, e1 = ComplexVector.basis(w, 0), ComplexVector.basis(w, 1)

    def problem(n, mode=DISK, op=Scalar(2.0)):
        alphas = (1.0,) if mode == FIXED else None
        return HitProblem((op,), n, ProductBall((Ball(e0, 0.45),)), ProductBall((Ball(e1, 0.45),)), mode, alphas)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = problem(1100)
        assert solve_hit(p).status == MISS_CERTIFIED
        with pytest.raises(OperatorError, match="overflows"):
            random_search(p, 100, seed=1)
        witness = Witness(1100, (1.0,), ProductVector((e0,)), (1.0,))
        with pytest.raises(OperatorError, match="overflows"):
            reverify_witness(p, witness)
        assert random_search(problem(1000), 100, seed=1).hits == (False,)
        for n in (600, 1000):
            for mode in (DISK, FIXED):
                p = problem(n, mode)
                (res,) = random_search(p, 100, seed=1).best_residuals
                lb = solve_hit(p).lower_bound
                assert math.isfinite(res) and res >= lb * (1 - 1e-12) - 1e-12
                # the same draws, scored through apply_batch in units of 2^(n+1)
                assert grouped_reference_search(p, 100, 1)[0] == pytest.approx([res], rel=1e-12)


@pytest.mark.filterwarnings("error")
def test_overflowing_dense_powers_are_named_errors():
    """(2 I)^1100 passes the float range in the matrix product: the map, the
    solve and the oracle refuse it with an OperatorError."""
    w = IndexWindow(BILATERAL, 4)
    op = Dense(2.0 * np.eye(w.dim))
    balls = [ProductBall((Ball(ComplexVector.basis(w, j), 0.45),)) for j in (0, 1)]
    p = HitProblem((op,), 1100, *balls)
    with pytest.raises(OperatorError, match="power_map overflows a float at power 1100"):
        power_map(op, 1100, w)
    with pytest.raises(OperatorError, match="overflows"):
        solve_hit(p)
    with pytest.raises(OperatorError, match="overflows"):
        random_search(p, 100, seed=1)


@pytest.mark.filterwarnings("error")
def test_trust_region_squares_past_the_float_range_are_named_errors():
    """The trust-region solve works in squares: e_-420 to e_(-420+n) under
    the (2, 3) shift scales by 3^n, finite at n = 330 and 400 but with a
    square past the float range, so those solves are OperatorErrors; at
    n = 300 the square still fits and the solve hits."""
    w = IndexWindow(BILATERAL, 500)

    def problem(n):
        balls = [ProductBall((Ball(ComplexVector.basis(w, j), 0.5),)) for j in (-420, -420 + n)]
        return HitProblem((EXAMPLE_SHIFT,), n, *balls)

    assert solve_hit(problem(300)).status == HIT
    for n in (330, 400):
        with pytest.raises(OperatorError, match=f"overflows a float at power {n}"):
            solve_hit(problem(n))


def test_problem_validation():
    w = IndexWindow(BILATERAL, 4)
    e0 = ComplexVector.basis(w, 0)
    balls = ProductBall((Ball(e0, 0.5),))
    with pytest.raises(ValueError):
        HitProblem(components=(EXAMPLE_SHIFT, Scalar(1.0)), n=1, sources=balls, targets=balls)
    for n in (-1, 2.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="nonnegative integer"):
            HitProblem(components=(EXAMPLE_SHIFT,), n=n, sources=balls, targets=balls)
    with pytest.raises(ValueError):
        HitProblem(components=(EXAMPLE_SHIFT,), n=1, sources=balls, targets=balls, mode=FIXED)
    with pytest.raises(ValueError):
        HitProblem(
            components=(EXAMPLE_SHIFT,),
            n=1,
            sources=balls,
            targets=balls,
            mode=FIXED,
            fixed_alphas=(0.0,),
        )
    # NaN fails every comparison, so the modulus bound must be written as one it passes
    for alpha in (math.nan, complex(math.nan, 0.5), 1.5):
        with pytest.raises(ValueError, match="nonzero with modulus <= 1"):
            HitProblem((EXAMPLE_SHIFT,), 1, balls, balls, FIXED, (alpha,))


def test_float_power_solves_as_its_integer():
    """A whole float power passes validation and is kept as an int, so a
    shift, a dense map and a direct sum with a scalar solve at n = 2.0
    exactly as at n = 2."""
    w = IndexWindow(BILATERAL, 4)
    rng = np.random.default_rng(3)
    dense = Dense(0.5 * (rng.standard_normal((w.dim, w.dim)) + 1j * rng.standard_normal((w.dim, w.dim))))
    for comps in ((EXAMPLE_SHIFT,), (dense,), (EXAMPLE_SHIFT, Scalar(0.9j))):
        sample = make_ball_sampler(w, len(comps), band=1)
        sources, targets = sample(rng), sample(rng)
        results = []
        for n in (2, 2.0):
            p = HitProblem(comps, n, sources, targets)
            assert type(p.n) is int
            got = solve_hit(p)
            point = None if got.witness is None else [part.coeffs.tobytes() for part in got.witness.point.parts]
            results.append(repr((got, point)))
        assert results[0] == results[1]


def test_witness_points_are_strictly_feasible():
    for n in (3, 5, 8, 12):
        p = unit_ball_problem(n=n)
        res = solve_hit(p)
        if res.status == HIT:
            z = res.witness.point.parts[0]
            assert norm(z - p.sources.balls[0].center) < p.sources.balls[0].radius


def test_solver_matches_sampled_ball_instances():
    w = IndexWindow(BILATERAL, 10)
    rng_seeds = range(6)
    for seed in rng_seeds:
        src = Ball(sample_ball(Ball(ComplexVector.basis(w, 0), 0.4), seed=seed), 0.45)
        tgt = Ball(sample_ball(Ball(ComplexVector.basis(w, 1), 0.4), seed=100 + seed), 0.45)
        p = HitProblem(
            components=(EXAMPLE_SHIFT,),
            n=4,
            sources=ProductBall((src,)),
            targets=ProductBall((tgt,)),
        )
        res = solve_hit(p)
        search = random_search(p, samples=4000, seed=seed)
        if search.hits[0]:
            assert res.status == HIT
        if res.status == MISS_UNCERTAIN:
            assert res.best_residuals[0] <= search.best_residuals[0] + 1e-9
