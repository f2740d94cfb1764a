import collections
import math
import re

import numpy as np
import pytest

from disklab import hitsolver, operators, transitivity
from disklab.hitsolver import DISK, FIXED, HIT, MISS_CERTIFIED, MISS_UNCERTAIN, HitProblem, solve_hit
from disklab.operators import (
    BackwardShift,
    Dense,
    Diagonal,
    DirectSum,
    ForwardShift,
    OperatorError,
    PowerStack,
    Scalar,
    WeightProfile,
    WindowGuardError,
    right_inverse,
    shared_stacks,
    stack_of,
)
from disklab.transitivity import (
    COMPOUND,
    CONFIRMED,
    DISK_TRANSITIVE,
    K_BITRANSITIVE,
    MIXING,
    REFUTED,
    cross_scan,
    detect,
    disk_orbit_norms,
    junction_scan,
    junction_scans,
    make_ball_sampler,
)
from disklab.vectorspace import (
    BILATERAL,
    UNILATERAL,
    Ball,
    ComplexVector,
    IndexWindow,
    ProductBall,
    as_rng,
    norm,
    sample_finite_support,
)

SHIFT_23 = ForwardShift(WeightProfile(2.0, 3.0))
SHIFT_24 = ForwardShift(WeightProfile(2.0, 4.0))


def unit_balls(window_m=16, radius=0.5, arity=1):
    w = IndexWindow(BILATERAL, window_m)
    e0 = ComplexVector.basis(w, 0)
    return ProductBall((Ball(e0, radius),) * arity)


def test_junction_scan_tail_and_scalars():
    balls = unit_balls()
    rep = junction_scan((SHIFT_23,), balls, balls, horizon=12)
    assert rep.tail_start == 3
    assert 1 not in rep.hit_set and 2 not in rep.hit_set
    for n in range(3, 13):
        e = rep.entry(n)
        assert e.status == HIT
        assert abs(e.alphas[0]) == pytest.approx(6.0 ** (-n / 2), rel=1e-8)


def test_junction_scan_records_power_zero_without_counting_it():
    balls = unit_balls()
    rep = junction_scan((SHIFT_23,), balls, balls, horizon=4)
    assert rep.entries[0].n == 0
    assert rep.entries[0].status == HIT  # identity maps the ball onto itself
    assert 0 not in rep.hit_set


def test_junction_scan_fixed_unit_certifies_cofinite_misses():
    balls = unit_balls()
    rep = junction_scan((SHIFT_23,), balls, balls, horizon=12, mode=FIXED, fixed_alphas=(1.0,))
    for n in range(2, 13):
        assert rep.entry(n).status == MISS_CERTIFIED
    assert rep.entry(1).status == MISS_UNCERTAIN
    assert rep.tail_start is None
    for e in rep.entries:
        assert (e.certificate is not None) == (e.status == MISS_CERTIFIED)


def test_a_shift_scan_forms_each_stack_in_one_chunk(monkeypatch):
    """A scan of the (2, 3) shift on m = 64 to horizon 40 reads every power of
    T and of its right inverse S from one chunk per stack, and forms no shift
    power alone (formed one at a time, it took 80).  The growth bounds of T
    it reads come from the run products that form T's powers: one
    _RunProducts and one rows pass per stack, 2 in all, where a separate
    growth sequence for T made 3."""
    alone, chunks, built, passes = [], [], [], []
    form, fill = PowerStack._form, PowerStack._fill
    init, rows = operators._RunProducts.__init__, operators._RunProducts.rows

    def counted_form(stack, n):
        if isinstance(stack.op, (ForwardShift, BackwardShift)):
            alone.append(n)
        return form(stack, n)

    monkeypatch.setattr(PowerStack, "_form", counted_form)
    monkeypatch.setattr(PowerStack, "_fill", lambda stack, n: chunks.append(type(stack.op)) or fill(stack, n))
    monkeypatch.setattr(operators._RunProducts, "__init__", lambda runs, *args: built.append(args) or init(runs, *args))
    monkeypatch.setattr(operators._RunProducts, "rows", lambda runs, *span: passes.append(span) or rows(runs, *span))
    balls = unit_balls(64)
    junction_scan((SHIFT_23,), balls, balls, horizon=40)
    assert alone == []
    assert sorted(t.__name__ for t in chunks) == ["BackwardShift", "ForwardShift"]
    assert len(built) == len(passes) == 2


def unshared(op, window, horizon):
    """stack_of as it acts outside any scope: a new stack on every call."""
    return PowerStack(op, window, horizon)


def test_a_detect_run_forms_each_stack_in_one_chunk(monkeypatch):
    """A 5-trial detect on the (2, 3) shift at m = 64 shares its stacks of T
    and S across the trials' scans: one chunk each, 2 _fill calls, where a
    stack per scan takes 10."""
    chunks = []
    fill = PowerStack._fill
    monkeypatch.setattr(PowerStack, "_fill", lambda stack, n: chunks.append(type(stack.op)) or fill(stack, n))
    sampler = make_ball_sampler(IndexWindow(BILATERAL, 64), arity=1, band=1)
    detect(COMPOUND, (SHIFT_23,), sampler, trials=5, horizon=40)
    assert sorted(t.__name__ for t in chunks) == ["BackwardShift", "ForwardShift"]
    chunks.clear()
    monkeypatch.setattr(hitsolver, "stack_of", unshared)
    detect(COMPOUND, (SHIFT_23,), sampler, trials=5, horizon=40)
    assert len(chunks) == 10


def test_shared_stacks_leave_every_result_as_it_is(monkeypatch):
    """detect and junction_scan give the same results, bit for bit, with
    their stacks shared in one scope and with a stack per scan.  In the
    scope the stacks of T and S are first formed from powers 5 and 7, so
    the scans read their powers from two chunks."""
    w = IndexWindow(BILATERAL, 64)
    sampler = make_ball_sampler(w, arity=1, band=1)

    def runs():
        scans = [
            junction_scan((SHIFT_23,), sampler(seed), sampler(seed + 10), 40, *mode)
            for seed in range(3)
            for mode in ((), (FIXED, (1.0,)))
        ]
        verdicts = [detect(kind, (SHIFT_23,), sampler, trials=3, horizon=40, seed=1) for kind in (COMPOUND, MIXING)]
        return repr(scans), repr(verdicts)

    with monkeypatch.context() as m:
        m.setattr(hitsolver, "stack_of", unshared)
        alone = runs()
    with shared_stacks():
        stack_of(SHIFT_23, w, 40).power_map(5)
        stack_of(right_inverse(SHIFT_23), w, 40).power_map(7)
        assert runs() == alone


def test_junction_scan_guard_fires_on_small_windows():
    balls = unit_balls(window_m=4)
    with pytest.raises(WindowGuardError):
        junction_scan((SHIFT_23,), balls, balls, horizon=10)
    with pytest.raises(WindowGuardError):
        cross_scan((SHIFT_23,), balls, balls, horizon=10)


def test_cross_scan_junction_is_the_intersection():
    w = IndexWindow(BILATERAL, 20)
    a = ProductBall((Ball(ComplexVector.basis(w, 0), 0.5),))
    b = ProductBall((Ball(ComplexVector.basis(w, 1) * 0.8, 0.5),))
    rep = cross_scan((SHIFT_23,), a, b, horizon=14)
    assert rep.junction == rep.forward & rep.backward
    assert rep.junction  # both directions eventually hit for this pair


def test_detect_compound_confirmed():
    w = IndexWindow(BILATERAL, 64)
    sampler = make_ball_sampler(w, arity=1, radius=0.45, band=1)
    v = detect(COMPOUND, (SHIFT_23,), sampler, trials=4, horizon=30, seed=3)
    assert v.verdict == CONFIRMED
    assert all(r.tail_start is not None and r.tail_start <= 15 for r in v.trials)


def test_detect_mixing_refuted_with_certificate():
    w = IndexWindow(BILATERAL, 64)
    sampler = make_ball_sampler(w, arity=1, radius=0.45, band=1)
    v = detect(MIXING, (SHIFT_23,), sampler, trials=4, horizon=30, seed=3)
    assert v.verdict == REFUTED
    assert v.refuting_trial is not None
    assert v.trials[v.refuting_trial].certified_tail_from is not None


def test_detect_mixing_confirmed_for_unilateral_backward_shift():
    op = BackwardShift(WeightProfile(2.0, 2.0))
    w = IndexWindow(UNILATERAL, 48)
    sampler = make_ball_sampler(w, arity=1, radius=0.45, band=4)
    v = detect(MIXING, (op,), sampler, trials=4, horizon=20, seed=7)
    assert v.verdict == CONFIRMED


def test_detect_disk_transitive_refuted_for_strict_contraction():
    w = IndexWindow(BILATERAL, 8)
    sampler = make_ball_sampler(w, arity=1, radius=0.2, support=1, modulus_lo=1.0)
    v = detect(DISK_TRANSITIVE, (Scalar(0.5),), sampler, trials=3, horizon=10, seed=1)
    assert v.verdict == REFUTED


def test_detect_refutes_identity_scalar():
    # alpha I with |alpha| <= 1 is never disk-transitive, and the exact scalar
    # bound is the same at every power, so each trial is certified throughout
    w = IndexWindow(BILATERAL, 8)
    sampler = make_ball_sampler(w, arity=1, radius=0.45, band=2)
    v = detect(DISK_TRANSITIVE, (Scalar(1.0),), sampler, trials=3, horizon=8, seed=2)
    assert v.verdict == REFUTED
    assert all(r.certified_all for r in v.trials)


def test_detect_bitransitive_pair_of_shifts():
    w = IndexWindow(BILATERAL, 64)
    sampler = make_ball_sampler(w, arity=2, radius=0.45, band=1)
    v = detect(
        K_BITRANSITIVE,
        (DirectSum((SHIFT_23, SHIFT_24)),),
        sampler,
        trials=3,
        horizon=40,
        seed=5,
    )
    assert v.verdict == CONFIRMED


def test_detect_is_deterministic():
    w = IndexWindow(BILATERAL, 32)
    sampler = make_ball_sampler(w, arity=1, radius=0.45, band=1)
    a = detect(COMPOUND, (SHIFT_23,), sampler, trials=3, horizon=16, seed=9)
    b = detect(COMPOUND, (SHIFT_23,), sampler, trials=3, horizon=16, seed=9)
    assert a == b


def test_detect_rejects_unknown_kind():
    w = IndexWindow(BILATERAL, 8)
    sampler = make_ball_sampler(w, arity=1)
    with pytest.raises(ValueError):
        detect("chaotic", (SHIFT_23,), sampler, trials=1, horizon=4)


@pytest.mark.parametrize(
    "trials, horizon", [(0, 10), (-1, 10), (2, 0), (2.5, 10), (2, 2.5), (2, math.inf), (math.nan, 10)]
)
def test_detect_needs_a_trial_and_a_power(trials, horizon):
    # all() over no trials is true, so an empty sample confirmed this contraction
    sampler = make_ball_sampler(IndexWindow(BILATERAL, 8), arity=1, band=2)
    with pytest.raises(ValueError, match="trials and horizon must be at least 1"):
        detect(DISK_TRANSITIVE, (Scalar(0.5),), sampler, trials=trials, horizon=horizon)


@pytest.mark.parametrize("horizon", [0, -1, 2.5, math.inf, math.nan])
def test_junction_scan_needs_a_whole_horizon(horizon):
    balls = unit_balls()
    with pytest.raises(ValueError, match="horizon must be at least 1"):
        junction_scan((SHIFT_23,), balls, balls, horizon)


def test_integral_float_counts_scan_as_ints():
    balls = unit_balls()
    assert junction_scan((SHIFT_23,), balls, balls, 6.0) == junction_scan((SHIFT_23,), balls, balls, 6)
    sampler = make_ball_sampler(IndexWindow(BILATERAL, 16), arity=1, band=1)
    assert detect(COMPOUND, (SHIFT_23,), sampler, 2.0, 8.0) == detect(COMPOUND, (SHIFT_23,), sampler, 2, 8)


def test_junction_scan_checks_ball_arity_before_the_window_guard():
    """Two components and one source ball is the ValueError HitProblem gives,
    not an IndexError from the guard reading the missing ball."""
    one, two = unit_balls(), unit_balls(arity=2)
    for sources, targets in ((one, two), (two, one)):
        with pytest.raises(ValueError, match="ball arity does not match the number of components"):
            junction_scan((SHIFT_23, SHIFT_24), sources, targets, 3)


def test_make_ball_sampler_draws_as_the_per_ball_loop_did():
    w = IndexWindow(BILATERAL, 16)
    sampler = make_ball_sampler(w, arity=3, radius=0.3, support=2, band=4)
    for seed in range(5):
        rng = as_rng(seed)
        centers = [sample_finite_support(w, 2, 1.0, rng, 4, 0.5) for _ in range(3)]
        assert sampler(seed) == ProductBall(tuple(Ball(c, 0.3) for c in centers))


def test_make_ball_sampler_moduli_and_determinism():
    w = IndexWindow(BILATERAL, 16)
    sampler = make_ball_sampler(w, arity=2, radius=0.3, band=1)
    pb1 = sampler(123)
    pb2 = sampler(123)
    assert pb1 == pb2
    assert pb1.arity == 2
    for ball in pb1.balls:
        assert ball.radius == 0.3
        mags = np.abs(ball.center.coeffs[ball.center.coeffs != 0])
        assert np.all(mags >= 0.5) and np.all(mags <= 1.0)
        lo, hi = ball.center.support_bounds()
        assert -1 <= lo and hi <= 1


def test_disk_orbit_norms_frozen():
    w = IndexWindow(BILATERAL, 12)
    x = ComplexVector.basis(w, 0)
    norms = disk_orbit_norms(SHIFT_23, x, 6)
    assert list(norms) == [1, 2, 4, 8, 16, 32, 64]


def test_disk_orbit_norms_refuse_a_negative_horizon():
    x = ComplexVector.basis(IndexWindow(BILATERAL, 12), 0)
    assert list(disk_orbit_norms(SHIFT_23, x, 0)) == [1]
    for horizon in (-3, 2.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="horizon must be at least 0"):
            disk_orbit_norms(SHIFT_23, x, horizon)
    assert list(disk_orbit_norms(SHIFT_23, x, 3.0)) == [1, 2, 4, 8]


def test_disk_orbit_norms_name_the_power_that_overflows():
    # 3^n passes the float range squared from n = 324
    x = ComplexVector.basis(IndexWindow(BILATERAL, 400), -390)
    with pytest.raises(OperatorError, match="disk_orbit_norms overflows a float at power 324: "):
        disk_orbit_norms(SHIFT_23, x, 330)


def _random_component(rng, window):
    kind = rng.integers(0, 5)
    if kind < 2:
        table = {int(j): float(rng.uniform(0.3, 3.0)) for j in rng.integers(-4, 5, 3)}
        profile = WeightProfile(*rng.uniform(0.3, 3.0, 2), table)
        return (ForwardShift if kind == 0 else BackwardShift)(profile)
    if kind == 2:
        return Diagonal({j: complex(rng.uniform(0.3, 1.8) * np.exp(2j * np.pi * rng.uniform())) for j in window.indices().tolist()})
    if kind == 3:
        d = window.dim
        return Dense((rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(d))
    return Scalar(complex(rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.uniform())))


def _result_bytes(res):
    """A HitResult's status, scalars, residuals, certificate and witness
    point, bit for bit (repr is exact for floats, and tells -0.0 from 0.0)."""
    w = res.witness
    point = None if w is None else (w.n, w.alphas, w.residuals, [p.coeffs.tobytes() for p in w.point.parts])
    return repr((res.status, res.certificate, res.best_residuals, res.best_alphas, res.max_kkt_residual, point))


def test_scan_results_equal_single_power_solves(monkeypatch):
    """A scan shares its stacks and one batch of criterion pins across its
    powers; every power's result must still be the one solve_hit gives that
    problem alone, bit for bit, and the scan must still call solve_hit once
    per power.  Random direct sums of shifts, diagonals, dense maps and
    scalars, the same shift object twice among them, on both lattices, in
    disk and fixed mode."""
    rng = np.random.default_rng(20)
    results = []
    monkeypatch.setattr(transitivity, "solve_hit", lambda p: results.append((p, solve_hit(p))) or results[-1][1])
    statuses = set()
    horizon = 6
    for trial in range(24):
        window = IndexWindow((BILATERAL, UNILATERAL)[trial % 2], 12)
        comps = [_random_component(rng, window) for _ in range(rng.integers(1, 4))]
        if trial % 6 == 0:
            shift = ForwardShift(WeightProfile(2.0, 3.0))
            comps = [shift, shift, *comps[:1]]
        mode = (DISK, FIXED)[trial // 2 % 2]
        alphas = tuple(complex(rng.uniform(0.2, 1.0) * np.exp(2j * np.pi * rng.uniform())) for _ in comps) if mode == FIXED else None
        sampler = make_ball_sampler(window, len(comps), radius=float(rng.uniform(0.3, 0.6)), band=2)
        sources, targets = sampler(rng), sampler(rng)
        results.clear()
        report = junction_scan((DirectSum(tuple(comps)),), sources, targets, horizon, mode, alphas)
        assert [p.n for p, _ in results] == list(range(horizon + 1))
        for (p, got), entry in zip(results, report.entries):
            alone = solve_hit(HitProblem(tuple(comps), p.n, sources, targets, mode, alphas))
            assert _result_bytes(got) == _result_bytes(alone)
            assert entry.status == alone.status
            statuses.add(alone.status)
    assert statuses == {HIT, MISS_CERTIFIED, MISS_UNCERTAIN}
    # a pin of one power on a centre of one index: numpy's complex product of
    # a one-row, one-column array by a broadcast centre rounds differently
    # from the same product spread to full shape, so a lone problem's pin
    # must spread its centre as the scan's batch of powers does
    window = IndexWindow(BILATERAL, 12)
    for trial in range(8):
        phase = np.exp(2j * np.pi * rng.uniform())
        op = Scalar(complex(rng.uniform(0.5, 1.5) * phase)) if trial % 2 else Diagonal({}, complex(1.2 * phase))
        sampler = make_ball_sampler(window, 1, support=1, radius=float(rng.uniform(0.3, 0.6)), band=2)
        sources, targets = sampler(rng), sampler(rng)
        assert all(np.count_nonzero(b.center.coeffs) == 1 and b.center.coeffs.imag.any() for b in sources.balls)
        results.clear()
        junction_scan((op,), sources, targets, horizon)
        for p, got in results:
            assert _result_bytes(got) == _result_bytes(solve_hit(HitProblem((op,), p.n, sources, targets)))


def _recorded_solves(monkeypatch):
    """The (problem, outcome) of every solve_hit call the scans make, in
    order: the result's bytes (_result_bytes) or a refusal's message."""
    solves = []

    def recorded(p):
        try:
            res = solve_hit(p)
        except OperatorError as err:
            solves.append((p, str(err)))
            raise
        solves.append((p, _result_bytes(res)))
        return res

    monkeypatch.setattr(transitivity, "solve_hit", recorded)
    return solves


def _alone(p):
    """The outcome of p's problem solved alone, outside any scan."""
    try:
        return _result_bytes(solve_hit(HitProblem(p.components, p.n, p.sources, p.targets, p.mode, p.fixed_alphas)))
    except OperatorError as err:
        return str(err)


def test_staged_scans_equal_problems_solved_alone(monkeypatch):
    """junction_scans, detect, cross_scan and junction_scan stage the
    trust-region solves of all their scans together; every problem still
    gets the result solve_hit gives it alone, bit for bit, through one
    solve_hit call per power, scan by scan.  The corpus mixes disk and
    fixed mode, 1-3 components of shifts, diagonals, scalars and dense
    maps, and balls of two radii, so the rows of one width split by radius."""
    rng = np.random.default_rng(30)
    solves = _recorded_solves(monkeypatch)
    statuses, horizon = set(), 6

    def scan(k, radius, lattice):
        window = IndexWindow(lattice, 12)
        comps = [_random_component(rng, window) for _ in range(k)]
        sampler = make_ball_sampler(window, k, radius=radius, band=2)
        return comps, sampler(rng), sampler(rng)

    def check(scans):
        assert [(p.sources, p.n) for p, _ in solves] == [(s[1], n) for s in scans for n in range(horizon + 1)]
        for p, got in solves:
            assert got == _alone(p)
            statuses.add(got.split("'")[1])
        solves.clear()

    lattices = (BILATERAL, UNILATERAL)
    disk = [scan(s % 3 + 1, (0.35, 0.55)[s // 3 % 2], lattices[s % 2]) for s in range(12)]
    disk[0] = ([Dense(np.diag(rng.uniform(0.5, 1.5, 25)) + 0.1 * rng.standard_normal((25, 25)))], *disk[0][1:])
    assert any(isinstance(op, Dense) for comps, _, _ in disk for op in comps)
    reports = junction_scans(disk, horizon)
    check(disk)
    for report, (comps, sources, targets) in zip(reports, disk):
        assert repr(report) == repr(junction_scan(comps, sources, targets, horizon))
    solves.clear()
    fixed = [scan(2, (0.35, 0.55)[s % 2], lattices[s // 2 % 2]) for s in range(6)]
    alphas = tuple(complex(rng.uniform(0.2, 1.0) * np.exp(2j * np.pi * rng.uniform())) for _ in range(2))
    junction_scans(fixed, horizon, FIXED, alphas)
    check(fixed)

    window = IndexWindow(BILATERAL, 12)
    comps = [_random_component(rng, window) for _ in range(2)]
    sampler = make_ball_sampler(window, 2, radius=0.45, band=2)
    a, b = sampler(rng), sampler(rng)
    rep = cross_scan(comps, a, b, horizon)
    check([(comps, a, b), (comps, b, a)])
    assert rep.junction == rep.forward & rep.backward
    for kind in (DISK_TRANSITIVE, K_BITRANSITIVE, COMPOUND, MIXING):
        detect(kind, comps, sampler, trials=4, horizon=horizon, seed=3)
        draws = transitivity.trial_draws(3, 4, (sampler, sampler))
        check([(comps, sources, targets) for sources, targets in draws])
    assert statuses >= {HIT, MISS_CERTIFIED, MISS_UNCERTAIN}


def test_a_staged_batch_past_the_float_range_leaves_each_solve_as_alone(monkeypatch):
    """Shift weights of 1e15 to 1e25 take rows of a staged batch past the
    float range at powers 3 and 4, in batches that also hold rows of solves
    that end before any such row.  A scan then gets what solving its powers
    one by one gets: each power before the first refused one has the
    result it has alone, bit for bit, and the scan is refused at the power
    a lone solve refuses, with the same message."""
    rng = np.random.default_rng(7)
    w = IndexWindow(BILATERAL, 4)
    solves = _recorded_solves(monkeypatch)
    failed, solve_group = [], hitsolver._solve_group

    def recorded(sets):
        try:
            return solve_group(sets)
        except ArithmeticError:
            failed.append(sum(len(rows.c) for rows in sets))
            raise

    monkeypatch.setattr(hitsolver, "_solve_group", recorded)
    outcomes = set()
    for _ in range(40):
        op = ForwardShift(WeightProfile(1.0, 1.0, {j: float(10.0 ** rng.uniform(15, 25)) for j in w.indices().tolist()}))
        u = ComplexVector.from_coeffs(w, {j: complex(*rng.standard_normal(2)) * 10.0 ** rng.uniform(-6, 0) for j in (-4, -3, -2)})
        v = ComplexVector.from_coeffs(w, {j: complex(*rng.standard_normal(2)) * 10.0 ** rng.uniform(-3, 0) for j in range(0, 5)})
        src, tgt = Ball(u, norm(u) * float(rng.uniform(0.05, 0.8))), Ball(v, norm(v) * float(rng.uniform(0.1, 1.0)))
        del failed[:], solves[:]
        try:
            junction_scans([((op,), ProductBall((src,)), ProductBall((tgt,)))], 4)
            refused = False
        except OperatorError:
            refused = True
        assert [p.n for p, _ in solves] == list(range(len(solves)))
        for p, got in solves:
            assert got == _alone(p)
        assert refused == ("overflows" in solves[-1][1])
        if failed:
            outcomes.add("refused" if refused else "solved past a failed batch")
    assert outcomes == {"refused", "solved past a failed batch"}


def _counted_routes(monkeypatch):
    """How many times a component route starts, by (component, power)."""
    starts = collections.Counter()
    route = hitsolver._component_route
    monkeypatch.setattr(hitsolver, "_component_route", lambda comp, n: starts.update([(comp, n)]) or route(comp, n))
    return starts


def test_each_route_starts_once_beside_a_group_past_the_float_range(monkeypatch):
    """Three shifts scanned between one pair of balls, so that their
    disk-grid rows at a power share one (radius, width) group: at power 4
    the rows of the shift with weights 1e20 leave the float range in a
    group that holds another shift's rows.  That group is solved again one
    set at a time, so every component route starts once; the other scans
    get the results they get alone, and the last scan is refused at power
    4, as alone."""
    starts = _counted_routes(monkeypatch)
    solves = _recorded_solves(monkeypatch)
    failed, solve_group = [], hitsolver._solve_group

    def recorded(sets):
        try:
            return solve_group(sets)
        except ArithmeticError:
            failed.append(len(sets))
            raise

    monkeypatch.setattr(hitsolver, "_solve_group", recorded)
    w = IndexWindow(BILATERAL, 4)
    u = ComplexVector.from_coeffs(w, {-4: 1e-3, -3: 0.5j, -2: 1.0})
    v = ComplexVector.from_coeffs(w, {0: 0.3, 1: 0.2j, 2: 1.0, 3: 0.4, 4: 0.1j})
    balls = ProductBall((Ball(u, 0.3 * norm(u)),)), ProductBall((Ball(v, 0.2 * norm(v)),))
    profiles = (WeightProfile(1.0, 1.0), WeightProfile(2.0, 1.5), WeightProfile(1.0, 1.0, dict.fromkeys(w.indices().tolist(), 1e20)))
    with pytest.raises(OperatorError) as refused:
        junction_scans([((ForwardShift(profile),), *balls) for profile in profiles], 4)
    assert max(failed) > 1
    assert set(starts.values()) == {1}
    assert str(refused.value) == "solve_hit overflows a float at power 4: overflow encountered in square"
    assert [p.n for p, _ in solves] == [0, 1, 2, 3, 4] * 3
    assert solves[-1][1] == str(refused.value)
    for p, got in solves:
        assert got == _alone(p)


def test_a_route_error_reaches_the_caller_at_its_power(monkeypatch):
    """A route that raises any error keeps it for its power: a TypeError
    from best_alpha, raised on the second of three scans' target, reaches
    the caller from solve_hit at the first power of that scan whose route
    refits a scalar, after every power of the first scan, and that route
    started once."""
    sampler = make_ball_sampler(IndexWindow(BILATERAL, 12), arity=1, band=2)
    rng = np.random.default_rng(31)
    scans = [((SHIFT_23,), sampler(rng), sampler(rng)) for _ in range(3)]
    bad = scans[1][2].balls[0].center
    fit = hitsolver.best_alpha

    def best_alpha(w, v):
        if v is bad:
            raise TypeError("refit on the bad target")
        return fit(w, v)

    monkeypatch.setattr(hitsolver, "best_alpha", best_alpha)
    starts = _counted_routes(monkeypatch)
    calls = []
    monkeypatch.setattr(transitivity, "solve_hit", lambda p: calls.append((p.targets, p.n)) or solve_hit(p))
    with pytest.raises(TypeError, match="refit on the bad target"):
        junction_scans(scans, 6)
    power = calls[-1][1]
    assert power >= 1
    assert calls == [(scans[0][2], n) for n in range(7)] + [(scans[1][2], n) for n in range(power + 1)]
    assert (bad, power) in [(comp.tgt.center, n) for comp, n in starts]
    assert set(starts.values()) == {1}


def test_a_detect_run_makes_a_few_kernel_calls_per_round(monkeypatch):
    """A 20-trial detect(COMPOUND) of the (2, 3) shift at m = 64 stages the
    solves of all its scans: each round of trust-region solves is one
    _active_lsq call per (radius, width), a few calls a round and 27 in
    all, where solving each problem alone made 191."""
    calls, rounds = [], []
    kernel, groups = hitsolver._active_lsq, hitsolver._groups
    monkeypatch.setattr(hitsolver, "_active_lsq", lambda c, *a: calls.append(len(np.atleast_2d(c))) or kernel(c, *a))
    monkeypatch.setattr(hitsolver, "_groups", lambda sets: rounds.append(len(groups(sets))) or groups(sets))
    sampler = make_ball_sampler(IndexWindow(BILATERAL, 64), arity=1, band=1)
    verdict = detect(COMPOUND, (SHIFT_23,), sampler, trials=20, horizon=40)
    assert verdict.verdict == CONFIRMED
    assert len(calls) == sum(rounds) <= 30
    assert max(rounds) <= 4
    assert sum(calls) == 6087


@pytest.mark.parametrize(
    "op, m, source, target, horizon, power, where",
    [
        # the first overflow of the per-power solves is the disk grid's
        (SHIFT_23, 500, -420, -120, 330, 162, "square"),
        # the pin batch over powers 1..130 overflows from 110 on, in a square
        # of the pin at 110; powers 1..109 must still be solved
        (ForwardShift(WeightProfile(20.0, 30.0)), 150, 0, 0, 130, 110, "square"),
    ],
    ids=["grid", "pin batch"],
)
def test_scan_overflow_is_raised_at_the_power_it_happens(op, m, source, target, horizon, power, where):
    """The pin batch covers powers the scan has not reached; an overflow
    there must not end the scan before the power it happens at.  Scanned
    twice in one scope, the second scan reads the stacks the first left,
    refused powers included, and raises at the same power."""
    w = IndexWindow(BILATERAL, m)
    sources, targets = (ProductBall((Ball(ComplexVector.basis(w, j), 0.5),)) for j in (source, target))
    message = f"solve_hit overflows a float at power {power}: overflow encountered in {where}"
    with shared_stacks():
        for _ in range(2):
            with pytest.raises(OperatorError, match=re.escape(message)):
                junction_scan((op,), sources, targets, horizon)


def test_a_failed_pin_batch_is_split_before_the_failing_power(monkeypatch):
    """The (20, 30) shift scan from e_0 to e_0 on m = 150 to horizon 130,
    whose pin batch overflows from power 110, as one junction_scan call: the
    batch is halved until it fits, so powers 1..109 take five batches, not
    one row each, and every result is the one that power gets alone.
    Power 110 still raises.  The pins, halving included, take one driver
    pass and the component routes another."""
    w = IndexWindow(BILATERAL, 150)
    ball = ProductBall((Ball(ComplexVector.basis(w, 0), 0.5),))
    op = ForwardShift(WeightProfile(20.0, 30.0))
    batches, drives, results = [], [], []
    pin_route, drive = hitsolver._ComponentScan.pin_route, hitsolver._drive
    monkeypatch.setattr(hitsolver._ComponentScan, "pin_route", lambda self, powers: batches.append(list(powers)) or pin_route(self, powers))
    monkeypatch.setattr(hitsolver, "_drive", lambda routes: drives.append(len(routes)) or drive(routes))
    monkeypatch.setattr(transitivity, "solve_hit", lambda p: results.append(solve_hit(p)) or results[-1])
    with pytest.raises(OperatorError, match="solve_hit overflows a float at power 110: "):
        junction_scan((op,), ball, ball, 130)
    assert len(drives) == 2
    assert len(results) == 110
    solved = {n for b in batches for n in b if n < 110}
    assert solved == set(range(1, 110))
    fitted = [(b[0], b[-1]) for b in batches if b[-1] < 110]
    assert fitted == [(1, 65), (66, 98), (99, 106), (107, 108), (109, 109)]
    for n, got in enumerate(results):
        assert _result_bytes(got) == _result_bytes(solve_hit(HitProblem((op,), n, ball, ball)))
