import numpy as np
import pytest

from disklab.hitsolver import FIXED, HIT, MISS_CERTIFIED, MISS_UNCERTAIN
from disklab.operators import (
    BackwardShift,
    DirectSum,
    ForwardShift,
    Scalar,
    WeightProfile,
    WindowGuardError,
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


@pytest.mark.parametrize("trials, horizon", [(0, 10), (-1, 10), (2, 0)])
def test_detect_needs_a_trial_and_a_power(trials, horizon):
    # all() over no trials is true, so an empty sample confirmed this contraction
    sampler = make_ball_sampler(IndexWindow(BILATERAL, 8), arity=1, band=2)
    with pytest.raises(ValueError, match="at least 1"):
        detect(DISK_TRANSITIVE, (Scalar(0.5),), sampler, trials=trials, horizon=horizon)


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
