import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disklab.criteria import make_vector_sampler
from disklab.transitivity import make_ball_sampler
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
    sample_finite_support,
    trial_draws,
)


def test_window_extents():
    w = IndexWindow(BILATERAL, 4)
    assert (w.lo, w.hi, w.dim) == (-4, 4, 9)
    u = IndexWindow(UNILATERAL, 4)
    assert (u.lo, u.hi, u.dim) == (0, 4, 5)


def test_window_rejects_bad_kind():
    with pytest.raises(ValueError):
        IndexWindow("circular", 3)


def test_position_and_contains():
    w = IndexWindow(BILATERAL, 2)
    assert w.position(-2) == 0
    assert w.position(2) == 4
    assert w.contains(0) and not w.contains(3)


def test_basis_and_getitem():
    w = IndexWindow(BILATERAL, 3)
    e = ComplexVector.basis(w, -1)
    assert e[-1] == 1
    assert e[2] == 0
    assert norm(e) == 1.0


def test_coeffs_are_read_only():
    w = IndexWindow(BILATERAL, 2)
    x = ComplexVector.basis(w, 0)
    with pytest.raises(ValueError):
        x.coeffs[0] = 5.0


def test_vector_arithmetic():
    w = IndexWindow(UNILATERAL, 3)
    x = ComplexVector.basis(w, 0) * 3 + ComplexVector.basis(w, 1) * 4j
    assert norm(x) == 5.0
    y = x - ComplexVector.basis(w, 0) * 3
    assert y[0] == 0 and y[1] == 4j


def test_window_mismatch_rejected():
    a = ComplexVector.basis(IndexWindow(BILATERAL, 2), 0)
    b = ComplexVector.basis(IndexWindow(BILATERAL, 3), 0)
    with pytest.raises(ValueError):
        _ = a + b


def test_support_bounds():
    w = IndexWindow(BILATERAL, 5)
    x = ComplexVector.basis(w, -3) + ComplexVector.basis(w, 2)
    assert x.support_bounds() == (-3, 2)
    assert ComplexVector.zero(w).support_bounds() is None


def test_product_norm_is_sum_of_part_norms():
    w = IndexWindow(UNILATERAL, 2)
    p = ProductVector((ComplexVector.basis(w, 0) * 3 + ComplexVector.basis(w, 1) * 4, ComplexVector.basis(w, 0) * 2))
    assert norm(p) == 7.0


def test_ball_membership_is_strict():
    w = IndexWindow(BILATERAL, 2)
    c = ComplexVector.basis(w, 0)
    ball = Ball(c, 1.0)
    assert ball.contains(c)
    assert not ball.contains(c + ComplexVector.basis(w, 1))
    assert ball.contains(c + ComplexVector.basis(w, 1) * 0.999)


@pytest.mark.parametrize(
    "coeff, radius, message",
    [
        (np.nan, 0.5, "center"),
        (np.inf, 0.5, "center"),
        (complex(0, -np.inf), 0.5, "center"),
        (1.0, np.inf, "radius"),
        (1.0, np.nan, "radius"),
    ],
    ids=["nan-center", "inf-center", "inf-imaginary-center", "inf-radius", "nan-radius"],
)
def test_ball_refuses_a_non_finite_center_or_radius(coeff, radius, message):
    """Unrefused, such a ball reaches solve_hit: a NaN center gives a miss
    with residual inf, an infinite one an overflow at power 2, and an
    infinite radius a hit."""
    w = IndexWindow(BILATERAL, 8)
    with pytest.raises(ValueError, match=f"ball {message}"):
        Ball(ComplexVector.basis(w, 0, coeff), radius)


def test_product_ball():
    w = IndexWindow(BILATERAL, 1)
    b = Ball(ComplexVector.basis(w, 0), 0.5)
    pb = ProductBall((b, b))
    assert pb.arity == 2
    inside = ProductVector((ComplexVector.basis(w, 0), ComplexVector.basis(w, 0)))
    assert pb.contains(inside)


def test_sample_finite_support_respects_band_and_bound():
    w = IndexWindow(BILATERAL, 30)
    for seed in range(8):
        x = sample_finite_support(w, support=2, bound=1.0, seed=seed, band=1)
        lohi = x.support_bounds()
        assert lohi is not None
        assert -1 <= lohi[0] and lohi[1] <= 1
        mags = np.abs(x.coeffs[x.coeffs != 0])
        assert np.all(mags <= 1.0) and np.all(mags >= 0.25 - 1e-15)


def test_sample_finite_support_modulus_floor():
    w = IndexWindow(BILATERAL, 10)
    x = sample_finite_support(w, support=3, bound=2.0, seed=5, modulus_lo=1.5)
    mags = np.abs(x.coeffs[x.coeffs != 0])
    assert np.all(mags >= 1.5) and np.all(mags <= 2.0)


def test_sample_ball_strictly_inside_and_deterministic():
    w = IndexWindow(BILATERAL, 6)
    ball = Ball(ComplexVector.basis(w, 0), 0.3)
    pts = [sample_ball(ball, seed=42) for _ in range(2)]
    assert pts[0] == pts[1]
    for seed in range(20):
        z = sample_ball(ball, seed=seed)
        assert norm(z - ball.center) < 0.3


def _reference_draws(seed, trials, samplers):
    """The per-trial spawn loop that detect, the criteria and the scenarios
    each wrote inline before trial_draws; kept as its reference."""
    k = len(samplers)
    children = np.random.SeedSequence(seed).spawn(k * trials)
    draws = []
    for t in range(trials):
        draws.append(tuple(samplers[i](np.random.default_rng(children[k * t + i])) for i in range(k)))
    return draws


def _draw_bytes(draw) -> bytes:
    if isinstance(draw, ProductBall):
        return b"".join(b.center.coeffs.tobytes() + np.float64(b.radius).tobytes() for b in draw.balls)
    return b"".join(p.coeffs.tobytes() for p in draw.parts)


@pytest.mark.parametrize("count", [1, 2, 4])
def test_trial_draws_match_the_inline_spawn_loop(count):
    w = IndexWindow(BILATERAL, 12)
    pool = [
        make_ball_sampler(w, 1, band=1),
        make_vector_sampler(w, 2, band=3),
        make_ball_sampler(w, 2, radius=0.3, support=3),
        make_vector_sampler(w, 1, support=1, modulus_lo=0.5),
    ]
    samplers = pool[:count]
    for seed in (0, 3, 17, 2**40 + 5):
        for trials in (0, 1, 3):
            got = trial_draws(seed, trials, samplers)
            want = _reference_draws(seed, trials, samplers)
            assert len(got) == len(want) == trials
            for got_trial, want_trial in zip(got, want):
                assert len(got_trial) == count
                assert [_draw_bytes(d) for d in got_trial] == [_draw_bytes(d) for d in want_trial]


coeff = st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def vectors(draw, m=3):
    w = IndexWindow(BILATERAL, m)
    vals = draw(st.lists(coeff, min_size=w.dim, max_size=w.dim))
    return ComplexVector(w, np.array(vals, dtype=np.complex128))


@given(vectors(), vectors())
@settings(max_examples=60)
def test_triangle_inequality(x, y):
    assert norm(x + y) <= norm(x) + norm(y) + 1e-6 * (1 + norm(x) + norm(y))


@given(vectors(), vectors())
@settings(max_examples=60)
def test_cauchy_schwarz(x, y):
    assert abs(np.vdot(y.coeffs, x.coeffs)) <= norm(x) * norm(y) * (1 + 1e-9) + 1e-12


@given(vectors(), st.complex_numbers(max_magnitude=100, allow_nan=False, allow_infinity=False))
@settings(max_examples=60)
def test_norm_scales(x, a):
    assert norm(x * a) == pytest.approx(abs(a) * norm(x), rel=1e-9, abs=1e-9)
