import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disklab import operators
from disklab.operators import (
    PIN_CELLS,
    BackwardShift,
    Dense,
    Diagonal,
    DirectSum,
    ForwardShift,
    GrowthBounds,
    OperatorError,
    PowerStack,
    Scalar,
    WeightProfile,
    WindowGuardError,
    apply,
    ensure_power_fits,
    growth,
    power_apply,
    power_map,
    right_inverse,
)
from disklab.hitsolver import HitProblem, solve_hit
from disklab.vectorspace import (
    BILATERAL,
    UNILATERAL,
    Ball,
    ComplexVector,
    IndexWindow,
    ProductBall,
    ProductVector,
    norm,
)

W8 = IndexWindow(BILATERAL, 8)
SHIFT_23 = ForwardShift(WeightProfile(2.0, 3.0))


def basis(j, window=W8):
    return ComplexVector.basis(window, j)


def growth_oracle(profile, n, lattice, span=64):
    """Min/max of length-n weight products by plain enumeration of starts."""
    lo = 0 if lattice == UNILATERAL else -span
    prods = []
    for j in range(lo, span + 1):
        p = 1.0
        for t in range(j, j + n):
            p *= profile.weight(t)
        prods.append(p)
    return max(prods), min(prods)


def test_weight_profile_lookup():
    w = WeightProfile(2.0, 3.0, {0: 0.5, -2: 7.0})
    assert w.weight(0) == 0.5
    assert w.weight(5) == 2.0
    assert w.weight(-1) == 3.0
    assert w.weight(-2) == 7.0
    assert list(w.weights_on(-2, 1)) == [7.0, 3.0, 0.5, 2.0]


@pytest.mark.parametrize(
    "profile",
    [
        WeightProfile(2.0, 3.0),
        WeightProfile(0.1, 7, {-40: 1e-300, -3: 5.0, 0: 0.5, 2: 1e300, 9: 4}),
        WeightProfile(1.0 / 3.0, 1.5, {k: 1.0 + k / 7.0 for k in range(-5, 6)}),
    ],
    ids=["empty table", "sparse table", "dense table"],
)
@pytest.mark.parametrize(
    "lo,hi",
    [(-12, -4), (-3, -3), (0, 0), (1, 12), (-6, 6), (-50, 50), (3, 2)],
    ids=["below 0", "at -3", "at 0", "above 0", "across 0", "past every key", "empty span"],
)
def test_weights_on_equals_weight_lookups(profile, lo, hi):
    got = profile.weights_on(lo, hi)
    want = [profile.weight(m) for m in range(lo, hi + 1)]
    assert got.dtype == np.float64
    assert got.shape == (len(want),)
    assert got.tolist() == want


def test_weight_profile_rejects_nonpositive():
    with pytest.raises(OperatorError):
        WeightProfile(2.0, 0.0)
    with pytest.raises(OperatorError):
        WeightProfile(2.0, 3.0, {1: -1.0})


def test_forward_shift_single_step():
    t = ForwardShift(WeightProfile(2.0, 3.0))
    assert apply(t, basis(0)) == basis(1) * 2.0
    assert apply(t, basis(-1)) == basis(0) * 3.0


def test_forward_power_products():
    t = ForwardShift(WeightProfile(2.0, 3.0))
    assert power_apply(t, 2, basis(0)) == basis(2) * 4.0
    # w(-2) w(-1) w(0) = 3 * 3 * 2
    assert power_apply(t, 3, basis(-2)) == basis(1) * 18.0


def test_backward_shift_weight_indexed_by_target():
    b = BackwardShift(WeightProfile(2.0, 3.0))
    assert apply(b, basis(0)) == basis(-1) * 3.0
    assert apply(b, basis(1)) == basis(0) * 2.0
    bt = BackwardShift(WeightProfile(2.0, 3.0, {0: 5.0}))
    assert apply(bt, basis(1)) == basis(0) * 5.0


def test_shift_power_truncates_silently():
    w2 = IndexWindow(BILATERAL, 2)
    t = ForwardShift(WeightProfile(2.0, 3.0))
    gone = power_apply(t, 1, ComplexVector.basis(w2, 2))
    assert norm(gone) == 0.0
    b = BackwardShift(WeightProfile(2.0, 3.0))
    assert norm(power_apply(b, 1, ComplexVector.basis(w2, -2))) == 0.0


def test_right_inverse_round_trip():
    t = ForwardShift(WeightProfile(2.0, 3.0, {1: 0.25}))
    s = right_inverse(t)
    assert isinstance(s, BackwardShift)
    assert apply(s, basis(0)) == basis(-1) * (1.0 / 3.0)
    for n in range(5):
        for j in (-3, -1, 0, 2):
            y = basis(j)
            assert norm(power_apply(t, n, power_apply(s, n, y)) - y) < 1e-12


def test_right_inverse_diagonal_scalar_directsum():
    d = Diagonal({0: 0.5, 1: 2.0})
    sd = right_inverse(d)
    w1 = IndexWindow(UNILATERAL, 1)
    y = ComplexVector.basis(w1, 0) + ComplexVector.basis(w1, 1)
    assert norm(power_apply(d, 3, power_apply(sd, 3, y)) - y) < 1e-12
    assert right_inverse(Scalar(2.0)).value == 0.5
    ds = right_inverse(DirectSum((Scalar(2.0), d)))
    assert isinstance(ds, DirectSum)
    with pytest.raises(OperatorError):
        right_inverse(Scalar(0.0))
    with pytest.raises(OperatorError):
        right_inverse(BackwardShift(WeightProfile(2.0, 3.0)))
    with pytest.raises(OperatorError):
        right_inverse(Diagonal({0: 0.0}))


def test_growth_frozen_values():
    t = ForwardShift(WeightProfile(2.0, 3.0))
    gb = growth(t, 4)
    assert gb.opnorm_upper == 81.0
    assert gb.minmod_lower == 16.0
    assert growth(t, 0).opnorm_upper == 1.0
    assert growth(t, 0).minmod_lower == 1.0


@pytest.mark.parametrize(
    "profile",
    [
        WeightProfile(2.0, 3.0),
        WeightProfile(0.5, 1.5),
        WeightProfile(2.0, 3.0, {0: 0.5, 1: 4.0, -2: 7.0}),
        WeightProfile(1.0, 1.0, {3: 0.1}),
    ],
)
@pytest.mark.parametrize("n", [1, 2, 3, 6])
@pytest.mark.parametrize("lattice", [BILATERAL, UNILATERAL])
def test_growth_matches_enumeration_oracle(profile, n, lattice):
    hi, lo = growth_oracle(profile, n, lattice)
    for op in (ForwardShift(profile), BackwardShift(profile)):
        gb = growth(op, n, lattice)
        assert gb.opnorm_upper == pytest.approx(hi, rel=1e-12)
        if isinstance(op, BackwardShift) and lattice == UNILATERAL:
            assert gb.minmod_lower == 0.0
        else:
            assert gb.minmod_lower == pytest.approx(lo, rel=1e-12)


def test_growth_diagonal_and_scalar():
    gb = growth(Diagonal({0: 0.5, 1: 2.0}), 3)
    assert (gb.opnorm_upper, gb.minmod_lower) == (8.0, 0.125)
    gb2 = growth(Diagonal({0: 3.0}, default=1.0), 2)
    assert (gb2.opnorm_upper, gb2.minmod_lower) == (9.0, 1.0)
    gb3 = growth(Scalar(0.5j), 3)
    assert gb3.opnorm_upper == pytest.approx(0.125)
    assert gb3.minmod_lower == pytest.approx(0.125)
    with pytest.raises(OperatorError):
        growth(Dense(np.eye(3)), 2)


def test_overflowing_scalar_and_diagonal_powers_are_operator_errors():
    """|c|^n past the float range is refused as it is formed;
    2^1000 (about 1.07e301) is still a finite power."""
    w = IndexWindow(BILATERAL, 2)
    twos = Diagonal({}, default=2.0)
    for op in (Scalar(2.0), Scalar(2.0j), twos):
        pmap = operators.power_map(op, 1000, w)
        assert np.all(np.isfinite(pmap.coeffs)) and abs(pmap.coeffs[0]) == pytest.approx(2.0**1000)
        gb = growth(op, 1000)
        assert gb.opnorm_upper == gb.minmod_lower == pytest.approx(2.0**1000)
        for n in (1024, 1100):
            with pytest.raises(OperatorError, match="overflows"):
                operators.power_map(op, n, w)
            with pytest.raises(OperatorError, match="overflows"):
                growth(op, n)
    # one large entry is enough; a small one may underflow to 0
    gb = growth(Diagonal({0: 0.5}, default=1.5), 1100)
    assert gb.minmod_lower == 0.0 and np.isfinite(gb.opnorm_upper)
    with pytest.raises(OperatorError):
        growth(Diagonal({0: 0.5, 1: 2.0}), 1100)
    # Python's (1e160+1e160j)**2 is nan+nanj, with no OverflowError
    with pytest.raises(OperatorError, match="overflows"):
        operators.power_map(Scalar(1e160 + 1e160j), 2, w)


def test_overflowing_shift_powers_are_operator_errors():
    """A shift power whose run product passes the float range is refused
    as it is formed: 3^646 (about 1.7e308) is still finite, 3^647 is not.
    A run through one large table weight is judged by its own product, not
    by the largest weight's power."""
    op = ForwardShift(WeightProfile(2.0, 3.0))
    assert growth(op, 646).opnorm_upper == pytest.approx(3.0**646, rel=1e-12)
    for n in (647, 650):
        with pytest.raises(OperatorError, match="overflows"):
            growth(op, n)
    w = IndexWindow(BILATERAL, 800)
    x = basis(-325, w)
    assert np.all(np.isfinite(power_apply(op, 600, x).coeffs))
    with pytest.raises(OperatorError, match="overflows"):
        power_apply(op, 650, x)
    balls = ProductBall((Ball(x, 0.5),)), ProductBall((Ball(basis(325, w), 0.5),))
    with pytest.raises(OperatorError, match="overflows"):
        solve_hit(HitProblem((op,), 650, *balls))
    peaked = ForwardShift(WeightProfile(1.1, 1.1, {0: 1000.0}))
    assert growth(peaked, 104).opnorm_upper == pytest.approx(1000.0 * 1.1**103, rel=1e-12)


def test_diagonal_missing_entry():
    d = Diagonal({0: 0.5})
    w = IndexWindow(UNILATERAL, 1)
    x = ComplexVector.basis(w, 1)
    with pytest.raises(OperatorError):
        power_apply(d, 1, x)
    filled = Diagonal({0: 0.5}, default=0.3)
    assert apply(filled, x) == x * 0.3


def test_dense_power_matches_matrix_power():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    op = Dense(m)
    w = IndexWindow(UNILATERAL, 4)
    x = ComplexVector(w, rng.standard_normal(5) + 1j * rng.standard_normal(5))
    got = power_apply(op, 3, x)
    want = np.linalg.matrix_power(m, 3) @ x.coeffs
    assert np.allclose(got.coeffs, want, rtol=1e-12, atol=1e-12)


def test_direct_sum_power_componentwise():
    ds = DirectSum((Scalar(2.0), Diagonal({0: 0.5}, default=0.5)))
    w = IndexWindow(UNILATERAL, 1)
    p = ProductVector((ComplexVector.basis(w, 0), ComplexVector.basis(w, 1)))
    out = power_apply(ds, 3, p)
    assert out.parts[0] == ComplexVector.basis(w, 0) * 8.0
    assert out.parts[1] == ComplexVector.basis(w, 1) * 0.125


def test_window_guard():
    w = IndexWindow(BILATERAL, 2)
    t = ForwardShift(WeightProfile(2.0, 3.0))
    ensure_power_fits(t, 1, ComplexVector.basis(w, 1))
    with pytest.raises(WindowGuardError):
        ensure_power_fits(t, 1, ComplexVector.basis(w, 2))
    b = BackwardShift(WeightProfile(2.0, 3.0))
    with pytest.raises(WindowGuardError):
        ensure_power_fits(b, 2, ComplexVector.basis(w, -1))
    ensure_power_fits(b, 2, ComplexVector.basis(w, 0))
    # a unilateral bottom is a true lattice boundary: annihilation is honest
    wu = IndexWindow(UNILATERAL, 2)
    ensure_power_fits(b, 5, ComplexVector.basis(wu, 0))
    with pytest.raises(WindowGuardError):
        ensure_power_fits(ForwardShift(WeightProfile(2.0, 3.0)), 5, ComplexVector.basis(wu, 0))
    # non-shift variants never move support
    ensure_power_fits(Scalar(5.0), 99, ComplexVector.basis(w, 2))
    # zero vectors have nothing to lose
    ensure_power_fits(t, 99, ComplexVector.zero(w))


def test_window_guard_takes_what_power_apply_takes():
    """A direct sum needs a product vector of its arity, and any other
    operator a lone vector, in the guard as in power_apply."""
    t = ForwardShift(WeightProfile(2.0, 3.0))
    x = basis(0)
    for op, bad, error in (
        (DirectSum((t, t)), x, ValueError),
        (DirectSum((t, t)), ProductVector((x,)), ValueError),
        (t, ProductVector((x, x)), TypeError),
        (Scalar(2.0), ProductVector((x, x)), TypeError),
    ):
        with pytest.raises(error):
            power_apply(op, 1, bad)
        with pytest.raises(error, match="expect"):
            ensure_power_fits(op, 1, bad)


def test_power_rejects_negative():
    with pytest.raises(ValueError):
        power_apply(Scalar(1.0), -1, basis(0))


@pytest.mark.parametrize("n", [-1, 2.5, math.inf, -math.inf, math.nan])
def test_every_power_taker_refuses_a_power_that_is_not_a_nonnegative_integer(n):
    """power_apply, power_map, growth, the window guard and a stack's
    horizon refuse it with one ValueError, never an OverflowError, a
    TypeError, a guard error or an overflow named at that power."""
    calls = (
        lambda: power_apply(SHIFT_23, n, basis(0)),
        lambda: power_map(SHIFT_23, n, W8),
        lambda: growth(SHIFT_23, n),
        lambda: ensure_power_fits(SHIFT_23, n, basis(0)),
        lambda: ensure_power_fits(Scalar(2.0), n, basis(0)),
        lambda: PowerStack(SHIFT_23, W8, n).power_map(1),
    )
    for call in calls:
        with pytest.raises(ValueError, match="power must be a nonnegative integer"):
            call()


def test_integral_float_powers_are_taken_as_ints():
    x = basis(0)
    assert power_apply(SHIFT_23, 3.0, x) == power_apply(SHIFT_23, 3, x)
    assert growth(SHIFT_23, 3.0) == growth(SHIFT_23, 3)
    assert power_map(SHIFT_23, np.float64(3.0), W8).coeffs.tobytes() == power_map(SHIFT_23, 3, W8).coeffs.tobytes()


@given(
    a=st.integers(min_value=0, max_value=3),
    b=st.integers(min_value=0, max_value=3),
    j=st.integers(min_value=-2, max_value=2),
    c=st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
)
@settings(max_examples=50)
def test_shift_power_semigroup(a, b, j, c):
    t = ForwardShift(WeightProfile(2.0, 3.0, {0: 0.5}))
    x = basis(j) * c
    lhs = power_apply(t, a + b, x)
    rhs = power_apply(t, a, power_apply(t, b, x))
    assert norm(lhs - rhs) <= 1e-9 * (1 + norm(lhs))


@given(n=st.integers(min_value=0, max_value=6))
@settings(max_examples=20)
def test_diagonal_power_semigroup(n):
    d = Diagonal({0: 0.5 + 0.1j}, default=1.2)
    w = IndexWindow(UNILATERAL, 3)
    x = ComplexVector(w, np.arange(1, 5, dtype=np.complex128))
    lhs = power_apply(d, n + 2, x)
    rhs = power_apply(d, 2, power_apply(d, n, x))
    assert norm(lhs - rhs) <= 1e-9 * (1 + norm(lhs))


# Reference implementations: the per-index loops that power_map's and
# growth's run products replaced.  They multiply the same operands in the
# same order, so shift powers and growth bounds must agree bit for bit,
# whether a power is formed alone or read from a PowerStack.


def _reference_shift_products(profile, lo, hi, n):
    """w(j) w(j+1) ... w(j+n-1) for each start j in lo..hi, one weight() call per index."""
    out = np.ones(hi - lo + 1, dtype=float)
    for t in range(n):
        out *= np.array([profile.weight(j + t) for j in range(lo, hi + 1)], dtype=float)
    return out


def _reference_growth(op, n, lattice):
    """growth from the reference products: every length-n run through the
    table, plus the constant runs far right and (bilateral) far left; None
    where a product, a partial one included, passes the float range."""
    if n == 0:
        return GrowthBounds(1.0, 1.0)
    profile = op.weights
    lo = min(profile.table, default=0) - n - 1
    hi = max(profile.table, default=0) + 1
    if lattice == UNILATERAL:
        lo, hi = max(lo, 0), max(hi, 0)
    try:
        with np.errstate(over="raise"):
            prods = list(_reference_shift_products(profile, lo, hi, n))
        prods.append(profile.pos**n)
        if lattice == BILATERAL:
            prods.append(profile.neg**n)
    except (FloatingPointError, OverflowError):
        return None
    prods = np.array(prods)
    if isinstance(op, BackwardShift) and lattice == UNILATERAL:
        return GrowthBounds(float(prods.max()), 0.0)
    return GrowthBounds(float(prods.max()), float(prods.min()))


def _reference_forward_power(profile, n, x):
    window = x.window
    d = window.dim
    out = np.zeros(d, dtype=np.complex128)
    if n == 0:
        return ComplexVector(window, x.coeffs.copy())
    if n < d:
        # product over the source run [j, j+n) for each surviving source
        w = profile.weights_on(window.lo, window.hi - 1)
        prods = np.ones(d - n, dtype=float)
        for t in range(n):
            prods *= w[t : t + d - n]
        out[n:] = x.coeffs[: d - n] * prods
    return ComplexVector(window, out)


def _reference_backward_power(profile, n, x):
    window = x.window
    d = window.dim
    out = np.zeros(d, dtype=np.complex128)
    if n == 0:
        return ComplexVector(window, x.coeffs.copy())
    if n < d:
        # source j lands on j-n with weight product over [j-n, j-1]
        w = profile.weights_on(window.lo, window.hi - 1)
        prods = np.ones(d - n, dtype=float)
        for t in range(n):
            prods *= w[t : t + d - n]
        out[: d - n] = x.coeffs[n:] * prods
    return ComplexVector(window, out)


def _power_near_the_float_max(profile, window, rng):
    """A power n < window.dim whose largest run product over the window lies
    within a factor of 10 of the float maximum, judged by sums of logs; None
    when no power does."""
    logs = np.concatenate(([0.0], np.cumsum(np.log(profile.weights_on(window.lo, window.hi)))))
    near = [
        n
        for n in range(1, window.dim)
        if abs(np.max(logs[n:] - logs[:-n]) - np.log(np.finfo(float).max)) <= np.log(10.0)
    ]
    return int(rng.choice(near)) if near else None


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lattice", [BILATERAL, UNILATERAL])
def test_shift_powers_near_the_float_max_match_the_reference_or_raise(lattice):
    """Where the reference loops' products, partial ones included, stay
    inside the float range, power_apply, growth and a PowerStack read at that
    power equal them bit for bit; where one overflows, all raise
    OperatorError.  The stack forms every lower power first, over more runs
    than survive at n, and must not refuse n for those."""
    rng = np.random.default_rng(15 if lattice == BILATERAL else 16)
    window = IndexWindow(lattice, 200 if lattice == BILATERAL else 400)
    d = window.dim
    outcomes = []
    for _ in range(25):
        profile = WeightProfile(
            *np.exp(rng.uniform(np.log(8.0), np.log(1e3), 2)),
            {int(k): float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3)))) for k in rng.integers(-15, 16, 4)},
        )
        n = _power_near_the_float_max(profile, window, rng)
        if n is None:
            continue
        x = ComplexVector(window, rng.uniform(-1, 1, d) + 1j * rng.uniform(-1, 1, d))
        try:
            with np.errstate(over="raise"):
                prods = _reference_shift_products(profile, window.lo, window.hi - n, n)
        except FloatingPointError:
            prods = None
        for op in (ForwardShift(profile), BackwardShift(profile)):
            # a stack to power n alone, and one whose chunks form n with the
            # powers a few below it, some of which may overflow
            stack, chunked = PowerStack(op, window, n), PowerStack(op, window, d - 1)
            for below in range(max(1, n - 4), n):
                for read in (chunked.power_map, chunked.growth):
                    try:
                        read(below)
                    except OperatorError:
                        pass
            if prods is None:
                with pytest.raises(OperatorError, match="overflows"):
                    power_apply(op, n, x)
                for s in (stack, chunked):
                    with pytest.raises(OperatorError, match=f"power_map overflows a float at power {n}:"):
                        s.power_map(n)
            else:
                want = np.zeros(d, dtype=np.complex128)
                if isinstance(op, ForwardShift):
                    want[n:] = x.coeffs[: d - n] * prods
                else:
                    want[: d - n] = x.coeffs[n:] * prods
                assert np.array_equal(power_apply(op, n, x).coeffs, want)
                for s in (stack, chunked):
                    assert np.array_equal(s.power_map(n).apply_vec(x.coeffs), want)
            want_bounds = _reference_growth(op, n, lattice)
            if want_bounds is None:
                for bounds in (lambda: growth(op, n, lattice), lambda: stack.growth(n), lambda: chunked.growth(n)):
                    with pytest.raises(OperatorError, match=f"growth overflows a float at power {n}:"):
                        bounds()
            else:
                assert growth(op, n, lattice) == stack.growth(n) == chunked.growth(n) == want_bounds
        outcomes.append(prods is None)
    # both sides of the boundary are reached
    assert 0 < sum(outcomes) < len(outcomes)
    # on its way to power 5 a stack forms power 4, whose run from lo + 4
    # passes the float range; no run from there survives at power 5
    w = IndexWindow(lattice, 4 if lattice == BILATERAL else 8)
    profile = WeightProfile(1.0, 1.0, {w.lo + 3: 1e-100, **{w.lo + j: 1e100 for j in range(4, 8)}})
    x = ComplexVector(w, rng.uniform(-1, 1, w.dim) + 0j)
    with pytest.raises(OperatorError, match="power_map overflows a float at power 4"):
        power_apply(ForwardShift(profile), 4, x)
    want = _reference_forward_power(profile, 5, x).coeffs
    assert np.all(np.isfinite(want)) and np.array_equal(PowerStack(ForwardShift(profile), w, 5).power_map(5).apply_vec(x.coeffs), want)
    # one chunk forms powers 1..6: power 4 is left out and raises when asked,
    # and power 5 past it is kept
    stack = PowerStack(ForwardShift(profile), w, 6)
    stack.power_map(1)
    assert np.array_equal(stack.power_map(5).apply_vec(x.coeffs), want)
    for _ in range(2):
        with pytest.raises(OperatorError, match="power_map overflows a float at power 4:"):
            stack.power_map(4)
    assert np.array_equal(stack.power_map(5).apply_vec(x.coeffs), want)
    # runs are still multiplied left to right: 1e200 * 1e200 passes the float
    # range before 1e-200 brings the full product back to 1e200 (log-domain
    # products would answer this)
    op = ForwardShift(WeightProfile(0.5, 0.5, {0: 1e200, 1: 1e200, 2: 1e-200}))
    assert _reference_growth(op, 3, lattice) is None
    for bounds in (lambda: growth(op, 3, lattice), lambda: PowerStack(op, window, 3).growth(3)):
        with pytest.raises(OperatorError, match="overflows a float at power 3"):
            bounds()


def _random_profile(rng):
    keys = rng.integers(-15, 16, size=rng.integers(1, 7))
    table = {int(k): float(rng.uniform(0.2, 5.0)) for k in keys}
    return WeightProfile(float(rng.uniform(0.2, 5.0)), float(rng.uniform(0.2, 5.0)), table)


def _random_complex(rng, size=None):
    """Moduli in [0.5, 2], so powers up to 51 neither overflow nor underflow."""
    return rng.uniform(0.5, 2.0, size) * np.exp(2j * np.pi * rng.uniform(size=size))


@pytest.mark.parametrize("lattice", [BILATERAL, UNILATERAL])
def test_powers_match_the_per_index_reference_loops(lattice):
    rng = np.random.default_rng(11 if lattice == BILATERAL else 12)
    eps = np.finfo(float).eps
    for m in range(1, 13):
        w = IndexWindow(lattice, m)
        d = w.dim
        for n in range(2 * d + 2):
            profile = _random_profile(rng)
            x = ComplexVector(w, rng.standard_normal(d) + 1j * rng.standard_normal(d))
            fwd, bwd = ForwardShift(profile), BackwardShift(profile)
            assert np.array_equal(power_apply(fwd, n, x).coeffs, _reference_forward_power(profile, n, x).coeffs)
            assert np.array_equal(power_apply(bwd, n, x).coeffs, _reference_backward_power(profile, n, x).coeffs)
            assert [growth(op, n, lattice) for op in (fwd, bwd)] == [_reference_growth(op, n, lattice) for op in (fwd, bwd)]
            # numpy multiplies array by scalar through another loop than array
            # by array, so these may differ in the last bit
            diag = Diagonal(dict(zip(w.indices().tolist(), _random_complex(rng, d))))
            scalar = Scalar(complex(_random_complex(rng)))
            for op, factor in ((diag, diag.entries_on(w) ** n), (scalar, scalar.value**n)):
                want = x.coeffs * factor
                assert np.all(np.abs(power_apply(op, n, x).coeffs - want) <= 4 * eps * np.abs(want))
        # one stack per operator, read at every power 0..d + 1 in turn
        profile = _random_profile(rng)
        x = ComplexVector(w, rng.standard_normal(d) + 1j * rng.standard_normal(d))
        references = ((ForwardShift(profile), _reference_forward_power), (BackwardShift(profile), _reference_backward_power))
        for op, reference in references:
            stack = PowerStack(op, w, d + 1)
            for n in range(d + 2):
                assert np.array_equal(stack.power_map(n).apply_vec(x.coeffs), reference(profile, n, x).coeffs)
                assert stack.growth(n) == _reference_growth(op, n, lattice)
    # a window too wide for one chunk to reach horizon 40, read across the
    # chunk boundaries in order, and out of order
    w = IndexWindow(lattice, 2000)
    d = w.dim
    assert PIN_CELLS // d < 40
    profile = _random_profile(rng)
    x = ComplexVector(w, rng.standard_normal(d) + 1j * rng.standard_normal(d))
    for op, reference in ((ForwardShift(profile), _reference_forward_power), (BackwardShift(profile), _reference_backward_power)):
        want = {n: reference(profile, n, x).coeffs for n in range(41)}
        for order in (range(41), (40, 1, 17)):
            stack = PowerStack(op, w, 40)
            for n in order:
                assert np.array_equal(stack.power_map(n).apply_vec(x.coeffs), want[n])
                assert stack.growth(n) == growth(op, n, lattice) == _reference_growth(op, n, lattice)
            # a table's rows are the maps' arrays, within a chunk and across chunks
            for first, last in ((1, 3), (17, 17), (1, 40)):
                coeffs, tgt = stack.rows(first, last)
                maps = [stack.power_map(n) for n in range(first, last + 1)]
                assert np.array_equal(coeffs, [m.coeffs for m in maps]) and np.array_equal(tgt, [m.tgt for m in maps])
        # growth runs widen with the horizon: to 400, a growth chunk holds under 100 powers
        stack = PowerStack(op, w, 400)
        assert [stack.growth(n) for n in range(401)] == [growth(op, n, lattice) for n in range(401)]


def test_run_products_keep_one_row():
    """Growth runs of a slowly growing shift at power 4000 hold one row of
    products, not one per power: keeping every power's row peaked at 193 MB
    here, and the bounds are the same."""
    op = ForwardShift(WeightProfile(1.001, 1.002, {0: 0.5}))
    tracemalloc.start()
    try:
        bounds = growth(op, 4000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6
    assert 2957 < bounds.opnorm_upper < 2958 and 27.2 < bounds.minmod_lower < 27.3


def test_a_stack_refuses_a_fractional_power_inside_its_horizon():
    for op in (SHIFT_23, Diagonal({}, default=0.5)):
        stack = PowerStack(op, W8, 5)
        for read in (stack.power_map, stack.growth):
            with pytest.raises(ValueError, match="power must be a nonnegative integer"):
                read(2.5)


@pytest.mark.parametrize("lattice", [BILATERAL, UNILATERAL])
def test_a_lower_power_after_a_higher_one_reads_as_fresh(lattice):
    """A stack asked for power 1 after power 40 forms its run products again
    from ones, and returns the bits of a fresh stack."""
    window = IndexWindow(lattice, 48)
    for op in (ForwardShift(WeightProfile(1.3, 0.7, {0: 0.5, 3: 2.1})), BackwardShift(WeightProfile(0.9, 1.1, {-2: 3.0}))):
        used = PowerStack(op, window, 40)
        used.power_map(40), used.growth(40)
        fresh = PowerStack(op, window, 40)
        assert used.power_map(1).coeffs.tobytes() == fresh.power_map(1).coeffs.tobytes()
        assert used.growth(1) == fresh.growth(1)


@pytest.mark.parametrize(
    "op",
    [ForwardShift(WeightProfile(2.0, 3.0)), Diagonal({}, default=0.5), Dense(np.eye(17))],
    ids=["shift", "diagonal", "dense"],
)
def test_a_stack_refuses_powers_outside_its_horizon(op):
    stack = PowerStack(op, W8, 5)
    for n in (6, -1):
        for read in (stack.power_map, stack.growth):
            with pytest.raises(ValueError, match=rf"power {n} lies outside the stack's 0\.\.5"):
                read(n)


@pytest.mark.parametrize("lattice", [BILATERAL, UNILATERAL])
def test_a_refused_power_raises_again_without_forming_run_products(lattice, monkeypatch):
    """A chunk keeps the error of a power it refused: asking for that power
    again, or for a power past it in the chunk, forms no run products."""
    w = IndexWindow(lattice, 4 if lattice == BILATERAL else 8)
    profile = WeightProfile(1.0, 1.0, {w.lo + 3: 1e-100, **{w.lo + j: 1e100 for j in range(4, 8)}})
    maps = PowerStack(ForwardShift(profile), w, 6)
    maps.power_map(1)
    # the (2, 3) shift's growth chunk from 647 refuses 647 on the bilateral
    # lattice, where 3**647 passes the float range
    bounds = PowerStack(ForwardShift(WeightProfile(2.0, 3.0)), IndexWindow(BILATERAL, 64), 700)
    with pytest.raises(OperatorError):
        bounds.growth(647)
    calls = []
    rows = operators._RunProducts.rows
    monkeypatch.setattr(operators._RunProducts, "rows", lambda runs, *span: calls.append(span) or rows(runs, *span))
    for _ in range(2):
        with pytest.raises(OperatorError, match="power_map overflows a float at power 4:"):
            maps.power_map(4)
        with pytest.raises(OperatorError, match="growth overflows a float at power 647:"):
            bounds.growth(647)
    maps.power_map(5)
    assert calls == []
    # a power of a stack that no chunk has formed yet still forms its runs
    bounds.growth(1)
    assert calls != []


def test_growth_and_a_stack_raise_alike_at_the_shift_edge():
    """growth of the (2, 3) shift on the bilateral lattice is finite at 646
    and refused at 647, with the same message from the module function and
    from a stack's chunk."""
    op = ForwardShift(WeightProfile(2.0, 3.0))
    stack = PowerStack(op, IndexWindow(BILATERAL, 64), 700)
    assert growth(op, 646) == stack.growth(646)
    errors = []
    for bounds in (lambda: growth(op, 647), lambda: stack.growth(647)):
        with pytest.raises(OperatorError, match="growth overflows a float at power 647:") as err:
            bounds()
        errors.append(str(err.value))
    assert errors[0] == errors[1]
