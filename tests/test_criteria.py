import math
from dataclasses import replace

import numpy as np
import pytest

from disklab.criteria import (
    CriterionData,
    _passes,
    CriterionError,
    SpectralSplit,
    check_compound_scalar_free,
    check_compound_scaled,
    check_scalar_free_criterion,
    check_scaled_criterion,
    derive_scalars,
    make_vector_sampler,
    powers_of_right_inverse,
    roundtrip_scalar_derivation,
    shift_witness,
    spectral_witness,
)
from disklab.operators import (
    BackwardShift,
    Dense,
    Diagonal,
    EigenPair,
    ForwardShift,
    OperatorError,
    PowerMap,
    PowerStack,
    Scalar,
    WeightProfile,
    WindowGuardError,
    power_apply,
    right_inverse,
)
from disklab.transitivity import make_ball_sampler
from disklab.vectorspace import (
    BILATERAL,
    UNILATERAL,
    ComplexVector,
    IndexWindow,
    ProductVector,
    norm,
    sample_finite_support,
)

SHIFT = ForwardShift(WeightProfile(2.0, 3.0))
W = IndexWindow(BILATERAL, 96)


def shift_data(nk, lambdas=None, tol=1e-6, sample_count=8, seed=0):
    return CriterionData(
        components=(SHIFT,),
        smaps=(right_inverse(SHIFT),),
        nk=tuple(nk),
        xsampler=make_vector_sampler(W, band=1),
        ysampler=make_vector_sampler(W, band=1),
        lambdas=lambdas,
        tol=tol,
        sample_count=sample_count,
        seed=seed,
    )


def geometric_lambdas(nk):
    return (tuple(6.0 ** (-n / 2) for n in nk),)


def test_scaled_criterion_passes_on_shift():
    nk = tuple(range(1, 81))
    rep = check_scaled_criterion(shift_data(nk, geometric_lambdas(nk)))
    assert rep.passed
    for label in ("forward_decay", "backward_decay", "identity_defect"):
        assert rep.condition(label).passed
    # scaled forward mass decays like (r1/sqrt(r1 r2))^n = (2/3)^(n/2)
    curve = rep.condition("forward_decay").values
    assert curve[-1] < 1e-6
    assert curve[40] / curve[38] == pytest.approx(2.0 / 3.0, rel=1e-6)


def test_scaled_criterion_requires_lambdas():
    with pytest.raises(CriterionError):
        check_scaled_criterion(shift_data((1, 2, 3)))


def test_scaled_criterion_rejects_identity_scalars():
    nk = tuple(range(1, 31))
    data = CriterionData(
        components=(Scalar(1.0),),
        smaps=(Scalar(1.0),),
        nk=nk,
        xsampler=make_vector_sampler(W, band=1),
        ysampler=make_vector_sampler(W, band=1),
        lambdas=(tuple(1.0 for _ in nk),),
        sample_count=4,
    )
    rep = check_scaled_criterion(data)
    assert rep.condition("identity_defect").passed
    assert not rep.condition("forward_decay").passed
    assert not rep.passed


def test_scaled_condition2_geometric_decay():
    nk = tuple(range(1, 31))
    data = CriterionData(
        components=(Scalar(1.0),),
        smaps=(Scalar(0.5),),
        nk=nk,
        xsampler=make_vector_sampler(W, band=1),
        ysampler=make_vector_sampler(W, band=1),
        lambdas=(tuple(1.0 for _ in nk),),
        sample_count=4,
    )
    rep = check_scaled_criterion(data)
    assert rep.condition("backward_decay").passed


def test_data_validation():
    with pytest.raises(CriterionError):
        shift_data((3, 2, 1))
    with pytest.raises(CriterionError):
        shift_data((0, 1, 2))
    nk = (1, 2, 3)
    with pytest.raises(CriterionError):
        shift_data(nk, lambdas=(tuple([0.0, 0.5, 0.5]),))
    with pytest.raises(CriterionError):
        shift_data(nk, lambdas=((1.5, 0.5, 0.5),))
    # NaN fails every comparison, so the disk bound must be written as one it passes
    with pytest.raises(CriterionError, match="closed unit disk"):
        shift_data(nk, lambdas=((math.nan, 0.5, 0.5),))
    with pytest.raises(CriterionError, match="closed unit disk"):
        shift_data(nk, lambdas=((complex(0.5, math.nan), 0.5, 0.5),))
    with pytest.raises(CriterionError):
        CriterionData(
            components=(SHIFT, SHIFT),
            smaps=(right_inverse(SHIFT),),
            nk=nk,
            xsampler=make_vector_sampler(W),
            ysampler=make_vector_sampler(W),
        )


def test_scalar_free_criterion_on_shift():
    rep = check_scalar_free_criterion(shift_data(tuple(range(1, 41))))
    assert rep.passed
    # product of image norms is (2/3)^n times the pair norms
    curve = rep.condition("product_decay").values
    assert curve[20] / curve[19] == pytest.approx(2.0 / 3.0, rel=1e-9)


def test_scalar_free_rejects_identity():
    nk = tuple(range(1, 21))
    data = CriterionData(
        components=(Scalar(1.0),),
        smaps=(Scalar(1.0),),
        nk=nk,
        xsampler=make_vector_sampler(W, band=1),
        ysampler=make_vector_sampler(W, band=1),
        sample_count=4,
    )
    rep = check_scalar_free_criterion(data)
    assert not rep.condition("product_decay").passed
    assert not rep.passed


def test_scalar_free_balanced_pair_fails_product():
    # expanding forward, shrinking backward: product of norms stays put
    nk = tuple(range(1, 21))
    data = CriterionData(
        components=(Scalar(2.0),),
        smaps=(Scalar(0.5),),
        nk=nk,
        xsampler=make_vector_sampler(W, band=1),
        ysampler=make_vector_sampler(W, band=1),
        sample_count=4,
    )
    rep = check_scalar_free_criterion(data)
    assert not rep.condition("product_decay").passed
    assert rep.condition("identity_defect").passed


def test_derive_scalars_hits_eps_exactly():
    nk = tuple(range(1, 41))
    data = shift_data(nk)
    derived = derive_scalars(data, eps=0.1)
    rep = check_scalar_free_criterion(data)
    for (x, y), scal in zip(rep.pairs, derived.per_pair):
        assert not scal.degenerate
        assert scal.tail_index < len(nk)
        s = right_inverse(SHIFT)
        from disklab.operators import power_apply

        for j in range(scal.tail_index, len(nk)):
            lam = scal.lambdas[0][j]
            assert lam <= 1.0
            sv = norm(power_apply(s, nk[j], y.parts[0]))
            if sv > 0:
                assert sv / lam == pytest.approx(0.1, abs=1e-10)


def test_derive_scalars_rejects_undersized_eps():
    data = shift_data((1, 2, 3))
    # at 1e-320 the scalars ||S^n y|| / eps pass the float range and read inf
    for eps in (1e-9, 1e-320):
        with pytest.raises(CriterionError, match="eps too small"):
            derive_scalars(data, eps=eps)


def test_roundtrip_derivation_passes():
    nk = tuple(range(1, 41))
    rt = roundtrip_scalar_derivation(shift_data(nk), eps=0.1)
    assert rt.scalar_free.passed
    assert all(rt.scaled_passes)
    assert rt.passed
    assert rt.tol == pytest.approx(0.101)


def test_orbit_norm_errors_name_the_power_that_overflows():
    """||T^n x|| for x = e_-390 is 3^n, whose square passes the float range
    from n = 324 on, while every power of T stays finite."""
    w = IndexWindow(BILATERAL, 400)
    data = CriterionData(
        components=(SHIFT,),
        smaps=(right_inverse(SHIFT),),
        nk=tuple(range(1, 331)),
        xsampler=lambda rng: ProductVector((ComplexVector.basis(w, -390),)),
        ysampler=lambda rng: ProductVector((ComplexVector.basis(w, 0),)),
        sample_count=1,
    )
    with pytest.raises(OperatorError, match="_orbit_norms overflows a float at power 324: "):
        check_scalar_free_criterion(data)


def whole_sequence_data(op, smap, horizon, lambdas=None, **counts):
    """Compound criterion data: one operator probed at every power 1..horizon."""
    return CriterionData(
        components=(op,),
        smaps=(smap,),
        nk=tuple(range(1, horizon + 1)),
        xsampler=make_vector_sampler(W, band=1),
        ysampler=make_vector_sampler(W, band=1),
        lambdas=None if lambdas is None else (tuple(lambdas),),
        **counts,
    )


def test_compound_scaled_on_shift():
    # (2/3)^(n/2) crosses 1e-6 only past n = 68, so the horizon must exceed it
    data = whole_sequence_data(
        SHIFT,
        powers_of_right_inverse(SHIFT),
        80,
        lambdas=tuple(6.0 ** (-n / 2) for n in range(1, 81)),
        sample_count=6,
    )
    rep = check_compound_scaled(data)
    assert rep.passed
    assert rep.steps == tuple(range(1, 81))


def test_compound_scaled_rejects_balanced_scalar_pair():
    # lambda 2^-n exactly cancels the doubling both ways: the scaled forward
    # mass and the inversely scaled backward mass sit at the pair norms
    # forever, only the round trip is exact; the data is correctly rejected
    horizon = 30
    data = whole_sequence_data(
        Scalar(2.0),
        lambda n, v: v * (2.0**-n),
        horizon,
        lambdas=tuple(2.0**-n for n in range(1, horizon + 1)),
        sample_count=4,
    )
    rep = check_compound_scaled(data)
    assert rep.condition("identity_defect").passed
    assert not rep.condition("forward_decay").passed
    assert not rep.condition("backward_decay").passed
    assert not rep.passed
    c1 = rep.condition("forward_decay").values
    assert c1[0] == pytest.approx(c1[-1])  # constant, not decaying


def test_compound_scaled_rejects_zero_scalars():
    with pytest.raises(CriterionError):
        whole_sequence_data(SHIFT, powers_of_right_inverse(SHIFT), 4, lambdas=(0.5, 0.0, 0.5, 0.5))


def test_compound_scalar_free_on_shift():
    data = whole_sequence_data(SHIFT, powers_of_right_inverse(SHIFT), 40, sample_count=6)
    rep = check_compound_scalar_free(data)
    assert rep.passed


def test_compound_roundtrip_scalar_free_to_scaled():
    horizon = 40
    base = dict(op=SHIFT, smap=powers_of_right_inverse(SHIFT), horizon=horizon, sample_count=4, seed=77)
    free = check_compound_scalar_free(whole_sequence_data(**base))
    assert free.passed
    eps = 0.1
    for (x, y), values in zip(free.pairs, free.per_pair):
        backward = values[1]  # ||S_n y|| along n
        lambdas = tuple(min(1.0, v / eps) if v > 0 else 1e-12 for v in backward)
        rep = check_compound_scaled(
            whole_sequence_data(**{**base, "lambdas": lambdas, "tol": 1.01 * eps, "sample_count": 1})
        )
        # same construction as the subsequence derivation: scaled re-check
        # passes at the relaxed tolerance
        assert rep.conditions[0].values[-1] < 1.01 * eps


def test_compound_criteria_take_one_component_at_every_power():
    ok = whole_sequence_data(SHIFT, right_inverse(SHIFT), 3, lambdas=(0.5, 0.5, 0.5), sample_count=1)
    check_compound_scaled(ok)
    check_compound_scalar_free(ok)
    two = CriterionData(
        components=(SHIFT, SHIFT),
        smaps=(right_inverse(SHIFT),) * 2,
        nk=(1, 2, 3),
        xsampler=make_vector_sampler(W, 2, band=1),
        ysampler=make_vector_sampler(W, 2, band=1),
        sample_count=1,
    )
    for data in (
        two,
        replace(ok, nk=(1, 3, 4), lambdas=None),  # a subsequence, not every power
        replace(ok, nk=(2, 3, 4), lambdas=None),
        replace(ok, nk=(1,), lambdas=None),  # a single power
    ):
        for check in (check_compound_scalar_free, check_compound_scaled):
            with pytest.raises(CriterionError, match="compound criteria"):
                check(data)


def test_spectral_witness_canonical_r9():
    w = IndexWindow(UNILATERAL, 1)
    split = SpectralSplit(
        op=Diagonal({0: 0.5, 1: 2.0}),
        p=1.0,
        small=(EigenPair(0.5, ComplexVector.basis(w, 0)),),
        large=(EigenPair(2.0, ComplexVector.basis(w, 1)),),
        c=1.5,
    )
    rep = spectral_witness(split, (1.0,), (1.0,), eps=0.1, delta=0.1, horizon=20)
    assert rep.r == 9
    assert rep.correction_norms[7] == pytest.approx(0.75**8, rel=1e-12)
    assert rep.correction_norms[7] > 0.1 > rep.correction_norms[8]
    # geometric with ratio c / large value
    for j in range(1, 10):
        assert rep.correction_norms[j] / rep.correction_norms[j - 1] == pytest.approx(
            0.75, abs=1e-10
        )
    # the image lands on y exactly: residual is (small/c)^n ||x||
    assert rep.image_residuals[4] == pytest.approx(3.0**-5, rel=1e-9)


def test_spectral_witness_zero_target():
    w = IndexWindow(UNILATERAL, 1)
    split = SpectralSplit(
        op=Diagonal({0: 0.5, 1: 2.0}),
        p=1.0,
        small=(EigenPair(0.5, ComplexVector.basis(w, 0)),),
        large=(EigenPair(2.0, ComplexVector.basis(w, 1)),),
        c=1.5,
    )
    rep = spectral_witness(split, (1.0,), (0.0,), eps=0.1, delta=0.1, horizon=12)
    assert all(v == 0.0 for v in rep.correction_norms)
    # r set by the image decay (1/3)^n < 0.1 alone
    assert rep.r == 3


def test_spectral_split_validation():
    w = IndexWindow(UNILATERAL, 1)
    e0, e1 = ComplexVector.basis(w, 0), ComplexVector.basis(w, 1)
    ok = dict(
        op=Diagonal({0: 0.5, 1: 2.0}),
        p=1.0,
        small=(EigenPair(0.5, e0),),
        large=(EigenPair(2.0, e1),),
    )
    with pytest.raises(CriterionError):
        SpectralSplit(**ok, c=2.5)  # |c| not below the large modulus
    with pytest.raises(CriterionError):
        SpectralSplit(**ok, c=0.5)  # |c| below p
    with pytest.raises(CriterionError):
        SpectralSplit(
            op=Diagonal({0: 0.5, 1: 2.0}),
            p=1.0,
            small=(EigenPair(2.0, e1),),  # wrong side of p
            large=(EigenPair(2.0, e1),),
            c=1.5,
        )
    with pytest.raises(CriterionError):
        SpectralSplit(
            op=Diagonal({0: 0.5, 1: 2.0}),
            p=1.0,
            small=(EigenPair(0.5, e1),),  # not an eigenpair
            large=(EigenPair(2.0, e1),),
            c=1.5,
        )


def test_spectral_witness_no_power_in_horizon():
    w = IndexWindow(UNILATERAL, 1)
    split = SpectralSplit(
        op=Diagonal({0: 0.5, 1: 2.0}),
        p=1.0,
        small=(EigenPair(0.5, ComplexVector.basis(w, 0)),),
        large=(EigenPair(2.0, ComplexVector.basis(w, 1)),),
        c=1.5,
    )
    with pytest.raises(CriterionError):
        spectral_witness(split, (1.0,), (1.0,), eps=0.1, delta=0.1, horizon=5)


def test_shift_witness_frozen_values():
    w = IndexWindow(BILATERAL, 8)
    e0 = ComplexVector.basis(w, 0)
    wit = shift_witness(2.0, 3.0, e0, e0, 2)
    assert wit.scalar == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert wit.residual_in == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert wit.residual_out == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_shift_witness_power_zero():
    w = IndexWindow(BILATERAL, 4)
    e0 = ComplexVector.basis(w, 0)
    wit = shift_witness(2.0, 3.0, e0, e0, 0)
    assert wit.scalar == pytest.approx(1.0)
    assert wit.z == e0 * 2.0  # x + y with x = y
    assert wit.residual_in == pytest.approx(1.0)


def test_shift_witness_residuals_agree_and_shrink():
    w = IndexWindow(BILATERAL, 40)
    x = ComplexVector.basis(w, 1) * (0.3 + 0.4j) + ComplexVector.basis(w, -1) * 1.1
    y = ComplexVector.basis(w, 0) * 0.9 + ComplexVector.basis(w, 2) * (0.2 - 0.7j)
    t = ForwardShift(WeightProfile(2.0, 3.0))
    b = right_inverse(t)
    prev = math.inf
    for big_n in range(1, 30):
        wit = shift_witness(2.0, 3.0, x, y, big_n)
        assert wit.residual_in == pytest.approx(wit.residual_out, abs=1e-10)
        formula = math.sqrt(norm(power_apply(t, big_n, x)) * norm(power_apply(b, big_n, y)))
        assert wit.residual_out == pytest.approx(formula, rel=1e-10)
        assert wit.residual_out < prev
        prev = wit.residual_out


def test_shift_witness_validation():
    w = IndexWindow(BILATERAL, 8)
    e0 = ComplexVector.basis(w, 0)
    with pytest.raises(CriterionError):
        shift_witness(3.0, 2.0, e0, e0, 1)
    with pytest.raises(CriterionError):
        shift_witness(1.0, 2.0, e0, e0, 1)
    small = IndexWindow(BILATERAL, 2)
    with pytest.raises(Exception):
        shift_witness(2.0, 3.0, ComplexVector.basis(small, 2), ComplexVector.basis(small, 0), 1)
    # B^3 e1 falls off the unilateral lattice: the scalar would be 0
    uni = IndexWindow(UNILATERAL, 20)
    with pytest.raises(CriterionError):
        shift_witness(2.0, 3.0, ComplexVector.basis(uni, 0), ComplexVector.basis(uni, 1), 3)


# -- the engine against the per-criterion loops it replaced ------------------


def reference_subsequence_pair(components, smaps, nk, lambdas, x, y, scaled):
    """The subsequence criteria's former per-pair loop, kept as a reference."""
    c1, c2, c3 = [], [], []
    for idx, n in enumerate(nk):
        v1 = v2 = v3 = 0.0
        for i, (t, s) in enumerate(zip(components, smaps)):
            tn_x = norm(power_apply(t, n, x.parts[i]))
            sn_y = power_apply(s, n, y.parts[i])
            sn = norm(sn_y)
            if scaled:
                lam = abs(lambdas[i][idx])
                v1 += lam * tn_x
                v2 += sn / lam
            else:
                v1 += tn_x * sn
                v2 += sn
            v3 += norm(power_apply(t, n, sn_y) - y.parts[i])
        c1.append(v1)
        c2.append(v2)
        c3.append(v3)
    return tuple(c1), tuple(c2), tuple(c3)


def reference_compound_pair(op, smap, horizon, lambdas, x, y, scaled):
    """The compound criteria's former per-pair loop, kept as a reference."""
    c1, c2, c3 = [], [], []
    for n in range(1, horizon + 1):
        tn_x = norm(power_apply(op, n, x))
        sn_y = smap(n, y)
        sn = norm(sn_y)
        if scaled:
            lam = abs(lambdas[n - 1])
            c1.append(lam * tn_x)
            c2.append(sn / lam)
        else:
            c1.append(tn_x * sn)
            c2.append(sn)
        c3.append(norm(power_apply(op, n, sn_y) - y))
    return tuple(c1), tuple(c2), tuple(c3)


def random_component(rng):
    """A tabled forward shift, a diagonal with a default, or a scalar."""
    kind = rng.integers(3)
    if kind == 0:
        table = {int(k): float(rng.uniform(0.3, 3.0)) for k in rng.integers(-4, 5, size=3)}
        return ForwardShift(WeightProfile(float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.5, 3.0)), table))
    if kind == 1:
        entries = {int(k): complex(*rng.uniform(-1.5, 1.5, size=2)) for k in rng.integers(-3, 4, size=3)}
        return Diagonal(entries, default=complex(*rng.uniform(0.5, 1.5, size=2)))
    return Scalar(complex(*rng.uniform(0.4, 1.4, size=2)))


def random_lambdas(rng, arity, steps):
    moduli = rng.uniform(0.05, 1.0, size=(arity, steps))
    phases = rng.uniform(0, 2 * np.pi, size=(arity, steps))
    return tuple(tuple(complex(v) for v in row) for row in moduli * np.exp(1j * phases))


def random_data(rng, whole_sequence):
    arity = int(rng.integers(1, 4))
    comps = tuple(random_component(rng) for _ in range(arity))
    if whole_sequence:
        nk = tuple(range(1, int(rng.integers(2, 12)) + 1))
    else:
        picks = rng.choice(np.arange(1, 25), size=int(rng.integers(1, 8)), replace=False)
        nk = tuple(sorted(int(n) for n in picks))
    return CriterionData(
        components=comps,
        smaps=tuple(right_inverse(c) for c in comps),
        nk=nk,
        xsampler=make_vector_sampler(IndexWindow(BILATERAL, 40), arity, support=3, band=6),
        ysampler=make_vector_sampler(IndexWindow(BILATERAL, 40), arity, support=3, band=6),
        lambdas=random_lambdas(rng, arity, len(nk)) if rng.integers(2) else None,
        sample_count=int(rng.integers(1, 4)),
        seed=int(rng.integers(1000)),
    )


@pytest.mark.parametrize("whole_sequence", [False, True], ids=["subsequence", "whole-sequence"])
def test_engine_curves_equal_the_reference_loops_bitwise(whole_sequence):
    rng = np.random.default_rng(11 if whole_sequence else 7)
    for _ in range(60):
        data = random_data(rng, whole_sequence)
        checks = [(check_scalar_free_criterion, False)]
        if data.lambdas is not None:
            checks.append((check_scaled_criterion, True))
        for check, scaled in checks:
            rep = check(data)
            for (x, y), curves in zip(rep.pairs, rep.per_pair):
                ref = reference_subsequence_pair(data.components, data.smaps, data.nk, data.lambdas, x, y, scaled)
                assert curves == ref
    # the compound criteria on one component, with operator and callable maps
    for _ in range(40):
        op = random_component(rng)
        horizon = int(rng.integers(2, 15))
        lambdas = random_lambdas(rng, 1, horizon)[0]
        smap = powers_of_right_inverse(op) if rng.integers(2) else right_inverse(op)
        data = whole_sequence_data(op, smap, horizon, lambdas=lambdas, sample_count=3, seed=int(rng.integers(1000)))
        call = smap if callable(smap) else (lambda n, v, s=smap: power_apply(s, n, v))
        for check, scaled in ((check_compound_scalar_free, False), (check_compound_scaled, True)):
            rep = check(data)
            for (x, y), curves in zip(rep.pairs, rep.per_pair):
                assert curves == reference_compound_pair(op, call, horizon, lambdas, x.parts[0], y.parts[0], scaled)


def outcome(fn, *args):
    """fn's result, or ("raised", message) for the CriterionError it raises."""
    try:
        return fn(*args)
    except CriterionError as e:
        return ("raised", str(e))


def old_roundtrip(data, eps):
    """The former composition: scalar-free check, derived scalars, then the
    scaled conditions re-evaluated pair by pair."""
    free = check_scalar_free_criterion(data)
    derived = derive_scalars(data, eps)
    tol = max(data.tol, 1.01 * eps)
    values = tuple(
        reference_subsequence_pair(data.components, data.smaps, data.nk, scal.lambdas, x, y, scaled=True)
        for (x, y), scal in zip(free.pairs, derived.per_pair)
    )
    passes = tuple(all(_passes(v, tol) for v in vals) for vals in values)
    return free, derived, values, passes, tol, free.passed and all(passes)


def test_roundtrip_equals_the_former_composition():
    rng = np.random.default_rng(5)
    compared = raised = 0
    for case in range(40):
        data = shift_data(tuple(range(1, 41)), sample_count=3, seed=case) if case < 4 else random_data(rng, case % 2)
        eps = float(rng.choice([0.1, 0.5, 2.0, 20.0]))
        new = outcome(roundtrip_scalar_derivation, data, eps)
        old = outcome(old_roundtrip, data, eps)
        if old[0] == "raised":
            assert new == old
            raised += 1
            continue
        free, derived, values, passes, tol, passed = old
        assert new.scalar_free == free
        assert new.derived == derived
        assert new.scaled_values == values
        assert new.scaled_passes == passes
        assert new.tol == tol
        assert new.passed == passed
        compared += 1
    assert compared >= 10 and raised >= 3


@pytest.mark.parametrize("arities", [(1, 2), (2, 1), (1, 1)], ids=["short x", "short y", "both short"])
def test_samplers_too_short_for_the_components_are_a_criterion_error(arities):
    data = CriterionData(
        components=(SHIFT, SHIFT),
        smaps=(right_inverse(SHIFT),) * 2,
        nk=(1, 2, 3),
        xsampler=make_vector_sampler(W, arities[0], band=1),
        ysampler=make_vector_sampler(W, arities[1], band=1),
        lambdas=((0.5,) * 3,) * 2,
        sample_count=2,
    )
    for fn in (check_scaled_criterion, check_scalar_free_criterion):
        with pytest.raises(CriterionError, match="one part per component"):
            fn(data)
    for fn in (derive_scalars, roundtrip_scalar_derivation):
        with pytest.raises(CriterionError, match="one part per component"):
            fn(data, 0.1)


def test_extra_sampler_parts_are_an_error_not_ignored():
    # two-part pairs on one component: the second parts used to go unread
    one = whole_sequence_data(SHIFT, right_inverse(SHIFT), 5, lambdas=(0.5,) * 5, sample_count=2)
    data = replace(one, xsampler=make_vector_sampler(W, 2, band=1), ysampler=make_vector_sampler(W, 2, band=1))
    for fn in (check_scaled_criterion, check_scalar_free_criterion, check_compound_scaled, check_compound_scalar_free):
        with pytest.raises(CriterionError, match="one part per component"):
            fn(data)
    for fn in (derive_scalars, roundtrip_scalar_derivation):
        with pytest.raises(CriterionError, match="one part per component"):
            fn(data, 0.1)



# -- every sampled pair of a check in one batch, power by power ---------------

# two windows of one dimension, so that one dense matrix acts on both
TWO_WINDOWS = (IndexWindow(BILATERAL, 20), IndexWindow(UNILATERAL, 40))


def two_window_sampler(arity):
    """Each part on either window, with 1 to 4 support indices in [-4, 4]."""

    def sample(rng):
        return ProductVector(
            tuple(
                sample_finite_support(TWO_WINDOWS[int(rng.integers(2))], int(rng.integers(1, 5)), 1.0, rng, band=4)
                for _ in range(arity)
            )
        )

    return sample


def random_dense(rng):
    """A dense operator near 0.9 times the identity on the windows' dimension,
    and its inverse as the backward map."""
    d = TWO_WINDOWS[0].dim
    matrix = 0.9 * np.eye(d) + (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / (4 * d)
    return Dense(matrix), Dense(np.linalg.inv(matrix))


def random_backward_shift(rng):
    """A tabled backward shift, with the forward shift of reciprocal weights
    as its backward map."""
    table = {int(k): float(rng.uniform(0.3, 3.0)) for k in rng.integers(-4, 5, size=3)}
    weights = WeightProfile(float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.5, 3.0)), table)
    return BackwardShift(weights), ForwardShift(weights.reciprocal())


def test_batched_orbit_norms_equal_the_per_pair_references_bitwise():
    """Dense, backward-shift and other components, operator and callable
    backward maps, 8 to 12 pairs with their own supports, parts on two
    windows: every pair's curves equal the per-pair reference loops."""
    rng = np.random.default_rng(23)
    for case in range(12):
        other = random_component(rng)
        comps, smaps = zip(random_dense(rng), random_backward_shift(rng), (other, right_inverse(other)))
        picks = rng.choice(np.arange(1, 17), size=int(rng.integers(2, 8)), replace=False)
        nk = tuple(sorted(int(n) for n in picks))
        data = CriterionData(
            components=comps,
            smaps=smaps,
            nk=nk,
            xsampler=two_window_sampler(len(comps)),
            ysampler=two_window_sampler(len(comps)),
            lambdas=random_lambdas(rng, len(comps), len(nk)),
            sample_count=int(rng.integers(8, 13)),
            seed=case,
        )
        for check, scaled in ((check_scalar_free_criterion, False), (check_scaled_criterion, True)):
            rep = check(data)
            assert len({p.window for x, y in rep.pairs for p in (*x.parts, *y.parts)}) == 2
            for (x, y), curves in zip(rep.pairs, rep.per_pair):
                assert curves == reference_subsequence_pair(comps, smaps, nk, data.lambdas, x, y, scaled)
        # callable backward maps S_n = S^n on every component give the same bits
        shifts_and_scalars = tuple(random_component(rng) for _ in range(int(rng.integers(2, 4))))
        inverses = tuple(right_inverse(c) for c in shifts_and_scalars)
        called = replace(
            data,
            components=shifts_and_scalars,
            smaps=tuple(powers_of_right_inverse(c) for c in shifts_and_scalars),
            xsampler=two_window_sampler(len(shifts_and_scalars)),
            ysampler=two_window_sampler(len(shifts_and_scalars)),
            lambdas=None,
        )
        rep = check_scalar_free_criterion(called)
        for (x, y), curves in zip(rep.pairs, rep.per_pair):
            assert curves == reference_subsequence_pair(shifts_and_scalars, inverses, nk, None, x, y, False)
    # a map with one live column on complex pairs: numpy's complex product of
    # a one-row, one-column array by a broadcast operand rounds differently
    # from the same product spread to full shape, so a batch of pairs must
    # spread its coefficients as the apply of one part does
    for case in range(4):
        entry = complex(*rng.uniform(0.5, 1.5, size=2))
        lone, inverse = Diagonal({0: entry}, default=0.0), Diagonal({0: 1 / entry}, default=0.0)
        sampler = make_vector_sampler(TWO_WINDOWS[0], 1, support=1, band=0)
        data = CriterionData((lone,), (inverse,), (1, 2, 3), sampler, sampler, sample_count=6, seed=case)
        rep = check_scalar_free_criterion(data)
        assert all(x.parts[0].coeffs.imag.any() for x, _ in rep.pairs)
        for (x, y), curves in zip(rep.pairs, rep.per_pair):
            assert curves == reference_subsequence_pair((lone,), (inverse,), (1, 2, 3), None, x, y, False)


@pytest.mark.parametrize("kind", ["dense", "backward shift"])
def test_batched_compound_norms_equal_the_per_pair_reference_bitwise(kind):
    rng = np.random.default_rng(29 if kind == "dense" else 31)
    for case in range(6):
        op, smap = (random_dense if kind == "dense" else random_backward_shift)(rng)
        horizon = int(rng.integers(2, 17))
        lambdas = random_lambdas(rng, 1, horizon)[0]

        def call(n, v, s=smap):
            return power_apply(s, n, v)

        backward = call if case % 2 else smap
        data = replace(
            whole_sequence_data(op, backward, horizon, lambdas=lambdas, sample_count=8, seed=case),
            xsampler=two_window_sampler(1),
            ysampler=two_window_sampler(1),
        )
        for check, scaled in ((check_compound_scalar_free, False), (check_compound_scaled, True)):
            rep = check(data)
            for (x, y), curves in zip(rep.pairs, rep.per_pair):
                assert curves == reference_compound_pair(op, call, horizon, lambdas, x.parts[0], y.parts[0], scaled)


def sequence_sampler(parts):
    """A sampler that returns the given one-part vectors in turn, whatever
    the generator."""
    draws = iter(parts)
    return lambda rng: ProductVector((next(draws),))


def test_orbit_norm_errors_name_the_lowest_power_any_pair_overflows():
    """||T^n x|| is 3^n for x = e_-390, whose square passes the float range
    from n = 324 on, and 1e100 3^n for the second pair's x, from n = 114 on.
    Pair by pair, the first pair's power 324 was named."""
    w = IndexWindow(BILATERAL, 400)
    data = CriterionData(
        components=(SHIFT,),
        smaps=(right_inverse(SHIFT),),
        nk=tuple(range(1, 331)),
        xsampler=sequence_sampler([ComplexVector.basis(w, -390), ComplexVector.basis(w, -390, 1e100)]),
        ysampler=sequence_sampler([ComplexVector.basis(w, 0)] * 2),
        sample_count=2,
    )
    with pytest.raises(OperatorError, match="_orbit_norms overflows a float at power 114: "):
        check_scalar_free_criterion(data)


def test_the_window_guard_runs_for_every_pair_before_any_power_is_formed(monkeypatch):
    """The first pair would overflow at power 114; the second pair's x sits
    at 395, which power 330 pushes past the window top 400."""
    formed = []
    power_map = PowerStack.power_map
    monkeypatch.setattr(PowerStack, "power_map", lambda self, n: formed.append(n) or power_map(self, n))
    w = IndexWindow(BILATERAL, 400)
    data = CriterionData(
        components=(SHIFT,),
        smaps=(right_inverse(SHIFT),),
        nk=tuple(range(1, 331)),
        xsampler=sequence_sampler([ComplexVector.basis(w, -390, 1e100), ComplexVector.basis(w, 395)]),
        ysampler=sequence_sampler([ComplexVector.basis(w, 0)] * 2),
        sample_count=2,
    )
    with pytest.raises(WindowGuardError, match="forward power 330 pushes support 395"):
        check_scalar_free_criterion(data)
    assert formed == []


def test_a_check_on_a_shift_applies_no_power_to_a_single_vector(monkeypatch):
    """The orbit norms apply each power to all pairs' rows at once
    (PowerMap.apply_rows); a return to per-pair application fails here."""
    single = []
    apply_vec = PowerMap.apply_vec
    monkeypatch.setattr(PowerMap, "apply_vec", lambda self, arr: single.append(arr.shape) or apply_vec(self, arr))
    nk = tuple(range(1, 41))
    data = shift_data(nk, geometric_lambdas(nk), sample_count=8)
    compound = whole_sequence_data(SHIFT, right_inverse(SHIFT), 40, sample_count=8)
    for report in (check_scaled_criterion(data), check_scalar_free_criterion(data), check_compound_scalar_free(compound)):
        assert len(report.per_pair) == 8
    assert len(derive_scalars(data, 0.1).per_pair) == 8
    assert roundtrip_scalar_derivation(data, 0.1).passed
    assert single == []


def test_a_callable_backward_map_gets_each_sampled_part_itself():
    """The batch calls a callable S_n on the sampled part, not on a copy
    built from the stacked rows, once per power and part; an image on
    another window is refused as a difference of such vectors is."""
    seen = []
    inverse = right_inverse(SHIFT)

    def backward(n, v):
        seen.append((n, v))
        return power_apply(inverse, n, v)

    data = replace(shift_data((2, 5, 9), sample_count=8), smaps=(backward,))
    rep = check_scalar_free_criterion(data)
    ys = [y.parts[0] for _, y in rep.pairs]
    assert [n for n, _ in seen] == [n for n in (2, 5, 9) for _ in ys]
    assert all(v is ys[p % 8] for p, (_, v) in enumerate(seen))
    other = IndexWindow(UNILATERAL, 3)
    with pytest.raises(ValueError, match="vectors live on different windows"):
        check_scalar_free_criterion(replace(data, smaps=(lambda n, v: ComplexVector.zero(other),)))


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("nk", (1.5, 2.7), "powers must be integers"),
        ("nk", (1, 2, math.nan), "powers must be integers"),
        ("nk", (1, math.inf), "powers must be integers"),
        ("tol", 0.0, "tol must be positive"),
        ("tol", -1e-6, "tol must be positive"),
        ("tol", math.nan, "tol must be positive"),
        ("sample_count", 2.5, "sample_count must be an integer"),
        ("sample_count", math.inf, "sample_count must be an integer"),
        ("sample_count", math.nan, "sample_count must be an integer"),
    ],
)
def test_data_rejects_fractional_powers_and_counts_and_a_tolerance_not_above_zero(field, value, message):
    with pytest.raises(CriterionError, match=message):
        replace(shift_data((1, 2, 3)), **{field: value})


def test_data_takes_integral_floats_as_powers_and_counts():
    data = replace(shift_data((1, 2, 3)), nk=(1.0, np.int64(2), 3), sample_count=np.float64(4.0))
    assert data.nk == (1, 2, 3) and type(data.nk[1]) is int
    assert data.sample_count == 4 and type(data.sample_count) is int
    assert len(check_scalar_free_criterion(data).pairs) == 4
    split = canonical_split()
    whole = spectral_witness(split, (1.0,), (1.0,), eps=0.1, delta=0.1, horizon=20)
    assert spectral_witness(split, (1.0,), (1.0,), eps=0.1, delta=0.1, horizon=np.float64(20.0)) == whole
    assert type(whole.steps[-1]) is int
    for make in (make_vector_sampler, make_ball_sampler):
        assert make(W, 2.0, band=1)(3) == make(W, 2, band=1)(3)


def canonical_split():
    w = IndexWindow(UNILATERAL, 1)
    return SpectralSplit(
        op=Diagonal({0: 0.5, 1: 2.0}),
        p=1.0,
        small=(EigenPair(0.5, ComplexVector.basis(w, 0)),),
        large=(EigenPair(2.0, ComplexVector.basis(w, 1)),),
        c=1.5,
    )


@pytest.mark.parametrize("count", [0, -1, 2.5, math.inf, math.nan])
def test_witness_and_samplers_reject_a_count_that_is_not_whole(count):
    """A fractional or non-finite horizon or arity is refused where it is
    given, not as a TypeError from range where it is used."""
    with pytest.raises(CriterionError, match="horizon must be at least 1"):
        spectral_witness(canonical_split(), (1.0,), (1.0,), eps=0.1, delta=0.1, horizon=count)
    for make in (make_vector_sampler, make_ball_sampler):
        with pytest.raises(ValueError, match="arity must be at least 1"):
            make(W, count)


@pytest.mark.parametrize("poisoned", ["every pair", "one pair"])
def test_a_non_finite_backward_image_is_a_criterion_error_naming_its_power(poisoned):
    """On the (2, 3) shift at m = 8 with 4 pairs, a callable that returned
    NaN at n = 3 put NaN into all three condition curves at step 3; where
    only some pairs held NaN, the envelope kept or dropped it by the order of
    the pairs."""
    w = IndexWindow(BILATERAL, 8)
    inverse = right_inverse(SHIFT)
    calls = []

    def backward(n, v):
        calls.append(n)
        image = power_apply(inverse, n, v)
        if n == 3 and (poisoned == "every pair" or len(calls) % 4 == 2):
            return ComplexVector(w, np.full(w.dim, math.nan))
        return image

    data = replace(
        shift_data((1, 2, 3, 4), sample_count=4),
        smaps=(backward,),
        xsampler=make_vector_sampler(w, band=1),
        ysampler=make_vector_sampler(w, band=1),
    )
    for check in (check_scalar_free_criterion, lambda d: derive_scalars(d, 0.5), lambda d: roundtrip_scalar_derivation(d, 0.5)):
        with pytest.raises(CriterionError, match="the backward map's image at power 3 holds a non-finite coefficient"):
            check(data)


@pytest.mark.parametrize("sampler", ["xsampler", "ysampler"])
@pytest.mark.parametrize("value", [math.nan, math.inf, complex(0.0, -math.inf)], ids=["nan", "inf", "imaginary-inf"])
def test_a_non_finite_sampled_part_is_a_criterion_error_naming_its_sampler(sampler, value):
    finite = make_vector_sampler(W, band=1)

    def draw(rng):
        part = finite(rng).parts[0]
        return ProductVector((part + ComplexVector.basis(W, 1, value),))

    data = replace(shift_data((1, 2, 3), sample_count=3), **{sampler: draw})
    for check in (check_scalar_free_criterion, lambda d: derive_scalars(d, 0.5)):
        with pytest.raises(CriterionError, match=f"{sampler} drew a non-finite coefficient"):
            check(data)
