import math

import pytest

from disklab.criteria import (
    CompoundData,
    CriterionData,
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
    Diagonal,
    EigenPair,
    ForwardShift,
    Scalar,
    WeightProfile,
    power_apply,
    right_inverse,
)
from disklab.vectorspace import (
    BILATERAL,
    UNILATERAL,
    ComplexVector,
    IndexWindow,
    norm,
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


def test_derive_scalars_rejects_oversized_eps():
    data = shift_data((1, 2, 3))
    with pytest.raises(CriterionError):
        derive_scalars(data, eps=1e-9)


def test_roundtrip_derivation_passes():
    nk = tuple(range(1, 41))
    rt = roundtrip_scalar_derivation(shift_data(nk), eps=0.1)
    assert rt.scalar_free.passed
    assert all(rt.scaled_passes)
    assert rt.passed
    assert rt.tol == pytest.approx(0.101)


def test_compound_scaled_on_shift():
    # (2/3)^(n/2) crosses 1e-6 only past n = 68, so the horizon must exceed it
    data = CompoundData(
        op=SHIFT,
        smap=powers_of_right_inverse(SHIFT),
        horizon=80,
        xsampler=make_vector_sampler(W, band=1),
        ysampler=make_vector_sampler(W, band=1),
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
    data = CompoundData(
        op=Scalar(2.0),
        smap=lambda n, v: v * (2.0**-n),
        horizon=horizon,
        xsampler=make_vector_sampler(W, band=1),
        ysampler=make_vector_sampler(W, band=1),
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
        CompoundData(
            op=SHIFT,
            smap=powers_of_right_inverse(SHIFT),
            horizon=4,
            xsampler=make_vector_sampler(W),
            ysampler=make_vector_sampler(W),
            lambdas=(0.5, 0.0, 0.5, 0.5),
        )


def test_compound_scalar_free_on_shift():
    data = CompoundData(
        op=SHIFT,
        smap=powers_of_right_inverse(SHIFT),
        horizon=40,
        xsampler=make_vector_sampler(W, band=1),
        ysampler=make_vector_sampler(W, band=1),
        sample_count=6,
    )
    rep = check_compound_scalar_free(data)
    assert rep.passed


def test_compound_roundtrip_scalar_free_to_scaled():
    horizon = 40
    base = dict(
        op=SHIFT,
        smap=powers_of_right_inverse(SHIFT),
        horizon=horizon,
        xsampler=make_vector_sampler(W, band=1),
        ysampler=make_vector_sampler(W, band=1),
        sample_count=4,
        seed=77,
    )
    free = check_compound_scalar_free(CompoundData(**base))
    assert free.passed
    eps = 0.1
    for (x, y), values in zip(free.pairs, free.per_pair):
        backward = values[1]  # ||S_n y|| along n
        lambdas = tuple(min(1.0, v / eps) if v > 0 else 1e-12 for v in backward)
        rep = check_compound_scaled(
            CompoundData(**{**base, "lambdas": lambdas, "tol": 1.01 * eps, "sample_count": 1})
        )
        # same construction as the subsequence derivation: scaled re-check
        # passes at the relaxed tolerance
        assert rep.conditions[0].values[-1] < 1.01 * eps


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
