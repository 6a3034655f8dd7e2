import math

import numpy as np
import pytest

import opoly as op
from opoly import K2Case, K2Params

from conftest import (
    chebyshev_weight_moments,
    k2_case_fixture,
    worst_gram_ratio,
)


def test_eval_p_degree_zero_is_one(cheb_u):
    assert op.eval_p(cheb_u, 0, 3.7) == 1.0


def test_eval_p_chebyshev_u_root(cheb_u):
    # monic U_2 = x^2 - 1/4 has a root at 1/2
    assert op.eval_p(cheb_u, 2, 0.5) == pytest.approx(0.0, abs=1e-15)


def test_eval_p_two_steps():
    rec = op.RecurrencePair(np.zeros(6), np.full(5, 0.25))
    # P_3 = x^3 - x/2
    assert op.eval_p(rec, 3, 1.0) == pytest.approx(0.5, abs=1e-15)


def test_eval_p_range_errors(cheb_u):
    with pytest.raises(op.HorizonError):
        op.eval_p(cheb_u, cheb_u.horizon + 2, 0.0)
    with pytest.raises(op.HorizonError):
        op.eval_p(cheb_u, -1, 0.0)


def test_poly_p_base_cases():
    rec = op.RecurrencePair([0.25, 0.0, 0.0], [0.25, 0.25])
    assert op.poly_p(rec, 0).coeffs == (1.0,)
    assert op.poly_p(rec, 1).coeffs == (-0.25, 1.0)


def test_poly_p_chebyshev_t(cheb_t):
    assert op.poly_p(cheb_t, 2).coeffs == pytest.approx((-0.5, 0.0, 1.0))


@pytest.mark.parametrize("kind", [1, 2, 3, 4])
def test_poly_p_matches_eval_p(kind, rng):
    rec = op.chebyshev_family(kind, 14)
    xs = rng.uniform(-2.0, 2.0, size=20)
    for n in range(rec.horizon + 2):
        p = op.poly_p(rec, n)
        for x in xs:
            direct = op.eval_p(rec, n, x)
            via_coeffs = p(x)
            assert via_coeffs == pytest.approx(direct, rel=1e-10, abs=1e-12)


def test_poly_p_monic(cheb_t):
    for n in range(1, cheb_t.horizon + 2):
        assert op.poly_p(cheb_t, n).leading == 1.0


def test_chebyshev_coefficient_values():
    u = op.chebyshev_family(2, 10)
    assert u.beta[5] == 0.0 and u.gamma[5] == 0.25
    t = op.chebyshev_family(1, 10)
    assert t.gamma[1] == 0.5 and t.gamma[2] == 0.25
    v = op.chebyshev_family(3, 10)
    assert v.beta[0] == 0.5 and v.beta[1] == 0.0
    w = op.chebyshev_family(4, 10)
    assert w.beta[0] == -0.5 and np.all(w.gamma[1:] == 0.25)


def test_chebyshev_invalid_args():
    with pytest.raises(ValueError):
        op.chebyshev_family(5, 10)
    with pytest.raises(ValueError):
        op.chebyshev_family(1, 1)


@pytest.mark.parametrize("kind", [1, 2, 3, 4])
def test_chebyshev_moments_match_weight_integrals(kind):
    # closed-form weight moments are the independent oracle for the
    # recurrence conventions (including the kind-3/4 sign of beta_0)
    rec = op.chebyshev_family(kind, 14)
    f = op.moments_from_recurrence(rec, 20)
    expected = chebyshev_weight_moments(kind, 20)
    for m in range(21):
        assert f.moments[m] == pytest.approx(float(expected[m]), abs=1e-14)


@pytest.mark.parametrize("kind", [1, 2, 3, 4])
def test_chebyshev_gram_diagonality(kind):
    rec = op.chebyshev_family(kind, 14)
    f = op.moments_from_recurrence(rec, 24)
    polys = [op.poly_p(rec, n) for n in range(13)]
    assert worst_gram_ratio(f, polys) <= 1e-10


def test_recurrence_pair_validation():
    with pytest.raises(op.DegeneracyError):
        op.RecurrencePair([0.0, 0.0, 0.0], [0.25, 0.0])
    with pytest.raises(ValueError):
        op.RecurrencePair([0.0, np.inf, 0.0], [0.25, 0.25])
    with pytest.raises(ValueError):
        op.RecurrencePair([0.0, 0.0], [0.25, 0.25])


def test_recurrence_pair_immutable(cheb_u):
    with pytest.raises(AttributeError):
        cheb_u.beta = np.zeros(3)
    with pytest.raises(ValueError):
        cheb_u.beta[0] = 1.0


def test_k2_a1_zero_reproduces_first_kind(cheb_t):
    _, _, _, rec = k2_case_fixture("a1_zero", horizon=30)
    assert np.allclose(rec.beta, cheb_t.beta)
    assert np.allclose(rec.gamma[1:], cheb_t.gamma[1:])
    # period-2 structure from index 2
    assert np.all(rec.gamma[4:] == rec.gamma[2:-2])


def test_k2_constant_solution():
    params = K2Params(K2Case.EQUAL_ROOTS, beta0=0.0, beta1=0.0, gamma1=0.25,
                      A=0.0, D=0.25)
    rec = op.k2_family(2.0, 1.0, params, 20)
    assert np.all(rec.beta[2:] == 0.0)
    assert np.all(rec.gamma[2:] == 0.25)


def test_k2_real_root_value():
    # lam^2 - 3 lam + 1 = 0 for a1 = 1, a2 = 1/5; inner root (3 - sqrt 5)/2
    a1, a2 = 1.0, 0.2
    lam = (3.0 - math.sqrt(5.0)) / 2.0
    assert abs(lam - 0.381966011250105) < 1e-12
    assert abs(a1 * a1 * lam - a2 * (1.0 + lam) ** 2) < 1e-12
    # an explicit lam is validated; a wrong one is rejected
    params = K2Params(K2Case.REAL_ROOTS, beta0=0.0, beta1=0.0, gamma1=0.3,
                      D=0.25, lam=lam)
    rec = op.k2_family(a1, a2, params, 12)
    assert np.all(rec.gamma[2:] == 0.25)
    bad = K2Params(K2Case.REAL_ROOTS, beta0=0.0, beta1=0.0, gamma1=0.3,
                   D=0.25, lam=0.5)
    with pytest.raises(op.ConstraintError):
        op.k2_family(a1, a2, bad, 12)


def test_k2_real_root_tail_matches_closed_form():
    a1, a2, params, rec = k2_case_fixture("real_roots", horizon=40)
    lam = (3.0 - math.sqrt(5.0)) / 2.0
    ns = np.arange(2, 41)
    assert np.allclose(rec.beta[2:], params.A + params.B * lam**ns, atol=1e-13)
    assert np.allclose(rec.gamma[2:], params.D + params.E * lam**ns, atol=1e-13)


def test_k2_complex_case_real_output():
    a1, a2, params, rec = k2_case_fixture("complex_roots", horizon=40)
    theta = math.acos(a1 * a1 / (2.0 * a2) - 1.0)
    ns = np.arange(2, 41)
    expect_beta = params.A + 2.0 * (complex(params.B) * np.exp(1j * theta * ns)).real
    expect_gamma = params.D + 2.0 * (complex(params.E) * np.exp(1j * theta * ns)).real
    assert np.allclose(rec.beta[2:], expect_beta, atol=1e-12)
    assert np.allclose(rec.gamma[2:], expect_gamma, atol=1e-12)
    assert rec.beta.dtype == np.float64


@pytest.mark.parametrize("case", ["equal_roots", "real_roots", "complex_roots"])
def test_k2_difference_equation(case):
    a1, a2, _, rec = k2_case_fixture(case, horizon=50)
    assert op.k2_difference_residual(rec.beta, a1, a2) < 1e-10
    assert op.k2_difference_residual(rec.gamma, a1, a2) < 1e-10
    bumped = rec.beta.copy()
    bumped[20] += 0.01
    assert op.k2_difference_residual(bumped, a1, a2) > 1e-3


def test_k2_case_tag_consistency():
    params = K2Params(K2Case.A1_ZERO, beta0=0.0, beta1=0.0, gamma1=0.5,
                      A=0.0, B=0.0, D=0.25, E=0.25)
    with pytest.raises(op.ConstraintError):
        op.k2_family(1.0, -0.125, params, 10)  # a1 != 0 with A1_ZERO
    params2 = K2Params(K2Case.REAL_ROOTS, beta0=0.0, beta1=0.0, gamma1=0.25, D=0.25)
    with pytest.raises(op.ConstraintError):
        op.k2_family(1.0, 1.0, params2, 10)  # a1^2 < 4 a2 is the complex case


def test_k2_constraint_violation_rejected():
    params = K2Params(K2Case.EQUAL_ROOTS, beta0=0.0, beta1=0.0, gamma1=0.25,
                      A=0.0, B=0.01, C=0.0, D=0.25, E=0.0, F=0.0)
    # a1*B = 2E - 2F fails (0.02 != 0)
    with pytest.raises(op.ConstraintError):
        op.k2_family(2.0, 1.0, params, 10)


def test_k2_degenerate_gamma_detected():
    # gamma_n = -0.01 + 0.005 n hits zero exactly at n = 2
    params = K2Params(K2Case.EQUAL_ROOTS, beta0=0.0, beta1=0.0, gamma1=0.25,
                      A=0.0, B=0.005, C=0.0, D=-0.01, E=0.005, F=0.0)
    with pytest.raises(op.DegeneracyError):
        op.k2_family(2.0, 1.0, params, 10)


def test_k2_rejects_zero_a2():
    params = K2Params(K2Case.EQUAL_ROOTS, beta0=0.0, beta1=0.0, gamma1=0.25, D=0.25)
    with pytest.raises(ValueError):
        op.k2_family(1.0, 0.0, params, 10)


def test_k1_constant_gamma_gives_constant_beta():
    rec = op.k1_family([0.25] * 12, 0.0, 0.0, 0.0, 0.3, 12)
    assert np.all(rec.beta == 0.0)


def test_k1_first_kind_gammas():
    gammas = [0.5] + [0.25] * 11
    rec = op.k1_family(gammas, 0.0, 0.0, 0.0, 1.0, 12)
    assert np.all(rec.beta[3:] == 0.0)


def test_k1_direct_formula():
    gammas = [0.25, 0.25, 0.35] + [0.25] * 9
    rec = op.k1_family(gammas, 0.0, 0.0, 0.0, 0.5, 12)
    assert rec.beta[3] == pytest.approx(0.2, abs=1e-15)


def test_k1_degeneracy_and_domain_errors():
    with pytest.raises(op.DegeneracyError):
        # gamma_2 + a1*(beta_1 - beta_2) = 1/4 + 1*(0 - 1/4) = 0
        op.k1_family([0.25] * 12, 0.0, 0.0, 0.25, 1.0, 12)
    with pytest.raises(ValueError):
        op.k1_family([0.25] * 12, 0.0, 0.0, 0.0, 0.0, 12)
    with pytest.raises(ValueError):
        op.k1_family([0.25, 0.0] + [0.25] * 10, 0.0, 0.0, 0.0, 0.5, 12)
    with pytest.raises(op.HorizonError):
        op.k1_family([0.25] * 5, 0.0, 0.0, 0.0, 0.5, 12)


@pytest.mark.parametrize("case", ["a1_zero", "equal_roots", "real_roots", "complex_roots"])
def test_k2_gamma_floor_invariant(case):
    _, _, _, rec = k2_case_fixture(case, horizon=50)
    assert np.all(np.abs(rec.gamma[1:]) > 1e-14)


def test_poly_arithmetic():
    p = op.Poly((1.0, 2.0))
    q = op.Poly((0.0, 1.0))
    assert (p * q).coeffs == (0.0, 1.0, 2.0)
    assert (p + q).coeffs == (1.0, 3.0)
    assert (p - q).coeffs == (1.0, 1.0)
    assert (2.0 * p).coeffs == (2.0, 4.0)
    assert p.times_x().coeffs == (0.0, 1.0, 2.0)
    assert op.Poly((1.0, 0.0, 0.0)).coeffs == (1.0,)
    assert op.Poly.monomial(3).degree == 3
