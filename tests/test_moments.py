import numpy as np
import pytest

import opoly as op

from conftest import k2_case_fixture, worst_gram_ratio


def test_first_moments_symmetric_quarter():
    rec = op.RecurrencePair(np.zeros(7), np.full(6, 0.25))
    f = op.moments_from_recurrence(rec, 4)
    assert f.moments[0] == 1.0
    assert f.moments[1] == 0.0
    assert f.moments[2] == 0.25


def test_first_moment_is_beta0():
    rec = op.RecurrencePair([0.3, 0.0, 0.0, 0.0], [0.2, 0.2, 0.2])
    f = op.moments_from_recurrence(rec, 2)
    assert f.moments[1] == pytest.approx(0.3, abs=1e-15)


def test_fourth_moment_second_kind(cheb_u):
    # brute-force weight integral of x^4 sqrt(1-x^2) * 2/pi equals 1/8
    f = op.moments_from_recurrence(cheb_u, 6)
    assert f.moments[4] == pytest.approx(0.125, abs=1e-14)


def test_count_limited_by_horizon():
    rec = op.RecurrencePair(np.zeros(4), np.full(3, 0.25))
    op.moments_from_recurrence(rec, 6)
    with pytest.raises(op.HorizonError):
        op.moments_from_recurrence(rec, 7)


def test_apply_functional(cheb_u):
    f = op.moments_from_recurrence(cheb_u, 8)
    assert op.apply_functional(f, op.Poly((1.0,))) == 1.0
    assert op.apply_functional(f, op.Poly((0.0, 0.0, 1.0))) == 0.25
    assert op.apply_functional(f, op.poly_p(cheb_u, 2)) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(op.HorizonError):
        op.apply_functional(f, op.Poly.monomial(9))


def test_inner_values_and_symmetry(cheb_u, rng):
    f = op.moments_from_recurrence(cheb_u, 20)
    p3 = op.poly_p(cheb_u, 3)
    p5 = op.poly_p(cheb_u, 5)
    assert op.inner(f, p3, p5) == pytest.approx(0.0, abs=1e-10)
    p1 = op.poly_p(cheb_u, 1)
    assert op.inner(f, p1, p1) == pytest.approx(0.25, abs=1e-15)
    one = op.Poly((1.0,))
    assert op.inner(f, one, one) == f.moments[0]
    for _ in range(10):
        p = op.Poly(tuple(rng.uniform(-1, 1, size=4)))
        q = op.Poly(tuple(rng.uniform(-1, 1, size=5)))
        assert op.inner(f, p, q) == op.inner(f, q, p)  # bitwise


@pytest.mark.parametrize("kind", [1, 2, 3, 4])
def test_squared_norms_are_gamma_products(kind):
    rec = op.chebyshev_family(kind, 14)
    f = op.moments_from_recurrence(rec, 26)
    prod = 1.0
    for n in range(1, 13):
        prod *= rec.gamma[n]
        p = op.poly_p(rec, n)
        assert op.inner(f, p, p) == pytest.approx(prod, rel=1e-10)


@pytest.mark.parametrize("kind", [1, 2, 3, 4])
def test_gram_round_trip(kind):
    rec = op.chebyshev_family(kind, 12)
    f = op.moments_from_recurrence(rec, 20)
    polys = [op.poly_p(rec, n) for n in range(11)]
    assert worst_gram_ratio(f, polys) <= 1e-10


def test_gram_round_trip_generated_family():
    # round trip also for a family with no classical closed-form weight
    _, _, _, rec = k2_case_fixture("real_roots", horizon=20)
    f = op.moments_from_recurrence(rec, 16)
    polys = [op.poly_p(rec, n) for n in range(9)]
    assert worst_gram_ratio(f, polys) <= 1e-9


def test_moment_functional_validation():
    with pytest.raises(ValueError):
        op.MomentFunctional(np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        op.MomentFunctional(np.array([1.0, np.nan]))
