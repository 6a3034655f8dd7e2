import numpy as np
import pytest

import opoly as op

from conftest import inner, k2_case_fixture, worst_gram_ratio


def test_first_moments_symmetric_quarter():
    rec = op.RecurrencePair(np.zeros(7), np.full(6, 0.25))
    mu = op.moments_from_recurrence(rec, 4)
    assert mu[0] == 1.0
    assert mu[1] == 0.0
    assert mu[2] == 0.25


def test_first_moment_is_beta0():
    rec = op.RecurrencePair([0.3, 0.0, 0.0, 0.0], [0.2, 0.2, 0.2])
    mu = op.moments_from_recurrence(rec, 2)
    assert mu[1] == pytest.approx(0.3, abs=1e-15)


def test_fourth_moment_second_kind(cheb_u):
    # brute-force weight integral of x^4 sqrt(1-x^2) * 2/pi equals 1/8
    mu = op.moments_from_recurrence(cheb_u, 6)
    assert mu[4] == pytest.approx(0.125, abs=1e-14)


def test_count_limited_by_horizon():
    rec = op.RecurrencePair(np.zeros(4), np.full(3, 0.25))
    op.moments_from_recurrence(rec, 6)
    with pytest.raises(op.HorizonError):
        op.moments_from_recurrence(rec, 7)


def test_inner_values_and_symmetry(cheb_u, rng):
    mu = op.moments_from_recurrence(cheb_u, 20)
    one = op.Poly((1.0,))
    assert inner(mu, one, one) == mu[0] == 1.0
    assert inner(mu, one, op.Poly((0.0, 0.0, 1.0))) == 0.25
    assert inner(mu, one, op.poly_p(cheb_u, 2)) == pytest.approx(0.0, abs=1e-15)
    p3 = op.poly_p(cheb_u, 3)
    p5 = op.poly_p(cheb_u, 5)
    assert inner(mu, p3, p5) == pytest.approx(0.0, abs=1e-10)
    p1 = op.poly_p(cheb_u, 1)
    assert inner(mu, p1, p1) == pytest.approx(0.25, abs=1e-15)
    for _ in range(10):
        p = op.Poly(tuple(rng.uniform(-1, 1, size=4)))
        q = op.Poly(tuple(rng.uniform(-1, 1, size=5)))
        assert inner(mu, p, q) == inner(mu, q, p)  # bitwise: np.convolve orders its operands


@pytest.mark.parametrize("kind", [1, 2, 3, 4])
def test_squared_norms_are_gamma_products(kind):
    rec = op.chebyshev_family(kind, 14)
    mu = op.moments_from_recurrence(rec, 26)
    prod = 1.0
    for n in range(1, 13):
        prod *= rec.gamma[n]
        p = op.poly_p(rec, n)
        assert inner(mu, p, p) == pytest.approx(prod, rel=1e-10)


@pytest.mark.parametrize("kind", [1, 2, 3, 4])
def test_gram_round_trip(kind):
    rec = op.chebyshev_family(kind, 12)
    mu = op.moments_from_recurrence(rec, 20)
    polys = [op.poly_p(rec, n) for n in range(11)]
    assert worst_gram_ratio(mu, polys) <= 1e-10


def test_gram_round_trip_generated_family():
    # round trip also for a family with no classical closed-form weight
    _, _, _, rec = k2_case_fixture("real_roots", horizon=20)
    mu = op.moments_from_recurrence(rec, 16)
    polys = [op.poly_p(rec, n) for n in range(9)]
    assert worst_gram_ratio(mu, polys) <= 1e-9


def test_moments_are_read_only(cheb_u):
    mu = op.moments_from_recurrence(cheb_u, 6)
    assert mu.shape == (7,)
    with pytest.raises(ValueError):
        mu[0] = 2.0
