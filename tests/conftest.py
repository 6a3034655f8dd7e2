"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

import opoly as op

SEED = 0xC0FFEE


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


@pytest.fixture
def cheb_t():
    return op.chebyshev_family(1, 30)


@pytest.fixture
def cheb_u():
    return op.chebyshev_family(2, 30)


def chebyshev_weight_moments(kind: int, count: int) -> list[Fraction]:
    """Closed-form moments of the four normalised Chebyshev weights.

    Independent of any recurrence: the first-kind moments are
    ``t_{2j} = C(2j, j) / 4^j`` (odd ones vanish), the second-kind ones are
    the scaled Catalan numbers ``C(2j, j) / ((j + 1) 4^j)``, and the third
    and fourth kinds are ``t_m +- t_{m+1}`` because their weights are
    ``(1 +- x)`` times the first-kind weight.
    """

    def t(m: int) -> Fraction:
        if m % 2 == 1:
            return Fraction(0)
        j = m // 2
        return Fraction(math.comb(2 * j, j), 4**j)

    def u(m: int) -> Fraction:
        if m % 2 == 1:
            return Fraction(0)
        j = m // 2
        return Fraction(math.comb(2 * j, j), (j + 1) * 4**j)

    if kind == 1:
        return [t(m) for m in range(count + 1)]
    if kind == 2:
        return [u(m) for m in range(count + 1)]
    if kind == 3:
        return [t(m) + t(m + 1) for m in range(count + 1)]
    if kind == 4:
        return [t(m) - t(m + 1) for m in range(count + 1)]
    raise ValueError(kind)


def trig_square_in_x(a) -> np.ndarray:
    """``|1 + sum_j (2^j a_j) z^j|^2`` on the unit circle, as a polynomial in
    ``x = cos(theta)`` (monomial coefficients, low degree first).

    For second-kind input this is the classical closed form of the degree-k
    polynomial dividing the weight, up to scale: the monic combination
    ``sum a_j P_{n-j}`` carries effective trigonometric coefficients
    ``2^j a_j`` because each monic ``P_m`` is ``U_m / 2^m``.
    """
    c = np.array([1.0] + [a_j * 2**j for j, a_j in enumerate(a, start=1)])
    k = len(c) - 1
    d = np.zeros(k + 1)
    d[0] = np.sum(c * c)
    for m in range(1, k + 1):
        d[m] = 2.0 * np.sum(c[:-m] * c[m:])
    out = np.zeros(k + 1)
    t_prev, t_cur = np.array([1.0]), np.array([0.0, 1.0])
    out[:1] += d[0] * t_prev
    if k >= 1:
        out[:2] += d[1] * t_cur
    for m in range(2, k + 1):
        t_next = np.zeros(m + 1)
        t_next[1:] = 2.0 * t_cur
        t_next[: m - 1] -= t_prev
        out[: m + 1] += d[m] * t_next
        t_prev, t_cur = t_cur, t_next
    return out


def k2_case_fixture(case: str, horizon: int = 50):
    """Reference parameter sets used across tests, one per classification case.

    Returns ``(a1, a2, params, rec)``.
    """
    if case == "a1_zero":
        a1, a2 = 0.0, -0.125
        params = op.K2Params(
            op.K2Case.A1_ZERO, beta0=0.0, beta1=0.0, gamma1=0.5,
            A=0.0, B=0.0, D=0.25, E=0.25,
        )
    elif case == "equal_roots":
        a1, a2 = 2.0, 1.0
        C = 0.001
        F = a1 * C / 2.0
        E = 0.003
        B = (2.0 * E - 2.0 * F) / a1
        params = op.K2Params(
            op.K2Case.EQUAL_ROOTS, beta0=0.0, beta1=0.01, gamma1=0.3,
            A=0.0, B=B, C=C, D=0.3, E=E, F=F,
        )
    elif case == "real_roots":
        a1, a2 = 1.0, 0.2
        lam = (3.0 - math.sqrt(5.0)) / 2.0
        B = 0.2
        E = a1 * lam * B / (1.0 + lam)
        params = op.K2Params(
            op.K2Case.REAL_ROOTS, beta0=0.0, beta1=0.05, gamma1=0.3,
            A=0.0, B=B, D=0.25, E=E,
        )
    elif case == "complex_roots":
        a1, a2 = 1.0, 1.0
        theta = math.acos(a1 * a1 / (2.0 * a2) - 1.0)
        lam = complex(math.cos(theta), math.sin(theta))
        B = 0.05 + 0.0j
        E = a1 * lam * B / (1.0 + lam)
        params = op.K2Params(
            op.K2Case.COMPLEX_ROOTS, beta0=0.0, beta1=0.02, gamma1=0.25,
            A=0.0, B=B, D=0.3, E=E,
        )
    else:
        raise ValueError(case)
    rec = op.k2_family(a1, a2, params, horizon)
    return a1, a2, params, rec


CHEBYSHEV_COMBOS = {
    "k1": (0.4,),
    "k2_a1_zero": (0.0, -0.125),
    "k2_equal_roots": (0.5, 0.0625),
    "k2_real_roots": (1.0, 0.2),
    "k2_complex_roots": (1.0, 1.0),
}


def worst_gram_ratio(f, polys) -> float:
    """Largest ``|<p_i, p_j>| / sqrt(|<p_i, p_i> <p_j, p_j>|)`` over ``i < j``,
    from pairwise ``op.inner`` products; every norm must be nonzero."""
    norms = [op.inner(f, p, p) for p in polys]
    assert all(v != 0.0 for v in norms)
    return max(
        abs(op.inner(f, polys[i], polys[j])) / math.sqrt(abs(norms[i] * norms[j]))
        for i in range(len(polys))
        for j in range(i + 1, len(polys))
    )


def chebyshev_corpus(horizon: int = 26):
    """All four kinds crossed with one combination per classification case."""
    out = []
    for kind in (1, 2, 3, 4):
        rec = op.chebyshev_family(kind, horizon)
        for label, a in CHEBYSHEV_COMBOS.items():
            out.append((f"kind{kind}/{label}", rec, op.CombCoeffs(a)))
    return out


def broken_families():
    """Three deliberately non-orthogonal configurations (plus their labels).

    Each breaks the recurrence-matching conditions while leaving the
    low-degree completion constructible, so both the condition check and the
    Gram oracle can run and must both fail.
    """
    u = op.chebyshev_family(2, 30)
    beta = u.beta.copy()
    beta[5] = 0.1
    perturbed_beta = op.RecurrencePair(beta, u.gamma[1:].copy())

    n = np.arange(1, 31, dtype=float)
    legendre = op.RecurrencePair(np.zeros(31), n * n / (4 * n * n - 1))

    t = op.chebyshev_family(1, 30)
    gam = t.gamma[1:].copy()
    gam[3] = 0.3  # gamma_4
    perturbed_gamma = op.RecurrencePair(t.beta.copy(), gam)

    return [
        ("beta_5 perturbed", perturbed_beta, op.CombCoeffs((0.5,))),
        ("legendre gammas", legendre, op.CombCoeffs((0.3,))),
        ("gamma_4 perturbed", perturbed_gamma, op.CombCoeffs((0.0, -0.125))),
    ]
