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


def eval_p(rec, n: int, x: float) -> float:
    """``P_n(x)`` by the scalar forward recurrence, the reference that
    :func:`opoly.poly_p`'s coefficient walk is compared against; ``n`` may
    exceed the horizon by one step (this uses ``beta_N, gamma_N``)."""
    if n == 0:
        return 1.0
    prev, cur = 1.0, x - rec.beta[0]
    for j in range(1, n):
        prev, cur = cur, (x - rec.beta[j]) * cur - rec.gamma[j] * prev
    return float(cur)


def poly_p_walk(rec, n: int) -> tuple[float, ...]:
    """Monomial coefficients of ``P_n`` from a fresh walk with three numpy
    operations per step: the bit-level reference for :func:`opoly.poly_p`,
    which keeps its rows on the pair."""
    if n == 0:
        return (1.0,)
    prev, cur = np.array([1.0]), np.array([-rec.beta[0], 1.0])
    for j in range(1, n):
        nxt = np.zeros(j + 2)
        nxt[1:] = cur
        nxt[: j + 1] -= rec.beta[j] * cur
        nxt[:j] -= rec.gamma[j] * prev
        prev, cur = cur, nxt
    return tuple(cur.tolist())


def jacobi_truncation_diag_sums(rec, m: int) -> np.ndarray:
    """The ``m x m`` P-basis Jacobi truncation as a sum of three ``np.diag``
    matrices; its characteristic polynomial is ``P_m``."""
    return np.diag(rec.beta[:m]) + np.diag(np.ones(m - 1), 1) + np.diag(rec.gamma[1:m], -1)


def perturbation_L_dense(comb, m: int) -> np.ndarray:
    """The ``m x m`` single-row perturbation ``L_m``: its last row holds
    ``a_k .. a_1`` ending in the last column, so that ``(J_P)_m - L_m`` has
    characteristic polynomial ``Q_m``."""
    L = np.zeros((m, m))
    L[-1, m - comb.k :] = comb.a[::-1]
    return L


def balanced_matrix_diag_sums(rec, comb, m: int) -> np.ndarray:
    """``D^-1 ((J_P)_m - L_m) D`` with ``D = diag(sqrt|gamma_1 ... gamma_i|)``,
    as a sum of three ``np.diag`` matrices minus its last-row perturbation:
    ``sqrt|gamma_i|`` above the diagonal, ``sign(gamma_i) sqrt|gamma_i|`` below,
    and ``a_j`` divided by ``sqrt|gamma_{m-1}|``, then ``sqrt|gamma_{m-2}|``,
    down to ``sqrt|gamma_{m-j+1}|``.  The bit-level reference for
    ``opoly.zeros_q``'s ``eigvals`` matrix."""
    gamma = rec.gamma[1:m]
    root = np.sqrt(np.abs(gamma))
    L = np.zeros((m, m))
    for j, aj in enumerate(comb.a, start=1):
        for r in root[m - j : m - 1][::-1]:
            aj /= r
        L[-1, m - j] = aj
    return np.diag(rec.beta[:m]) + np.diag(root, 1) + np.diag(np.sign(gamma) * root, -1) - L


def k3_matching_families(count: int = 40, horizon: int = 64):
    """``count`` seeded ``k = 3`` families whose verdict holds: free
    ``beta_0, beta_1, gamma_1`` over a constant tail (``beta_n = b`` and
    ``gamma_n = g`` from ``n = 2``) with random ``a``.  For generic ``a`` these
    are all the orthogonal ``k = 3`` combinations.  Their low tilde gammas
    take either sign, so some zeros are complex."""
    rng = np.random.default_rng(SEED + 3)
    for _ in range(count):
        b0, b1, b = rng.uniform(-0.5, 0.5, 3)
        g1, g = rng.uniform(0.1, 0.5, 2)
        a = rng.uniform(-0.5, 0.5, 3)
        rec = op.RecurrencePair([b0, b1] + [b] * (horizon - 1), [g1] + [g] * (horizon - 1))
        yield rec, op.CombCoeffs(a)


def symmetric_jacobi_diag_sums(rec, m: int) -> np.ndarray:
    """The ``m x m`` symmetric Jacobi truncation as a sum of three ``np.diag``
    matrices: the bit-level reference for ``opoly.jacobi._symmetric_jacobi``."""
    off = np.sqrt(rec.gamma[1:m])
    return np.diag(rec.beta[:m]) + np.diag(off, 1) + np.diag(off, -1)


def hat_jacobi_diag_sums(rec, comb, m: int):
    """``J^_m`` as a sum of three ``np.diag`` matrices, or None where it is not
    real symmetric: ``J_m`` with ``beta_{m-1} - a_1`` in its last diagonal entry
    and ``sqrt(gamma_{m-1} - a_2)`` in its last off-diagonal (``a_2 = 0`` for
    ``k = 1``), for ``k <= 2``, ``gamma_1..gamma_{m-2} > 0`` and
    ``gamma_{m-1} > a_2``.  Its characteristic polynomial is ``Q_m``: the
    bit-level reference for ``opoly.jacobi._hat_jacobi``."""
    a = tuple(comb.a) + (0.0,)
    gamma = rec.gamma[1:m].copy()
    gamma[-1] -= a[1]
    if comb.k > 2 or not (np.all(gamma > 0.0) and np.all(np.isfinite(gamma))):
        return None
    beta = rec.beta[:m].copy()
    beta[-1] -= a[0]
    off = np.sqrt(gamma)
    return np.diag(beta) + np.diag(off, 1) + np.diag(off, -1)


def intertwining_residual(rec, comb, report, m: int) -> float:
    """Max-norm of ``M J_P - J_Q M`` over the interior rows ``0..m-k-2``, built
    from the change of basis, both Jacobi truncations and the tilde recurrence
    (the trailing rows differ from the infinite operator by truncation)."""
    M = op.change_basis_matrix(comb, report, m)
    JP = jacobi_truncation_diag_sums(rec, m)
    JQ = jacobi_truncation_diag_sums(op.tilde_recurrence(rec, comb, m - 1, report=report), m)
    return float(np.max(np.abs((M @ JP - JQ @ M)[: m - comb.k - 1])))


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


# Bundled configs with gamma_1..gamma_{n-2} > 0 and gamma_{n-1} > a_2 at every
# n through their horizon: zeros_q takes their J^ route at every n.  The other
# three have a_2 >= gamma_{n-1} at every n (cheb4_k2_case_iv,
# gen_k2_complex_roots) or below n = 27 (gen_k2_equal_roots).
HAT_ROUTE_CONFIGS = frozenset({
    "broken_beta_perturbed.json", "broken_gamma_perturbed.json",
    "broken_varying_gamma.json", "cheb1_k2.json", "cheb1_k2_case_iii.json",
    "cheb2_k1.json", "cheb2_k2_case_ii.json", "cheb3_k1.json", "gen_k1.json",
    "gen_k2_a1_zero.json", "gen_k2_real_roots.json"})


def generated_k1(horizon: int = 64):
    """A ``k1_family`` with gammas drawn from ``[0.2, 0.32]``, and its ``a_1``."""
    rng = np.random.default_rng(SEED + 1)
    a1 = float(rng.choice([-1, 1]) * rng.uniform(0.3, 0.7))
    beta0, beta1, beta2 = rng.uniform(-0.1, 0.1, 3)
    gammas = rng.uniform(0.2, 0.32, horizon)
    return op.k1_family(gammas, beta0, beta1, beta2, a1, horizon), op.CombCoeffs((a1,))


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


def inner(mu, p, q) -> float:
    """``<u, p q>`` from the monomial moments ``mu`` of ``u``: the product's
    monomial coefficients (``np.convolve``) paired with ``mu``."""
    pq = np.convolve(np.array(p.coeffs), np.array(q.coeffs))
    return float(np.dot(pq, mu[: pq.size]))


def worst_gram_ratio(mu, polys) -> float:
    """Largest ``|<p_i, p_j>| / sqrt(|<p_i, p_i> <p_j, p_j>|)`` over ``i < j``,
    from pairwise :func:`inner` products; every norm must be nonzero."""
    norms = [inner(mu, p, p) for p in polys]
    assert all(v != 0.0 for v in norms)
    return max(
        abs(inner(mu, polys[i], polys[j])) / math.sqrt(abs(norms[i] * norms[j]))
        for i in range(len(polys))
        for j in range(i + 1, len(polys))
    )


def three_term_residual(qs, n, beta, gamma) -> float:
    """Largest monomial coefficient of ``x Q_n - Q_{n+1} - beta Q_n - gamma Q_{n-1}``."""
    size = n + 2

    def padded(p):  # monomial coefficients zero-padded to ``size``
        return np.pad(np.array(p.coeffs), (0, size - len(p.coeffs)))

    x_qn = np.concatenate(([0.0], np.array(qs[n].coeffs)))
    resid = x_qn - padded(qs[n + 1]) - beta * padded(qs[n]) - gamma * padded(qs[n - 1])
    return float(np.max(np.abs(resid)))


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
