"""Exact-rational engine: the low-degree completion and the Gram oracle.

Every float is a dyadic rational, so converting recurrence data and
combination coefficients to :class:`fractions.Fraction` makes the whole
pipeline exact.  :func:`low_completion` is the one home of the paper's
determination and completion blocks; ``check_conditions`` rounds it to
floats and the oracle uses it as is.  The oracle stays in the ``P``-basis:
modified moments ``v(P_m)`` of the annihilating functional, mixed moments
``v(P_i P_j)`` by the modified Chebyshev algorithm (Sack & Donovan 1971;
Gautschi 2004, §2.1.7), then the banded sandwich ``G = C Sigma C^T``; that
is ``O(d^2)`` operations for fixed ``k``, on far smaller rationals than
monomial coefficients.  It reads the recurrence data and the completion
only, never the matching conditions or the tilde recurrence, so it stays
independent of the verdict; and being exact, cancellation at the tiny norm
scales (``prod gamma ~ 4^-n``) cannot fool it as it would a float Gram test.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DegeneracyError

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _lincomb(*terms):
    """``sum c * p`` over the ``(c, p)`` pairs, padded to the longest ``p``."""
    out = [_ZERO] * max(len(p) for _, p in terms)
    for c, p in terms:
        if c:
            for i, v in enumerate(p):
                if v:
                    out[i] += c * v
    return out


def _exact_data(beta_f, gamma_f, a_f, n):
    """Fractions ``beta_0..beta_n``, ``gamma_0 = 0, gamma_1..gamma_n``, ``a_0 = 1, a_1..a_k``."""
    beta = [Fraction(float(b)) for b in beta_f[: n + 1]]
    gamma = [_ZERO] + [Fraction(float(g)) for g in gamma_f[1 : n + 1]]
    a = [_ONE] + [Fraction(float(v)) for v in a_f]
    return beta, gamma, a


def _basis_polys(beta, gamma, n_max):
    """Monic basis polynomials ``P_0..P_n_max`` as Fraction coefficient lists."""
    polys = [[_ONE], [-beta[0], _ONE]]
    for n in range(1, n_max):
        xp = [_ZERO] + polys[n]
        polys.append(_lincomb((_ONE, xp), (-beta[n], polys[n]), (-gamma[n], polys[n - 1])))
    return polys


def low_completion(beta_f, gamma_f, a_f):
    """The canonical completion ``Q_{k+1}, Q_k, ..., Q_0``, exactly.

    The denominator ``gamma_{k+1} + a_1 (beta_k - beta_{k+1})`` fixes the
    Fourier coefficients ``a_j^(k)`` of ``Q_k``, then
    ``x Q_m = Q_{m+1} + tilde beta_m Q_m + tilde gamma_m Q_{m-1}`` is walked
    down in the ``P``-basis, where ``x P_i = P_{i+1} + beta_i P_i + gamma_i
    P_{i-1}`` makes each step one short row update.

    Returns ``(denom, rows, polys, tilde)`` keyed by degree: ``rows[m][i]``
    multiplies ``P_i`` in ``Q_m``, ``polys[m]`` are the monomial coefficients
    of ``Q_m``, and ``tilde[m] = (tilde beta_m, tilde gamma_m)``, ``m <= k``.
    Nothing raises: a zero ``denom`` leaves only ``Q_{k+1}``, and the walk
    stops at the first zero ``tilde gamma_m`` (``min(tilde)``), so ``Q_0``
    exists only when the completion does.
    """
    k = len(a_f)
    beta, gamma, a = _exact_data(beta_f, gamma_f, a_f, k + 1)
    rows = {k + 1: [_ZERO] + a[::-1]}
    tilde = {}
    denom = gamma[k + 1] + a[1] * (beta[k] - beta[k + 1])
    if denom != 0:
        ap = a + [_ZERO]  # a_{k+1} = 0 turns the j = k formula into a_k gamma_1 / denom
        rows[k] = [(ap[j] * gamma[k - j + 1] + ap[j + 1] * (beta[k - j] - beta[k + 1])) / denom
                   for j in range(k, 0, -1)] + [_ONE]
        for m in range(k, 0, -1):
            lo = rows[m]
            r = [-c for c in rows[m + 1]]  # x Q_m - Q_{m+1}; r[m + 1] cancels
            for i, c in enumerate(lo):
                r[i + 1] += c
                r[i] += beta[i] * c
                if i:
                    r[i - 1] += gamma[i] * c
            tb = r[m]
            s = [r[i] - tb * lo[i] for i in range(m)]
            tilde[m] = (tb, s[m - 1])
            if s[m - 1] == 0:
                break
            rows[m - 1] = [v / s[m - 1] for v in s]
    p = _basis_polys(beta, gamma, k + 1)
    polys = {m: _lincomb(*zip(row, p)) for m, row in rows.items()}
    return denom, rows, polys, tilde


def exact_gram(beta_f, gamma_f, a_f, degree):
    """Exact Gram matrix of ``Q_0..Q_degree`` under the annihilating functional.

    Row ``m`` of ``C`` holds the ``P``-coefficients of ``Q_m``: the completion
    row for ``m <= k``, the band ``(a_k..a_1, 1)`` from column ``m - k`` above.
    ``v(Q_m) = 0`` fixes ``mu_m = v(P_m)`` for ``m <= 2 degree``, and
    ``x P_j = P_{j+1} + beta_j P_j + gamma_j P_{j-1}`` taken on both sides of
    ``v(x P_i P_j)`` gives ``sigma_{i,j} = v(P_i P_j)`` column by column.
    Raises :class:`~opoly.errors.DegeneracyError` when the completion does
    not exist (zero denominator or an exact downward degeneracy).
    """
    denom, rows, _, tilde = low_completion(beta_f, gamma_f, a_f)
    if denom == 0:
        raise DegeneracyError("exact completion: denominator is zero")
    if 0 not in rows:
        raise DegeneracyError(f"exact completion: tilde gamma at degree {min(tilde)} is zero")
    k, n = len(a_f), 2 * degree
    beta, gamma, a = _exact_data(beta_f, gamma_f, a_f, n - 1)
    c_rows = [(0, rows[m]) if m <= k else (m - k, a[::-1]) for m in range(n + 1)]
    mu = [_ONE]
    for lo, row in c_rows[1:]:
        mu.append(-sum((c * mu[lo + i] for i, c in enumerate(row[:-1]) if c), _ZERO))
    sigma = [mu]  # sigma[j][i] = v(P_i P_j) for i + j <= n, both triangles
    for j in range(degree):  # sigma[-1] = mu meets gamma_0 = 0 at j = 0
        cur, prev = sigma[j], sigma[j - 1]
        sigma.append([sigma[i][j + 1] for i in range(j + 1)] + [
            cur[i + 1] + (beta[i] - beta[j]) * cur[i] + gamma[i] * cur[i - 1] - gamma[j] * prev[i]
            for i in range(j + 1, n - j)])
    # (C Sigma)[m][t]; G[m][p] with m <= p reads it only from t = lo_p >= lo_m on
    cs = [[_ZERO] * lo + [sum((c * sigma[t][lo + i] for i, c in enumerate(row) if c), _ZERO)
                          for t in range(lo, degree + 1)] for lo, row in c_rows[: degree + 1]]
    gram = [[_ZERO] * (degree + 1) for _ in range(degree + 1)]
    for p, (lo, row) in enumerate(c_rows[: degree + 1]):
        for m in range(p + 1):
            gram[m][p] = gram[p][m] = sum(
                (c * cs[m][lo + i] for i, c in enumerate(row) if c), _ZERO)
    return gram
