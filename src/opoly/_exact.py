"""Exact engine: the low-degree completion and the Gram oracle.

Every float is a dyadic rational, so converting recurrence data and
combination coefficients to :class:`fractions.Fraction` makes the
completion exact.  :func:`low_completion` is the one home of the paper's
determination and completion blocks; ``check_conditions`` rounds it to
floats and the oracle uses it as is.  The oracle stays in the ``P``-basis:
modified moments ``v(P_m)`` of the annihilating functional, mixed moments
``v(P_i P_j)`` by the modified Chebyshev algorithm (Sack & Donovan 1971;
Gautschi 2004, §2.1.7), then the banded sandwich ``G = C Sigma C^T``; that
is ``O(d^2)`` operations for fixed ``k``.  Those loops run on Python
integers: the exact map ``x -> 2^e x`` makes every scaled beta, gamma and
``a_j`` integral, one common denominator clears the completion moments and
one per row clears each completion row, so the Gram comes back as integer
numerators with their row weights and no gcd is ever taken.  It reads the
recurrence data and the completion only, never the matching conditions or
the tilde recurrence, so it stays independent of the verdict; and being
exact, cancellation at the tiny norm scales (``prod gamma ~ 4^-n``) cannot
fool it as it would a float Gram test.

``check_conditions`` and the oracle call :func:`low_completion` on the
same data, so a one-entry memo keyed by the float values it reads computes
the completion once per job; it keeps only the last family and hands out
tuples, which no caller can alter.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from operator import mul

from .errors import DegeneracyError

_ZERO = Fraction(0)
_ONE = Fraction(1)


def low_completion(beta_f, gamma_f, a_f):
    """The canonical completion ``Q_{k+1}, Q_k, ..., Q_0``, exactly.

    The denominator ``gamma_{k+1} + a_1 (beta_k - beta_{k+1})`` fixes the
    Fourier coefficients ``a_j^(k)`` of ``Q_k``, then
    ``x Q_m = Q_{m+1} + tilde beta_m Q_m + tilde gamma_m Q_{m-1}`` is walked
    down in the ``P``-basis, where ``x P_i = P_{i+1} + beta_i P_i + gamma_i
    P_{i-1}`` makes each step one short row update.

    Returns ``(denom, rows, tilde)``, tuples indexed by degree: ``rows[m][i]``
    multiplies ``P_i`` in ``Q_m`` (``m <= k + 1``) and ``tilde[m] = (tilde
    beta_m, tilde gamma_m)`` (``1 <= m <= k``), ``None`` where the walk did
    not get to.  Nothing raises on finite data: a zero ``denom`` leaves only
    ``Q_{k+1}``, and the walk stops at the first zero ``tilde gamma_m``,
    the lowest ``m`` with a row, so ``Q_0`` exists only when the completion
    does.  A NaN or infinite input raises on every call.
    """
    k = len(a_f)
    return _low_completion(tuple(map(float, beta_f[: k + 2])),
                           tuple(map(float, gamma_f[1 : k + 2])), tuple(map(float, a_f)))


@functools.lru_cache(maxsize=1)
def _low_completion(beta_f, gamma_f, a_f):
    """:func:`low_completion` on float tuples ``beta_0..beta_{k+1}``,
    ``gamma_1..gamma_{k+1}`` and ``a``, memoised for the last family only."""
    k = len(a_f)
    beta = [Fraction(b) for b in beta_f]
    gamma = [_ZERO] + [Fraction(g) for g in gamma_f]
    a = [_ONE] + [Fraction(v) for v in a_f]
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
    return (denom, tuple(tuple(rows[m]) if m in rows else None for m in range(k + 2)),
            tuple(tilde.get(m) for m in range(k + 1)))


def _scaled_data(beta_f, gamma_f, a_f, n):
    """The recurrence data under the exact map ``x -> 2^e x``, as integers.

    ``e >= 0`` is the smallest exponent with ``B_i = 2^e beta_i``,
    ``Gamma_i = 4^e gamma_i`` (``i < n``) and ``A_j = 2^(j e) a_j`` all
    integral; every float is ``p / 2^q``, so ``e`` is the largest of ``q``
    over the betas, ``ceil(q / 2)`` over the gammas and ``ceil(q / j)``
    over the ``a_j``.  Returns ``(e, B, Gamma, A)`` with ``Gamma_0 = 0`` and
    ``A`` the band ``(A_k, .., A_1, 1)``.
    """
    def dyadic(values):  # (p, q) with x = p / 2^q
        return [(p, d.bit_length() - 1) for p, d in (float(v).as_integer_ratio() for v in values)]

    beta, gamma, a = dyadic(beta_f[:n]), dyadic(gamma_f[1:n]), dyadic(a_f)
    e = max([0] + [q for _, q in beta] + [-(-q // 2) for _, q in gamma]
            + [-(-q // j) for j, (_, q) in enumerate(a, start=1)])
    big_b = [p << e - q for p, q in beta]
    big_g = [0] + [p << 2 * e - q for p, q in gamma]
    big_a = [p << j * e - q for j, (p, q) in enumerate(a, start=1)]
    return e, big_b, big_g, big_a[::-1] + [1]


def exact_gram(beta_f, gamma_f, a_f, degree):
    """Exact Gram matrix of ``Q_0..Q_degree`` under the annihilating functional.

    Row ``m`` of ``C`` holds the ``P``-coefficients of ``Q_m``: the completion
    row for ``m <= k``, the band ``(a_k..a_1, 1)`` from column ``m - k`` above.
    ``v(Q_m) = 0`` fixes ``mu_m = v(P_m)`` for ``m <= 2 degree``, and
    ``x P_j = P_{j+1} + beta_j P_j + gamma_j P_{j-1}`` taken on both sides of
    ``v(x P_i P_j)`` gives ``sigma_{i,j} = v(P_i P_j)`` column by column.

    Everything runs on integers after the change of variable of
    :func:`_scaled_data`: ``mu_m`` is scaled by ``L 2^(m e)``, with ``L`` the
    common denominator of ``mu_0..mu_k`` (above ``k`` the band keeps it
    integral), and completion row ``m`` by its own denominator ``R_m``.
    Returns ``(N, w, L)`` with ``G[m][p] = N[m][p] / (L w[m] w[p])`` and
    ``w[m] = R_m 2^(m e)``.  Raises :class:`~opoly.errors.DegeneracyError`
    when the completion does not exist (zero denominator or an exact
    downward degeneracy).
    """
    denom, rows, _ = low_completion(beta_f, gamma_f, a_f)
    if denom == 0:
        raise DegeneracyError("exact completion: denominator is zero")
    if rows[0] is None:  # the walk stopped at the lowest degree with a row
        raise DegeneracyError(f"exact completion: tilde gamma at degree {rows.count(None)} is zero")
    k, n = len(a_f), 2 * degree
    e, beta, gamma, band = _scaled_data(beta_f, gamma_f, a_f, n)
    c_rows, w, mu = [], [], []
    for m in range(min(k, n) + 1):
        # row m scaled to integers, then mu_m from v(Q_m) = 0 while still a Fraction
        scaled = [c * (1 << (m - i) * e) for i, c in enumerate(rows[m])]
        r = math.lcm(*(c.denominator for c in scaled))
        row = [c.numerator * (r // c.denominator) for c in scaled]
        c_rows.append((0, row))
        w.append(r << m * e)
        mu.append(Fraction(-sum(c * v for c, v in zip(row, mu)), r) if m else _ONE)
    lcd = math.lcm(*(v.denominator for v in mu))
    mu = [v.numerator * (lcd // v.denominator) for v in mu]
    for m in range(k + 1, n + 1):
        c_rows.append((m - k, band))
        w.append(1 << m * e)
        mu.append(-sum(map(mul, band, mu[m - k : m])))  # map stops before band[-1] = 1
    sigma = [mu]  # sigma[j][i] = L 2^((i+j) e) v(P_i P_j) for i + j <= n, both triangles
    for j in range(degree):  # sigma[-1] = mu meets gamma_0 = 0 at j = 0
        cur, prev, bj, gj = sigma[j], sigma[j - 1], beta[j], gamma[j]
        sigma.append([sigma[i][j + 1] for i in range(j + 1)] + [
            cur[i + 1] + (beta[i] - bj) * cur[i] + gamma[i] * cur[i - 1] - gj * prev[i]
            for i in range(j + 1, n - j)])
    # row m of C spans columns lo..m; (C Sigma)[m][t], and N[m][p] with m <= p
    # reads it only from t = lo_p >= lo_m on
    c_rows = c_rows[: degree + 1]
    cs = [[0] * lo + [sum(map(mul, row, sigma[t][lo : m + 1])) for t in range(lo, degree + 1)]
          for m, (lo, row) in enumerate(c_rows)]
    gram = [[0] * (degree + 1) for _ in range(degree + 1)]
    for p, (lo, row) in enumerate(c_rows):
        for m in range(p + 1):
            gram[m][p] = gram[p][m] = sum(map(mul, row, cs[m][lo : p + 1]))
    return gram, w[: degree + 1], lcd
