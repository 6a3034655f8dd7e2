"""Exact engine: the low-degree completion and the Gram oracle.

Every float is a dyadic rational ``p / 2^q``, so the exact map
``x -> 2^e x`` with a large enough ``e`` makes every scaled beta, gamma and
``a_j`` an integer (:func:`_scaled_data`), and the whole engine runs on
Python integers.  :func:`low_completion` is the one home of the paper's
determination and completion blocks: it walks them on those integers,
keeping each completion row in lowest terms as integer numerators over one
positive denominator (one gcd per row, without which the denominators
square at every step), and ``check_conditions`` rounds its values to
floats by one correctly rounded integer division each.  The oracle uses
the same rows as they are.  It stays in the ``P``-basis: modified moments
``v(P_m)`` of the annihilating functional, mixed moments ``v(P_i P_j)`` by
the modified Chebyshev algorithm (Sack & Donovan 1971; Gautschi 2004,
§2.1.7), then the banded sandwich ``G = C Sigma C^T``; that is ``O(d^2)``
operations for fixed ``k``.  The product of the row denominators clears
the completion moments, so the Gram comes back as integer numerators with
their row weights and takes no gcd.  It reads the recurrence data and the
completion only, never the matching conditions or the tilde recurrence, so
it stays independent of the verdict; and being exact, cancellation at the
tiny norm scales (``prod gamma ~ 4^-n``) cannot fool it as it would a
float Gram test.

``check_conditions`` and the oracle call :func:`low_completion` on the
same data, so a one-entry memo keyed by the float values it reads computes
the completion once per job; it keeps only the last family and hands out
tuples, which no caller can alter.
"""

from __future__ import annotations

import functools
import math
from operator import add, mul

from .errors import DegeneracyError


def low_completion(beta_f, gamma_f, a_f):
    """The canonical completion ``Q_{k+1}, Q_k, ..., Q_0``, exactly.

    The denominator ``gamma_{k+1} + a_1 (beta_k - beta_{k+1})`` fixes the
    Fourier coefficients ``a_j^(k)`` of ``Q_k``, then
    ``x Q_m = Q_{m+1} + tilde beta_m Q_m + tilde gamma_m Q_{m-1}`` is walked
    down in the ``P``-basis, where ``x P_i = P_{i+1} + beta_i P_i + gamma_i
    P_{i-1}`` makes each step one short row update.  The walk runs on the
    integers of :func:`_scaled_data` over ``beta_0..beta_{k+1}``,
    ``gamma_1..gamma_{k+1}`` and ``a``.

    Returns ``(e, denom, rows, tilde)``, the last two tuples indexed by
    degree, ``None`` where the walk did not get to.  ``e`` is the exponent of
    the map, ``rows[m] = (nums, d)`` gives ``Q_m`` (``m <= k + 1``) in the
    scaled ``P``-basis: ``P_i`` has the coefficient ``nums[i] / (d 2^((m-i)
    e))``, in lowest terms, with ``d > 0`` and ``nums[m] = d``.  ``denom`` and the values of
    ``tilde[m] = (tilde beta_m, tilde gamma_m)`` (``1 <= m <= k``) are
    integer ratios ``(p, q)`` with ``q > 0``; ``tilde[0] = (tilde beta_0,
    None)``.  A positive denominator keeps the sign of zero when a reader
    divides.  Nothing raises on finite data: a zero ``denom`` leaves only
    ``Q_{k+1}``, and the walk stops at the first zero ``tilde gamma_m``, the
    lowest ``m`` with a row, so ``Q_0`` and ``tilde[0]`` exist only when the
    completion does.  A NaN input raises ``ValueError`` and an infinite one
    ``OverflowError``, on every call.
    """
    k = len(a_f)
    return _low_completion(tuple(map(float, beta_f[: k + 2])),
                           tuple(map(float, gamma_f[1 : k + 2])), tuple(map(float, a_f)))


@functools.lru_cache(maxsize=1)
def _low_completion(beta_f, gamma_f, a_f):
    """:func:`low_completion` on float tuples ``beta_0..beta_{k+1}``,
    ``gamma_1..gamma_{k+1}`` and ``a``, memoised for the last family only."""
    k = len(a_f)
    e, beta, gamma, band = _scaled_data(beta_f, (0.0,) + gamma_f, a_f, k + 2)
    a = band[::-1] + [0]  # A_{k+1} = 0 turns the j = k formula into A_k Gamma_1 / denom
    rows = {k + 1: ([0] + band, 1)}
    tilde = {}
    denom = gamma[k + 1] + a[1] * (beta[k] - beta[k + 1])
    if denom:
        rows[k] = _lowest([a[j] * gamma[k - j + 1] + a[j + 1] * (beta[k - j] - beta[k + 1])
                           for j in range(k, 0, -1)] + [denom])
        for m in range(k, 0, -1):
            (lo, d), (hi, d_hi) = rows[m], rows[m + 1]
            r = [-d * c for c in hi]  # d d_hi (x Q_m - Q_{m+1}); r[m + 1] cancels
            for i, c in enumerate(lo):
                c *= d_hi
                r[i + 1] += c
                r[i] += beta[i] * c
                if i:
                    r[i - 1] += gamma[i] * c
            tb = r[m]
            s = [r[i] * d - tb * lo[i] for i in range(m)]  # d^2 d_hi tilde gamma_m Q_{m-1}
            tg = s[m - 1]
            tilde[m] = ((tb, d * d_hi << e), (tg, d * d * d_hi << 2 * e))
            if not tg:
                break
            rows[m - 1] = _lowest(s)
        if 0 in rows:  # Q_1 = P_1 + c P_0 = x - (beta_0 - c)
            nums, d = rows[1]
            tilde[0] = ((beta[0] * d - nums[0], d << e), None)
    return (e, (denom, 1 << 2 * e),
            tuple((tuple(rows[m][0]), rows[m][1]) if m in rows else None for m in range(k + 2)),
            tuple(tilde.get(m) for m in range(k + 1)))


def _lowest(nums):
    """``(nums, d)`` for the row ``nums / nums[-1]`` in lowest terms, ``d > 0``."""
    g = math.gcd(*nums) if nums[-1] > 0 else -math.gcd(*nums)
    nums = [v // g for v in nums]
    return nums, nums[-1]


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
        return [(p, d.bit_length() - 1) for p, d in (v.as_integer_ratio() for v in values)]

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
    Each row of ``C Sigma`` is then one elementwise combination of ``Sigma``
    rows, and each band row of ``G = C Sigma C^T`` one correlation of a row
    of ``C Sigma`` with the band, so no entry takes a call of its own.

    Everything runs on integers after the change of variable of
    :func:`_scaled_data` over the data up to ``2 degree`` (and never below
    the completion's, whose rows are shifted to this exponent): ``mu_m`` is
    scaled by ``L 2^(m e)``, with ``L`` the product of the completion row
    denominators ``R_1..R_k`` (above ``k`` the band keeps it integral), and
    completion row ``m`` by ``R_m``.  Returns ``(N, w, L)`` with ``G[m][p] =
    N[m][p] / (L w[m] w[p])`` and ``w[m] = R_m 2^(m e)``.  Raises
    :class:`~opoly.errors.DegeneracyError` when the completion does not exist
    (zero denominator or an exact downward degeneracy).
    """
    e_low, denom, rows, _ = low_completion(beta_f, gamma_f, a_f)
    if not denom[0]:
        raise DegeneracyError("exact completion: denominator is zero")
    if rows[0] is None:  # the walk stopped at the lowest degree with a row
        raise DegeneracyError(f"exact completion: tilde gamma at degree {rows.count(None)} is zero")
    k, n = len(a_f), 2 * degree
    e, beta, gamma, band = _scaled_data(beta_f, gamma_f, a_f, max(n, k + 2))
    shift, top = e - e_low, min(k, n)
    c_rows, w = [], []
    for m, (nums, d) in enumerate(rows[: top + 1]):
        c_rows.append((0, [c << (m - i) * shift for i, c in enumerate(nums)]))
        w.append(d << m * e)
    lcd = math.prod(d for _, d in rows[1 : top + 1])
    mu = [lcd]
    for m in range(1, top + 1):  # exact: L v(P_m) is integral, so R_m divides the sum
        mu.append(-sum(map(mul, c_rows[m][1], mu)) // rows[m][1])  # map stops at i = m - 1
    for m in range(k + 1, n + 1):
        mu.append(-sum(map(mul, band, mu[m - k : m])))  # map stops before band[-1] = 1
    end, low = degree + 1, min(k, degree)  # rows and columns 0..low are the completion's
    c_rows = c_rows[:end] + [(m - k, band) for m in range(k + 1, end)]
    w = w[:end] + [1 << m * e for m in range(k + 1, end)]
    sigma = [mu]  # sigma[j][i] = L 2^((i+j) e) v(P_i P_j) for i + j <= n, both triangles
    for j in range(degree):  # sigma[-1] = mu meets gamma_0 = 0 at j = 0
        cur, prev, bj, gj = sigma[j], sigma[j - 1], beta[j], gamma[j]
        sigma.append([sigma[i][j + 1] for i in range(j + 1)] + [
            cur[i + 1] + (beta[i] - bj) * cur[i] + gamma[i] * cur[i - 1] - gj * prev[i]
            for i in range(j + 1, n - j)])
    # Sigma is symmetric, so row m of C Sigma is one combination of Sigma rows,
    # (C Sigma)[m][t] = sum_a C[m][lo + a] Sigma[lo + a][t], kept from t = lo on:
    # N[m][p] with m <= p reads it only from t = lo_p >= lo_m on
    cs = [[0] * lo + _combine(row, [sigma[lo + a][lo:end] for a in range(len(row))])
          for lo, row in c_rows]
    upper = []  # N[m][p] for p >= m, after m zeros
    for m, row in enumerate(cs):
        upper.append([0] * m + [sum(map(mul, c_rows[p][1], row[: p + 1])) for p in range(m, low + 1)])
        p0 = max(m, low + 1)  # band columns: one correlation of the row with (A_k..A_1, 1)
        if p0 < end:
            upper[m] += _combine(band, [row[p0 - k + b : end - k + b] for b in range(k + 1)])
    gram = [list(col[:m]) + upper[m][m:] for m, col in enumerate(zip(*upper))]
    return gram, w, lcd


def _combine(coeffs, rows):
    """The elementwise sum of ``c * row`` over ``zip(coeffs, rows)``, the rows
    of equal length, as a new list; at least one ``c`` is nonzero."""
    out = None
    for c, row in zip(coeffs, rows):
        if c:
            term = row if c == 1 else map(c.__mul__, row)
            out = list(term) if out is None else list(map(add, out, term))
    return out
