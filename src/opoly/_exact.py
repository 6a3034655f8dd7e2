"""Exact-rational engine behind the brute-force orthogonality oracle.

Every float is a dyadic rational, so converting recurrence data and
combination coefficients to :class:`fractions.Fraction` makes the whole
pipeline exact: basis polynomials, the canonical completion of the
low-degree combination polynomials, the annihilating moment sequence, and
the full Gram matrix, computed as the Hankel sandwich ``G = C H C^T`` in
``O(d^3)`` operations.  The oracle therefore cannot be fooled by cancellation
at the tiny norm scales (``prod gamma ~ 4^-n``) where a floating-point Gram
test loses its footing.
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
        for i, v in enumerate(p):
            out[i] += c * v
    return out


def _basis_polys(beta, gamma, n_max):
    """Monic basis polynomials ``P_0..P_n_max`` as Fraction coefficient lists."""
    polys = [[_ONE], [-beta[0], _ONE]]
    for n in range(1, n_max):
        xp = [_ZERO] + polys[n]
        polys.append(_lincomb((_ONE, xp), (-beta[n], polys[n]), (-gamma[n], polys[n - 1])))
    return polys


def _downward(q_next, q_cur):
    """``Q_{m-1}`` from ``x Q_m = Q_{m+1} + tilde beta_m Q_m + tilde gamma_m Q_{m-1}``;
    fails on an exact degree drop (``tilde gamma_m = 0``)."""
    m = len(q_cur) - 1
    r = _lincomb((_ONE, [_ZERO] + q_cur), (-_ONE, q_next))  # length m + 2
    s = _lincomb((_ONE, r), (-r[m], q_cur))
    g = s[m - 1]
    if g == 0:
        raise DegeneracyError(f"exact completion: tilde gamma at degree {m} is zero")
    return [v / g for v in s[:m]]


def exact_combination_polys(beta_f, gamma_f, a_f, n_max):
    """``Q_0..Q_n_max`` as exact Fraction coefficient lists.

    ``beta_f`` and ``gamma_f`` are the recurrence arrays (``gamma_f[0]``
    unused), ``a_f`` the combination constants; all are converted exactly.
    Raises :class:`~opoly.errors.DegeneracyError` when the completion does
    not exist (zero denominator or an exact downward degeneracy).
    """
    k = len(a_f)
    beta = [Fraction(float(b)) for b in beta_f]
    gamma = [_ZERO] + [Fraction(float(g)) for g in gamma_f[1:]]
    a = [_ONE] + [Fraction(float(v)) for v in a_f]  # a_0 = 1 weights P_n itself
    p = _basis_polys(beta, gamma, n_max)

    def direct(n):
        return _lincomb(*((a[j], p[n - j]) for j in range(k + 1)))

    denom = gamma[k + 1] + a[1] * (beta[k] - beta[k + 1])
    if denom == 0:
        raise DegeneracyError("exact completion: denominator is zero")
    fourier = [_ONE] * (k + 1)
    for j in range(1, k):
        fourier[j] = (a[j] * gamma[k - j + 1] + a[j + 1] * (beta[k - j] - beta[k + 1])) / denom
    fourier[k] = a[k] * gamma[1] / denom

    qs = {k: _lincomb(*((fourier[j], p[k - j]) for j in range(k + 1))), k + 1: direct(k + 1)}
    for m in range(k, 0, -1):
        qs[m - 1] = _downward(qs[m + 1], qs[m])
    for n in range(k + 2, n_max + 1):
        qs[n] = direct(n)
    return [qs[n] for n in range(n_max + 1)]


def exact_annihilator_moments(polys):
    """Moments of the unique unit functional annihilating each given monic poly."""
    vals = [_ONE]
    for m, q in enumerate(polys, start=1):
        assert len(q) == m + 1 and q[-1] == 1
        vals.append(-sum(q[i] * vals[i] for i in range(m)))
    return vals


def exact_gram(beta_f, gamma_f, a_f, degree):
    """Exact Gram matrix of ``Q_0..Q_degree`` under the annihilating functional.

    ``w_j[t] = sum_s Q_j[s] v_{s+t}`` is row ``j`` of ``C H``; then
    ``G[i][j] = sum_t Q_i[t] w_j[t]`` for ``i <= j``, mirrored below.
    """
    qs = exact_combination_polys(beta_f, gamma_f, a_f, 2 * degree)
    v = exact_annihilator_moments(qs[1:])
    qs = qs[: degree + 1]
    gram = [[_ZERO] * (degree + 1) for _ in range(degree + 1)]
    for j, qj in enumerate(qs):
        wj = [sum((c * v[s + t] for s, c in enumerate(qj) if c), _ZERO) for t in range(j + 1)]
        for i in range(j + 1):
            gram[i][j] = gram[j][i] = sum((c * wj[t] for t, c in enumerate(qs[i]) if c), _ZERO)
    return gram
