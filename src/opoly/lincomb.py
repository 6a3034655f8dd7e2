"""Fixed-length constant-coefficient combinations of a monic orthogonal family.

Given ``{P_n}`` with recurrence data and constants ``a_1..a_k`` (``a_k != 0``),
the module studies

    Q_n = P_n + a_1 P_{n-1} + ... + a_k P_{n-k},        n >= k + 1,

deciding whether ``{Q_n}`` extends to an orthogonal sequence.  The decision
is the conjunction of three blocks:

* matching      -- for ``n >= k + 2``:
                   ``gamma_n + a_1 (beta_{n-1} - beta_n) = gamma_{n-k}`` and
                   ``a_{j-1} (gamma_{n-k} - gamma_{n-j+1}) = a_j (beta_{n-j} - beta_n)``
                   for ``2 <= j <= k``;
* determination -- ``gamma_{k+1} + a_1 (beta_k - beta_{k+1}) != 0``, which
                   then fixes the expansion coefficients ``a_j^(k)`` of
                   ``Q_k`` in the ``P``-basis (``Q_k`` is never a free input);
* completion    -- the ``Q_k, Q_{k-1}, ..., Q_0`` produced by downward
                   three-term steps must have ``tilde gamma_j != 0`` for
                   ``1 <= j <= k``.

When the verdict holds, the ``Q``-family satisfies its own recurrence with

    tilde beta_n  = beta_n,
    tilde gamma_n = gamma_n + a_1 (beta_{n-1} - beta_n),      n >= k + 1,

and the entries below ``k + 1`` come from the downward completion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._exact import exact_gram
from .errors import DegeneracyError, HorizonError, StateError
from .recurrence import Poly, RecurrencePair, poly_p


@dataclass(frozen=True)
class CombCoeffs:
    """The combination constants ``a_1..a_k`` with ``a_k != 0``."""

    a: tuple[float, ...]

    def __post_init__(self):
        coeffs = tuple(float(v) for v in self.a)
        if len(coeffs) < 1:
            raise ValueError("need at least one coefficient")
        if coeffs[-1] == 0.0:
            raise ValueError("a_k must be nonzero")
        object.__setattr__(self, "a", coeffs)

    @property
    def k(self) -> int:
        return len(self.a)


@dataclass(frozen=True)
class ConditionReport:
    """Everything the orthogonality decision looked at.

    Fields:
      * ``fourier``    -- ``a_j^(k)`` for ``j = 1..k`` (P-basis tail of ``Q_k``);
      * ``denom``      -- ``gamma_{k+1} + a_1 (beta_k - beta_{k+1})``;
      * ``matching``   -- rows ``(n, main_residual, extra_residuals, ok)`` for
                          ``k+2 <= n <= n_max``;
      * ``completion`` -- rows ``(j, tilde_beta_j, tilde_gamma_j, ok)`` from
                          the downward walk, ``j = 1..k``;
      * ``q_low``      -- the completed ``Q_0..Q_{k+1}``;
      * ``low_rows``   -- P-basis coefficient rows of ``Q_0..Q_k``;
      * ``tail_gamma_ok`` -- all ``tilde gamma_n`` nonzero for
                          ``k+1 <= n <= n_max``.

    ``verdict`` is True iff every block passed.
    """

    k: int
    n_max: int
    tol: float
    verdict: bool
    denom: float
    fourier: tuple[float, ...]
    completion: tuple[tuple[int, float, float, bool], ...]
    matching: tuple[tuple[int, float, tuple[float, ...], bool], ...]
    beta0_tilde: float | None
    q_low: tuple[Poly, ...]
    low_rows: tuple[tuple[float, ...], ...]
    tail_gamma_ok: bool
    failures: tuple[str, ...]


def downward_favard(q_next: Poly, q_cur: Poly, tol: float = 1e-12):
    """Recover ``(tilde_beta, tilde_gamma, q_prev)`` from two consecutive monic
    polynomials via ``x q_cur = q_next + tilde_beta q_cur + tilde_gamma q_prev``.

    Raises :class:`~opoly.errors.DegeneracyError` when the remainder loses a
    degree (``tilde_gamma = 0`` within tolerance), i.e. the sequence cannot be
    extended downward as an orthogonal one.
    """
    m = q_cur.degree
    if m < 1:
        raise ValueError("q_cur must have degree >= 1")
    if q_next.degree != m + 1:
        raise ValueError(
            f"q_next must have degree {m + 1}, got {q_next.degree}"
        )
    if abs(q_next.leading - 1.0) > 1e-9 or abs(q_cur.leading - 1.0) > 1e-9:
        raise ValueError("both polynomials must be monic")
    remainder = q_cur.times_x() - q_next
    arr = remainder.as_array(m + 2)
    beta = float(arr[m])
    rest = remainder - beta * q_cur
    rest_arr = rest.as_array(m + 1)
    gamma = float(rest_arr[m - 1])
    scale = max(
        1.0,
        float(np.max(np.abs(q_next.as_array()))),
        float(np.max(np.abs(q_cur.as_array()))),
    )
    if abs(gamma) <= tol * scale:
        raise DegeneracyError(
            f"tilde gamma at degree {m} is numerically zero ({gamma!r})"
        )
    prev_coeffs = rest_arr[:m] / gamma
    prev_coeffs[m - 1] = 1.0
    return beta, gamma, Poly(tuple(prev_coeffs))


def _direct_q(rec: RecurrencePair, comb: CombCoeffs, n: int) -> Poly:
    q = poly_p(rec, n)
    for j, aj in enumerate(comb.a, start=1):
        q = q + aj * poly_p(rec, n - j)
    return q


def _expand_in_p(rec: RecurrencePair, q: Poly) -> tuple[float, ...]:
    """P-basis coefficients of ``q`` (all basis polynomials are monic)."""
    work = q.as_array().copy()
    out = np.zeros(q.degree + 1)
    for d in range(q.degree, -1, -1):
        c = work[d]
        out[d] = c
        if c != 0.0:
            work[: d + 1] -= c * poly_p(rec, d).as_array(d + 1)
    return tuple(float(v) for v in out)


@dataclass(frozen=True)
class _Completion:
    fourier: tuple[float, ...]
    denom: float
    q_low: tuple[Poly, ...]          # Q_0..Q_{k+1}
    low_rows: tuple[tuple[float, ...], ...]
    tilde_beta: tuple[float, ...]    # tilde beta_1..tilde beta_k
    tilde_gamma: tuple[float, ...]   # tilde gamma_1..tilde gamma_k
    beta0_tilde: float


def _complete_low(rec: RecurrencePair, comb: CombCoeffs, tol: float) -> _Completion:
    """Fix ``Q_k`` from the denominator equations, then walk downward to ``Q_0``.

    Raises :class:`~opoly.errors.DegeneracyError` if the denominator vanishes
    or any downward step degenerates; the combination then admits no
    orthogonal completion at all.
    """
    k = comb.k
    if rec.horizon < k + 1:
        raise HorizonError(f"horizon {rec.horizon} too small for k = {k}")
    a = (0.0,) + comb.a  # 1-indexed view
    beta, gamma = rec.beta, rec.gamma
    denom = float(gamma[k + 1] + a[1] * (beta[k] - beta[k + 1]))
    if abs(denom) <= tol * max(1.0, abs(gamma[k + 1])):
        raise DegeneracyError(
            "gamma_{k+1} + a_1*(beta_k - beta_{k+1}) is numerically zero"
        )
    fourier = np.empty(k)
    for j in range(1, k):
        fourier[j - 1] = (a[j] * gamma[k - j + 1] + a[j + 1] * (beta[k - j] - beta[k + 1])) / denom
    fourier[k - 1] = a[k] * gamma[1] / denom

    q_next = _direct_q(rec, comb, k + 1)
    q_cur = poly_p(rec, k)
    for j, fj in enumerate(fourier, start=1):
        q_cur = q_cur + float(fj) * poly_p(rec, k - j)

    qs: dict[int, Poly] = {k + 1: q_next, k: q_cur}
    t_beta = np.empty(k)
    t_gamma = np.empty(k)
    hi, lo = q_next, q_cur
    for m in range(k, 0, -1):
        b, g, prev = downward_favard(hi, lo, tol)
        t_beta[m - 1] = b
        t_gamma[m - 1] = g
        qs[m - 1] = prev
        hi, lo = lo, prev
    beta0_tilde = -qs[1].coeffs[0]  # Q_1 = x - tilde beta_0

    low_rows = tuple(_expand_in_p(rec, qs[j]) for j in range(k + 1))
    q_low = tuple(qs[j] for j in range(k + 2))
    return _Completion(
        fourier=tuple(float(v) for v in fourier),
        denom=denom,
        q_low=q_low,
        low_rows=low_rows,
        tilde_beta=tuple(float(v) for v in t_beta),
        tilde_gamma=tuple(float(v) for v in t_gamma),
        beta0_tilde=float(beta0_tilde),
    )


def q_poly(
    rec: RecurrencePair,
    comb: CombCoeffs,
    n: int,
    report: ConditionReport | None = None,
) -> Poly:
    """The monic combination polynomial ``Q_n``.

    For ``n >= k + 1`` this is the direct sum; below that the sequence is only
    defined once the orthogonality decision passed, so a passing ``report``
    must be supplied (its completed polynomials are returned).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    k = comb.k
    if n >= k + 1:
        return _direct_q(rec, comb, n)
    if report is None or not report.verdict:
        raise StateError(
            f"Q_{n} with n <= k = {k} requires a passing condition report"
        )
    return report.q_low[n]


def check_conditions(
    rec: RecurrencePair, comb: CombCoeffs, n_max: int, tol: float = 1e-10
) -> ConditionReport:
    """Decide orthogonality of the combination family up to index ``n_max``.

    Residuals are accepted when below ``tol * max(1, |gamma_n|)``.  Failures
    never raise; they are encoded in the returned report.
    """
    k = comb.k
    if n_max < k + 2:
        raise ValueError(f"n_max must be at least k + 2 = {k + 2}")
    if n_max > rec.horizon:
        raise HorizonError(f"n_max = {n_max} exceeds horizon {rec.horizon}")
    a = (0.0,) + comb.a
    beta, gamma = rec.beta, rec.gamma
    failures: list[str] = []

    low: _Completion | None = None
    try:
        low = _complete_low(rec, comb, tol)
    except DegeneracyError as exc:
        failures.append(str(exc))

    matching = []
    for n in range(k + 2, n_max + 1):
        scale = max(1.0, abs(gamma[n]))
        main = float(gamma[n] + a[1] * (beta[n - 1] - beta[n]) - gamma[n - k])
        extras = tuple(
            float(a[j - 1] * (gamma[n - k] - gamma[n - j + 1]) - a[j] * (beta[n - j] - beta[n]))
            for j in range(2, k + 1)
        )
        ok = abs(main) <= tol * scale and all(abs(r) <= tol * scale for r in extras)
        matching.append((n, main, extras, ok))
        if not ok:
            failures.append(f"recurrence-matching condition fails at n = {n}")

    tail_ok = True
    for n in range(k + 1, n_max + 1):
        tg = gamma[n] + a[1] * (beta[n - 1] - beta[n])
        if abs(tg) <= tol * max(1.0, abs(gamma[n])):
            tail_ok = False
            failures.append(f"tilde gamma_{n} is numerically zero")

    if low is not None:
        completion = tuple(
            (j, low.tilde_beta[j - 1], low.tilde_gamma[j - 1],
             abs(low.tilde_gamma[j - 1]) > tol)
            for j in range(1, k + 1)
        )
        for j, _, tg, ok in completion:
            if not ok:
                failures.append(f"completed tilde gamma_{j} is numerically zero")
        verdict = tail_ok and all(row[3] for row in completion) and all(
            row[3] for row in matching
        )
        return ConditionReport(
            k=k, n_max=n_max, tol=tol, verdict=verdict,
            denom=low.denom, fourier=low.fourier,
            completion=completion, matching=tuple(matching),
            beta0_tilde=low.beta0_tilde,
            q_low=low.q_low, low_rows=low.low_rows,
            tail_gamma_ok=tail_ok, failures=tuple(failures),
        )
    denom = float(gamma[k + 1] + a[1] * (beta[k] - beta[k + 1]))
    return ConditionReport(
        k=k, n_max=n_max, tol=tol, verdict=False,
        denom=denom, fourier=(),
        completion=(), matching=tuple(matching),
        beta0_tilde=None, q_low=(), low_rows=(),
        tail_gamma_ok=tail_ok, failures=tuple(failures),
    )


def tilde_recurrence(
    rec: RecurrencePair,
    comb: CombCoeffs,
    n_max: int,
    report: ConditionReport | None = None,
) -> RecurrencePair:
    """Recurrence pair of the combination family up to index ``n_max``.

    Entries with ``n >= k + 1`` follow the closed formulas; entries below come
    from the report's downward completion.  A failed report (or a failing
    internally-computed one) raises :class:`~opoly.errors.StateError`.
    """
    k = comb.k
    if n_max < k + 1:
        raise ValueError(f"n_max must be at least k + 1 = {k + 1}")
    if n_max > rec.horizon:
        raise HorizonError(f"n_max = {n_max} exceeds horizon {rec.horizon}")
    if report is None:
        report = check_conditions(rec, comb, max(n_max, k + 2), tol=1e-10)
    if not report.verdict:
        raise StateError(
            "combination is not orthogonal; tilde recurrence undefined: "
            + "; ".join(report.failures)
        )
    a1 = comb.a[0]
    beta_t = np.empty(n_max + 1)
    gamma_t = np.empty(n_max)  # gamma_t[i] = tilde gamma_{i+1}
    beta_t[0] = report.beta0_tilde
    for j, tb, tg, _ in report.completion:
        beta_t[j] = tb
        gamma_t[j - 1] = tg
    for n in range(k + 1, n_max + 1):
        beta_t[n] = rec.beta[n]
        gamma_t[n - 1] = rec.gamma[n] + a1 * (rec.beta[n - 1] - rec.beta[n])
    return RecurrencePair(beta_t, gamma_t)


@dataclass(frozen=True)
class GramReport:
    """Pairwise inner products of a candidate orthogonal basis.

    ``failures`` lists ``(i, j, value, bound)`` for every off-diagonal entry
    above its bound and every zero diagonal; ``worst_ratio`` is the largest
    off-diagonal ``|G_ij| / sqrt(|G_ii G_jj|)`` seen.
    """

    ok: bool
    gram: np.ndarray
    failures: tuple[tuple[int, int, float, float], ...]
    worst_ratio: float


def oracle_gram_check(
    rec: RecurrencePair, comb: CombCoeffs, degree: int = 12, tol: float = 1e-9
) -> GramReport:
    """Independent brute-force orthogonality test of ``{Q_0..Q_degree}``.

    The candidate functional is reconstructed purely from the polynomials
    (the unique ``v`` with ``v_0 = 1`` annihilating each ``Q_m``) and the
    Gram matrix under ``v`` is required to be diagonal.  No recurrence-level
    shortcut is involved, so agreement with :func:`check_conditions` is a
    genuine two-route check.

    The whole computation runs in exact rational arithmetic (floats are
    dyadic rationals), because at degree 12 the diagonal norms shrink to
    ``~4^-12`` and a floating-point Gram matrix would drown real failures
    in cancellation noise.  The ``tol`` only classifies the exact ratios
    ``|G_ij| / sqrt(G_ii G_jj)``.
    """
    if 2 * degree > rec.horizon + 1:
        raise HorizonError(
            f"oracle at degree {degree} needs horizon >= {2 * degree - 1}"
        )
    gram_fr = exact_gram(rec.beta, rec.gamma, comb.a, degree)
    n = degree + 1
    gram = np.array([[float(v) for v in row] for row in gram_fr])
    gram.setflags(write=False)
    failures = []
    tol2 = Fraction(tol) ** 2
    for i in range(n):
        if gram_fr[i][i] == 0:
            failures.append((i, i, 0.0, 0.0))
    worst = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            dd = gram_fr[i][i] * gram_fr[j][j]
            off2 = gram_fr[i][j] ** 2
            if dd == 0:
                if off2 != 0:
                    failures.append((i, j, gram[i, j], 0.0))
                continue
            ratio2 = off2 / abs(dd)
            worst = max(worst, float(ratio2) ** 0.5)
            if ratio2 > tol2:
                failures.append(
                    (i, j, gram[i, j], tol * abs(gram[i, i] * gram[j, j]) ** 0.5)
                )
    return GramReport(not failures, gram, tuple(failures), worst)
