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

Determination and completion are computed once, exactly, by
:func:`~opoly._exact.low_completion` on the same scaled integers as the Gram
oracle, which shares it: every row is integer numerators over one positive
denominator and every tilde value an integer ratio with a positive
denominator.  The verdict rounds each value by one correctly rounded
integer division before the tolerance tests, and the positive denominators
give exact zeros the sign an exact rational would.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ._exact import exact_gram, low_completion
from .errors import HorizonError, NumericError, StateError
from .recurrence import Poly, RecurrencePair, poly_p


class CombCoeffs(NamedTuple("_CombCoeffs", [("a", tuple[float, ...])])):
    """The combination constants ``a_1..a_k`` with ``a_k != 0``."""

    __slots__ = ()

    def __new__(cls, a):
        coeffs = tuple(float(v) for v in a)
        if len(coeffs) < 1:
            raise ValueError("need at least one coefficient")
        if not all(math.isfinite(v) for v in coeffs):
            raise ValueError("combination coefficients must be finite")
        if coeffs[-1] == 0.0:
            raise ValueError("a_k must be nonzero")
        return super().__new__(cls, coeffs)

    @property
    def k(self) -> int:
        return len(self.a)


class ConditionReport(NamedTuple):
    """Everything the orthogonality decision looked at.

    Fields:
      * ``denom``      -- ``gamma_{k+1} + a_1 (beta_k - beta_{k+1})``;
      * ``matching``   -- rows ``(n, main_residual, extra_residuals, ok)`` for
                          ``k+2 <= n <= n_max``;
      * ``completion`` -- rows ``(j, tilde_beta_j, tilde_gamma_j, ok)`` from
                          the downward walk, ``j = 1..k`` (``ok`` is always
                          True: a failing step leaves the block empty);
      * ``low_rows``   -- P-basis coefficient rows of ``Q_0..Q_k``; the
                          Fourier coefficients ``a_j^(k)``, ``j = 1..k``, are
                          ``low_rows[k][-2::-1]``;
      * ``tail_gamma_ok`` -- all ``tilde gamma_n`` nonzero for
                          ``k+1 <= n <= n_max``.

    ``verdict`` is True iff every block passed.
    """

    n_max: int
    verdict: bool
    denom: float
    completion: tuple[tuple[int, float, float, bool], ...]
    matching: tuple[tuple[int, float, tuple[float, ...], bool], ...]
    beta0_tilde: float | None
    low_rows: tuple[tuple[float, ...], ...]
    tail_gamma_ok: bool
    failures: tuple[str, ...]


#: Relative tolerance of every test :func:`check_conditions` makes.
_CONDITIONS_TOL = 1e-10


def _complete_low(rec: RecurrencePair, comb: CombCoeffs) -> tuple[dict, str | None]:
    """The exact completion rounded to floats and held to the tolerance tests.

    Each value is one correctly rounded integer division over a positive
    denominator, so zeros keep the sign the exact value gives them.  Returns
    the report fields and the failure text, if any.  Only ``denom`` is
    filled when the denominator is numerically zero or a step has
    ``|tilde gamma_m| <= _CONDITIONS_TOL * max(1, max|row_{m+1}|, max|row_m|)``
    over the ``P``-basis rows of ``Q_{m+1}`` and ``Q_m`` (rounding is monotone,
    so the largest rounded entry is the rounded largest exact one).
    """
    k = comb.k
    e, (dp, dq), rows, tilde = low_completion(rec.betas, rec.gammas, comb.a)
    low = {"denom": dp / dq, "completion": (), "beta0_tilde": None, "low_rows": ()}
    if abs(low["denom"]) <= _CONDITIONS_TOL * max(1.0, abs(rec.gammas[k + 1])):
        return low, "gamma_{k+1} + a_1*(beta_k - beta_{k+1}) is numerically zero"

    def row(m):  # P_i's coefficient in Q_m is nums[i] / (d 2^((m-i) e))
        nums, d = rows[m]
        return tuple(v / (d << (m - i) * e) for i, v in enumerate(nums))

    low_rows = [row(k + 1)]
    completion = []
    for m in range(k, 0, -1):
        (bp, bq), (gp, gq) = tilde[m]
        tb, tg = bp / bq, gp / gq
        low_rows.append(row(m))
        if abs(tg) <= _CONDITIONS_TOL * max(1.0, *map(abs, low_rows[-2] + low_rows[-1])):
            return low, f"tilde gamma at degree {m} is numerically zero ({tg!r})"
        completion.append((m, tb, tg, True))
    p, q = tilde[0][0]
    low.update(
        completion=tuple(reversed(completion)),
        beta0_tilde=-(-p / q),  # negated twice so that an exact 0 reads -0.0
        low_rows=(row(0), *reversed(low_rows[1:])),
    )
    return low, None


def q_poly(
    rec: RecurrencePair,
    comb: CombCoeffs,
    n: int,
    report: ConditionReport | None = None,
) -> Poly:
    """The monic combination polynomial ``Q_n = P_n + sum_j c_j P_{n-j}``.

    For ``n >= k + 1`` the ``c_j`` are the combination constants; below that
    the sequence is only defined once the orthogonality decision passed, so a
    passing ``report`` must be supplied and its ``P``-basis rows are used.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    k = comb.k
    if n >= k + 1:
        c = comb.a
    elif report is None or not report.verdict:
        raise StateError(
            f"Q_{n} with n <= k = {k} requires a passing condition report"
        )
    else:
        c = report.low_rows[n][-2::-1]
    q = list(poly_p(rec, n).coeffs)
    for j, cj in enumerate(map(float, c), start=1):  # as Poly's q + cj * P_{n-j}, term by term
        p = poly_p(rec, n - j).coeffs
        if cj == 0.0:  # the product's trailing zeros trim off down to its constant
            p = p[:1]
        q[: len(p)] = [x + cj * y for x, y in zip(q, p)]
        q[len(p) :] = [x + 0.0 for x in q[len(p) :]]  # the zero fill: -0.0 becomes 0.0
    return Poly(q)


def _tilde_gamma(rec: RecurrencePair, a1: float, lo: int, hi: int) -> list[float]:
    """``tilde gamma_n = gamma_n + a_1 (beta_{n-1} - beta_n)`` for ``lo <= n <= hi``."""
    beta, gamma = rec.betas, rec.gammas
    return [gamma[n] + a1 * (beta[n - 1] - beta[n]) for n in range(lo, hi + 1)]


def check_conditions(rec: RecurrencePair, comb: CombCoeffs, n_max: int) -> ConditionReport:
    """Decide orthogonality of the combination family up to index ``n_max``.

    Residuals are accepted when at most ``_CONDITIONS_TOL * max(1, |gamma_n|)``,
    a fixed ``1e-10`` that only absorbs rounding.  Failures never raise; they
    are encoded in the returned report.  A completion value past the float
    range raises :class:`~opoly.errors.NumericError`.
    """
    k = comb.k
    if n_max < k + 2:
        raise ValueError(f"n_max must be at least k + 2 = {k + 2}")
    if n_max > rec.horizon:
        raise HorizonError(f"n_max = {n_max} exceeds horizon {rec.horizon}")
    a = (0.0,) + comb.a
    beta, gamma = rec.betas, rec.gammas
    try:
        low, failure = _complete_low(rec, comb)
    except OverflowError as exc:  # an exact completion value past the float range
        raise NumericError(f"low-degree completion: {exc}") from exc
    failures = [failure] if failure else []

    tg = _tilde_gamma(rec, a[1], k + 1, n_max)  # tilde gamma_{k+1..n_max}
    bound = [_CONDITIONS_TOL * max(1.0, abs(g)) for g in gamma[k + 1:n_max + 1]]
    ns = range(k + 2, n_max + 1)  # the matching block, one column per condition
    main = [t - gamma[n - k] for n, t in zip(ns, tg[1:])]
    extras = [[a[j - 1] * (gamma[n - k] - gamma[n - j + 1]) - a[j] * (beta[n - j] - beta[n])
               for n in ns] for j in range(2, k + 1)]
    ok = [abs(v) <= b for v, b in zip(main, bound[1:])]
    for col in extras:
        ok = [o and abs(v) <= b for o, v, b in zip(ok, col, bound[1:])]
    matching = tuple(zip(ns, main, zip(*extras) if extras else [()] * len(main), ok))
    failures += [f"recurrence-matching condition fails at n = {n}" for n, o in zip(ns, ok) if not o]

    tail_zero = [n for n, t, b in zip(range(k + 1, n_max + 1), tg, bound) if abs(t) <= b]
    failures += [f"tilde gamma_{n} is numerically zero" for n in tail_zero]

    return ConditionReport(
        n_max=n_max, verdict=not failures, matching=matching,
        tail_gamma_ok=not tail_zero, failures=tuple(failures), **low,
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
    internally-computed one) raises :class:`~opoly.errors.StateError`, and so
    does ``n_max`` past the index the report checked.
    """
    k = comb.k
    if n_max < k + 1:
        raise ValueError(f"n_max must be at least k + 1 = {k + 1}")
    if n_max > rec.horizon:
        raise HorizonError(f"n_max = {n_max} exceeds horizon {rec.horizon}")
    if report is None:
        report = check_conditions(rec, comb, max(n_max, k + 2))
    if not report.verdict:
        raise StateError(
            "combination is not orthogonal; tilde recurrence undefined: "
            + "; ".join(report.failures)
        )
    if n_max > report.n_max:
        raise StateError(f"n_max = {n_max} exceeds the report's checked n_max = {report.n_max}")
    _, beta_low, gamma_low, _ = zip(*report.completion)
    return RecurrencePair([report.beta0_tilde, *beta_low, *rec.betas[k + 1:n_max + 1]],
                          [*gamma_low, *_tilde_gamma(rec, comb.a[0], k + 1, n_max)])


class GramReport(NamedTuple):
    """Pairwise inner products of a candidate orthogonal basis.

    ``failures`` lists ``(i, j, value, bound)`` for every off-diagonal entry
    above its bound and every zero diagonal; ``worst_ratio`` is the largest
    off-diagonal ``|G_ij| / sqrt(|G_ii G_jj|)`` seen.
    """

    ok: bool
    failures: tuple[tuple[int, int, float, float], ...]
    worst_ratio: float


def oracle_gram_check(
    rec: RecurrencePair, comb: CombCoeffs, degree: int = 12, tol: float = 1e-9
) -> GramReport:
    """Independent brute-force orthogonality test of ``{Q_0..Q_degree}``.

    The candidate functional is reconstructed purely from the polynomials
    (the unique ``v`` with ``v_0 = 1`` annihilating each ``Q_m``) and the
    Gram matrix under ``v`` is required to be diagonal.  It is built from the
    recurrence data and the shared exact completion alone, in ``O(degree^2)``
    operations by modified moments in the ``P``-basis (see :mod:`opoly._exact`),
    and never reads the matching conditions or the tilde recurrence, so
    agreement with :func:`check_conditions` is a genuine two-route check.

    The whole computation is exact (floats are dyadic rationals, so one
    power-of-two change of variable makes it integral), because at degree 12
    the diagonal norms shrink to ``~4^-12`` and a floating-point Gram matrix
    would drown real failures in cancellation noise.  The ``tol`` only
    classifies the exact ratios ``|G_ij| / sqrt(|G_ii G_jj|)``; see
    :func:`_gram_report` for how they are screened and compared.  Raises
    ``ValueError`` unless ``degree >= 1`` and ``tol`` is finite and
    nonnegative.
    """
    if degree < 1 or not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"oracle needs degree >= 1 and a finite tol >= 0, got {degree}, {tol}")
    if 2 * degree > rec.horizon + 1:
        raise HorizonError(
            f"oracle at degree {degree} needs horizon >= {2 * degree - 1}"
        )
    return _gram_report(*exact_gram(rec.betas, rec.gammas, comb.a, degree), tol)


# The log2 screen's margin: far above its 1.5e-11 rounding error at 20,000 bits
_LOG2_MARGIN = 2.0**-20


def _gram_report(num: list, w: list, lcd: int, tol: float) -> GramReport:
    """Classify the exact Gram ``G_ij = N_ij / (L w_i w_j)`` of :func:`exact_gram`.

    The squared ratio ``G_ij^2 / |G_ii G_jj| = N_ij^2 / |N_ii N_jj|`` needs
    no weights, and a log2 screen settles most pairs in floats.  ``l_ij = 2
    log2|N_ij| - log2|N_ii| - log2|N_jj|``, with ``math.log2`` on the
    integers (it rounds each to 53 bits and adds its exponent), is within
    1.5e-11 of the exact ``log2`` of the squared ratio for integers up to
    20,000 bits: each log errs by half an ulp of a number below 2^15, each
    difference by half an ulp of one below 2^16.  A pair fails when ``l_ij``
    exceeds ``2 log2(tol)`` by more than the margin 2^-20 and passes when it
    falls short by more; only a pair within the margin runs the exact
    integer comparison with ``tol^2``, and ``tol = 0`` fails every nonzero
    entry.  ``worst_ratio`` rounds only the ratios with ``l_ij`` within the
    margin of the largest: a pair below that has a smaller ratio than the
    pair at the largest, and rounding is monotone, so the largest rounded
    ratio is the same float.  Only the diagonal and the failing entries are
    rounded to floats; one past the float range raises
    :class:`~opoly.errors.NumericError`.
    """
    n, log2, margin = len(num), math.log2, _LOG2_MARGIN
    tol_num, tol_den = (v * v for v in tol.as_integer_ratio())
    tol_l = 2 * log2(tol) if tol else -math.inf
    diag = [abs(num[i][i]) for i in range(n)]
    logs = [log2(v) if v else 0.0 for v in diag]
    failures = [(i, i, 0.0, 0.0) for i in range(n) if diag[i] == 0]
    l_max, near = -math.inf, []  # near: (l, i, j) within the margin of the largest l so far

    def entry(i, j):  # G_ij = N_ij / (L w_i w_j); int / int rounds correctly
        return num[i][j] / (lcd * w[i] * w[j])

    try:
        gram_diag = [entry(i, i) for i in range(n)]
        for i in range(n):
            row, d_i, l_i = num[i], diag[i], logs[i]
            for j in range(i + 1, n):
                v = row[j]
                if not v:
                    continue
                if not (d_i and diag[j]):
                    failures.append((i, j, entry(i, j), 0.0))
                    continue
                l = 2 * log2(v if v > 0 else -v) - l_i - logs[j]
                if l > l_max - margin:
                    near.append((l, i, j))
                    if l > l_max:
                        l_max = l
                if l > tol_l - margin and (
                        l > tol_l + margin or v * v * tol_den > tol_num * d_i * diag[j]):
                    bound = tol * abs(gram_diag[i] * gram_diag[j]) ** 0.5
                    failures.append((i, j, entry(i, j), bound))
        worst = max(((num[i][j] * num[i][j] / (diag[i] * diag[j])) ** 0.5
                     for l, i, j in near if l >= l_max - margin), default=0.0)
    except OverflowError as exc:  # an exact Gram value or ratio past the float range
        raise NumericError(f"Gram oracle: {exc}") from exc
    return GramReport(not failures, tuple(failures), worst)
