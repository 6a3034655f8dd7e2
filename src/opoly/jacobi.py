"""Truncated Jacobi-matrix algebra for combination families.

The multiplication-by-x operator in the monic ``P``-basis is the tridiagonal
matrix with unit superdiagonal, ``beta_n`` on the diagonal and ``gamma_n``
below; its ``m x m`` truncation has characteristic polynomial ``P_m``.  The
banded change of basis ``Q = M P`` intertwines the two operators
(``M J_P = J_Q M``), and the ``m x m`` truncation of ``J_P`` minus the
single-row perturbation ``L`` (last row carrying ``a_k .. a_1``, with ``a_1``
in the last column) has characteristic polynomial ``Q_m`` -- so zeros of the
combination polynomials are ordinary eigenvalues.  For ``k <= 2`` the
recurrence folds ``Q_m`` into ``(x - beta_{m-1} + a_1) P_{m-1} - (gamma_{m-1}
- a_2) P_{m-2}``, the characteristic polynomial of ``J^_m``: ``J_m`` with
``beta_{m-1} - a_1`` and ``gamma_{m-1} - a_2`` in its last row (Golub, "Some
modified matrix eigenvalue problems", 1973; Gautschi 2004, §3.1.1).  With
``gamma_1..gamma_{m-2} > 0`` and ``gamma_{m-1} > a_2`` a diagonal similarity
makes it symmetric, and ``eigvalsh`` finds its real eigenvalues with an
error relative to its own norm (Golub & Welsch 1969).  Every other call
takes the eigenvalues of ``(J_P)_m - L_m`` balanced by the diagonal
similarity ``D = diag(sqrt|gamma_1 ... gamma_i|)`` (Parlett & Reinsch,
*Numer. Math.* 13, 1969): ``sqrt|gamma_i|`` above the diagonal,
``sign(gamma_i) sqrt|gamma_i|`` below it, and ``a_j`` in the last row divided
by ``sqrt|gamma_{m-j+1} ... gamma_{m-1}|``.  Under ``x -> s x`` that matrix
becomes ``s`` times its own similarity by a diagonal of signs, so its
eigenvalues scale by ``s``; the unbalanced matrix keeps its unit
superdiagonal and does not scale.

On top of that sits the functional link ``u = h_k v``.  The ``Q_j`` are
``v``-orthogonal and ``u(Q_m) = 0`` for ``m > k`` (such a ``Q_m`` has no
``P_0`` term), so ``h_k`` is its own Fourier expansion
``sum_{j<=k} u(Q_j) / v(Q_j^2) Q_j``: ``u(Q_j)`` is the ``P_0`` entry of the
completion row of ``Q_j`` and ``v(Q_j^2) = tilde gamma_1 ... tilde gamma_j``.
The link is checked on the modified moments ``v(P_m)``
(:func:`verify_functional_relation`), and in the orthonormal normalisation
as ``h_k(J_sym) = Mt^T Mt`` with ``Mt = D_Q^{-1/2} M D_P^{1/2}``, where
``D_P = diag <u, P_n^2>`` and ``D_Q = diag <v, Q_n^2>``.

Truncation convention: matrix identities are checked on interior rows
``0 .. m-k-2`` only, and any product or power that can leak across the
truncation edge is computed at size ``m + k`` and cut back, so every compared
entry is an exact entry of the corresponding infinite operator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .errors import DegeneracyError, HorizonError, InapplicableError, NumericError, StateError
from .lincomb import CombCoeffs, ConditionReport, q_poly, tilde_recurrence
from .moments import moments_from_recurrence
from .recurrence import Poly, RecurrencePair

if TYPE_CHECKING:
    import numpy as np


class HkSolution(NamedTuple):
    """The connecting polynomial ``h_k`` and the proportionality constant
    ``1 / v(h_k)`` between the two normalised functionals."""

    poly: Poly
    scale: float


def _symmetric_jacobi(rec: RecurrencePair, m: int) -> np.ndarray:
    """``m x m`` symmetric Jacobi truncation: betas on the diagonal,
    ``sqrt(gamma)`` on both off-diagonals (``gamma_1..gamma_{m-1} > 0``)."""
    import numpy as np
    off = np.sqrt(rec.gamma[1:m])
    return _tridiagonal(rec.beta[:m], off, off)


def _tridiagonal(diag: np.ndarray, upper, lower) -> np.ndarray:
    """The square matrix with ``diag``, ``upper`` and ``lower`` on its three
    bands, written into one zeroed matrix through flat strides.  Its bits are
    those of the sum of the three ``np.diag`` matrices: that sum turns a
    ``-0.0`` on the diagonal into ``0.0``, and so does ``+ 0.0`` here."""
    import numpy as np
    m = diag.size
    J = np.zeros((m, m))
    flat = J.reshape(-1)
    np.add(diag, 0.0, out=flat[:: m + 1])
    flat[1 :: m + 1] = upper
    flat[m :: m + 1] = lower
    return J


def change_basis_matrix(comb: CombCoeffs, report: ConditionReport, m: int) -> np.ndarray:
    """Rows give the P-basis coefficients of ``Q_0..Q_{m-1}``.

    Rows above ``k`` carry the constant bands ``(a_k, ..., a_1, 1)``; rows
    ``0..k`` come from the report's completed polynomials.
    """
    import numpy as np
    if not report.verdict:
        raise StateError("change of basis requires a passing condition report")
    if m < 1:
        raise ValueError("m must be positive")
    k = comb.k
    M = np.eye(m)
    for n in range(m):
        if n <= k:
            M[n, : n + 1] = report.low_rows[n]
        else:
            for j, aj in enumerate(comb.a, start=1):
                M[n, n - j] = aj
    return M


def multiset_distance(a, b) -> float:
    """Greedy matching distance between two equal-size complex multisets of
    finite numbers: ``a`` in (real, imag) order takes the nearest unmatched
    ``b`` (the first on ties) from one broadcast of ``np.hypot`` distances,
    each equal to the scalar ``abs(z - w)``; matched columns become ``inf``.

    When every sorted ``a_i`` is strictly nearest to ``b_i`` (as for
    :func:`zeros_q`'s eigenvalues and their own refinements), the greedy
    matching is the identity and its distance is read off the diagonal.
    For two real sets that takes ``O(m)`` work: each sorted ``a_i`` strictly
    nearer to ``b_i`` than to ``b_{i-1}`` and ``b_{i+1}`` forces ``b`` to
    increase (uncrossing two matched pairs never lengthens them), and then
    no farther ``b_j`` is nearer; rounding keeps the order of differences,
    and ``hypot(x, 0) = |x|`` keeps the bits."""
    import numpy as np
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    if a.size != b.size:
        raise ValueError("multisets must have equal size")
    if a.size and not (a.imag.any() or b.imag.any()):
        x, y = np.sort(a.real), b.real
        own = np.abs(x - y)
        if np.all(own[1:] < np.abs(x[1:] - y[:-1])) and np.all(own[:-1] < np.abs(x[:-1] - y[1:])):
            return _top(own)
    diff = a[np.lexsort((a.imag, a.real))][:, None] - b[None, :]
    dists = np.hypot(diff.real, diff.imag)
    own = dists.diagonal()
    if a.size and np.all(own < np.where(np.eye(a.size, dtype=bool), np.inf, dists).min(axis=1)):
        return _top(own)
    worst = 0.0
    for row in dists:
        i = int(row.argmin())
        worst = max(worst, row[i])
        dists[:, i] = np.inf
    return worst


def _top(own: np.ndarray) -> float:
    """The greedy loop's ``max(0.0, ...)`` over the identity matching's distances."""
    top = own.max()
    return top if top > 0.0 else 0.0


class ZerosReport(NamedTuple):
    """Zeros of ``Q_m`` (sorted by real part, then imaginary part) and their
    multiset distance from their own one-step Newton refinements."""

    zeros: np.ndarray
    cross_check_distance: float


def _newton_step(rec: RecurrencePair, comb: CombCoeffs, z: np.ndarray) -> np.ndarray:
    """``z - Q_m(z) / Q_m'(z)``, ``m = z.size``, from one stacked recurrence
    whose rows carry ``P_j`` and ``P_j'`` at every ``z``.  Each shifted row
    ``z - beta_j`` is repeated once into a pair, so every step multiplies
    arrays of one shape: numpy's broadcast of a row over a pair costs more
    than the arithmetic at these sizes."""
    import numpy as np
    m, k, coef = z.size, comb.k, (1.0,) + comb.a  # coef[i] multiplies P_{m-i}
    with np.errstate(all="ignore"):  # a non-finite step fails the cross-check
        pairs = np.repeat((z - rec.beta[:m, None])[:, None], 2, axis=1)
        prev = np.array([np.ones_like(z), np.zeros_like(z)])
        cur = pairs[0].copy()
        cur[1] = 1.0
        q = coef[m - 1] * cur if m - 1 <= k else 0.0
        for j, g in enumerate(rec.gammas[1:m], start=1):
            nxt = pairs[j] * cur
            nxt -= g * prev
            nxt[1] += cur[0]  # P_{j+1}' gains P_j
            prev, cur = cur, nxt
            if m - 1 - j <= k:
                q = q + coef[m - 1 - j] * cur
        return z - q[0] / q[1]


def _hat_gamma(rec: RecurrencePair, comb: CombCoeffs, m: int) -> float | None:
    """``gamma_{m-1} - a_2`` (``a_2 = 0`` for ``k = 1``), the last squared
    off-diagonal of ``J^_m``, where ``J^_m`` is real symmetric: ``k <= 2``,
    ``gamma_1..gamma_{m-2} > 0`` and ``0 < gamma_{m-1} - a_2 < inf``.
    ``None`` elsewhere.  :func:`zeros_q` and
    :func:`~opoly.quadrature.christoffel_numbers` both take their route from it."""
    k = comb.k
    if k > 2 or not all(g > 0.0 for g in rec.gammas[1 : m - 1]):
        return None
    last = rec.gammas[m - 1] - (comb.a[1] if k == 2 else 0.0)
    return last if 0.0 < last < float("inf") else None


def _hat_jacobi(rec: RecurrencePair, comb: CombCoeffs, m: int) -> np.ndarray | None:
    """``J^_m``: the symmetric Jacobi truncation ``J_m`` with ``beta_{m-1} - a_1``
    in its last diagonal entry and ``sqrt(gamma_{m-1} - a_2)`` in its last
    off-diagonal, whose characteristic polynomial is ``Q_m``; ``None`` where
    :func:`_hat_gamma` is."""
    import numpy as np
    last = _hat_gamma(rec, comb, m)
    if last is None:
        return None
    diag = rec.beta[:m].copy()
    diag[-1] -= comb.a[0]
    off = rec.gamma[1:m].copy()
    off[-1] = last
    np.sqrt(off, out=off)
    return _tridiagonal(diag, off, off)


def _newton_distance(rec: RecurrencePair, comb: CombCoeffs, z: np.ndarray) -> float:
    """Multiset distance of ``z`` from its Newton refinements, infinite where
    a refinement is not finite."""
    import numpy as np
    refined = _newton_step(rec, comb, z)
    return float(multiset_distance(z, refined)) if np.all(np.isfinite(refined)) else np.inf


#: Largest Newton distance :func:`zeros_q` accepts, on both routes.
_NEWTON_TOL = 1e-8


def zeros_q(rec: RecurrencePair, comb: CombCoeffs, m: int) -> ZerosReport:
    """Zeros of ``Q_m``, in ascending order as a complex array.

    For ``k <= 2``, where :func:`_hat_jacobi` builds ``J^_m``, they are its
    eigenvalues (``eigvalsh``, real).  On every other call they are the
    eigenvalues of the balanced ``D^-1 ((J_P)_m - L_m) D``,
    ``D = diag(sqrt|gamma_1 ... gamma_i|)`` (``eigvals``), sorted by real
    part, then imaginary part.  Neither route reads the verdict, the exact
    completion or the tilde data.

    The Newton refinements ``z - Q_m(z) / Q_m'(z)`` are evaluated by the
    recurrence of ``P``, so the check shares no matrix with either route; each
    step is the first-order forward error of its ``z``.  A multiset distance
    above ``_NEWTON_TOL`` (infinite where ``Q_m'`` vanishes at a computed
    zero) raises :class:`~opoly.errors.NumericError`; an ``m`` off
    ``[k + 1, horizon + 1]`` :class:`ValueError` or
    :class:`~opoly.errors.HorizonError`.
    """
    import numpy as np
    k = comb.k
    if m > rec.horizon + 1:
        raise HorizonError(f"m = {m} exceeds horizon + 1 = {rec.horizon + 1}")
    if m < k + 1:
        raise ValueError(f"m must be at least k + 1 = {k + 1}")
    J = _hat_jacobi(rec, comb, m)
    try:
        if J is not None:
            w = np.linalg.eigvalsh(J)  # ascending
            return _newton_checked(w.astype(complex), _newton_distance(rec, comb, w))
        gamma = rec.gamma[1:m]
        root = np.sqrt(np.abs(gamma))
        A = _tridiagonal(rec.beta[:m], root, np.copysign(root, gamma))
        row = np.array(comb.a)  # L_m's last row, a_1 in the last column
        for i in range(1, k):  # a_j over sqrt|gamma_{m-1}|, ..., sqrt|gamma_{m-j+1}|
            row[i:] /= root[m - 1 - i]
        A[-1, m - k :] -= row[::-1]
        eigs = np.linalg.eigvals(A).astype(complex)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericError(f"eigenvalue iteration failed: {exc}") from exc
    eigs = eigs[np.lexsort((eigs.imag, eigs.real))]
    return _newton_checked(eigs, _newton_distance(rec, comb, eigs))


def _newton_checked(zeros: np.ndarray, dist: float) -> ZerosReport:
    """The report, or :class:`~opoly.errors.NumericError` when the Newton
    distance exceeds ``_NEWTON_TOL``."""
    if dist > _NEWTON_TOL:
        raise NumericError(
            f"eigenvalue/Newton cross-check mismatch: multiset distance {dist:.3e}"
        )
    return ZerosReport(zeros, dist)


def norm_diagonal(rec: RecurrencePair, m: int) -> np.ndarray:
    """``D[n] = gamma_1 ... gamma_n`` for ``n = 0..m-1`` (the squared norms
    ``<u, P_n^2>`` with ``u_0 = 1``)."""
    import numpy as np
    if m < 1:
        raise ValueError("m must be positive")
    if m > rec.horizon + 1:
        raise HorizonError(f"m = {m} needs gamma up to {m - 1}, horizon {rec.horizon}")
    return np.cumprod((1.0,) + rec.gammas[1:m])


def solve_hk(rec: RecurrencePair, comb: CombCoeffs, report: ConditionReport) -> HkSolution:
    """``h_k = sum_{j<=k} u(Q_j) / v(Q_j^2) Q_j``, the expansion of ``h_k`` in
    the ``v``-orthogonal ``Q_0..Q_k``.

    ``u = h_k v`` gives ``v(h_k Q_j) = u(Q_j)``, which is ``report.low_rows[j][0]``
    (``u(P_i) = 0`` for ``i >= 1``) and vanishes for ``j > k``;
    ``v(Q_j^2) = tilde gamma_1 ... tilde gamma_j``.  A failed report raises
    :class:`~opoly.errors.StateError` (from :func:`tilde_recurrence`), and a
    non-finite coefficient or a zero ``c_k`` (a norm product past the float
    range) :class:`~opoly.errors.NumericError`.

    The reported ``scale`` is ``1 / v(h_k)`` from the moments of ``v``, which
    makes ``u = scale * h_k v`` exact at degree zero under the ``u_0 = v_0 = 1``
    normalisation (1 up to rounding).
    """
    import numpy as np
    k = comb.k
    tilde = tilde_recurrence(rec, comb, k + 1, report=report)  # refuses a failed report
    with np.errstate(all="ignore"):  # a norm product past the float range is refused below
        c = np.array([row[0] for row in report.low_rows]) / norm_diagonal(tilde, k + 1)
    if not np.all(np.isfinite(c)) or c[-1] == 0.0:
        raise NumericError(
            f"h_k is not a finite degree-{k} polynomial: u(Q_j) / v(Q_j^2) = {c.tolist()}"
        )
    h = Poly((0.0,))
    for j, cj in enumerate(c.tolist()):
        h = h + cj * q_poly(rec, comb, j, report)
    pairing = float(np.dot(h.coeffs, moments_from_recurrence(tilde, k)))
    if pairing == 0.0:
        raise DegeneracyError("<v, h_k> vanished; scale undefined")
    return HkSolution(h, 1.0 / pairing)


class RelationReport(NamedTuple):
    ok: bool
    scale: float
    max_residual: float


def _h_pairings(beta, gamma, low, band, c):
    """``r_j = v(h P_j)`` for ``0 <= j <= horizon - deg h``.

    ``mu_m = v(P_m)`` starts at ``mu_0 = 1`` and continues as
    ``low[m] . mu[:m]`` for ``m <= k`` and ``band . mu[m-k:m]`` above;
    ``y^(i)_j = v(x^i P_j)`` follows from
    ``y^(i+1)_j = y^(i)_{j+1} + beta_j y^(i)_j + gamma_j y^(i)_{j-1}``.
    """
    import numpy as np
    k = len(band)
    mu = np.empty(beta.size)
    mu[0] = 1.0
    for m in range(1, mu.size):
        mu[m] = np.dot(low[m], mu[:m]) if m <= k else np.dot(band, mu[m - k : m])
    y, size = mu, mu.size + 1 - c.size
    r = c[0] * y[:size]
    for ci in c[1:]:
        n = y.size - 1
        nxt = y[1:] + beta[:n] * y[:n]
        nxt[1:] += gamma[1:n] * y[: n - 1]
        y = nxt
        r += ci * y[:size]
    return r


def verify_functional_relation(
    rec: RecurrencePair, comb: CombCoeffs, report: ConditionReport, h: Poly
) -> RelationReport:
    """Check ``u = s * h v`` on the modified moments ``mu_m = v(P_m)``.

    ``u`` is the functional of ``P`` and ``v`` that of ``Q``, both with unit
    zeroth moment.  ``v(Q_m) = 0`` for ``m >= 1`` gives ``mu_m`` from the
    completion rows for ``m <= k`` and ``mu_m = -sum_j a_j mu_{m-j}`` above,
    up to ``m = horizon``; multiplication by ``x`` in the ``P``-basis then
    gives ``r_m = v(h P_m)`` for ``m <= horizon - deg h`` (Sack & Donovan
    1971; Gautschi 2004, §2.1.7).  The relation holds iff ``r_m = 0`` for
    ``m >= 1``, with ``s = 1 / r_0``.

    Each ``|r_m|`` is divided by ``max(b_m, |r_0| sqrt|gamma_1 ... gamma_m|)``,
    where ``b`` is the same computation on absolute values (it bounds the
    rounding error of ``r_m``) and the second term is ``|r_0|`` times the
    norm of ``P_m``.  Both scale like ``r_m`` under ``x -> s x``, so the
    residual does not depend on the unit of ``x``; the relation holds when the
    largest is at most ``1e-8``.  A failed report raises
    :class:`~opoly.errors.StateError`, a vanishing ``r_0``
    :class:`~opoly.errors.DegeneracyError`.
    """
    import numpy as np
    if not report.verdict:
        raise StateError("functional relation requires a passing condition report")
    if h.degree >= rec.horizon:
        raise HorizonError(f"horizon {rec.horizon} leaves no moment above deg h = {h.degree}")
    low = [-np.array(row[:m]) for m, row in enumerate(report.low_rows)]
    band = -np.array(comb.a[::-1])
    c = np.array(h.coeffs)
    r = _h_pairings(rec.beta, rec.gamma, low, band, c)
    if r[0] == 0.0:
        raise DegeneracyError("v(h) vanished; scale cannot be fitted")
    b = _h_pairings(np.abs(rec.beta), np.abs(rec.gamma), [np.abs(row) for row in low],
                    np.abs(band), np.abs(c))
    norms = np.sqrt(np.cumprod(np.abs(rec.gamma[1 : r.size])))
    resid = np.abs(r[1:]) / np.maximum(b[1:], abs(r[0]) * norms)
    worst = float(np.max(resid))
    return RelationReport(worst <= 1e-8, float(1.0 / r[0]), worst)


class OrthonormalReport(NamedTuple):
    ok: bool
    residual: float


def orthonormal_identity_check(
    rec: RecurrencePair, comb: CombCoeffs, report: ConditionReport, m: int
) -> OrthonormalReport:
    """Check ``h_k(J_sym) = Mt^T Mt`` in the orthonormal normalisation, to ``1e-8``.

    ``J_sym`` is the symmetric Jacobi matrix (off-diagonal ``sqrt(gamma)``)
    and ``Mt = D_Q^{-1/2} M D_P^{1/2}``.  Both sides are assembled at
    truncation ``m + k`` and compared on rows and columns ``0..m-k-2``, so
    ``m`` must be at least ``k + 2``.  The identity only makes sense in the
    positive-definite case, so a non-positive ``gamma_n`` or ``tilde gamma_n``
    with ``n < m + k`` (the ones it reads) raises
    :class:`~opoly.errors.InapplicableError` before ``h_k`` is built.
    """
    import numpy as np
    k = comb.k
    if m < k + 2:
        raise ValueError(f"m must be at least k + 2 = {k + 2}")
    mm = m + k
    tilde = tilde_recurrence(rec, comb, mm - 1, report=report)
    if np.any(rec.gamma[1:mm] <= 0.0):
        raise InapplicableError("orthonormal identity needs all gamma_n > 0")
    if np.any(tilde.gamma[1:mm] <= 0.0):
        raise InapplicableError("orthonormal identity needs all tilde gamma_n > 0")
    hk = solve_hk(rec, comb, report)
    M = change_basis_matrix(comb, report, mm)
    DP, DQ = norm_diagonal(rec, mm), norm_diagonal(tilde, mm)
    Mt = (M / np.sqrt(DQ)[:, None]) * np.sqrt(DP)[None, :]
    Jsym = _symmetric_jacobi(rec, mm)
    lhs = np.zeros((mm, mm))
    power = np.eye(mm)
    for c in hk.poly.coeffs:
        lhs += c * power
        power = power @ Jsym
    rhs = Mt.T @ Mt
    cut = m - k - 1
    residual = float(np.max(np.abs(lhs[:cut, :cut] - rhs[:cut, :cut])))
    return OrthonormalReport(residual <= 1e-8, residual)
