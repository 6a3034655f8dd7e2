"""Quadrature rules from recurrence data, in the orthonormal basis.

With ``u_0 = 1`` and ``gamma_n > 0`` the orthonormal polynomials obey
``sqrt(gamma_{i+1}) p_{i+1} = (x - beta_i) p_i - sqrt(gamma_i) p_{i-1}``,
``p_0 = 1``; no moment is formed.  A rule is exact through degree ``d`` iff
``sum_l w_l p_i(x_l) p_j(x_l) = delta_ij`` for all ``i + j <= d``, since those
products span the polynomials of degree ``d`` (Gautschi, *Orthogonal
Polynomials: Computation and Approximation*, 2004).  Gauss rules reach
``d = 2n - 1``; nodes at the zeros of the length-``k`` combination ``Q_n``
cost exactly ``k`` degrees, which :func:`shohat_check` verifies end to end.

The Gauss nodes are the eigenvalues of the symmetric Jacobi truncation
``J_n``, and for ``k <= 2`` the zeros of ``Q_n`` are those of ``J^_n``
(:func:`~opoly.jacobi._hat_jacobi`: ``beta_{n-1} - a_1`` and
``sqrt(gamma_{n-1} - a_2)`` in its last row).  Where ``J^_n`` is real
symmetric it is the Jacobi matrix of a functional ``u^`` with ``u``'s
moments through degree ``2n - 3``, so ``u^``'s Gauss rule is the
interpolatory rule for ``u`` on the zeros of ``Q_n`` (Golub, "Some modified
matrix eigenvalue problems", *SIAM Rev.* 15, 1973; Gautschi 2004, §3.1.1).
Both rules take Christoffel numbers
``w_l = 1 / (sum_{i<n-1} p_i(x_l)^2 + p_{n-1}(x_l)^2 gamma_{n-1} / (gamma_{n-1} - a_2))``
(``a = 0`` for Gauss; Gautschi 2004, §1.4), read off rows ``0..n-1`` of the
same table ``p_i(x_l)`` that measures the degree.  Unlike the squared first
eigenvector components of Golub & Welsch (1969), they keep their relative
accuracy at nodes far out on the spectrum, where the weights fall far below
the rounding of the largest one.  Every other rule on the zeros of ``Q_n``
(``k >= 3``, or ``gamma_{n-1} <= a_2``) takes its nodes from the balanced
``eigvals`` route of :func:`~opoly.jacobi.zeros_q` (no verdict is read), and
its weights solve ``V w = e_0`` with ``V[i, j] = p_i(x_j)``, ``i < n``: the
first ``n`` rows of the table that then measures the degree.
Each :class:`~opoly.recurrence.RecurrencePair` keeps the last table walked on
it, keyed by the nodes' bytes, so :func:`christoffel_numbers` and
:func:`degree_of_precision` walk those nodes once between them; the table
dies with its pair, and no module-level cache holds one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .errors import HorizonError, InapplicableError, NumericError
from .jacobi import _hat_gamma, _hat_jacobi, _symmetric_jacobi, zeros_q
from .lincomb import CombCoeffs
from .recurrence import RecurrencePair

if TYPE_CHECKING:
    import numpy as np


class QuadratureRule(NamedTuple("_QuadratureRule", [
        ("nodes", "np.ndarray"), ("weights", "np.ndarray"), ("degree_of_precision", int)])):
    """Nodes, weights (read-only float64 copies), and the measured degree of precision."""

    __slots__ = ()

    def __new__(cls, nodes, weights, degree_of_precision):
        import numpy as np
        nodes = np.array(nodes, dtype=float)
        weights = np.array(weights, dtype=float)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise ValueError("nodes and weights must be matching 1-D arrays")
        if nodes.size > 1 and np.any(np.diff(nodes) <= 0.0):
            raise ValueError("nodes must be strictly increasing")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        return super().__new__(cls, nodes, weights, degree_of_precision)

    @property
    def n(self) -> int:
        return self.nodes.size


def _require_positive(rec: RecurrencePair, top: int) -> None:
    """``gamma_1..gamma_top`` must exist and be positive."""
    if top > rec.horizon:
        raise HorizonError(f"need gamma up to {top}, horizon {rec.horizon}")
    if any(g <= 0.0 for g in rec.gammas[1 : top + 1]):
        raise InapplicableError(f"orthonormal basis needs gamma_1..gamma_{top} > 0")


def _orthonormal(rec: RecurrencePair, x: np.ndarray, size: int) -> np.ndarray:
    """``V[i, j] = p_i(x_j)`` for the orthonormal ``p_0..p_{size-1}``, read-only.

    ``rec`` keeps the last table walked, keyed by the bytes of ``x``: a
    shorter one is its prefix, a longer one continues from its last two rows.
    Each row takes the same elementwise steps either way, so it has the same
    bits as a fresh walk.  The steps iterate over the new rows, the shifted
    nodes and the ratios as Python floats: indexing the table and reading a
    numpy scalar at every step cost more than the step's arithmetic."""
    import numpy as np
    _require_positive(rec, size - 1)
    key = x.tobytes()
    kept = rec._p_table.get(key)
    if kept is not None and kept.shape[0] >= size:
        return kept[:size]
    V = np.empty((size, x.size))
    if kept is None:
        V[0] = 1.0
        lo = 0
    else:
        lo = kept.shape[0] - 1
        V[: lo + 1] = kept
    root = np.sqrt(rec.gamma[lo:size])  # gamma_0 is NaN, and row 1 never reads it
    prev, cur = (V[lo - 1] if lo else None), V[lo]
    with np.errstate(all="ignore"):  # a table past the float range is refused by its reader
        shifted = (x - rec.beta[lo : size - 1, None]) / root[1:, None]
        for nxt, s, r in zip(V[lo + 1 :], shifted, (root[:-1] / root[1:]).tolist()):
            np.multiply(s, cur, out=nxt)
            if prev is not None:
                nxt -= r * prev
            prev, cur = cur, nxt
    V.setflags(write=False)
    rec._p_table.clear()
    rec._p_table[key] = V
    return V


def christoffel_numbers(rec: RecurrencePair, nodes, comb: CombCoeffs | None = None) -> np.ndarray:
    """Weights of the interpolatory rule on ``nodes`` for the functional behind
    ``rec`` (``u_0 = 1``).  Given the combination whose ``n`` zeros the nodes
    are, and where :func:`~opoly.jacobi._hat_gamma` puts ``Q_n`` on the
    ``J^_n`` route (``k <= 2``), they are ``u^``'s Christoffel numbers
    ``1 / (sum_{i<n-1} p_i(x_l)^2 + p_{n-1}(x_l)^2 gamma_{n-1} / (gamma_{n-1} - a_2))``
    from rows ``0..n-1`` of the table; otherwise they solve ``V w = e_0``,
    ``V[i, j] = p_i(x_j)``.  :func:`_coincident` nodes raise
    :class:`ValueError`, ``gamma_1..gamma_{n-1}`` not all positive
    :class:`~opoly.errors.InapplicableError`, and weights that are not finite
    :class:`~opoly.errors.NumericError`."""
    import numpy as np
    nodes = np.asarray(nodes, dtype=float).ravel()
    n = nodes.size
    if n < 1:
        raise ValueError("need at least one node")
    if _coincident(np.sort(nodes)):
        raise ValueError("nodes must be pairwise distinct")
    last = None if comb is None else _hat_gamma(rec, comb, n)
    if last is not None:
        ratio = rec.gammas[n - 1] / last
        return _finite(nodes, _christoffel(_orthonormal(rec, nodes, n), ratio))
    try:
        weights = np.linalg.solve(_orthonormal(rec, nodes, n), np.eye(1, n)[0])
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"node matrix is singular: {exc}") from exc
    return _finite(nodes, weights)


def _christoffel(V: np.ndarray, ratio: float = 1.0) -> np.ndarray:
    """``1 / (sum_{i<n-1} V[i]^2 + ratio V[n-1]^2)`` over the ``n`` rows of
    ``V``: the Christoffel numbers of the Jacobi matrix whose last squared
    off-diagonal is ``gamma_{n-1} / ratio``."""
    import numpy as np
    sq = np.square(V)
    sq[-1] *= ratio
    return 1.0 / sq.sum(axis=0)


def _finite(nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``weights``, refused with :class:`~opoly.errors.NumericError` unless
    they and ``nodes`` are all finite."""
    import numpy as np
    if not (np.isfinite(nodes).all() and np.isfinite(weights).all()):
        raise NumericError("quadrature nodes or weights are not finite")
    return weights


def _table_degree(V: np.ndarray, weights: np.ndarray) -> int:
    """Largest ``d <= 2 (t - 1)`` with ``|sum_l w_l V[i, l] V[j, l] - delta_ij|
    <= 1e-9`` for every ``i + j <= d`` over the ``t`` rows of ``V``, or -1 if
    even ``d = 0`` fails; a non-finite sum fails its degree."""
    import numpy as np
    size = V.shape[0]
    with np.errstate(all="ignore"):
        err = (V * weights) @ V.T
    err.reshape(-1)[:: size + 1] -= 1.0  # minus the identity: x - 0.0 keeps x's bits
    failed = np.flatnonzero(~(np.abs(err) <= 1e-9))
    if not failed.size:
        return 2 * (size - 1)
    row, col = np.divmod(failed, size)
    return int((row + col).min()) - 1


def degree_of_precision(rec: RecurrencePair, rule: QuadratureRule) -> int:
    """Largest ``d <= max_degree`` with ``|sum_l w_l p_i(x_l) p_j(x_l) - delta_ij|
    <= 1e-9`` for every ``i + j <= d``, or -1 if even ``d = 0`` fails.

    ``max_degree`` is ``2 n + 2``, so that the first failing degree of a Gauss
    rule is observed, or ``2 N`` when the horizon ``N`` is ``n``.  It needs
    ``p_0..p_t``, ``t = max_degree / 2``: ``gamma_1..gamma_t > 0``.
    """
    top = min(rule.n + 1, rec.horizon)
    return _table_degree(_orthonormal(rec, rule.nodes, top + 1), rule.weights)


def _christoffel_rule(rec: RecurrencePair, nodes: np.ndarray) -> QuadratureRule:
    """The rule on ``n`` increasing nodes with weights ``1 / sum_{i<n} p_i(x_l)^2``,
    and its degree measured on the same table ``p_0..p_t``, ``t = min(n + 1, N)``,
    as :func:`degree_of_precision` measures it."""
    import numpy as np
    n = nodes.size
    V = _orthonormal(rec, nodes, min(n + 1, rec.horizon) + 1)
    weights = _finite(nodes, _christoffel(V[:n]))
    return QuadratureRule(nodes, weights, _table_degree(V, weights))


def gauss_rule(rec: RecurrencePair, n: int) -> QuadratureRule:
    """Gauss rule on the zeros of ``P_n``: the eigenvalues of the symmetric
    Jacobi truncation, weighted by the Christoffel function, with its degree
    (``2n - 1``) measured at the fixed exactness tolerance ``1e-9`` of
    :func:`degree_of_precision`.  Where a far-out node's weight falls below
    the rounding of the table, that absolute test can miss the law on a rule
    that is right (README, Known defects).  A table past the float range
    leaves nodes or weights that are not finite: :class:`~opoly.errors.NumericError`."""
    import numpy as np
    if n < 1:
        raise ValueError("n must be positive")
    _require_positive(rec, n)
    return _christoffel_rule(rec, np.linalg.eigvalsh(_symmetric_jacobi(rec, n)))


def _coincident(nodes: np.ndarray) -> bool:
    """Whether two of the increasing ``nodes`` lie within ``1e-10 * max(spread, 1)``."""
    import numpy as np
    return nodes.size > 1 and np.min(np.diff(nodes)) <= 1e-10 * max(float(np.ptp(nodes)), 1.0)


def _distinct(nodes: np.ndarray) -> np.ndarray:
    """Increasing ``nodes``, refused as coincident by :func:`_coincident`."""
    if _coincident(nodes):
        raise InapplicableError("Q_n has coincident zeros; quadrature undefined")
    return nodes


class ShohatReport(NamedTuple):
    """Whether the degree-loss law held, and the rule on the zeros of ``Q_n``
    with its measured degree of precision."""

    ok: bool
    rule: QuadratureRule


def shohat_check(rec: RecurrencePair, comb: CombCoeffs, n: int) -> ShohatReport:
    """Verify the k-degree loss law: nodes at the zeros of ``Q_n`` give a rule
    of degree of precision exactly ``2n - 1 - k``.

    For ``k = 1`` the nodes are the eigenvalues of ``J^_n``
    (:func:`~opoly.jacobi._hat_jacobi`) and the rule is built as
    :func:`gauss_rule` builds its own: ``gamma_{n-1} / (gamma_{n-1} - a_2)`` is
    1, so ``u^``'s Christoffel numbers are ``J^_n``'s Christoffel function.
    For ``k >= 2`` the nodes come from :func:`~opoly.jacobi.zeros_q` (``J^_n``
    for ``k = 2`` where it is real symmetric), the weights from
    :func:`christoffel_numbers` given ``comb``, and the degree from
    :func:`degree_of_precision`.  The law holds whether or not ``{Q_n}`` is
    orthogonal (Shohat 1937), so no verdict is read.  Complex or coincident
    zeros and non-positive gammas raise :class:`~opoly.errors.InapplicableError`,
    an ``n`` below ``k + 1`` :class:`ValueError`.
    """
    import numpy as np
    if n < comb.k + 1:
        raise ValueError(f"n must be at least k + 1 = {comb.k + 1}")
    if comb.k == 1:
        _require_positive(rec, n - 1)
        rule = _christoffel_rule(rec, _distinct(np.linalg.eigvalsh(_hat_jacobi(rec, comb, n))))
    else:
        zeros = zeros_q(rec, comb, n).zeros
        if float(np.max(np.abs(zeros.imag))) > 1e-9 * max(1.0, float(np.max(np.abs(zeros)))):
            raise InapplicableError("Q_n has complex zeros; quadrature undefined")
        nodes = _distinct(zeros.real)  # zeros_q sorts by real part
        rule = QuadratureRule(nodes, christoffel_numbers(rec, nodes, comb), -1)
        rule = rule._replace(degree_of_precision=degree_of_precision(rec, rule))
    return ShohatReport(rule.degree_of_precision == 2 * n - 1 - comb.k, rule)
