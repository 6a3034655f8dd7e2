"""Quadrature rules from recurrence data, in the orthonormal basis.

With ``u_0 = 1`` and ``gamma_n > 0`` the orthonormal polynomials obey
``sqrt(gamma_{i+1}) p_{i+1} = (x - beta_i) p_i - sqrt(gamma_i) p_{i-1}``,
``p_0 = 1``; no moment is formed.  The Gauss rule on the zeros of ``P_n`` is
one ``eigh`` of the symmetric Jacobi truncation: nodes are its eigenvalues,
weights the squared first eigenvector components (Golub & Welsch 1969).
Weights on arbitrary distinct nodes solve ``V w = e_0`` with
``V[i, j] = p_i(x_j)``, ``i < n``.  A rule is exact through degree ``d`` iff
``sum_l w_l p_i(x_l) p_j(x_l) = delta_ij`` for all ``i + j <= d``, since those
products span the polynomials of degree ``d`` (Gautschi, *Orthogonal
Polynomials: Computation and Approximation*, 2004).  Gauss rules reach
``d = 2n - 1``; nodes at the zeros of the length-``k`` combination ``Q_n``
cost exactly ``k`` degrees, which :func:`shohat_check` verifies end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from .errors import HorizonError, InapplicableError, NumericError
from .jacobi import _symmetric_jacobi, zeros_q
from .lincomb import CombCoeffs
from .recurrence import RecurrencePair

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes, weights, and the measured degree of precision."""

    nodes: np.ndarray
    weights: np.ndarray
    degree_of_precision: int

    def __post_init__(self):
        import numpy as np
        nodes = np.array(self.nodes, dtype=float)
        weights = np.array(self.weights, dtype=float)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise ValueError("nodes and weights must be matching 1-D arrays")
        if nodes.size > 1 and np.any(np.diff(nodes) <= 0.0):
            raise ValueError("nodes must be strictly increasing")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

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
    """``V[i, j] = p_i(x_j)`` for the orthonormal ``p_0..p_{size-1}``."""
    import numpy as np
    _require_positive(rec, size - 1)
    root = np.sqrt(rec.gamma[1:size])
    shifted = (x - rec.beta[: size - 1, None]) / root[:, None]
    ratio = root[:-1] / root[1:]
    V = np.empty((size, x.size))
    V[0] = 1.0
    V[1:2] = shifted[:1]
    for i in range(1, size - 1):
        np.multiply(shifted[i], V[i], out=V[i + 1])
        V[i + 1] -= ratio[i - 1] * V[i - 1]
    return V


def christoffel_numbers(rec: RecurrencePair, nodes) -> np.ndarray:
    """Weights of the interpolatory rule on ``nodes`` for the functional behind
    ``rec`` (``u_0 = 1``): the solution of ``V w = e_0``, ``V[i, j] = p_i(x_j)``.
    Nodes must be pairwise distinct (:class:`ValueError`), and ``gamma_1..
    gamma_{n-1}`` positive (:class:`~opoly.errors.InapplicableError`)."""
    import numpy as np
    nodes = np.asarray(nodes, dtype=float).ravel()
    n = nodes.size
    if n < 1:
        raise ValueError("need at least one node")
    if n > 1 and np.min(np.diff(np.sort(nodes))) <= 1e-12 * max(float(np.ptp(nodes)), 1.0):
        raise ValueError("nodes must be pairwise distinct")
    try:
        return np.linalg.solve(_orthonormal(rec, nodes, n), np.eye(1, n)[0])
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"node matrix is singular: {exc}") from exc


def degree_of_precision(rec: RecurrencePair, rule: QuadratureRule, tol: float = 1e-9) -> int:
    """Largest ``d <= max_degree`` with ``|sum_l w_l p_i(x_l) p_j(x_l) - delta_ij|
    <= tol`` for every ``i + j <= d``, or -1 if even ``d = 0`` fails.

    ``max_degree`` is ``2 n + 2``, so that the first failing degree of a Gauss
    rule is observed, or ``2 N`` when the horizon ``N`` is ``n``.  It needs
    ``p_0..p_t``, ``t = max_degree / 2``: ``gamma_1..gamma_t > 0``.
    """
    import numpy as np
    top = min(rule.n + 1, rec.horizon)
    max_degree = 2 * top
    V = _orthonormal(rec, rule.nodes, top + 1)
    err = np.abs((V * rule.weights) @ V.T - np.eye(top + 1))
    deg = np.add.outer(np.arange(top + 1), np.arange(top + 1))
    failed = deg[~(err <= tol)]
    return int(failed.min()) - 1 if failed.size else max_degree


def _measured(rec: RecurrencePair, nodes, weights, tol: float) -> QuadratureRule:
    rule = QuadratureRule(nodes, weights, -1)
    return replace(rule, degree_of_precision=degree_of_precision(rec, rule, tol=tol))


def gauss_rule(rec: RecurrencePair, n: int, tol: float = 1e-9) -> QuadratureRule:
    """Gauss rule on the zeros of ``P_n`` by Golub-Welsch (one ``eigh`` of the
    symmetric Jacobi truncation), with its degree (``2n - 1``) measured at
    exactness tolerance ``tol``."""
    import numpy as np
    if n < 1:
        raise ValueError("n must be positive")
    _require_positive(rec, n)
    nodes, vecs = np.linalg.eigh(_symmetric_jacobi(rec, n))
    return _measured(rec, nodes, vecs[0] ** 2, tol)


@dataclass(frozen=True)
class ShohatReport:
    """Whether the degree-loss law held, and the rule on the zeros of ``Q_n``
    with its measured degree of precision."""

    ok: bool
    rule: QuadratureRule


def shohat_check(
    rec: RecurrencePair,
    comb: CombCoeffs,
    n: int,
    tol: float = 1e-9,
    cross_tol: float = 1e-8,
) -> ShohatReport:
    """Verify the k-degree loss law: nodes at the zeros of ``Q_n`` give a rule
    of degree of precision exactly ``2n - 1 - k``.

    ``cross_tol`` is passed to :func:`~opoly.jacobi.zeros_q`.  Complex or
    coincident zeros and non-positive gammas raise
    :class:`~opoly.errors.InapplicableError`.
    """
    import numpy as np
    zeros = zeros_q(rec, comb, n, cross_tol=cross_tol).zeros
    if float(np.max(np.abs(zeros.imag))) > 1e-9 * max(1.0, float(np.max(np.abs(zeros)))):
        raise InapplicableError("Q_n has complex zeros; quadrature undefined")
    nodes = zeros.real  # zeros_q sorts by real part
    if nodes.size > 1 and np.min(np.diff(nodes)) <= 1e-10 * max(float(np.ptp(nodes)), 1.0):
        raise InapplicableError("Q_n has coincident zeros; quadrature undefined")
    rule = _measured(rec, nodes, christoffel_numbers(rec, nodes), tol)
    return ShohatReport(rule.degree_of_precision == 2 * n - 1 - comb.k, rule)
