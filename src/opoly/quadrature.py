"""Gaussian quadrature from recurrence data and certified degrees of precision.

For a node polynomial ``q = prod (x - c_j)`` and a moment functional, the
weights are the classical kernel integrals

    lambda_j = < u, q(x) / ((x - c_j) q'(c_j)) >,

evaluated by exact synthetic-division deflation.  The degree of precision of
a rule is measured directly against the moments: the largest ``d`` with
``|sum lambda c^m - u_m| <= tol (1 + |u_m|)`` for all ``m <= d``.  Gauss rules
built on the zeros of ``P_n`` reach ``d = 2n - 1``; replacing the nodes by the
zeros of the length-``k`` combination ``Q_n`` costs exactly ``k`` degrees
(``d = 2n - 1 - k``), which :func:`shohat_check` verifies end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import polynomial as npp

from .errors import HorizonError, InapplicableError, NumericError
from .jacobi import zeros_q
from .lincomb import CombCoeffs
from .moments import MomentFunctional, apply_functional
from .recurrence import Poly, RecurrencePair


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes, weights, and the measured degree of precision."""

    nodes: np.ndarray
    weights: np.ndarray
    degree_of_precision: int

    def __post_init__(self):
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


def _deflate(coeffs: np.ndarray, c: float) -> tuple[np.ndarray, float]:
    """Synthetic division by ``(x - c)``: quotient coefficients and remainder."""
    n = coeffs.size - 1
    out = np.empty(n)
    acc = coeffs[n]
    for i in range(n - 1, -1, -1):
        out[i] = acc
        acc = coeffs[i] + acc * c
    return out, float(acc)


def christoffel_numbers(f: MomentFunctional, nodes) -> np.ndarray:
    """Weights of the interpolatory rule on ``nodes`` under the functional ``f``.

    ``lambda_j = <f, q/(x - c_j)> / q'(c_j)`` with ``q = prod (x - c_i)``;
    the quotient is computed by exact synthetic division and ``q'(c_j)``
    equals the quotient evaluated at the node.
    """
    nodes = np.asarray(nodes, dtype=float).ravel()
    n = nodes.size
    if n < 1:
        raise ValueError("need at least one node")
    if n > 1:
        srt = np.sort(nodes)
        span = max(float(srt[-1] - srt[0]), 1.0)
        if np.min(np.diff(srt)) <= 1e-12 * span:
            raise ValueError("nodes must be pairwise distinct")
    if f.count < n - 1:
        raise HorizonError(f"need moments to degree {n - 1}, have {f.count}")
    q = np.array([1.0])
    for c in nodes:
        q = np.convolve(q, np.array([-c, 1.0]))
    weights = np.empty(n)
    for j, c in enumerate(nodes):
        quotient, _ = _deflate(q, c)
        deriv = float(npp.polyval(c, quotient))
        if abs(deriv) <= 1e-13 * max(1.0, float(np.max(np.abs(quotient)))):
            raise NumericError(f"node {c} too close to its neighbours to deflate")
        weights[j] = apply_functional(f, Poly(tuple(quotient))) / deriv
    return weights


def degree_of_precision(
    f: MomentFunctional,
    rule: QuadratureRule,
    max_degree: int | None = None,
    tol: float = 1e-9,
) -> int:
    """Largest ``d <= max_degree`` through which the rule reproduces the moments.

    ``max_degree`` defaults to ``2 n + 2`` so that the first failing degree of
    a Gauss rule is always observed.  Returns -1 if even degree 0 fails.
    Exactness is relative with floor 1:
    ``|sum lambda c^m - u_m| <= tol * (1 + |u_m|)``.
    """
    if max_degree is None:
        max_degree = 2 * rule.n + 2
    if max_degree > f.count:
        raise HorizonError(f"max_degree = {max_degree} exceeds moments ({f.count})")
    powers = np.ones_like(rule.nodes)
    d = -1
    for m in range(max_degree + 1):
        if m > 0:
            powers = powers * rule.nodes
        approx = float(np.dot(rule.weights, powers))
        if abs(approx - f.moments[m]) > tol * (1.0 + abs(f.moments[m])):
            break
        d = m
    return d


def _interpolatory_rule(f: MomentFunctional, nodes: np.ndarray, tol: float) -> QuadratureRule:
    """The rule on ``nodes`` with Christoffel weights and its degree of
    precision measured through ``min(2n + 2, f.count)``."""
    rule = QuadratureRule(nodes, christoffel_numbers(f, nodes), -1)
    d = degree_of_precision(f, rule, min(2 * rule.n + 2, f.count), tol)
    return replace(rule, degree_of_precision=d)


def gauss_rule(rec: RecurrencePair, f: MomentFunctional, n: int) -> QuadratureRule:
    """Gauss rule on the zeros of ``P_n`` for a positive-definite family.

    Nodes are eigenvalues of the symmetrised Jacobi truncation (off-diagonal
    ``sqrt(gamma)``); weights come from the kernel integrals rather than from
    eigenvector components, so the same path serves arbitrary node sets.  The
    measured degree of precision is stored on the rule (``2n - 1`` whenever
    enough moments are supplied to certify it).
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > rec.horizon:
        raise HorizonError(f"n = {n} exceeds horizon {rec.horizon}")
    gam = rec.gamma[1 : n + 1]
    if np.any(gam <= 0.0):
        raise ValueError("Gauss rule requires gamma_1..gamma_n > 0")
    J = np.diag(rec.beta[:n]).astype(float)
    if n > 1:
        off = np.sqrt(rec.gamma[1:n])
        J += np.diag(off, 1) + np.diag(off, -1)
    return _interpolatory_rule(f, np.linalg.eigvalsh(J), tol=1e-9)


@dataclass(frozen=True)
class ShohatReport:
    """Whether the degree-loss law held, and the rule on the zeros of ``Q_n``
    with its measured degree of precision."""

    ok: bool
    rule: QuadratureRule


def shohat_check(
    rec: RecurrencePair,
    comb: CombCoeffs,
    f: MomentFunctional,
    n: int,
    tol: float = 1e-9,
    cross_tol: float = 1e-8,
) -> ShohatReport:
    """Verify the k-degree loss law: nodes at the zeros of ``Q_n`` give a rule
    of degree of precision exactly ``2n - 1 - k``.

    ``cross_tol`` is passed to :func:`~opoly.jacobi.zeros_q`.  The quadrature
    construction needs real, pairwise distinct nodes; complex or coincident
    zeros raise :class:`~opoly.errors.InapplicableError`.
    """
    zeros = zeros_q(rec, comb, n, cross_tol=cross_tol).zeros
    z_scale = max(1.0, float(np.max(np.abs(zeros))))
    if float(np.max(np.abs(zeros.imag))) > 1e-9 * z_scale:
        raise InapplicableError("Q_n has complex zeros; quadrature undefined")
    nodes = np.sort(zeros.real)
    if nodes.size > 1:
        span = max(float(nodes[-1] - nodes[0]), 1.0)
        if np.min(np.diff(nodes)) <= 1e-10 * span:
            raise InapplicableError("Q_n has coincident zeros; quadrature undefined")
    rule = _interpolatory_rule(f, nodes, tol)
    return ShohatReport(rule.degree_of_precision == 2 * n - 1 - comb.k, rule)
