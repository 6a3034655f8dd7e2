"""Moment functionals recovered from recurrence coefficients.

Moments are recovered from recurrence coefficients rather than from a known
weight: expanding ``x^m`` in the ``P``-basis via repeated application of
``x P_j = P_{j+1} + beta_j P_j + gamma_j P_{j-1}`` and reading off the ``P_0``
coefficient gives ``u_m`` exactly (up to rounding) for ``m <= 2 N``.  This is
what makes families with no known closed-form measure testable: inner
products and functional applications all reduce to these numbers.

Computations are plain 64-bit floating point; horizons are sensible up to a
few dozen (the CLI caps configs at ``N = 64`` by default) before high moments
lose too many digits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HorizonError
from .recurrence import Poly, RecurrencePair

DEFAULT_MAX_HORIZON = 64


@dataclass(frozen=True)
class MomentFunctional:
    """Moments ``moments[m] = <u, x^m>`` of a linear functional, ``u_0 != 0``."""

    moments: np.ndarray

    def __post_init__(self):
        arr = np.array(self.moments, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("moments must be a nonempty 1-D sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("moments must be finite")
        if arr[0] == 0.0:
            raise ValueError("u_0 must be nonzero")
        arr.setflags(write=False)
        object.__setattr__(self, "moments", arr)

    @property
    def count(self) -> int:
        """Highest moment degree available."""
        return self.moments.size - 1


def moments_from_recurrence(
    rec: RecurrencePair, count: int, u0: float = 1.0
) -> MomentFunctional:
    """Moments ``u_0..u_count`` of the functional behind ``rec``.

    Exact (in exact arithmetic) for ``count <= 2 * horizon``: base-vector
    coefficients that escape past the horizon cannot flow back to ``P_0``
    within that many multiplications, so the truncation is lossless.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if count > 2 * rec.horizon:
        raise HorizonError(
            f"count = {count} exceeds 2 * horizon = {2 * rec.horizon}"
        )
    n = rec.horizon
    coeff = np.zeros(n + 1)
    coeff[0] = 1.0
    out = np.empty(count + 1)
    out[0] = u0
    for m in range(1, count + 1):
        nxt = rec.beta * coeff
        nxt[1:] += coeff[:-1]
        nxt[:-1] += rec.gamma[1:] * coeff[1:]
        coeff = nxt
        out[m] = coeff[0] * u0
    return MomentFunctional(out)


def apply_functional(f: MomentFunctional, p: Poly) -> float:
    """``<u, p> = sum_i p_i u_i``."""
    if p.degree > f.count:
        raise HorizonError(
            f"polynomial degree {p.degree} exceeds moment count {f.count}"
        )
    return float(np.dot(p.as_array(), f.moments[: p.degree + 1]))


def inner(f: MomentFunctional, p: Poly, q: Poly) -> float:
    """``<u, p q>`` via exact polynomial multiplication.

    The arguments are ordered canonically before multiplying, so the bilinear
    form is symmetric bit-for-bit, not merely up to rounding.
    """
    if (q.degree, q.coeffs) < (p.degree, p.coeffs):
        p, q = q, p
    return apply_functional(f, p * q)
