"""Monomial moments recovered from recurrence coefficients.

Moments are recovered from recurrence coefficients rather than from a known
weight: expanding ``x^m`` in the ``P``-basis via repeated application of
``x P_j = P_{j+1} + beta_j P_j + gamma_j P_{j-1}`` and reading off the ``P_0``
coefficient gives ``u_m`` exactly (up to rounding) for ``m <= 2 N``.  The
library needs only the first ``k + 1`` of them, for the pairing ``v(h_k)``
that fixes the scale of ``h_k``; every other functional computation runs on
modified moments ``v(P_m)`` in the ``P``-basis.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import HorizonError
from .recurrence import RecurrencePair

if TYPE_CHECKING:
    import numpy as np


def moments_from_recurrence(rec: RecurrencePair, count: int) -> np.ndarray:
    """Moments ``u_0..u_count`` (``u_0 = 1``) of the functional behind ``rec``,
    as a read-only 1-D array.

    Exact (in exact arithmetic) for ``count <= 2 * horizon``: base-vector
    coefficients that escape past the horizon cannot flow back to ``P_0``
    within that many multiplications, so the truncation is lossless.
    """
    import numpy as np
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
    out[0] = 1.0
    for m in range(1, count + 1):
        nxt = rec.beta * coeff
        nxt[1:] += coeff[:-1]
        nxt[:-1] += rec.gamma[1:] * coeff[1:]
        coeff = nxt
        out[m] = coeff[0]
    out.setflags(write=False)
    return out
