"""Monic orthogonal polynomial families encoded by three-term recurrences.

A family ``{P_n}`` is stored through its recurrence coefficients

    x P_n = P_{n+1} + beta_n P_n + gamma_n P_{n-1},   P_0 = 1,  P_1 = x - beta_0,

with ``gamma_n != 0`` (quasi-definiteness).  Sequences are kept as finite
float tuples up to an explicit horizon ``N``; every operation that would need
data past the horizon raises :class:`~opoly.errors.HorizonError` instead of
guessing.  Every generator computes in Python floats in a fixed order, so
its bits are the same on every IEEE-754 host; the module imports numpy only
for the array views of a :class:`RecurrencePair`, when first read.

Besides the four monic Chebyshev families, the module generates the two
parametric families whose length-``k`` constant-coefficient combinations stay
orthogonal: the general ``k = 1`` solution (``beta_n`` slaved to ``gamma_n``)
and the complete ``k = 2`` classification, whose recurrence coefficients solve
a constant-coefficient linear difference equation with characteristic roots
``1`` and the pair ``lambda, 1/lambda`` determined by
``a_1^2 lambda = a_2 (1 + lambda)^2``.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import cached_property
from itertools import zip_longest
from typing import NamedTuple

from .errors import ConstraintError, DegeneracyError, HorizonError, NumericError

#: Absolute floor below which a recurrence gamma counts as zero.
GAMMA_FLOOR = 1e-14

#: Largest horizon a job config may ask for; larger ones are refused.
DEFAULT_MAX_HORIZON = 64


def _trimmed(values) -> tuple[float, ...]:
    coeffs = [float(v) for v in values] or [0.0]
    while len(coeffs) > 1 and coeffs[-1] == 0.0:
        coeffs.pop()
    return tuple(coeffs)


class Poly(NamedTuple("_Poly", [("coeffs", tuple[float, ...])])):
    """Real polynomial in the monomial basis; ``coeffs[i]`` multiplies ``x**i``.

    Trailing exact zeros are trimmed on construction, so ``degree`` is the
    index of the last stored coefficient (the zero polynomial keeps a single
    ``0.0`` entry).  Instances are immutable named tuples and support ``+``,
    ``*`` by a scalar and evaluation via ``__call__``.
    """

    __slots__ = ()

    def __new__(cls, coeffs):
        coeffs = _trimmed(coeffs)
        if not all(map(math.isfinite, coeffs)):
            raise ValueError("polynomial coefficients must be finite")
        return super().__new__(cls, coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> float:
        return self.coeffs[-1]

    def __call__(self, x):
        # numpy.polynomial's Horner steps; a numpy array ``x`` gives an array
        y = self.coeffs[-1] + x * 0
        for coef in self.coeffs[-2::-1]:
            y = coef + y * x
        return y

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return Poly(tuple(a + b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0.0)))

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Poly(tuple(float(other) * c for c in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__


class RecurrencePair:
    """Finite-horizon recurrence coefficients ``beta_0..beta_N, gamma_1..gamma_N``.

    The float tuple ``betas[n]`` is ``beta_n`` for ``0 <= n <= N``, and
    ``gammas[n]`` is ``gamma_n`` for ``1 <= n <= N``; the unused slot
    ``gammas[0]`` holds NaN so that any accidental use poisons results loudly.
    All ``gamma_n`` must stay away from zero (``|gamma_n| > GAMMA_FLOOR``)
    and every entry must be finite.  Instances are immutable; ``beta`` and
    ``gamma`` are the same data as read-only float64 arrays, built on first
    access.  :func:`poly_p` keeps the rows it has walked on the instance, and
    :mod:`~opoly.quadrature` keeps there the last orthonormal table
    ``p_i(x_l)`` it walked, keyed by the nodes' bytes; both die with the pair.
    """

    def __init__(self, beta, gamma):
        try:
            b, g_in = tuple(map(float, beta)), tuple(map(float, gamma))
        except TypeError as exc:
            raise ValueError("beta and gamma must be one-dimensional sequences") from exc
        if len(b) < 2 or len(g_in) != len(b) - 1:
            raise ValueError(
                "need beta_0..beta_N and gamma_1..gamma_N with N >= 1; got "
                f"{len(b)} betas and {len(g_in)} gammas"
            )
        if not all(map(math.isfinite, b + g_in)):
            raise ValueError("recurrence coefficients must be finite")
        for n, g in enumerate(g_in, start=1):
            if abs(g) <= GAMMA_FLOOR:
                raise DegeneracyError(
                    f"gamma_{n} = {g!r} is numerically zero; the family is not quasi-definite"
                )
        object.__setattr__(self, "betas", b)
        object.__setattr__(self, "gammas", (math.nan,) + g_in)
        object.__setattr__(self, "_p_rows", [[1.0], [-b[0], 1.0]])
        object.__setattr__(self, "_p_table", {})

    def __setattr__(self, name, value):
        raise AttributeError("RecurrencePair is immutable")

    @cached_property
    def beta(self):
        """``betas`` as a read-only float64 array."""
        return _read_only(self.betas)

    @cached_property
    def gamma(self):
        """``gammas`` (NaN in slot 0) as a read-only float64 array."""
        return _read_only(self.gammas)

    @property
    def horizon(self) -> int:
        return len(self.betas) - 1

    def __repr__(self):
        return f"RecurrencePair(horizon={self.horizon})"


def _read_only(values: tuple[float, ...]):
    import numpy as np
    arr = np.array(values)
    arr.flags.writeable = False
    return arr


def _check_index(rec: RecurrencePair, n: int) -> None:
    if not 0 <= n <= rec.horizon + 1:
        raise HorizonError(
            f"n = {n} outside [0, {rec.horizon + 1}] for horizon {rec.horizon}"
        )


def poly_p(rec: RecurrencePair, n: int) -> Poly:
    """Monomial coefficients of the monic ``P_n`` (leading coefficient 1).

    The coefficient rows of ``P_0, P_1, ...`` are kept on ``rec`` and extended
    only past the highest one read so far, so each pair walks its recurrence
    once however many ``P_n`` are asked for."""
    _check_index(rec, n)
    rows = rec._p_rows
    beta, gamma = rec.betas, rec.gammas
    for j in range(len(rows) - 1, n):
        prev, cur = rows[j - 1], rows[j]
        b, g = beta[j], gamma[j]
        # x P_j - beta_j P_j - gamma_j P_{j-1}, coefficient i = (c[i-1] - b c[i]) - g p[i]
        nxt = [c1 - b * c0 - g * p for c1, c0, p in zip([0.0] + cur, cur, prev)]
        nxt += (cur[j - 1] - b * cur[j], cur[j])
        rows.append(nxt)
    return Poly(tuple(rows[n]))


def chebyshev_family(kind: int, horizon: int) -> RecurrencePair:
    """Monic Chebyshev recurrence coefficients on ``[-1, 1]``.

    Kinds follow the four classical weights: 1 for ``1/sqrt(1-x^2)``, 2 for
    ``sqrt(1-x^2)``, 3 for ``sqrt((1+x)/(1-x))`` and 4 for its reciprocal.
    Sign convention: kind 3 has ``beta_0 = +1/2``, kind 4 ``beta_0 = -1/2``;
    all other betas vanish.  ``gamma_n = 1/4`` throughout except
    ``gamma_1 = 1/2`` for kind 1.
    """
    if kind not in (1, 2, 3, 4):
        raise ValueError(f"kind must be 1, 2, 3 or 4; got {kind!r}")
    if horizon < 2:
        raise ValueError("horizon must be at least 2")
    beta = [0.0] * (horizon + 1)
    gamma = [0.25] * horizon
    if kind == 1:
        gamma[0] = 0.5
    elif kind == 3:
        beta[0] = 0.5
    elif kind == 4:
        beta[0] = -0.5
    return RecurrencePair(beta, gamma)


class K2Case(Enum):
    """Branch of the k=2 classification, keyed by the discriminant of
    ``a_1^2 lambda = a_2 (1 + lambda)^2``."""

    A1_ZERO = "a1_zero"
    EQUAL_ROOTS = "equal_roots"
    REAL_ROOTS = "real_roots"
    COMPLEX_ROOTS = "complex_roots"


class K2Params(NamedTuple):
    """Parameters for the k=2 classified family generator.

    For ``n >= 2`` the recurrence coefficients take the case-dependent shape

    * ``EQUAL_ROOTS``   : ``beta_n = A + B n + C n^2``, ``gamma_n = D + E n + F n^2``
      subject to ``a_1 C = 2 F`` and ``a_1 B = 2 E - 2 F``;
    * ``REAL_ROOTS``    : ``beta_n = A + B lam^n + C lam^-n`` (same shape for
      gamma with ``D, E, F``) subject to ``a_1 C = (1 + lam) F`` and
      ``a_1 lam B = (1 + lam) E``, with ``lam`` the root of
      ``a_1^2 lam = a_2 (1 + lam)^2`` inside ``(-1, 1)``;
    * ``COMPLEX_ROOTS`` : ``lam = e^{i theta}``, ``beta_n = A + 2 Re(B e^{i n theta})``
      and ``gamma_n = D + 2 Re(E e^{i n theta})`` with complex ``B, E``
      subject to ``a_1 lam B = (1 + lam) E`` (C and F are forced to the
      conjugates of B and E and any explicit values are ignored);
    * ``A1_ZERO``       : the sequences are 2-periodic from index 2, with
      ``(A, B) = (beta_2, beta_3)`` and ``(D, E) = (gamma_2, gamma_3)``.

    ``beta0``, ``beta1`` and ``gamma1`` seed the family below index 2 and are
    otherwise unconstrained; whether a given seed choice keeps the combined
    sequence quasi-definite is checked numerically downstream, not assumed.

    The root ``lam`` is not a parameter: :func:`k2_family` derives it from
    ``a_1, a_2``.
    """

    case: K2Case
    beta0: float
    beta1: float
    gamma1: float
    A: float = 0.0
    B: complex | float = 0.0
    C: complex | float = 0.0
    D: float = 0.0
    E: complex | float = 0.0
    F: complex | float = 0.0


#: Relative tolerance of the k2 case constraints checked by :func:`k2_family`.
_K2_TOL = 1e-12


def _inner_real_root(a1: float, a2: float) -> float:
    """Root of ``lam^2 + (2 - a1^2/a2) lam + 1 = 0`` inside ``(-1, 1)``."""
    b = 2.0 - a1 * a1 / a2
    disc = b * b - 4.0
    if disc <= 0:
        raise ConstraintError("a1^2 - 4 a2 must be positive for distinct real roots")
    r1 = (-b + math.sqrt(disc)) / 2.0
    r2 = (-b - math.sqrt(disc)) / 2.0
    lam = r1 if abs(r1) < 1.0 else r2
    if not -1.0 < lam < 1.0 or lam == 0.0:
        raise NumericError(f"no admissible root in (-1, 1): {r1}, {r2}")
    return lam


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConstraintError(message)


def k2_family(
    a1: float,
    a2: float,
    params: K2Params,
    horizon: int,
) -> RecurrencePair:
    """Generate a family whose length-2 combination ``P_n + a1 P_{n-1} + a2 P_{n-2}``
    stays orthogonal, from the case data in ``params``.

    The case tag must match the discriminant ``a1^2 - 4 a2`` (values within
    1e-12 of zero count as the equal-root boundary, and ``A1_ZERO`` requires
    ``a1 == 0`` exactly).  Case constraints are validated to 1e-12; building
    the :class:`RecurrencePair` raises :class:`~opoly.errors.DegeneracyError`
    on any ``|gamma_n| <= GAMMA_FLOOR``, the seed ``gamma_1`` included.
    """
    if a2 == 0.0:
        raise ValueError("a2 must be nonzero")
    if horizon < 3:
        raise ValueError("horizon must be at least 3")

    disc = a1 * a1 - 4.0 * a2
    if a1 == 0.0:
        expected = K2Case.A1_ZERO
    elif abs(disc) <= 1e-12:
        expected = K2Case.EQUAL_ROOTS
    elif disc > 0:
        expected = K2Case.REAL_ROOTS
    else:
        expected = K2Case.COMPLEX_ROOTS
    _require(
        params.case is expected,
        f"case {params.case.value!r} inconsistent with a1={a1}, a2={a2} "
        f"(expected {expected.value!r})",
    )

    ns = range(2, horizon + 1)
    if params.case is K2Case.A1_ZERO:
        A, B, D, E = (float(v.real) for v in (params.A, params.B, params.D, params.E))
        beta_tail = [B if n % 2 else A for n in ns]
        gamma_tail = [E if n % 2 else D for n in ns]
    elif params.case is K2Case.EQUAL_ROOTS:
        A, B, C = params.A, float(params.B.real), float(params.C.real)
        D, E, F = params.D, float(params.E.real), float(params.F.real)
        _require(abs(a1 * C - 2.0 * F) <= _K2_TOL * max(1.0, abs(F)),
                 "equal-root case needs a1*C = 2F")
        _require(abs(a1 * B - 2.0 * E + 2.0 * F) <= _K2_TOL * max(1.0, abs(E), abs(F)),
                 "equal-root case needs a1*B = 2E - 2F")
        beta_tail = [A + B * n + C * (n * n) for n in ns]
        gamma_tail = [D + E * n + F * (n * n) for n in ns]
    elif params.case is K2Case.REAL_ROOTS:
        lam = _inner_real_root(a1, a2)
        B, C = float(params.B.real), float(params.C.real)
        E, F = float(params.E.real), float(params.F.real)
        _require(abs(a1 * C - (1.0 + lam) * F) <= _K2_TOL * max(1.0, abs(F)),
                 "real-root case needs a1*C = (1 + lam)*F")
        _require(abs(a1 * lam * B - (1.0 + lam) * E) <= _K2_TOL * max(1.0, abs(E)),
                 "real-root case needs a1*lam*B = (1 + lam)*E")
        beta_tail, gamma_tail = [], []
        p, q = lam, 1.0 / lam
        for _ in ns:
            p, q = p * lam, q / lam  # lam^n and lam^-n
            beta_tail.append(params.A + B * p + C * q)
            gamma_tail.append(params.D + E * p + F * q)
    else:  # COMPLEX_ROOTS
        c = a1 * a1 / (2.0 * a2) - 1.0
        _require(-1.0 < c < 1.0, "a1^2 < 4 a2 required for the unit-circle pair")
        s = math.sqrt(1.0 - c * c)
        lam = complex(c, s)
        B, E = complex(params.B), complex(params.E)
        resid = a1 * lam * B - (1.0 + lam) * E
        _require(abs(resid) <= _K2_TOL * max(1.0, abs(E), abs(B)),
                 "complex-root case needs a1*lam*B = (1 + lam)*E")
        beta_tail, gamma_tail = [], []
        xr, xi = c, s
        for _ in ns:
            xr, xi = xr * c - xi * s, xr * s + xi * c  # lam^n, rotated by (c, s)
            re_b, re_e = B.real * xr - B.imag * xi, E.real * xr - E.imag * xi
            beta_tail.append((params.A + re_b) + re_b)  # 2 Re(B lam^n) = re_b + re_b
            gamma_tail.append((params.D + re_e) + re_e)

    return RecurrencePair([params.beta0, params.beta1, *beta_tail], [params.gamma1, *gamma_tail])


def k2_difference_residual(seq, a1: float, a2: float) -> float:
    """Worst residual of ``y_n + c (y_{n-1} - y_{n-2}) - y_{n-3} = 0``,
    ``c = 1 - a1^2/a2``, over ``5 <= n < len(seq)``, each scaled by
    ``max(1, |y_n|, .., |y_{n-3}|)``.  The ``beta`` and ``gamma`` tails of a
    :func:`k2_family` solve it from index 2 on, so ``n = 5`` is the first
    index whose four terms all lie in the tail."""
    seq = [float(v) for v in seq]
    c = 1.0 - a1 * a1 / a2
    worst = 0.0
    for n in range(5, len(seq)):
        val = seq[n] + c * seq[n - 1] - c * seq[n - 2] - seq[n - 3]
        scale = max(1.0, *(abs(seq[n - i]) for i in range(4)))
        worst = max(worst, abs(val) / scale)
    return worst


def k1_family(
    gammas,
    beta0: float,
    beta1: float,
    beta2: float,
    a1: float,
    horizon: int,
) -> RecurrencePair:
    """General ``k = 1`` solution family: ``beta_n = beta_2 + (gamma_n - gamma_2)/a1``.

    ``gammas`` supplies ``gamma_1..gamma_horizon`` (extra entries ignored).
    Building the :class:`RecurrencePair` refuses a zero gamma.  The family
    is built even when ``gamma_2 + a1 (beta_1 - beta_2)`` vanishes: that is
    :func:`~opoly.lincomb.check_conditions`' determination denominator at
    ``k = 1``, and the verdict decides it.
    """
    if a1 == 0.0:
        raise ValueError("a1 must be nonzero")
    if horizon < 3:
        raise ValueError("horizon must be at least 3")
    g = [float(v) for v in gammas]
    if len(g) < horizon:
        raise HorizonError(f"need {horizon} gammas, got {len(g)}")
    g = g[:horizon]
    beta = [beta0, beta1, beta2] + [beta2 + (gn - g[1]) / a1 for gn in g[2:]]
    return RecurrencePair(beta, g)
