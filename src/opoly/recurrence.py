"""Monic orthogonal polynomial families encoded by three-term recurrences.

A family ``{P_n}`` is stored through its recurrence coefficients

    x P_n = P_{n+1} + beta_n P_n + gamma_n P_{n-1},   P_0 = 1,  P_1 = x - beta_0,

with ``gamma_n != 0`` (quasi-definiteness).  Sequences are kept as finite
arrays up to an explicit horizon ``N``; every operation that would need data
past the horizon raises :class:`~opoly.errors.HorizonError` instead of
guessing.

Besides the four monic Chebyshev families, the module generates the two
parametric families whose length-``k`` constant-coefficient combinations stay
orthogonal: the general ``k = 1`` solution (``beta_n`` slaved to ``gamma_n``)
and the complete ``k = 2`` classification, whose recurrence coefficients solve
a constant-coefficient linear difference equation with characteristic roots
``1`` and the pair ``lambda, 1/lambda`` determined by
``a_1^2 lambda = a_2 (1 + lambda)^2``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.polynomial import polynomial as npp

from .errors import ConstraintError, DegeneracyError, HorizonError, NumericError

#: Absolute floor below which a recurrence gamma counts as zero.
GAMMA_FLOOR = 1e-14


def _trimmed(values) -> tuple[float, ...]:
    coeffs = [float(v) for v in values]
    while len(coeffs) > 1 and coeffs[-1] == 0.0:
        coeffs.pop()
    if not coeffs:
        coeffs = [0.0]
    return tuple(coeffs)


@dataclass(frozen=True)
class Poly:
    """Real polynomial in the monomial basis; ``coeffs[i]`` multiplies ``x**i``.

    Trailing exact zeros are trimmed on construction, so ``degree`` is the
    index of the last stored coefficient (the zero polynomial keeps a single
    ``0.0`` entry).  Instances are immutable and support ``+``, ``-``, ``*``
    (by scalar or polynomial) and evaluation via ``__call__``.
    """

    coeffs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trimmed(self.coeffs))
        if not all(math.isfinite(c) for c in self.coeffs):
            raise ValueError("polynomial coefficients must be finite")

    @classmethod
    def monomial(cls, n: int, scale: float = 1.0) -> "Poly":
        """Return ``scale * x**n``."""
        return cls((0.0,) * n + (float(scale),))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> float:
        return self.coeffs[-1]

    def as_array(self, size: int | None = None) -> np.ndarray:
        """Coefficients as a float array, zero-padded to ``size`` if given."""
        arr = np.array(self.coeffs, dtype=float)
        if size is None or size <= arr.size:
            return arr
        out = np.zeros(size)
        out[: arr.size] = arr
        return out

    def times_x(self) -> "Poly":
        return Poly((0.0,) + self.coeffs)

    def __call__(self, x):
        return npp.polyval(x, np.array(self.coeffs))

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(tuple(self.as_array(n) + other.as_array(n)))

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(tuple(self.as_array(n) - other.as_array(n)))

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, Poly):
            return Poly(tuple(np.convolve(self.as_array(), other.as_array())))
        if isinstance(other, (int, float)):
            return Poly(tuple(float(other) * c for c in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__


class RecurrencePair:
    """Finite-horizon recurrence coefficients ``beta_0..beta_N, gamma_1..gamma_N``.

    ``beta[n]`` is ``beta_n`` for ``0 <= n <= N``.  ``gamma[n]`` is ``gamma_n``
    for ``1 <= n <= N``; the unused slot ``gamma[0]`` holds NaN so that any
    accidental use poisons results loudly.  All ``gamma_n`` must stay away
    from zero (``|gamma_n| > GAMMA_FLOOR``) and every entry must be finite.
    Instances are immutable (arrays are write-protected).
    """

    __slots__ = ("beta", "gamma")

    def __init__(self, beta, gamma):
        b = np.array(beta, dtype=float)
        g_in = np.array(gamma, dtype=float)
        if b.ndim != 1 or g_in.ndim != 1:
            raise ValueError("beta and gamma must be one-dimensional sequences")
        if b.size < 2 or g_in.size != b.size - 1:
            raise ValueError(
                "need beta_0..beta_N and gamma_1..gamma_N with N >= 1; got "
                f"{b.size} betas and {g_in.size} gammas"
            )
        if not np.all(np.isfinite(b)) or not np.all(np.isfinite(g_in)):
            raise ValueError("recurrence coefficients must be finite")
        if np.any(np.abs(g_in) <= GAMMA_FLOOR):
            n_bad = int(np.argmax(np.abs(g_in) <= GAMMA_FLOOR)) + 1
            raise DegeneracyError(
                f"gamma_{n_bad} = {g_in[n_bad - 1]!r} is numerically zero; "
                "the family is not quasi-definite"
            )
        g = np.concatenate(([np.nan], g_in))
        b.setflags(write=False)
        g.setflags(write=False)
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "gamma", g)

    def __setattr__(self, name, value):
        raise AttributeError("RecurrencePair is immutable")

    @property
    def horizon(self) -> int:
        return self.beta.size - 1

    def __repr__(self):
        return f"RecurrencePair(horizon={self.horizon})"


def _check_index(rec: RecurrencePair, n: int) -> None:
    if not 0 <= n <= rec.horizon + 1:
        raise HorizonError(
            f"n = {n} outside [0, {rec.horizon + 1}] for horizon {rec.horizon}"
        )


def eval_p(rec: RecurrencePair, n: int, x: float) -> float:
    """Evaluate ``P_n(x)`` by the forward recurrence.

    ``n`` may exceed the horizon by one step (this uses ``beta_N, gamma_N``).
    """
    _check_index(rec, n)
    if n == 0:
        return 1.0
    prev, cur = 1.0, x - rec.beta[0]
    for j in range(1, n):
        prev, cur = cur, (x - rec.beta[j]) * cur - rec.gamma[j] * prev
    return float(cur)


def poly_p(rec: RecurrencePair, n: int) -> Poly:
    """Monomial coefficients of the monic ``P_n`` (leading coefficient 1)."""
    _check_index(rec, n)
    if n == 0:
        return Poly((1.0,))
    prev = np.array([1.0])
    cur = np.array([-rec.beta[0], 1.0])
    for j in range(1, n):
        nxt = np.zeros(j + 2)
        nxt[1:] = cur
        nxt[: j + 1] -= rec.beta[j] * cur
        nxt[:j] -= rec.gamma[j] * prev
        prev, cur = cur, nxt
    return Poly(tuple(cur))


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
    beta = np.zeros(horizon + 1)
    gamma = np.full(horizon, 0.25)
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


@dataclass(frozen=True)
class K2Params:
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

    ``lam`` may be supplied to pin the root explicitly (it is validated
    against ``a_1, a_2``); when ``None`` it is derived.
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
    lam: complex | float | None = None

    def __post_init__(self):
        if abs(self.gamma1) <= GAMMA_FLOOR:
            raise ConstraintError("gamma1 must be nonzero")


_K2_CONSTRAINT_TOL = 1e-12


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


def _root_residual(a1: float, a2: float, lam: complex) -> float:
    val = a1 * a1 * lam - a2 * (1.0 + lam) ** 2
    scale = max(1.0, abs(a1 * a1 * lam), abs(a2 * (1.0 + lam) ** 2))
    return abs(val) / scale


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConstraintError(message)


def k2_family(
    a1: float,
    a2: float,
    params: K2Params,
    horizon: int,
    *,
    tol: float = _K2_CONSTRAINT_TOL,
) -> RecurrencePair:
    """Generate a family whose length-2 combination ``P_n + a1 P_{n-1} + a2 P_{n-2}``
    stays orthogonal, from the case data in ``params``.

    The case tag must match the discriminant ``a1^2 - 4 a2`` (values within
    1e-12 of zero count as the equal-root boundary, and ``A1_ZERO`` requires
    ``a1 == 0`` exactly).  Case constraints are validated to ``tol``; any
    generated ``gamma_n`` within 1e-12 of zero raises
    :class:`~opoly.errors.DegeneracyError`.
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

    ns = np.arange(2, horizon + 1)
    if params.case is K2Case.A1_ZERO:
        A, B = float(np.real(params.A)), float(np.real(params.B))
        D, E = float(np.real(params.D)), float(np.real(params.E))
        beta_tail = np.where(ns % 2 == 0, A, B)
        gamma_tail = np.where(ns % 2 == 0, D, E)
    elif params.case is K2Case.EQUAL_ROOTS:
        A, B, C = params.A, float(np.real(params.B)), float(np.real(params.C))
        D, E, F = params.D, float(np.real(params.E)), float(np.real(params.F))
        _require(abs(a1 * C - 2.0 * F) <= tol * max(1.0, abs(F)),
                 "equal-root case needs a1*C = 2F")
        _require(abs(a1 * B - 2.0 * E + 2.0 * F) <= tol * max(1.0, abs(E), abs(F)),
                 "equal-root case needs a1*B = 2E - 2F")
        beta_tail = A + B * ns + C * ns**2
        gamma_tail = D + E * ns + F * ns**2
    elif params.case is K2Case.REAL_ROOTS:
        lam = params.lam
        if lam is None:
            lam = _inner_real_root(a1, a2)
        else:
            lam = float(np.real(lam))
            _require(-1.0 < lam < 1.0 and lam != 0.0,
                     "lam must lie in (-1, 1) and be nonzero")
            _require(_root_residual(a1, a2, lam) <= 1e-12,
                     "lam does not solve a1^2 lam = a2 (1 + lam)^2")
        B, C = float(np.real(params.B)), float(np.real(params.C))
        E, F = float(np.real(params.E)), float(np.real(params.F))
        _require(abs(a1 * C - (1.0 + lam) * F) <= tol * max(1.0, abs(F)),
                 "real-root case needs a1*C = (1 + lam)*F")
        _require(abs(a1 * lam * B - (1.0 + lam) * E) <= tol * max(1.0, abs(E)),
                 "real-root case needs a1*lam*B = (1 + lam)*E")
        pow_pos = lam ** ns.astype(float)
        pow_neg = lam ** (-ns.astype(float))
        beta_tail = params.A + B * pow_pos + C * pow_neg
        gamma_tail = params.D + E * pow_pos + F * pow_neg
    else:  # COMPLEX_ROOTS
        lam = params.lam
        if lam is None:
            ctheta = a1 * a1 / (2.0 * a2) - 1.0
            if not -1.0 < ctheta < 1.0:
                raise ConstraintError("a1^2 < 4 a2 required for the unit-circle pair")
            lam = cmath.exp(1j * math.acos(ctheta))
        else:
            lam = complex(lam)
            _require(abs(abs(lam) - 1.0) <= 1e-12 and lam.imag > 0.0,
                     "lam must be on the upper unit circle")
            _require(_root_residual(a1, a2, lam) <= 1e-12,
                     "lam does not solve a1^2 lam = a2 (1 + lam)^2")
        B = complex(params.B)
        E = complex(params.E)
        resid = a1 * lam * B - (1.0 + lam) * E
        _require(abs(resid) <= tol * max(1.0, abs(E), abs(B)),
                 "complex-root case needs a1*lam*B = (1 + lam)*E")
        powers = lam ** ns.astype(float)
        beta_c = params.A + B * powers + np.conj(B * powers)
        gamma_c = params.D + E * powers + np.conj(E * powers)
        imag_resid = max(np.max(np.abs(beta_c.imag)), np.max(np.abs(gamma_c.imag)))
        if imag_resid >= 1e-12:
            raise NumericError(f"imaginary residue {imag_resid} in emitted coefficients")
        beta_tail = beta_c.real
        gamma_tail = gamma_c.real

    beta = np.concatenate(([params.beta0, params.beta1], beta_tail))
    gamma = np.concatenate(([params.gamma1], gamma_tail))
    if np.any(np.abs(gamma) <= 1e-12):
        n_bad = int(np.argmax(np.abs(gamma) <= 1e-12)) + 1
        raise DegeneracyError(
            f"generated gamma_{n_bad} is numerically zero at horizon {horizon}"
        )
    return RecurrencePair(beta, gamma)


def k2_difference_residual(seq, a1: float, a2: float) -> float:
    """Worst residual of ``y_n + c (y_{n-1} - y_{n-2}) - y_{n-3} = 0``,
    ``c = 1 - a1^2/a2``, over ``5 <= n < len(seq)``, each scaled by
    ``max(1, |y_n|, .., |y_{n-3}|)``.  The ``beta`` and ``gamma`` tails of a
    :func:`k2_family` solve it from index 2 on, so ``n = 5`` is the first
    index whose four terms all lie in the tail."""
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

    ``gammas`` supplies ``gamma_1..gamma_horizon`` (extra entries ignored;
    all must be nonzero).  The admissibility condition
    ``gamma_2 + a1 (beta_1 - beta_2) != 0`` is enforced up front.
    """
    if a1 == 0.0:
        raise ValueError("a1 must be nonzero")
    if horizon < 3:
        raise ValueError("horizon must be at least 3")
    g = np.array([float(v) for v in gammas], dtype=float)
    if g.size < horizon:
        raise HorizonError(f"need {horizon} gammas, got {g.size}")
    g = g[:horizon]
    if np.any(np.abs(g) <= GAMMA_FLOOR):
        raise ValueError("all gammas must be nonzero")
    denom = g[1] + a1 * (beta1 - beta2)
    if abs(denom) <= 1e-12 * max(1.0, abs(g[1])):
        raise DegeneracyError("gamma_2 + a1*(beta_1 - beta_2) must be nonzero")
    beta = np.empty(horizon + 1)
    beta[0], beta[1], beta[2] = beta0, beta1, beta2
    beta[3:] = beta2 + (g[2:] - g[1]) / a1
    return RecurrencePair(beta, g)
