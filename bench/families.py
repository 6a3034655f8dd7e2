"""Seeded recurrence families and the truth about them, from the mathematics.

A family is carried as the JSON config opoly reads.  Next to it the benchmark
keeps its own ``beta``/``gamma`` arrays, evaluated from the closed-form
profile the config names, and every truth a job is checked against comes
from those arrays and from the theory, never from opoly's output:

* the generator families (Chebyshev kinds with the bundled combinations, the
  general ``k = 1`` solution and the four ``k = 2`` classification cases)
  are orthogonal by construction, as long as the downward completion of the
  low-degree ``Q_j`` does not degenerate;
* the combination family's own recurrence is ``tilde beta_n = beta_n``,
  ``tilde gamma_n = gamma_n + a_1 (beta_{n-1} - beta_n)`` for ``n >= k + 2``;
  the entries below come from an exact downward three-term walk that starts
  from the directly summed ``Q_{k+2}`` and ``Q_{k+1}``;
* the zeros of ``Q_n`` (``n >= k + 1``) are the eigenvalues of the
  ``n x n`` truncation of that recurrence; when every gamma and tilde gamma
  is positive they are real and simple.

A sample whose completion comes within ``MARGIN`` of degenerating has no
robust truth and is redrawn, so it never enters a job list.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

MARGIN = 1e-3

# (kind, a) of the Chebyshev combinations shipped in configs/.  For constant
# Chebyshev coefficients every matching condition holds exactly, so each is
# orthogonal once its completion exists (checked by ``complete_low``).
CHEB_PAIRS = (
    (1, ("0", "-0.125")),
    (1, ("1", "0.2")),
    (2, ("0.5",)),
    (2, ("0.5", "0.0625")),
    (3, ("0.4",)),
    (4, ("1", "1")),
)

# Bundled configs and whether the combination they describe is orthogonal.
# Each broken config changes a constant Chebyshev profile so that a matching
# condition fails:
#   broken_beta_perturbed   beta_5 = 0.1 with a_1 = 0.5 breaks n = 5 and 6;
#   broken_gamma_perturbed  gamma_4 = 0.3 with k = 2 breaks n = 4 and 6;
#   broken_varying_gamma    gamma_n is not constant, so the k = 1 condition
#                           gamma_n + a_1 (beta_{n-1} - beta_n) = gamma_{n-1}
#                           fails at every n.
BUNDLED_TRUTH = {
    "broken_beta_perturbed.json": False,
    "broken_gamma_perturbed.json": False,
    "broken_varying_gamma.json": False,
    "cheb1_k2.json": True,
    "cheb1_k2_case_iii.json": True,
    "cheb2_k1.json": True,
    "cheb2_k2_case_ii.json": True,
    "cheb3_k1.json": True,
    "cheb4_k2_case_iv.json": True,
    "gen_k1.json": True,
    "gen_k2_a1_zero.json": True,
    "gen_k2_complex_roots.json": True,
    "gen_k2_equal_roots.json": True,
    "gen_k2_real_roots.json": True,
}

GENERATED = ("k1", "k2_a1_zero", "k2_equal_roots", "k2_real_roots", "k2_complex_roots")


def _f(v) -> float:
    return float(v)


def _c(v) -> complex:
    if isinstance(v, (list, tuple)):
        return complex(float(v[0]), float(v[1]))
    return complex(float(v))


def _k2_lambda(case: str, a1: float, a2: float):
    """The root of ``a_1^2 lam = a_2 (1 + lam)^2`` that the profile uses."""
    if case == "real_roots":
        b = 2.0 - a1 * a1 / a2
        r1 = (-b + math.sqrt(b * b - 4.0)) / 2.0
        r2 = (-b - math.sqrt(b * b - 4.0)) / 2.0
        return r1 if abs(r1) < 1.0 else r2
    if case == "complex_roots":
        return cmath.exp(1j * math.acos(a1 * a1 / (2.0 * a2) - 1.0))
    return None


def family_arrays(fam: dict, horizon: int):
    """``(beta_0..beta_N, [nan, gamma_1..gamma_N], implied a or None)`` from the
    closed form a family config names."""
    typ = fam["type"]
    if typ == "chebyshev":
        beta = np.zeros(horizon + 1)
        gamma = np.full(horizon + 1, 0.25)
        if fam["kind"] == 1:
            gamma[1] = 0.5
        elif fam["kind"] in (3, 4):
            beta[0] = 0.5 if fam["kind"] == 3 else -0.5
        gamma[0] = np.nan
        return beta, gamma, None
    if typ == "explicit":
        beta = np.array([_f(v) for v in fam["beta"]])
        gamma = np.array([np.nan] + [_f(v) for v in fam["gamma"]])
        return beta, gamma, None
    if typ == "k1":
        a1 = _f(fam["a1"])
        g = np.array([np.nan] + [_f(v) for v in fam["gammas"][:horizon]])
        beta = np.empty(horizon + 1)
        beta[:3] = _f(fam["beta0"]), _f(fam["beta1"]), _f(fam["beta2"])
        beta[3:] = beta[2] + (g[3:] - g[2]) / a1
        return beta, g, (a1,)
    # k2: the recurrence coefficients from index 2 on follow the case profile
    case = fam["case"]
    a1, a2 = _f(fam.get("a1", 0)), _f(fam["a2"])
    p = {name: fam.get(name, 0) for name in "ABCDEF"}
    n = np.arange(2, horizon + 1)
    if case == "a1_zero":
        bt = np.where(n % 2 == 0, _f(p["A"]), _f(p["B"]))
        gt = np.where(n % 2 == 0, _f(p["D"]), _f(p["E"]))
    elif case == "equal_roots":
        A, B, C, D, E, F = (_f(p[x]) for x in "ABCDEF")
        bt = A + B * n + C * n**2
        gt = D + E * n + F * n**2
    elif case == "real_roots":
        lam = _k2_lambda(case, a1, a2)
        A, B, C, D, E, F = (_f(p[x]) for x in "ABCDEF")
        pos, neg = lam ** n.astype(float), lam ** (-n.astype(float))
        bt = A + B * pos + C * neg
        gt = D + E * pos + F * neg
    else:
        lam = _k2_lambda(case, a1, a2)
        powers = lam ** n.astype(float)
        bt = _f(p["A"]) + 2.0 * (_c(p["B"]) * powers).real
        gt = _f(p["D"]) + 2.0 * (_c(p["E"]) * powers).real
    beta = np.concatenate(([_f(fam["beta0"]), _f(fam["beta1"])], bt))
    gamma = np.concatenate(([np.nan, _f(fam["gamma1"])], gt))
    return beta, gamma, (a1, a2)


@dataclass
class Family:
    """One job config with the benchmark's own truth about it."""

    label: str
    config: dict          # ``family``, ``horizon`` and, if given, ``combination``
    orthogonal: bool = True
    beta: np.ndarray = field(init=False)
    gamma: np.ndarray = field(init=False)
    a: tuple[float, ...] = field(init=False)
    tilde_beta: np.ndarray | None = field(init=False, default=None)
    tilde_gamma: np.ndarray | None = field(init=False, default=None)

    def __post_init__(self):
        h = self.horizon
        self.beta, self.gamma, implied = family_arrays(self.config["family"], h)
        comb = self.config.get("combination")
        self.a = tuple(_f(v) for v in comb["a"]) if comb else implied
        if not self.orthogonal:
            return
        k = self.k
        low_beta, low_gamma = complete_low(self.beta, self.gamma, self.a)
        tb = self.beta.copy()
        tg = np.full(h + 1, np.nan)
        tb[: k + 2] = low_beta
        tg[1 : k + 2] = low_gamma
        n = np.arange(k + 2, h + 1)
        tg[k + 2 :] = self.gamma[n] + self.a[0] * (self.beta[n - 1] - self.beta[n])
        self.tilde_beta, self.tilde_gamma = tb, tg

    @property
    def horizon(self) -> int:
        return int(self.config["horizon"])

    @property
    def k(self) -> int:
        return len(self.a)

    @property
    def positive_definite(self) -> bool:
        """Both families positive definite: the zeros of every ``Q_n`` are
        real and simple, so the Gauss and the ``2n-1-k`` rules exist."""
        return bool(
            self.orthogonal
            and np.all(self.gamma[1:] > MARGIN)
            and np.all(self.tilde_gamma[1:] > MARGIN)
        )

    def zeros(self, n: int) -> np.ndarray:
        """Zeros of ``Q_n``: eigenvalues of the ``n x n`` tilde Jacobi truncation."""
        tb, tg = self.tilde_beta[:n], self.tilde_gamma[1:n]
        if self.positive_definite:
            off = np.sqrt(tg)
            return np.linalg.eigvalsh(np.diag(tb) + np.diag(off, 1) + np.diag(off, -1))
        return np.linalg.eigvals(np.diag(tb) + np.diag(np.ones(n - 1), 1) + np.diag(tg, -1))


def _poly_p(beta, gamma, n_max):
    """Exact monic ``P_0..P_n_max`` (low degree first) from the recurrence."""
    polys = [[Fraction(1)], [-beta[0], Fraction(1)]]
    for n in range(1, n_max):
        cur, prev = polys[n] + [0], polys[n - 1] + [0, 0]
        xp = [0] + polys[n]
        polys.append([xp[i] - beta[n] * cur[i] - gamma[n] * prev[i] for i in range(n + 2)])
    return polys


def complete_low(beta, gamma, a):
    """``tilde beta_0..tilde beta_{k+1}`` and ``tilde gamma_1..tilde gamma_{k+1}``.

    Walks ``x Q_m = Q_{m+1} + tb_m Q_m + tg_m Q_{m-1}`` downward from the
    directly summed ``Q_{k+2}`` and ``Q_{k+1}`` in exact rationals.  Raises
    ``ValueError`` when some ``|tg_m|`` falls below ``MARGIN``: such a sample
    sits too close to a degenerate completion to have a robust truth.
    """
    k = len(a)
    fb = [Fraction(float(v)) for v in beta[: k + 2]]
    fg = [Fraction(0)] + [Fraction(float(v)) for v in gamma[1 : k + 2]]
    fa = [Fraction(1)] + [Fraction(float(v)) for v in a]
    p = _poly_p(fb, fg, k + 2)

    def direct(n):
        out = [Fraction(0)] * (n + 1)
        for j in range(k + 1):
            for i, c in enumerate(p[n - j]):
                out[i] += fa[j] * c
        return out

    hi, lo = direct(k + 2), direct(k + 1)
    tbs, tgs = [], []
    for m in range(k + 1, 0, -1):
        r = [([0] + lo)[i] - hi[i] for i in range(m + 2)]
        tb = r[m]
        s = [r[i] - tb * lo[i] for i in range(m)]
        tg = s[m - 1]
        if abs(tg) < MARGIN:
            raise ValueError(f"completion tilde gamma_{m} = {float(tg):.3g} too close to zero")
        tbs.append(tb)
        tgs.append(tg)
        q1 = lo
        hi, lo = lo, [c / tg for c in s]
    low_beta = [float(-q1[0])] + [float(v) for v in reversed(tbs)]  # Q_1 = x - tb_0
    return low_beta, [float(v) for v in reversed(tgs)]


def chebyshev(pair: int, horizon: int) -> Family:
    kind, a = CHEB_PAIRS[pair]
    cfg = {
        "family": {"type": "chebyshev", "kind": kind},
        "combination": {"k": len(a), "a": list(a)},
        "horizon": horizon,
    }
    return Family(f"cheb{kind}:{','.join(a)}", cfg)


def _sign(rng):
    return 1.0 if rng.random() < 0.5 else -1.0


def _k2_seeds(rng):
    return {"beta0": rng.uniform(-0.1, 0.1), "beta1": rng.uniform(-0.1, 0.1),
            "gamma1": rng.uniform(0.2, 0.5)}


def _draw_config(cls: str, rng: random.Random, horizon: int) -> dict:
    u = rng.uniform
    if cls == "k1":
        return {"type": "k1", "a1": _sign(rng) * u(0.3, 0.7),
                "beta0": u(-0.1, 0.1), "beta1": u(-0.1, 0.1), "beta2": u(-0.1, 0.1),
                "gammas": [u(0.2, 0.32) for _ in range(horizon)]}
    if cls == "k2_a1_zero":
        return {"type": "k2", "case": "a1_zero", "a1": 0.0,
                "a2": _sign(rng) * u(0.05, 0.3),
                "A": u(-0.2, 0.2), "B": u(-0.2, 0.2),
                "D": u(0.15, 0.35), "E": u(0.15, 0.35), **_k2_seeds(rng)}
    if cls == "k2_equal_roots":
        # a_1^2 = 4 a_2; the profile needs a_1 C = 2F and a_1 B = 2E - 2F
        a1 = _sign(rng) * u(1.0, 2.0)
        F, E = u(0.0, 0.001), u(0.0, 0.004)
        return {"type": "k2", "case": "equal_roots", "a1": a1, "a2": a1 * a1 / 4.0,
                "A": u(-0.1, 0.1), "B": (2.0 * E - 2.0 * F) / a1, "C": 2.0 * F / a1,
                "D": u(0.2, 0.35), "E": E, "F": F, **_k2_seeds(rng)}
    if cls == "k2_real_roots":
        # C = F = 0 keeps the profile bounded; it needs a_1 lam B = (1 + lam) E
        a1 = _sign(rng) * u(0.6, 1.2)
        a2 = a1 * a1 / 4.0 * u(0.2, 0.8)
        lam = _k2_lambda("real_roots", a1, a2)
        B = u(-0.2, 0.2)
        E = a1 * lam * B / (1.0 + lam)
        return {"type": "k2", "case": "real_roots", "a1": a1, "a2": a2,
                "A": u(-0.1, 0.1), "B": B, "D": abs(E) + u(0.15, 0.3), "E": E,
                **_k2_seeds(rng)}
    if cls == "k2_complex_roots":
        # lam = e^{i theta}, cos theta = a_1^2 / (2 a_2) - 1; a_1 lam B = (1 + lam) E
        a1 = _sign(rng) * u(0.5, 1.5)
        a2 = a1 * a1 / (2.0 * (1.0 + math.cos(u(0.5, 2.5))))
        lam = _k2_lambda("complex_roots", a1, a2)
        B = cmath.rect(u(0.0, 0.05), u(0.0, 2.0 * math.pi))
        E = a1 * lam * B / (1.0 + lam)
        return {"type": "k2", "case": "complex_roots", "a1": a1, "a2": a2,
                "A": u(-0.1, 0.1), "B": [B.real, B.imag],
                "D": 2.0 * abs(E) + u(0.15, 0.3), "E": [E.real, E.imag], **_k2_seeds(rng)}
    raise ValueError(f"unknown family class {cls!r}")


def draw(cls: str, rng: random.Random, horizon: int, positive_definite: bool = False) -> Family:
    """A generated family of class ``cls`` whose completion is robustly
    nondegenerate (and, if asked, positive definite)."""
    for _ in range(500):
        try:
            fam = Family(cls, {"family": _draw_config(cls, rng, horizon), "horizon": horizon})
        except ValueError:
            continue
        if fam.positive_definite or not positive_definite:
            return fam
    raise RuntimeError(f"no suitable {cls} family in 500 draws")
