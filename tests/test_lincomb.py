import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import opoly as op
from opoly import _exact, cli, lincomb
from opoly._exact import exact_gram, low_completion
from opoly.cli import load_config

from conftest import (
    broken_families,
    chebyshev_corpus,
    k2_case_fixture,
    three_term_residual,
    worst_gram_ratio,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def fourier(report):
    """``a_j^(k)`` for ``j = 1..k``: the P-basis tail of ``Q_k``."""
    return report.low_rows[-1][-2::-1]


def test_comb_coeffs_invariants():
    with pytest.raises(ValueError):
        op.CombCoeffs(())
    with pytest.raises(ValueError):
        op.CombCoeffs((0.5, 0.0))
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite"):
            op.CombCoeffs((bad, 0.5))
    assert op.CombCoeffs((0.0, -0.125)).k == 2


class TestQPoly:
    def test_first_kind_k2_degree_four(self, cheb_t):
        comb = op.CombCoeffs((0.0, -0.125))
        q = op.q_poly(cheb_t, comb, 4)
        assert q.coeffs == pytest.approx((3 / 16, 0.0, -9 / 8, 0.0, 1.0))

    def test_direct_formula_above_k(self, cheb_u):
        comb = op.CombCoeffs((0.3,))
        q = op.q_poly(cheb_u, comb, 2)
        expect = op.poly_p(cheb_u, 2) + 0.3 * op.poly_p(cheb_u, 1)
        assert q.coeffs == expect.coeffs

    def test_low_degree_comes_from_fourier_solve(self, cheb_t):
        comb = op.CombCoeffs((0.0, -0.125))
        report = op.check_conditions(cheb_t, comb, 20)
        q2 = op.q_poly(cheb_t, comb, 2, report=report)
        expect = op.poly_p(cheb_t, 2) + 2 * (-0.125) * op.poly_p(cheb_t, 0)
        assert q2.coeffs == pytest.approx(expect.coeffs)

    def test_low_degree_requires_passing_report(self, cheb_t):
        comb = op.CombCoeffs((0.0, -0.125))
        with pytest.raises(op.StateError):
            op.q_poly(cheb_t, comb, 1)
        label, rec, bad_comb = broken_families()[0]
        report = op.check_conditions(rec, bad_comb, 20)
        assert not report.verdict
        with pytest.raises(op.StateError):
            op.q_poly(rec, bad_comb, 1, report=report)


class TestCheckConditions:
    def test_first_kind_k2(self, cheb_t):
        report = op.check_conditions(cheb_t, op.CombCoeffs((0.0, -0.125)), 20)
        assert report.verdict
        assert fourier(report) == pytest.approx((0.0, -0.25))
        assert report.denom == pytest.approx(0.25)

    def test_second_kind_k1(self, cheb_u):
        report = op.check_conditions(cheb_u, op.CombCoeffs((0.5,)), 20)
        assert report.verdict
        assert all(ok for _, _, _, ok in report.matching)

    def test_perturbed_beta_residual(self):
        label, rec, comb = broken_families()[0]
        report = op.check_conditions(rec, comb, 20)
        assert not report.verdict
        # gamma_5 - gamma_2 - a1*(beta_5 - beta_2) = -0.05 shows up at n = 5
        rows = {n: main for n, main, _, _ in report.matching}
        assert rows[5] == pytest.approx(-0.05)

    def test_preconditions(self, cheb_u):
        with pytest.raises(ValueError):
            op.check_conditions(cheb_u, op.CombCoeffs((0.5,)), 2)
        with pytest.raises(op.HorizonError):
            op.check_conditions(cheb_u, op.CombCoeffs((0.5,)), cheb_u.horizon + 1)

    def test_exactly_degenerate_completion_fails_cleanly(self, cheb_u):
        # a = (1, 1/4) on the second kind: the downward step dies exactly
        report = op.check_conditions(cheb_u, op.CombCoeffs((1.0, 0.25)), 20)
        assert not report.verdict
        assert report.failures


class TestCompletion:
    def test_degenerate_step(self):
        # Q_2 = x^2 and Q_1 = x: x Q_1 - Q_2 = 0 leaves no Q_0
        rec = op.RecurrencePair(np.zeros(21), np.full(20, 0.5))
        comb = op.CombCoeffs((0.0, 0.5))
        report = op.check_conditions(rec, comb, 20)
        assert not report.verdict
        assert report.failures == ("tilde gamma at degree 1 is numerically zero (0.0)",)
        assert report.completion == () and report.low_rows == ()
        with pytest.raises(op.StateError):
            op.tilde_recurrence(rec, comb, 20, report=report)

    def test_quarter_shift(self):
        # Q_2 = x^2 - 1/4 over Q_1 = x: tilde beta_1 = 0, tilde gamma_1 = 1/4, Q_0 = 1
        rec = op.RecurrencePair(np.zeros(21), np.full(20, 0.5))
        comb = op.CombCoeffs((0.0, 0.25))
        report = op.check_conditions(rec, comb, 20)
        assert report.verdict
        assert report.completion == ((1, 0.0, 0.25, True), (2, 0.0, 0.5, True))
        assert [op.q_poly(rec, comb, n, report=report).coeffs for n in range(3)] == [
            (1.0,), (0.0, 1.0), (-0.25, 0.0, 1.0)
        ]
        tilde = op.tilde_recurrence(rec, comb, 20, report=report)
        assert (tilde.beta[1], tilde.gamma[1]) == (0.0, 0.25)

    def test_second_kind_combination(self, cheb_u):
        comb = op.CombCoeffs((0.5,))
        report = op.check_conditions(cheb_u, comb, 20)
        assert report.completion == ((1, 0.0, 0.25, True),)
        assert [op.q_poly(cheb_u, comb, n, report=report).coeffs for n in range(2)] == [
            (1.0,), (0.5, 1.0)
        ]
        tilde = op.tilde_recurrence(cheb_u, comb, 20, report=report)
        assert (tilde.beta[0], tilde.beta[1], tilde.gamma[1]) == (-0.5, 0.0, 0.25)


def _exact_low_reference(rec, comb):
    """``(denom, fourier, beta0_tilde, completion, low_rows)`` in Fractions,
    walked downward in the monomial basis and expanded in the P-basis by
    back-substitution."""
    k = comb.k
    beta = [Fraction(float(b)) for b in rec.beta[: k + 2]]
    gamma = [Fraction(0)] + [Fraction(float(g)) for g in rec.gamma[1 : k + 2]]
    a = [Fraction(1)] + [Fraction(v) for v in comb.a]
    p = [[Fraction(1)], [-beta[0], Fraction(1)]]
    for n in range(1, k + 1):
        nxt = [Fraction(0)] + p[n]
        for i, c in enumerate(p[n]):
            nxt[i] -= beta[n] * c
        for i, c in enumerate(p[n - 1]):
            nxt[i] -= gamma[n] * c
        p.append(nxt)

    def combination(weights, n):  # sum_j weights[j] P_{n-j}
        out = [Fraction(0)] * (n + 1)
        for j, w in enumerate(weights):
            for i, v in enumerate(p[n - j]):
                out[i] += w * v
        return out

    denom = gamma[k + 1] + a[1] * (beta[k] - beta[k + 1])
    fourier = [(a[j] * gamma[k - j + 1] + a[j + 1] * (beta[k - j] - beta[k + 1])) / denom
               for j in range(1, k)] + [a[k] * gamma[1] / denom]
    q = {k + 1: combination(a, k + 1), k: combination([Fraction(1)] + fourier, k)}
    completion = []
    for m in range(k, 0, -1):
        r = [x - y for x, y in zip([Fraction(0)] + q[m], q[m + 1])]
        s = [x - r[m] * y for x, y in zip(r, q[m])]
        q[m - 1] = [v / s[m - 1] for v in s[:m]]
        completion.insert(0, (m, r[m], s[m - 1]))
    rows = []
    for j in range(k + 1):
        work, row = list(q[j]), [Fraction(0)] * (j + 1)
        for d in range(j, -1, -1):
            row[d] = work[d]
            for i, v in enumerate(p[d]):
                work[i] -= row[d] * v
        rows.append(row)
    return denom, fourier, -q[1][0], completion, rows


@pytest.mark.parametrize(
    "label,rec,comb",
    chebyshev_corpus()
    + [(case, rec, op.CombCoeffs((a1, a2)))
       for case in ("a1_zero", "equal_roots", "real_roots", "complex_roots")
       for a1, a2, _, rec in [k2_case_fixture(case)]],
    ids=lambda v: v if isinstance(v, str) else "",
)
def test_completion_is_correctly_rounded(label, rec, comb):
    denom, exact_fourier, beta0, completion, rows = _exact_low_reference(rec, comb)
    report = op.check_conditions(rec, comb, 20)
    assert report.completion
    assert report.denom == float(denom)
    assert fourier(report) == tuple(float(v) for v in exact_fourier)
    assert report.beta0_tilde == float(beta0)
    assert report.completion == tuple((m, float(tb), float(tg), True) for m, tb, tg in completion)
    assert report.low_rows == tuple(tuple(float(v) for v in row) for row in rows)


class TestTildeRecurrence:
    def test_a1_zero_keeps_gamma(self, cheb_t):
        comb = op.CombCoeffs((0.0, -0.125))
        report = op.check_conditions(cheb_t, comb, 20)
        tilde = op.tilde_recurrence(cheb_t, comb, 20, report=report)
        assert np.allclose(tilde.gamma[3:], cheb_t.gamma[3:21])
        assert np.allclose(tilde.beta[3:], cheb_t.beta[3:21])

    def test_constant_beta_keeps_gamma(self, cheb_u):
        comb = op.CombCoeffs((0.7,))
        tilde = op.tilde_recurrence(cheb_u, comb, 15)
        assert np.allclose(tilde.gamma[2:], cheb_u.gamma[2:16])

    def test_k2_family_shifts_gamma_by_two(self):
        a1, a2, _, rec = k2_case_fixture("real_roots")
        comb = op.CombCoeffs((a1, a2))
        tilde = op.tilde_recurrence(rec, comb, 40)
        assert np.allclose(tilde.gamma[4:], rec.gamma[2:39], atol=1e-13)

    def test_failed_report_raises(self):
        label, rec, comb = broken_families()[0]
        with pytest.raises(op.StateError):
            op.tilde_recurrence(rec, comb, 15)

    def test_refuses_indices_the_report_did_not_check(self, cheb_u):
        comb = op.CombCoeffs((0.5,))
        report = op.check_conditions(cheb_u, comb, 10)
        assert report.verdict
        with pytest.raises(op.StateError, match="n_max = 30"):
            op.tilde_recurrence(cheb_u, comb, 30, report=report)
        assert op.tilde_recurrence(cheb_u, comb, 10, report=report).horizon == 10


def _per_index_conditions(rec, comb, n_max, tol):
    """The matching rows, failures and tail flag of a per-index walk over ``n``."""
    k, a = comb.k, (0.0,) + comb.a
    beta, gamma = rec.beta, rec.gamma
    matching, failures = [], []
    for n in range(k + 2, n_max + 1):
        scale = max(1.0, abs(gamma[n]))
        main = float(gamma[n] + a[1] * (beta[n - 1] - beta[n]) - gamma[n - k])
        extras = tuple(
            float(a[j - 1] * (gamma[n - k] - gamma[n - j + 1]) - a[j] * (beta[n - j] - beta[n]))
            for j in range(2, k + 1)
        )
        ok = abs(main) <= tol * scale and all(abs(r) <= tol * scale for r in extras)
        matching.append((n, main, extras, ok))
        if not ok:
            failures.append(f"recurrence-matching condition fails at n = {n}")
    tail_ok = True
    for n in range(k + 1, n_max + 1):
        tg = gamma[n] + a[1] * (beta[n - 1] - beta[n])
        if abs(tg) <= tol * max(1.0, abs(gamma[n])):
            tail_ok = False
            failures.append(f"tilde gamma_{n} is numerically zero")
    return tuple(matching), tuple(failures), tail_ok


def _random_families(count=120, seed=11):
    rng = np.random.default_rng(seed)
    for i in range(count):
        k = int(rng.integers(1, 5))
        horizon = int(rng.integers(k + 3, 40))
        base = op.chebyshev_family(int(rng.integers(1, 5)), horizon)
        eps = (0.0, 1e-12, 1e-6, 1.0)[i % 4]
        beta = base.beta + eps * rng.uniform(-1, 1, horizon + 1)
        gamma = base.gamma[1:] * (1 + eps * rng.uniform(-0.5, 0.5, horizon))
        gamma *= (1.0, 40.0)[i % 2]  # scales above and below 1
        a = tuple(rng.choice([0.0, rng.uniform(-1, 1)]) for _ in range(k - 1))
        yield op.RecurrencePair(beta, gamma), op.CombCoeffs(a + (rng.uniform(-1, 1),))
    # tilde gamma_6 = 0.25 + 0.5 (beta_5 - beta_6) is exactly zero
    beta = np.zeros(21)
    beta[6:] = 0.5
    yield op.RecurrencePair(beta, np.full(20, 0.25)), op.CombCoeffs((0.5,))


@pytest.mark.parametrize("tol", [1e-10, 1e-3])
def test_conditions_match_a_per_index_walk(tol, monkeypatch):
    monkeypatch.setattr(lincomb, "_CONDITIONS_TOL", tol)
    verdicts = set()
    for rec, comb in _random_families():
        report = op.check_conditions(rec, comb, rec.horizon)
        matching, failures, tail_ok = _per_index_conditions(rec, comb, rec.horizon, tol)
        assert report.matching == matching
        assert all(type(row[3]) is bool for row in report.matching)
        # a failed completion leaves no P-basis rows and heads the failures
        head = report.failures[:1] if not report.low_rows else ()
        assert report.failures == head + failures
        assert report.tail_gamma_ok is tail_ok
        verdicts.add((report.verdict, tail_ok, all(row[3] for row in matching)))
    assert {(True, True, True), (False, True, False), (False, False, False)} <= verdicts


@pytest.mark.parametrize(
    "kind,a",
    [(1, (0.0, -0.125)), (2, (0.5,)), (3, (0.4,)), (4, (1.0, 1.0))],
)
def test_favard_round_trip(kind, a):
    rec = op.chebyshev_family(kind, 20)
    comb = op.CombCoeffs(a)
    report = op.check_conditions(rec, comb, 18)
    assert report.verdict
    tilde = op.tilde_recurrence(rec, comb, 17, report=report)
    qs = [op.q_poly(rec, comb, n, report=report) for n in range(18)]
    for n in range(1, 17):
        assert three_term_residual(qs, n, tilde.beta[n], tilde.gamma[n]) < 1e-9


@pytest.mark.parametrize("kind", [1, 2, 3, 4])
@pytest.mark.parametrize("a", [(0.4,), (0.0, -0.125), (0.5, 0.0625), (1.0, 1.0)])
def test_oracle_equivalence_on_valid_corpus(kind, a):
    rec = op.chebyshev_family(kind, 26)
    comb = op.CombCoeffs(a)
    verdict = op.check_conditions(rec, comb, 20).verdict
    oracle = op.oracle_gram_check(rec, comb, degree=12).ok
    assert verdict and oracle


def test_oracle_equivalence_on_broken_corpus():
    for label, rec, comb in broken_families():
        verdict = op.check_conditions(rec, comb, 20).verdict
        oracle = op.oracle_gram_check(rec, comb, degree=12).ok
        assert not verdict and not oracle, label


def test_k3_combination_full_agreement(cheb_u):
    # the machinery is not k <= 2 specific: a length-3 combination on a
    # constant recurrence passes both routes and completes cleanly
    comb = op.CombCoeffs((0.3, 0.2, 0.1))
    report = op.check_conditions(cheb_u, comb, 24)
    assert report.verdict
    assert fourier(report) == pytest.approx((0.3, 0.2, 0.1))
    assert op.oracle_gram_check(cheb_u, comb, degree=12).ok
    tilde = op.tilde_recurrence(cheb_u, comb, 20, report=report)
    qs = [op.q_poly(cheb_u, comb, n, report=report) for n in range(12)]
    for n in range(1, 11):
        assert three_term_residual(qs, n, tilde.beta[n], tilde.gamma[n]) < 1e-9


def test_q_basis_orthogonal_under_tilde_moments():
    # end to end: the combination polynomials of a generated family are
    # orthogonal under the moments reconstructed from their own recurrence
    a1, a2, _, rec = k2_case_fixture("real_roots", horizon=26)
    comb = op.CombCoeffs((a1, a2))
    report = op.check_conditions(rec, comb, 20)
    assert report.verdict
    tilde = op.tilde_recurrence(rec, comb, 20, report=report)
    mu = op.moments_from_recurrence(tilde, 16)
    qs = [op.q_poly(rec, comb, n, report=report) for n in range(9)]
    assert worst_gram_ratio(mu, qs) <= 1e-9


def test_oracle_degenerate_completion(cheb_u):
    with pytest.raises(
        op.DegeneracyError, match="^exact completion: tilde gamma at degree 1 is zero$"
    ):
        op.oracle_gram_check(cheb_u, op.CombCoeffs((1.0, 0.25)), degree=8)


def _lincomb(*terms):
    """``sum c * p`` over the ``(c, p)`` pairs, padded to the longest ``p``."""
    out = [Fraction(0)] * max(len(p) for _, p in terms)
    for c, p in terms:
        if c:
            for i, v in enumerate(p):
                if v:
                    out[i] += c * v
    return out


def _basis_polys(beta_f, gamma_f, n_max):
    """Monic basis polynomials ``P_0..P_n_max`` as Fraction coefficient lists."""
    beta = [Fraction(float(b)) for b in beta_f[: n_max + 1]]
    gamma = [Fraction(0)] + [Fraction(float(g)) for g in gamma_f[1 : n_max + 1]]
    one = Fraction(1)
    polys = [[one], [-beta[0], one]]
    for n in range(1, n_max):
        xp = [Fraction(0)] + polys[n]
        polys.append(_lincomb((one, xp), (-beta[n], polys[n]), (-gamma[n], polys[n - 1])))
    return polys


def _row_fractions(e, row, m):
    """Completion row ``m``, ``(nums, d)`` on the integers of ``x -> 2^e x``, as Fractions."""
    nums, d = row
    return [Fraction(v, d << (m - i) * e) for i, v in enumerate(nums)]


def exact_combination_polys(beta_f, gamma_f, a_f, n_max):
    """``Q_0..Q_n_max`` as exact Fraction monomial coefficient lists."""
    e, denom, rows, _ = low_completion(beta_f, gamma_f, a_f)
    assert denom[0] != 0 and rows[0] is not None
    k, a = len(a_f), [Fraction(1), *map(Fraction, a_f)]
    p = _basis_polys(beta_f, gamma_f, n_max)
    return [_lincomb(*zip(_row_fractions(e, rows[n], n), p)) if n <= k
            else _lincomb(*((a[j], p[n - j]) for j in range(k + 1)))
            for n in range(n_max + 1)]


def exact_gram_fractions(beta_f, gamma_f, a_f, degree):
    """:func:`exact_gram`'s integer form ``(N, w, L)`` read back as ``N / (L w_m w_p)``."""
    num, w, lcd = exact_gram(beta_f, gamma_f, a_f, degree)
    assert len(num) == len(w) == degree + 1 and type(lcd) is int and lcd > 0
    assert all(type(v) is int and v > 0 for v in w)
    assert all(type(v) is int for row in num for v in row)
    return [[Fraction(v, lcd * w[m] * w[p]) for p, v in enumerate(row)]
            for m, row in enumerate(num)]


def exact_annihilator_moments(polys):
    """Moments of the unique unit functional annihilating each given monic poly."""
    vals = [Fraction(1)]
    for m, q in enumerate(polys, start=1):
        assert len(q) == m + 1 and q[-1] == 1
        vals.append(-sum(q[i] * vals[i] for i in range(m)))
    return vals


def _exact_product(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        if pi:
            for j, qj in enumerate(q):
                out[i + j] += pi * qj
    return out


def _integer_coeffs(values):
    """``(ints, den)`` with ``values[t] == ints[t] / den``, so products stay integral."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


_K2_FIXTURES = [(f"k2/{case}", rec, op.CombCoeffs((a1, a2)))
                for case in ("a1_zero", "equal_roots", "real_roots", "complex_roots")
                for a1, a2, _, rec in [k2_case_fixture(case)]]


def _bundled(name):
    cfg = load_config(str(CONFIG_DIR / name))
    return name, cfg.rec, cfg.comb


@pytest.mark.parametrize(
    "label,rec,comb,degree",
    [pytest.param(*case, d, id=case[0] + ("--" if d == 6 else f"--d{d}"))
     for d in (6, 12) for case in chebyshev_corpus() + broken_families() + _K2_FIXTURES]
    + [pytest.param(*_bundled("gen_k2_real_roots.json"), 20, id="gen_k2_real_roots--d20")]
    # k = 3 and 4: degrees up to k take the Gram from completion rows alone
    + [pytest.param(f"kind{kind}/k{len(a)}", op.chebyshev_family(kind, 26), op.CombCoeffs(a), d,
                    id=f"kind{kind}/k{len(a)}--d{d}")
       for a in ((0.0, 0.0, 0.5), (0.25, 0.0, 0.0, 0.5)) for kind in (1, 2, 3, 4)
       for d in sorted({1, 2, len(a), len(a) + 1, 6})],
)
def test_exact_gram_matches_pairwise_products(label, rec, comb, degree):
    _assert_gram_matches_pairwise_products(rec, comb, degree)


def _assert_gram_matches_pairwise_products(rec, comb, degree):
    # monomial reference for the modified-moment Gram: expand Q_0..Q_{2d},
    # solve for the annihilating moments, multiply out every Q_i Q_j and
    # apply the moments term by term
    gram = exact_gram_fractions(rec.beta, rec.gamma, comb.a, degree)
    qs = exact_combination_polys(rec.beta, rec.gamma, comb.a, 2 * degree)
    v, v_den = _integer_coeffs(exact_annihilator_moments(qs[1:]))
    scaled = [_integer_coeffs(q) for q in qs[: degree + 1]]
    assert len(gram) == degree + 1
    for i, (qi, di) in enumerate(scaled):
        assert len(gram[i]) == degree + 1
        for j, (qj, dj) in enumerate(scaled[: i + 1]):
            prod = _exact_product(qi, qj)
            expect = Fraction(sum(c * v[t] for t, c in enumerate(prod)), di * dj * v_den)
            assert type(gram[i][j]) is Fraction
            assert gram[i][j] == gram[j][i] == expect


def _edited_cheb_t(horizon, beta=(), gamma=()):
    """Chebyshev T data up to ``horizon`` with ``(n, value)`` edits to beta and gamma."""
    base = op.chebyshev_family(1, horizon)
    b, g = base.beta.copy(), base.gamma.copy()
    for n, v in beta:
        b[n] = v
    for n, v in gamma:
        g[n] = v
    return op.RecurrencePair(b, g[1:])


_SCALING_EDITS = [
    # gamma_3 = p / 2^41 needs 4^e gamma_3 integral: e = ceil(41 / 2) = 21
    ({"gamma": [(3, 0.25 + 2.0**-41)]}, (0.5, 0.25), 21),
    # beta_2 = 3 / 2^61 needs 2^e beta_2 integral: e = 61
    ({"beta": [(2, 3 * 2.0**-61)]}, (0.5, 0.25), 61),
    # a_2 = -5 / 2^13 needs 4^e a_2 integral: e = ceil(13 / 2) = 7
    ({}, (0.5, -5 * 2.0**-13), 7),
    ({"beta": [(2, 3 * 2.0**-61)], "gamma": [(3, 0.25 + 2.0**-41)]},
     (0.5, -5 * 2.0**-13), 61),
]
_SCALING_IDS = ["gamma-odd-exponent", "beta-near-2^-60", "a2-odd-exponent", "all-three"]


@pytest.mark.parametrize("edits,a,e", _SCALING_EDITS, ids=_SCALING_IDS)
def test_exact_gram_scaling_exponent(edits, a, e):
    # the Gram runs on the integers of x -> 2^e x with the smallest such e,
    # and a band row m > k carries the weight w_m = 2^(m e)
    rec, comb, degree = _edited_cheb_t(12, **edits), op.CombCoeffs(a), 6
    _, w, _ = exact_gram(rec.beta, rec.gamma, comb.a, degree)
    assert w[comb.k + 1:] == [1 << m * e for m in range(comb.k + 1, degree + 1)]
    _assert_gram_matches_pairwise_products(rec, comb, degree)


def _scaled(rec, comb, s):
    """The exact map ``x -> s x``: ``beta -> s beta``, ``gamma -> s^2 gamma``, ``a_j -> s^j a_j``."""
    return (op.RecurrencePair(s * rec.beta, s * s * rec.gamma[1:]),
            op.CombCoeffs(tuple(s**j * v for j, v in enumerate(comb.a, start=1))))


def _oracle_outcome(rec, comb, degree):
    try:
        return op.oracle_gram_check(rec, comb, degree=degree, tol=1e-9)
    except op.DegeneracyError as exc:
        return str(exc)


@pytest.mark.parametrize("s", [2.0, -1.0, 0.125])
@pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.json")))
def test_oracle_is_covariant_under_scaling(name, s):
    # G_ij scales by s^(i+j), exactly for these s, so the ratios, the verdict
    # and every failure entry (mapped back) must not depend on the unit of x
    _, rec, comb = _bundled(name)
    degree = min(12, (rec.horizon + 1) // 2)  # the CLI's oracle degree
    base = _oracle_outcome(rec, comb, degree)
    scaled = _oracle_outcome(*_scaled(rec, comb, s), degree)
    if isinstance(base, str):
        assert scaled == base
        return
    assert scaled.ok == base.ok
    assert scaled.worst_ratio.hex() == base.worst_ratio.hex()
    assert scaled.failures == tuple((i, j, v * s ** (i + j), b * abs(s) ** (i + j))
                                    for i, j, v, b in base.failures)


def test_exact_gram_degenerate_completion_texts(cheb_u):
    # k = 1 with beta_1 = 1/2: gamma_2 + a_1 (beta_1 - beta_2) = 1/4 - 1/4
    rec = _cheb_u_with_beta1(0.5)
    with pytest.raises(op.DegeneracyError, match="^exact completion: denominator is zero$"):
        exact_gram(rec.beta, rec.gamma, (-0.5,), 6)
    with pytest.raises(
        op.DegeneracyError, match="^exact completion: tilde gamma at degree 1 is zero$"
    ):
        exact_gram(cheb_u.beta, cheb_u.gamma, (1.0, 0.25), 6)


def test_oracle_horizon_edge():
    # the Gram at degree d reads P_0..P_{2d}, i.e. beta and gamma up to 2d - 1
    comb = op.CombCoeffs((0.0, -0.125))
    edge = op.chebyshev_family(1, 25)
    assert op.oracle_gram_check(edge, comb, degree=13).ok
    qs = exact_combination_polys(edge.beta, edge.gamma, comb.a, 26)
    v = exact_annihilator_moments(qs[1:])
    gram = exact_gram_fractions(edge.beta, edge.gamma, comb.a, 13)
    assert gram[13][13] == sum((c * v[t] for t, c in enumerate(_exact_product(qs[13], qs[13]))),
                               Fraction(0))
    with pytest.raises(op.HorizonError, match="needs horizon >= 25"):
        op.oracle_gram_check(op.chebyshev_family(1, 24), comb, degree=13)


@pytest.mark.parametrize(
    "degree,tol", [(0, 1e-9), (-1, 1e-9), (6, -1e-9), (6, float("nan")), (6, float("inf"))]
)
def test_oracle_rejects_vacuous_arguments(cheb_t, degree, tol):
    with pytest.raises(ValueError, match="^oracle needs degree >= 1 and a finite tol >= 0"):
        op.oracle_gram_check(cheb_t, op.CombCoeffs((0.0, -0.125)), degree=degree, tol=tol)


def _ratio_reference(gram_fr, tol):
    """``(failures, worst_ratio)`` with every ratio taken as a Fraction."""
    n = len(gram_fr)
    gram = np.array([[float(v) for v in row] for row in gram_fr])
    failures = [(i, i, 0.0, 0.0) for i in range(n) if gram_fr[i][i] == 0]
    worst = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            dd = gram_fr[i][i] * gram_fr[j][j]
            off2 = gram_fr[i][j] ** 2
            if dd == 0:
                if off2 != 0:
                    failures.append((i, j, gram[i, j], 0.0))
                continue
            ratio2 = off2 / abs(dd)
            worst = max(worst, float(ratio2) ** 0.5)
            if ratio2 > Fraction(tol) ** 2:
                failures.append((i, j, gram[i, j], tol * abs(gram[i, i] * gram[j, j]) ** 0.5))
    return tuple(failures), worst


def _assert_ratio_test_matches(rec, comb, degree, tol):
    report = op.oracle_gram_check(rec, comb, degree=degree, tol=tol)
    failures, worst = _ratio_reference(
        exact_gram_fractions(rec.beta, rec.gamma, comb.a, degree), tol)
    assert report.failures == failures
    assert report.worst_ratio.hex() == worst.hex()
    assert report.ok == (not failures)
    return report


@pytest.mark.parametrize(
    "label,rec,comb", broken_families(), ids=lambda v: v if isinstance(v, str) else ""
)
def test_gcd_free_ratio_test_on_broken_corpus(label, rec, comb):
    assert not _assert_ratio_test_matches(rec, comb, 12, 1e-9).ok


def test_gcd_free_ratio_test_passes_exact_zeros_at_zero_tol():
    # every Chebyshev combination is exactly orthogonal, so ratio 0 meets tol 0
    for label, rec, comb in chebyshev_corpus():
        report = _assert_ratio_test_matches(rec, comb, 6, 0.0)
        assert report.ok and report.worst_ratio == 0.0, label


@pytest.mark.parametrize("name,degree", [("gen_k2_equal_roots.json", 14),
                                         ("gen_k2_complex_roots.json", 16)])
def test_gcd_free_ratio_test_one_ulp_around_the_worst_ratio(name, degree):
    _, rec, comb = _bundled(name)
    gram = exact_gram_fractions(rec.beta, rec.gamma, comb.a, degree)
    pairs = [(i, j) for i in range(degree + 1) for j in range(i + 1, degree + 1)]
    ratio2 = {(i, j): gram[i][j] ** 2 / abs(gram[i][i] * gram[j][j]) for i, j in pairs}
    top = max(ratio2.values())
    # below < sqrt(top) <= above, adjacent floats
    below = float(top) ** 0.5
    while Fraction(below) ** 2 >= top:
        below = math.nextafter(below, 0.0)
    while Fraction(math.nextafter(below, math.inf)) ** 2 < top:
        below = math.nextafter(below, math.inf)
    above = math.nextafter(below, math.inf)
    worst_pairs = {p for p, r in ratio2.items() if r == top}
    failing = {
        tol: {(i, j) for i, j, _, _ in _assert_ratio_test_matches(rec, comb, degree, tol).failures}
        for tol in (below, above)
    }
    assert worst_pairs <= failing[below]
    assert not worst_pairs & failing[above]
    assert failing[above] < failing[below]


def _full_ratio_loop(num, w, lcd, tol):
    """The oracle's ratio test with no screen: every pair's squared integer
    ratio compared with ``tol^2`` and its rounded square root taken."""
    n = len(num)
    tol_num, tol_den = (v * v for v in tol.as_integer_ratio())
    diag = [abs(num[i][i]) for i in range(n)]
    failures = [(i, i, 0.0, 0.0) for i in range(n) if diag[i] == 0]
    worst = 0.0

    def entry(i, j):
        return num[i][j] / (lcd * w[i] * w[j])

    gram_diag = [entry(i, i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            top, bottom = num[i][j] * num[i][j], diag[i] * diag[j]
            if bottom == 0:
                if top:
                    failures.append((i, j, entry(i, j), 0.0))
                continue
            worst = max(worst, (top / bottom) ** 0.5)
            if top * tol_den > tol_num * bottom:
                failures.append((i, j, entry(i, j), tol * abs(gram_diag[i] * gram_diag[j]) ** 0.5))
    return op.GramReport(not failures, tuple(failures), worst)


def _bits(report):
    return (report.ok, [(i, j, v.hex(), b.hex()) for i, j, v, b in report.failures],
            report.worst_ratio.hex())


_SCREEN_TOLS = (0.0, 1e-12, 1e-9, 1e-3, 0.5)
_SCREEN_CORPUS = ([_bundled(p.name) for p in sorted(CONFIG_DIR.glob("*.json"))]
                  + broken_families() + _K2_FIXTURES)


@pytest.mark.parametrize("label,rec,comb,degree", [
    pytest.param(label, rec, comb, d, id=f"{label}--d{d}")
    for label, rec, comb in _SCREEN_CORPUS for d in (6, 12, 18, 24)
    if 2 * d <= rec.horizon + 1
])
def test_ratio_screen_matches_full_loop(label, rec, comb, degree):
    # the log2 screen skips exact comparisons and float ratios, never a
    # failure or a bit of worst_ratio
    gram = exact_gram(rec.beta, rec.gamma, comb.a, degree)
    for tol in _SCREEN_TOLS:
        report = op.oracle_gram_check(rec, comb, degree=degree, tol=tol)
        assert _bits(report) == _bits(_full_ratio_loop(*gram, tol))


@pytest.mark.parametrize("tol", [1e-9, 0.1, 0.5, 3.0])
@pytest.mark.parametrize("shift", [0, 1000, 5000])
def test_ratio_screen_at_exactly_tol(tol, shift):
    # tol = p / 2^q and N = [[2^q, p + c], [p + c, -2^q]] put the ratio at,
    # just above and just below tol; the test is strict, so equality passes
    p, q = tol.as_integer_ratio()
    for c, fails in ((0, False), (1, True), (-1, False)):
        off = (p + c) << shift
        num, lcd = [[q << shift, off], [off, -(q << shift)]], 1 << shift
        report = lincomb._gram_report(num, [1, 1], lcd, tol)
        assert _bits(report) == _bits(_full_ratio_loop(num, [1, 1], lcd, tol))
        assert report.ok != fails
        if c == 0:
            assert report.worst_ratio == tol


@pytest.mark.parametrize("swap", [False, True])
def test_ratio_screen_below_log2_resolution(swap):
    # squared ratios c (2^61 / (2^61 -+ 1)) with c = 1 + 3 2^-53 the midpoint
    # of two adjacent floats: they differ by a relative 2^-60, far below what
    # log2 resolves, yet round to different floats, and only the larger may
    # set worst_ratio
    big_c = (1 << 53) + 3
    d_hi, d_lo = (1 << 61) - 1, (1 << 61) + 1
    if swap:
        d_hi, d_lo = d_lo, d_hi
    x = 16 * big_c
    num = [[big_c, x, x], [x, d_hi, 0], [x, 0, d_lo]]
    ratios = [(x * x / (big_c * d)) ** 0.5 for d in (d_hi, d_lo)]
    assert ratios[0] != ratios[1]
    for tol in _SCREEN_TOLS + (1.0, max(ratios), min(ratios)):
        report = lincomb._gram_report(num, [1, 1, 1], 1, tol)
        assert _bits(report) == _bits(_full_ratio_loop(num, [1, 1, 1], 1, tol))
        assert report.worst_ratio == max(ratios) == 1 + 2.0**-52


def test_ratio_screen_on_10000_bit_integers():
    # diagonals of 10,000 to 10,350 bits, ratios below 2^30,
    # signs of both kinds and some zero entries
    rng = random.Random(24)
    n = 8
    diag = [rng.getrandbits(10_000 + 50 * i) | 1 << (9_999 + 50 * i) for i in range(n)]
    num = [[0] * n for _ in range(n)]
    for i in range(n):
        num[i][i] = diag[i] if i % 3 else -diag[i]
        for j in range(i + 1, n):
            if (i + j) % 5:
                v = math.isqrt(diag[i] * diag[j]) * rng.getrandbits(30) >> rng.randrange(60)
                num[i][j] = num[j][i] = v if j % 2 else -v
    w, lcd = [1 << (5_000 + 25 * i) for i in range(n)], 3
    assert min(abs(v).bit_length() for row in num for v in row if v) > 9_900
    for tol in _SCREEN_TOLS + (1.0, 1e6):
        report = lincomb._gram_report(num, w, lcd, tol)
        assert _bits(report) == _bits(_full_ratio_loop(num, w, lcd, tol))
    assert 1.0 < report.worst_ratio < 2.0**30


def test_ratio_screen_zero_diagonal():
    num = [[0, 5, 0, 3],
           [5, 7, 0, 2],
           [0, 0, 0, 0],
           [3, 2, 0, -11]]
    w, lcd = [1, 2, 4, 8], 3
    for tol in _SCREEN_TOLS:
        report = lincomb._gram_report(num, w, lcd, tol)
        assert _bits(report) == _bits(_full_ratio_loop(num, w, lcd, tol))
    report = lincomb._gram_report(num, w, lcd, 0.5)
    assert [f[:2] for f in report.failures] == [(0, 0), (2, 2), (0, 1), (0, 3)]
    assert report.worst_ratio == (4 / 77) ** 0.5


def test_ratio_screen_past_float_range():
    big = 1 << 600  # ratio 2^600 squares to 2^1200, past the float range
    num = [[1, big], [big, 1]]
    with pytest.raises(OverflowError):
        _full_ratio_loop(num, [1, 1], 1, 1e-9)
    with pytest.raises(op.NumericError, match="^Gram oracle: "):
        lincomb._gram_report(num, [1, 1], 1, 1e-9)


def _completion_misses():
    return _exact._low_completion.cache_info().misses


def test_check_builds_the_completion_once(capsys):
    path = str(CONFIG_DIR / "gen_k2_real_roots.json")
    _exact._low_completion.cache_clear()
    assert cli.main(["check", "--config", path]) == 0
    capsys.readouterr()
    assert _completion_misses() == 1

    _, rec, comb = _bundled("cheb2_k1.json")
    _exact._low_completion.cache_clear()
    report = op.check_conditions(rec, comb, 24)
    gram = op.oracle_gram_check(rec, comb, degree=12)
    assert report.verdict and gram.ok
    assert _completion_misses() == 1

    _, other, other_comb = _bundled("cheb1_k2.json")
    _exact._low_completion.cache_clear()
    op.check_conditions(rec, comb, 24)
    op.check_conditions(other, other_comb, 24)
    assert _completion_misses() == 2


def test_completion_memo_hands_out_tuples_and_raises_on_bad_data(cheb_u):
    e, denom, rows, tilde = low_completion(cheb_u.beta, cheb_u.gamma, (1.0, 0.25))
    assert type(e) is int and type(denom) is tuple
    assert type(rows) is tuple and type(tilde) is tuple
    assert all(type(r) is tuple and type(r[0]) is tuple for r in rows if r is not None)
    assert rows[:1] == (None,) and tilde[1][1][0] == 0  # the walk stops at degree 1
    assert tilde[0] is None
    for bad, exc in ((float("nan"), ValueError), (float("inf"), OverflowError)):
        gamma = cheb_u.gamma.copy()
        gamma[2] = bad
        for _ in range(2):
            with pytest.raises(exc):
                low_completion(cheb_u.beta, gamma, (0.5,))


def _fraction_completion(beta_f, gamma_f, a_f):
    """The completion walked in Fractions: ``(denom, rows, tilde)`` indexed by
    degree, ``None`` where the walk did not get to, each row the Fraction
    ``P``-coefficients of ``Q_m``.  The reference for the integer walk."""
    k = len(a_f)
    beta = [Fraction(float(b)) for b in beta_f[: k + 2]]
    gamma = [Fraction(0)] + [Fraction(float(g)) for g in gamma_f[1 : k + 2]]
    a = [Fraction(1)] + [Fraction(float(v)) for v in a_f]
    rows = {k + 1: [Fraction(0)] + a[::-1]}
    tilde = {}
    denom = gamma[k + 1] + a[1] * (beta[k] - beta[k + 1])
    if denom != 0:
        ap = a + [Fraction(0)]
        rows[k] = [(ap[j] * gamma[k - j + 1] + ap[j + 1] * (beta[k - j] - beta[k + 1])) / denom
                   for j in range(k, 0, -1)] + [Fraction(1)]
        for m in range(k, 0, -1):
            lo = rows[m]
            r = [-c for c in rows[m + 1]]
            for i, c in enumerate(lo):
                r[i + 1] += c
                r[i] += beta[i] * c
                if i:
                    r[i - 1] += gamma[i] * c
            tb = r[m]
            s = [r[i] - tb * lo[i] for i in range(m)]
            tilde[m] = (tb, s[m - 1])
            if s[m - 1] == 0:
                break
            rows[m - 1] = [v / s[m - 1] for v in s]
    return (denom, [rows.get(m) for m in range(k + 2)], [tilde.get(m) for m in range(k + 1)])


def _fraction_low_fields(rec, comb, tol):
    """``check_conditions``' completion fields and failure text, rounded from
    :func:`_fraction_completion` one Fraction at a time."""
    k = comb.k
    denom, rows, tilde = _fraction_completion(rec.beta, rec.gamma, comb.a)
    low = {"denom": float(denom), "completion": (), "beta0_tilde": None, "low_rows": ()}
    if abs(low["denom"]) <= tol * max(1.0, abs(rec.gamma[k + 1])):
        return low, "gamma_{k+1} + a_1*(beta_k - beta_{k+1}) is numerically zero"
    completion = []
    for m in range(k, 0, -1):
        tb, tg = map(float, tilde[m])
        scale = max(1.0, float(max(map(abs, rows[m + 1] + rows[m]))))
        if abs(tg) <= tol * scale:
            return low, f"tilde gamma at degree {m} is numerically zero ({tg!r})"
        completion.append((m, tb, tg, True))
    low.update(completion=tuple(reversed(completion)),
               beta0_tilde=-float(rows[1][0] - Fraction(float(rec.beta[0]))),
               low_rows=tuple(tuple(map(float, rows[j])) for j in range(k + 1)))
    return low, None


def _low_bits(denom, completion, beta0_tilde, low_rows):
    """The completion fields with every float as ``float.hex``, so ``-0.0 != 0.0``."""
    return (denom.hex(), [(m, tb.hex(), tg.hex(), ok) for m, tb, tg, ok in completion],
            None if beta0_tilde is None else beta0_tilde.hex(),
            [[v.hex() for v in row] for row in low_rows])


def _assert_completion_matches_fractions(rec, comb):
    k = comb.k
    ref_denom, ref_rows, ref_tilde = _fraction_completion(rec.beta, rec.gamma, comb.a)
    e, (dp, dq), rows, tilde = low_completion(rec.beta, rec.gamma, comb.a)
    assert dq > 0 and Fraction(dp, dq) == ref_denom
    assert [r is None for r in rows] == [r is None for r in ref_rows]
    for m, row in enumerate(rows):
        if row is not None:
            assert row[1] > 0 and row[0][m] == row[1] and math.gcd(*row[0]) == 1
            assert _row_fractions(e, row, m) == ref_rows[m]
    assert [t is None for t in tilde[1:]] == [t is None for t in ref_tilde[1:]]
    for got, want in zip(tilde[1:], ref_tilde[1:]):
        if got is not None:
            assert all(q > 0 for _, q in got)
            assert [Fraction(p, q) for p, q in got] == list(want)
    assert (tilde[0] is None) == (ref_rows[0] is None)
    if tilde[0] is not None:
        (p, q), none = tilde[0]
        assert none is None and q > 0
        assert Fraction(p, q) == Fraction(float(rec.beta[0])) - ref_rows[1][0]
    for tol in (1e-10, 1e-3):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lincomb, "_CONDITIONS_TOL", tol)
            report = op.check_conditions(rec, comb, k + 2)
        low, failure = _fraction_low_fields(rec, comb, tol)
        assert _low_bits(report.denom, report.completion, report.beta0_tilde,
                         report.low_rows) == _low_bits(**low)
        if failure is not None:
            assert report.failures[0] == failure


def _workload_families(workload, seed, work_dir):
    """``(label, rec, comb)`` of every family the bench workload runs at ``seed``:
    CLI jobs through the config files it writes, oracle jobs as it builds them."""
    bench_dir = str(CONFIG_DIR.parent / "bench")
    if bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)
    import workloads

    jobs = workloads.build_jobs(workload, seed, str(CONFIG_DIR))
    workloads.write_configs(jobs, str(work_dir))
    seen, out = set(), []
    for job in jobs:
        key = job.argv[2] if job.argv else id(job.family)
        if key in seen:
            continue
        seen.add(key)
        if job.argv:
            cfg = load_config(job.argv[2])
            out.append((job.family.label, cfg.rec, cfg.comb))
        else:
            out.append((job.family.label, workloads.library_pair(job.family),
                        op.CombCoeffs(job.family.a)))
    return out


def _cheb_u_with_beta1(beta1):
    u = op.chebyshev_family(2, 30)
    beta = u.beta.copy()
    beta[1] = beta1
    return op.RecurrencePair(beta, u.gamma[1:].copy())


_EDITED = [(f"edited/{label}", _edited_cheb_t(12, **edits), op.CombCoeffs(a))
           for label, (edits, a, _) in zip(_SCALING_IDS, _SCALING_EDITS)]


@pytest.mark.parametrize("label,rec,comb", (
    [_bundled(p.name) for p in sorted(CONFIG_DIR.glob("*.json"))]
    + chebyshev_corpus() + broken_families() + _K2_FIXTURES + _EDITED
    # tilde gamma_2 = -1/4 < 0 here: a negative row denominator would turn
    # tilde beta_1 = 0 into -0.0, and beta0_tilde = -0.0 into 0.0
    + [(f"cheb_t/{a}", op.chebyshev_family(1, 12), op.CombCoeffs(a))
       for a in ((0.0, -0.5), (0.0, 0.0, -0.5))]
    # gamma_2 + a_1 (beta_1 - beta_2) = 1/4 - 1/4: the determination fails
    + [("cheb_u/beta1=0.5", _cheb_u_with_beta1(0.5), op.CombCoeffs((-0.5,)))]
), ids=lambda v: v if isinstance(v, str) else "")
def test_integer_completion_matches_fractions(label, rec, comb):
    _assert_completion_matches_fractions(rec, comb)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", ["check_mix", "oracle_deep", "derive_mix"])
def test_integer_completion_matches_fractions_on_workloads(workload, seed, tmp_path):
    families = _workload_families(workload, seed, tmp_path)
    assert len(families) >= 13
    for label, rec, comb in families:
        _assert_completion_matches_fractions(rec, comb)


def test_k1_fourier_identity_holds_generally(cheb_t):
    # a_1^(1) * (gamma_2 + a1*(beta_1 - beta_2)) = a1 * gamma_1 always
    for a1 in (0.2, 0.3, -0.3):
        comb = op.CombCoeffs((a1,))
        report = op.check_conditions(cheb_t, comb, 15)
        assert fourier(report)[0] * report.denom == pytest.approx(
            a1 * cheb_t.gamma[1], abs=1e-14
        )


def test_k1_first_kind_degenerates_at_half(cheb_t):
    # on the first kind the completed tilde gamma_1 equals 1/2 - 2 a1^2,
    # which vanishes exactly at a1 = 1/2: no orthogonal completion exists
    report = op.check_conditions(cheb_t, op.CombCoeffs((0.5,)), 15)
    assert not report.verdict
    with pytest.raises(op.DegeneracyError):
        op.oracle_gram_check(cheb_t, op.CombCoeffs((0.5,)), degree=6)


def test_k1_combination_determined_for_constant_recurrences():
    # with beta constant and gamma_n = gamma_1 for n >= 2 the completed Q_1
    # coincides with P_1 + a1 P_0
    for gamma in (0.25, 0.3):
        rec = op.RecurrencePair(np.zeros(16), np.full(15, gamma))
        for a1 in (0.5, -0.4):
            comb = op.CombCoeffs((a1,))
            report = op.check_conditions(rec, comb, 15)
            assert report.verdict
            q1 = op.q_poly(rec, comb, 1, report=report)
            expect = op.poly_p(rec, 1) + a1 * op.poly_p(rec, 0)
            assert np.max(np.abs(np.array(q1.coeffs) - np.array(expect.coeffs))) < 1e-12


def test_condition_residuals_translation_invariant(cheb_u):
    comb = op.CombCoeffs((0.5,))
    base = op.check_conditions(cheb_u, comb, 20)
    shifted_rec = op.RecurrencePair(cheb_u.beta + 1.0, cheb_u.gamma[1:].copy())
    shifted = op.check_conditions(shifted_rec, comb, 20)
    assert base.verdict == shifted.verdict
    for (n1, main1, _, _), (n2, main2, _, _) in zip(base.matching, shifted.matching):
        assert n1 == n2
        assert main1 == pytest.approx(main2, abs=1e-12)
