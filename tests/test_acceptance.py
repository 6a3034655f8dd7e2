"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import json
import math

import numpy as np
import pytest

import opoly as op
from opoly.cli import main as cli_main

from conftest import (
    broken_families,
    chebyshev_corpus,
    intertwining_residual,
    jacobi_truncation_diag_sums,
    k2_case_fixture,
    perturbation_L_dense,
    three_term_residual,
)

HORIZON = 26


def valid_corpus():
    return chebyshev_corpus(HORIZON)


def _criterion(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {status} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_condition_oracle_equivalence():
    """Condition verdict and the brute-force Gram oracle agree everywhere."""
    corpus = valid_corpus()
    assert len(corpus) >= 12
    mismatches = []
    for label, rec, comb in corpus:
        verdict = op.check_conditions(rec, comb, 20).verdict
        oracle = op.oracle_gram_check(rec, comb, degree=12, tol=1e-9).ok
        if not (verdict and oracle):
            mismatches.append((label, verdict, oracle))
    broken = broken_families()
    assert len(broken) >= 3
    for label, rec, comb in broken:
        verdict = op.check_conditions(rec, comb, 20).verdict
        try:
            oracle = op.oracle_gram_check(rec, comb, degree=12, tol=1e-9).ok
        except op.DegeneracyError:
            oracle = False
        if verdict or oracle:
            mismatches.append((label, verdict, oracle))
    _criterion(
        1,
        not mismatches,
        f"{len(corpus)} valid + {len(broken)} broken configurations, "
        f"verdict == gram oracle on {{Q_0..Q_12}} at 1e-9"
        + (f"; mismatches: {mismatches}" if mismatches else ""),
    )


def test_criterion_2_tilde_formulas():
    """Closed tilde formulas for n >= k+1 and the downward completion."""
    worst_formula = 0.0
    worst_three_term = 0.0
    for label, rec, comb in valid_corpus():
        k = comb.k
        report = op.check_conditions(rec, comb, 21)
        assert report.verdict, label
        tilde = op.tilde_recurrence(rec, comb, 20, report=report)
        a1 = comb.a[0]
        for n in range(k + 1, 21):
            worst_formula = max(worst_formula, abs(tilde.beta[n] - rec.beta[n]))
            expect = rec.gamma[n] + a1 * (rec.beta[n - 1] - rec.beta[n])
            worst_formula = max(worst_formula, abs(tilde.gamma[n] - expect))
        qs = [op.q_poly(rec, comb, n, report=report) for n in range(k + 2)]
        for j in range(1, k + 1):
            worst_three_term = max(
                worst_three_term, three_term_residual(qs, j, tilde.beta[j], tilde.gamma[j])
            )
    _criterion(
        2,
        worst_formula < 1e-12 and worst_three_term < 1e-9,
        f"tilde formulas to {worst_formula:.2e} (tol 1e-12), "
        f"completion three-term residual {worst_three_term:.2e} (tol 1e-9)",
    )


def test_criterion_3_jacobi_identities():
    """Intertwining at m = 20 and spectral zeros at m in {4, 8, 12}."""
    worst_intertwine = 0.0
    worst_zero_dist = 0.0
    for label, rec, comb in valid_corpus():
        report = op.check_conditions(rec, comb, 21)
        worst_intertwine = max(worst_intertwine, intertwining_residual(rec, comb, report, 20))
        for m in (4, 8, 12):
            if m < comb.k + 1:
                continue
            A = jacobi_truncation_diag_sums(rec, m) - perturbation_L_dense(comb, m)
            eigs = np.linalg.eigvals(A)
            roots = np.roots(np.array(op.q_poly(rec, comb, m).coeffs)[::-1])
            worst_zero_dist = max(worst_zero_dist, op.multiset_distance(eigs, roots))
    _criterion(
        3,
        worst_intertwine < 1e-12 and worst_zero_dist < 1e-8,
        f"M J_P = J_Q M interior residual {worst_intertwine:.2e} (tol 1e-12), "
        f"eigenvalue/root multiset distance {worst_zero_dist:.2e} (tol 1e-8)",
    )


def test_criterion_4_hk_pipeline():
    """h_k and its scale, functional relation, positivity, orthonormal identity."""
    cases = [
        (op.chebyshev_family(1, HORIZON), op.CombCoeffs((0.0, -0.125))),
        (op.chebyshev_family(2, HORIZON), op.CombCoeffs((0.5,))),
        (op.chebyshev_family(3, HORIZON), op.CombCoeffs((0.4,))),
        (op.chebyshev_family(4, HORIZON), op.CombCoeffs((0.4,))),
    ]
    worst_scale = worst_relation = worst_orth = 0.0
    grid = np.linspace(-0.99, 0.99, 100)
    all_positive = True
    for rec, comb in cases:
        report = op.check_conditions(rec, comb, 24)
        hk = op.solve_hk(rec, comb, report)
        worst_scale = max(worst_scale, abs(hk.scale - 1.0))
        rel = op.verify_functional_relation(rec, comb, report, hk.poly)
        worst_relation = max(worst_relation, rel.max_residual)
        all_positive = all_positive and bool(np.all(hk.poly(grid) > 0.0))
        orth = op.orthonormal_identity_check(rec, comb, report, 16)
        worst_orth = max(worst_orth, orth.residual)
    _criterion(
        4,
        worst_scale < 1e-12 and worst_relation < 1e-8 and all_positive
        and worst_orth < 1e-9,
        f"|1/v(h_k) - 1| {worst_scale:.2e} (tol 1e-12), relation on v(P_m) for "
        f"1 <= m <= horizon - k {worst_relation:.2e} (tol 1e-8), "
        f"positive on grid: {all_positive}, orthonormal identity {worst_orth:.2e} (tol 1e-9)",
    )


def test_criterion_5_degree_loss_law():
    """d = 2n-1-k on the combination zeros; Gauss baseline d = 2n-1."""
    ok = True
    details = []
    for rec, comb in (
        (op.chebyshev_family(2, HORIZON), op.CombCoeffs((0.5,))),
        (op.chebyshev_family(1, HORIZON), op.CombCoeffs((0.0, -0.125))),
    ):
        for n in (5, 6, 8):
            got = op.shohat_check(rec, comb, n).ok
            ok = ok and got
            details.append(f"k={comb.k},n={n}:{'ok' if got else 'FAIL'}")
    gauss_ok = True
    for kind in (1, 2):
        rec = op.chebyshev_family(kind, HORIZON)
        for n in range(1, 11):
            rule = op.gauss_rule(rec, n)
            gauss_ok = gauss_ok and rule.degree_of_precision == 2 * n - 1
            gauss_ok = gauss_ok and bool(np.all(rule.weights > 0.0))
    _criterion(
        5,
        ok and gauss_ok,
        "combination rules lose exactly k degrees (" + ", ".join(details) + "); "
        f"Gauss baseline d = 2n-1 with positive weights for n <= 10: {gauss_ok}",
    )


def test_criterion_6_k2_generator_round_trip():
    """All four classification cases at N = 50."""
    ok = True
    details = []
    for case in ("a1_zero", "equal_roots", "real_roots", "complex_roots"):
        a1, a2, params, rec = k2_case_fixture(case, horizon=50)
        report = op.check_conditions(rec, op.CombCoeffs((a1, a2)), 50)
        case_ok = report.verdict
        if a1 != 0.0:
            resid_b = op.k2_difference_residual(rec.beta, a1, a2)
            resid_g = op.k2_difference_residual(rec.gamma, a1, a2)
            case_ok = case_ok and resid_b < 1e-10 and resid_g < 1e-10
        else:
            case_ok = case_ok and bool(
                np.all(rec.beta[4:] == rec.beta[2:-2])
                and np.all(rec.gamma[4:] == rec.gamma[2:-2])
            )
        if case == "real_roots":
            lam = (3.0 - math.sqrt(5.0)) / 2.0
            case_ok = case_ok and abs(a1 * a1 * lam - a2 * (1 + lam) ** 2) < 1e-12
        if case == "complex_roots":
            theta = math.acos(a1 * a1 / (2 * a2) - 1.0)
            ns = np.arange(2, 51)
            z = complex(params.B) * np.exp(1j * theta * ns)
            imag_resid = float(np.max(np.abs((params.A + z + np.conj(z)).imag)))
            case_ok = case_ok and imag_resid < 1e-12
        ok = ok and case_ok
        details.append(f"{case}:{'ok' if case_ok else 'FAIL'}")
    _criterion(
        6,
        ok,
        "generated families pass conditions at N = 50, satisfy the difference "
        "equation to 1e-10, the inner root to 1e-12, and emit real "
        "coefficients (" + ", ".join(details) + ")",
    )


def test_criterion_7_k1_constant_characterization():
    """Symmetric constant recurrences: Q_1 determined; tilde again constant."""
    ok = True
    worst_q1 = 0.0
    for gamma in (0.25, 0.3):
        for a1 in (0.5, -0.4, 0.2):
            rec = op.RecurrencePair(np.zeros(21), np.full(20, gamma))
            comb = op.CombCoeffs((a1,))
            report = op.check_conditions(rec, comb, 20)
            ok = ok and report.verdict
            q1 = op.q_poly(rec, comb, 1, report=report)
            expect = op.poly_p(rec, 1) + a1 * op.poly_p(rec, 0)
            worst_q1 = max(
                worst_q1, float(np.max(np.abs(np.array(q1.coeffs) - np.array(expect.coeffs))))
            )
            tilde = op.tilde_recurrence(rec, comb, 20, report=report)
            ok = ok and bool(np.all(np.abs(tilde.beta[1:]) < 1e-12))
            ok = ok and bool(np.all(np.abs(tilde.gamma[1:] - gamma) < 1e-12))
            ok = ok and abs(tilde.beta[0] + a1) < 1e-12
    _criterion(
        7,
        ok and worst_q1 < 1e-12,
        f"Q_1 - (P_1 + a_1 P_0) coefficient norm {worst_q1:.2e} (tol 1e-12) "
        "and the tilde recurrence is again constant",
    )


def test_criterion_8_deterministic_reports(tmp_path):
    """Identical configs produce byte-identical JSON reports."""
    payload = {
        "family": {"type": "chebyshev", "kind": 1},
        "combination": {"k": 2, "a": ["0", "-0.125"]},
        "horizon": 24,
        "n": 6,
    }
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(payload))
    identical = True
    for command in ("check", "quad", "hk"):
        out_a = tmp_path / f"{command}_a.json"
        out_b = tmp_path / f"{command}_b.json"
        assert cli_main([command, "--config", str(cfg), "--out", str(out_a)]) == 0
        assert cli_main([command, "--config", str(cfg), "--out", str(out_b)]) == 0
        identical = identical and out_a.read_bytes() == out_b.read_bytes()
    _criterion(8, identical, "check/quad/hk reports byte-identical across runs")
