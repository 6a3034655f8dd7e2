import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import opoly as op
from opoly import lincomb
from opoly.cli import load_config

from conftest import (
    HAT_ROUTE_CONFIGS,
    balanced_matrix_diag_sums,
    chebyshev_corpus,
    generated_k1,
    hat_jacobi_diag_sums,
    inner,
    intertwining_residual,
    jacobi_truncation_diag_sums,
    k2_case_fixture,
    k3_matching_families,
    perturbation_L_dense,
    symmetric_jacobi_diag_sums,
    trig_square_in_x,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import golden  # noqa: E402


def char_poly_low_to_high(A: np.ndarray) -> np.ndarray:
    """Monic characteristic polynomial coefficients, low degree first."""
    return np.poly(A)[::-1]


def reference_matrix(rec, comb, m):
    """``(J_P)_m - L_m`` from the ``np.diag`` reference builders."""
    return jacobi_truncation_diag_sums(rec, m) - perturbation_L_dense(comb, m)


def off_hat_route(monkeypatch):
    """Make every ``zeros_q`` call take the balanced ``eigvals`` route: no
    ``J^_m`` for ``k <= 2``."""
    monkeypatch.setattr(op.jacobi, "_hat_jacobi", lambda *args: None)


def eigvals_matrix(monkeypatch, rec, comb, m):
    """The matrix that ``zeros_q``'s balanced route hands to ``np.linalg.eigvals``."""
    seen = []
    eigvals = np.linalg.eigvals

    def recording(A):
        seen.append(A.copy())
        return eigvals(A)

    with monkeypatch.context() as patch:
        off_hat_route(patch)
        patch.setattr(np.linalg, "eigvals", recording)
        try:
            op.zeros_q(rec, comb, m)
        except op.NumericError:  # the matrix was built and seen all the same
            pass
    (A,) = seen
    return A


class TestJacobiTruncation:
    def test_one_by_one(self):
        rec = op.RecurrencePair([0.3, 0.0, 0.0], [0.25, 0.25])
        J = jacobi_truncation_diag_sums(rec, 1)
        assert J == pytest.approx(np.array([[0.3]]))

    def test_second_kind_two_by_two(self, cheb_u):
        J = jacobi_truncation_diag_sums(cheb_u, 2)
        assert J == pytest.approx(np.array([[0.0, 1.0], [0.25, 0.0]]))
        assert char_poly_low_to_high(J) == pytest.approx(
            np.array(op.poly_p(cheb_u, 2).coeffs)
        )

    @pytest.mark.parametrize("kind", [1, 2, 3, 4])
    @pytest.mark.parametrize("m", [3, 6, 10])
    def test_char_poly_is_p_m(self, kind, m):
        rec = op.chebyshev_family(kind, 12)
        J = jacobi_truncation_diag_sums(rec, m)
        assert np.allclose(
            char_poly_low_to_high(J), np.array(op.poly_p(rec, m).coeffs), atol=1e-9
        )

    def test_horizon_guard(self, cheb_u):
        # zeros_q reads the truncation up to m = horizon + 1 and refuses past it
        comb = op.CombCoeffs((0.5,))
        assert op.zeros_q(cheb_u, comb, cheb_u.horizon + 1).zeros.size == cheb_u.horizon + 1
        with pytest.raises(op.HorizonError):
            op.zeros_q(cheb_u, comb, cheb_u.horizon + 2)

    @pytest.mark.parametrize("family", ["chebyshev", "k2", "signed_zero_betas"])
    def test_builders_equal_diag_sums_bit_for_bit(self, family, monkeypatch):
        if family == "chebyshev":
            rec = op.chebyshev_family(1, 64)
        elif family == "k2":
            rec = k2_case_fixture("real_roots", 64)[3]
        else:  # a diagonal sum turns -0.0 into 0.0, and so must the builders
            rec = op.RecurrencePair([-0.0, 0.1] * 32 + [-0.0], [0.25] * 64)
        for m in range(1, 66):
            got, ref = op.jacobi._symmetric_jacobi(rec, m), symmetric_jacobi_diag_sums(rec, m)
            assert got.dtype == np.float64 and got.shape == (m, m), m
            assert got.flags.c_contiguous and got.flags.writeable, m
            assert got.tobytes() == ref.tobytes(), m
        # J^_m, built in place, is the reference J^_m bit for bit
        for comb in (op.CombCoeffs((0.5,)), op.CombCoeffs((0.0, -0.125))):
            for m in range(comb.k + 1, rec.horizon + 2):
                ref = hat_jacobi_diag_sums(rec, comb, m)
                assert op.jacobi._hat_jacobi(rec, comb, m).tobytes() == ref.tobytes(), (comb, m)
        # zeros_q's balanced eigvals matrix, built in place, is the reference
        # bit for bit, and so are its sorted zeros or its refusal
        off_hat_route(monkeypatch)
        for comb in (op.CombCoeffs((0.5,)), op.CombCoeffs((0.0, -0.125)), K3):
            for m in range(comb.k + 1, rec.horizon + 2):
                ref = balanced_matrix_diag_sums(rec, comb, m)
                got = eigvals_matrix(monkeypatch, rec, comb, m)
                assert got.dtype == np.float64 and got.shape == (m, m), (comb, m)
                assert got.tobytes() == ref.tobytes(), (comb, m)
                try:
                    want = _reference_zeros(rec, comb, m)
                except op.OpolyError as exc:
                    with pytest.raises(type(exc)):
                        op.zeros_q(rec, comb, m)
                    continue
                assert op.zeros_q(rec, comb, m).zeros.tobytes() == want.tobytes(), (comb, m)


class TestChangeBasis:
    def test_band_rows(self, cheb_u):
        comb = op.CombCoeffs((0.7,))
        report = op.check_conditions(cheb_u, comb, 10)
        M = op.change_basis_matrix(comb, report, 3)
        assert M[2] == pytest.approx(np.array([0.0, 0.7, 1.0]))
        assert M[0] == pytest.approx(np.array([1.0, 0.0, 0.0]))

    def test_fourier_row(self, cheb_t):
        comb = op.CombCoeffs((0.0, -0.125))
        report = op.check_conditions(cheb_t, comb, 10)
        M = op.change_basis_matrix(comb, report, 4)
        assert M[2] == pytest.approx(np.array([-0.25, 0.0, 1.0, 0.0]))

    def test_requires_passing_report(self, cheb_u):
        comb = op.CombCoeffs((1.0, 0.25))
        report = op.check_conditions(cheb_u, comb, 10)
        with pytest.raises(op.StateError):
            op.change_basis_matrix(comb, report, 4)


class TestPerturbation:
    def test_canonical_two_by_two(self, cheb_u, monkeypatch):
        # spec'd by behaviour: (J_P)_2 - L_2 = [[0, 1], [1/4, -1/2]], balanced
        # by D = diag(1, 1/2)
        A = eigvals_matrix(monkeypatch, cheb_u, op.CombCoeffs((0.5,)), 2)
        assert A == pytest.approx(np.array([[0.0, 0.5], [0.5, -0.5]]))

    def test_only_last_row(self, cheb_u, monkeypatch):
        comb = op.CombCoeffs((0.3, -0.2))
        off = np.full(4, 0.5)  # sqrt(gamma_n) on both sides
        J = np.diag(off, 1) + np.diag(off, -1)
        L = J - eigvals_matrix(monkeypatch, cheb_u, comb, 5)
        assert np.all(L[:4] == 0.0)
        # a_2 over sqrt(gamma_4)
        assert L[4] == pytest.approx(np.array([0.0, 0.0, 0.0, -0.4, 0.3]))

    def test_char_poly_of_perturbed_truncation_is_q(self, cheb_t):
        comb = op.CombCoeffs((0.0, -0.125))
        for m in (3, 5, 7):
            A = reference_matrix(cheb_t, comb, m)
            q = op.q_poly(cheb_t, comb, m)
            assert np.allclose(char_poly_low_to_high(A), np.array(q.coeffs), atol=1e-9)

    def test_size_guard(self, cheb_u):
        # Q_m needs m >= k + 1
        comb = op.CombCoeffs((0.1, 0.2))
        assert op.zeros_q(cheb_u, comb, 3).zeros.size == 3
        with pytest.raises(ValueError, match="at least k \\+ 1 = 3"):
            op.zeros_q(cheb_u, comb, 2)

    def test_horizon_k_has_no_completion(self):
        # m = k + 1 = horizon + 1: no gamma_{k+1}, so no completion for k = 3;
        # the balanced eigvals route reads none and finds the zeros
        rec, comb = op.RecurrencePair([0.0] * 4, [0.25] * 3), op.CombCoeffs((0.1, 0.2, 0.3))
        assert op.jacobi._hat_jacobi(rec, comb, 4) is None
        zq = op.zeros_q(rec, comb, 4)
        assert zq.zeros.tobytes() == _eigvals_route(rec, comb, 4).tobytes()
        # k = 2 at m = k + 1 = horizon + 1 takes J^_3, which needs no completion
        rec, comb = op.RecurrencePair([0.0] * 3, [0.25] * 2), op.CombCoeffs((0.1, 0.2))
        zq = op.zeros_q(rec, comb, 3)
        assert zq.zeros.tobytes() == _hat_eigenvalues(rec, comb, 3).astype(complex).tobytes()

    def test_completion_past_the_float_range_is_never_read(self, monkeypatch):
        # the k = 3 determination denominator gamma_4 + a_1 (beta_3 - beta_4) is 2e308
        rec = op.RecurrencePair([0.0] * 3 + [1e308, -1e308] + [0.0] * 5, [0.25] * 9)
        comb = op.CombCoeffs((1.0, 0.1, 0.1))
        with pytest.raises(op.NumericError):
            op.check_conditions(rec, comb, 9)
        monkeypatch.setattr(lincomb, "_complete_low", _refuse)
        # the balanced route's Newton steps overflow, which refuses the zeros
        # without a numpy warning on stderr; so do J^'s for k = 1 on the same data
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(op.NumericError, match="multiset distance inf"):
                op.zeros_q(rec, comb, 6)
            assert op.jacobi._hat_jacobi(rec, op.CombCoeffs((1.0,)), 6) is not None
            with pytest.raises(op.NumericError, match="multiset distance inf"):
                op.zeros_q(rec, op.CombCoeffs((1.0,)), 6)


class TestZeros:
    def test_second_kind_quadratic(self, cheb_u):
        z = op.zeros_q(cheb_u, op.CombCoeffs((0.5,)), 2).zeros
        expect = np.array([(-1 - math.sqrt(5)) / 4, (-1 + math.sqrt(5)) / 4])
        assert np.allclose(z.real, expect, atol=1e-12)
        assert np.allclose(z.imag, 0.0, atol=1e-12)

    def test_first_kind_biquadratic(self, cheb_t):
        z = op.zeros_q(cheb_t, op.CombCoeffs((0.0, -0.125)), 4).zeros
        r_big = math.sqrt((9 + math.sqrt(33)) / 16)
        r_small = math.sqrt((9 - math.sqrt(33)) / 16)
        expect = np.array(sorted([-r_big, -r_small, r_small, r_big]))
        assert np.allclose(z.real, expect, atol=1e-10)

    @pytest.mark.parametrize("m", [4, 8, 12])
    def test_eigenvalues_match_companion_roots(self, cheb_t, m):
        comb = op.CombCoeffs((0.0, -0.125))
        eigs = np.linalg.eigvals(reference_matrix(cheb_t, comb, m))
        q = op.q_poly(cheb_t, comb, m)
        roots = np.roots(np.array(q.coeffs)[::-1])
        assert op.multiset_distance(eigs, roots) < 1e-8

    def test_one_moved_eigenvalue_is_caught(self, cheb_t, monkeypatch):
        off_hat_route(monkeypatch)
        eigvals = np.linalg.eigvals

        def moved(A):
            out = eigvals(A).astype(complex)
            out[3] += 1e-6
            return out

        for comb in (op.CombCoeffs((0.0, -0.125)), K3):
            assert op.zeros_q(cheb_t, comb, 20).cross_check_distance < 1e-13
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "eigvals", moved)
                with pytest.raises(op.NumericError, match="cross-check mismatch"):
                    op.zeros_q(cheb_t, comb, 20)

    def test_trace_similarity_invariance(self, cheb_u):
        comb = op.CombCoeffs((0.5,))
        report = op.check_conditions(cheb_u, comb, 12)
        m = 8
        A = reference_matrix(cheb_u, comb, m)
        M = op.change_basis_matrix(comb, report, m)
        similar = M @ A @ np.linalg.inv(M)
        assert np.trace(A) == pytest.approx(np.trace(similar), abs=1e-10)


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
EPS = np.finfo(float).eps
#: A ``k = 3`` combination whose verdict holds on all four Chebyshev kinds.
K3 = op.CombCoeffs((0.3, 0.2, 0.1))


def _bundled(name):
    cfg = load_config(str(CONFIG_DIR / name))
    return cfg.rec, cfg.comb


def _negative_tail():
    """``tools/golden.py``'s ``negative_tail``: a ``k1`` family whose tilde
    gammas turn negative at index 23."""
    family = golden.edge_configs()["negative_tail"]["family"]
    a1 = float(family["a1"])
    betas = (float(family[f"beta{i}"]) for i in range(3))
    rec = op.k1_family([float(g) for g in family["gammas"]], *betas, a1, 24)
    return rec, op.CombCoeffs((a1,))


def _loose(raise_by=1e-8):
    """Chebyshev T with ``gamma_10`` raised by ``raise_by`` and ``a = (0, -1/8)``.
    At ``1e-8`` its verdict passes at tolerance ``1e-5`` and fails at the
    fixed ``1e-10``; at ``1e-11`` it passes at ``1e-10`` too."""
    gamma = [0.5] + [0.25] * 8 + [0.25 + raise_by] + [0.25] * 14
    return op.RecurrencePair([0.0] * 25, gamma), op.CombCoeffs((0.0, -0.125))


def _loose_k3(raise_by):
    """:func:`_loose`'s family with ``a = (0.3, 0.2, 0.1)``: from ``1e-12`` to
    ``9e-11`` the verdict passes at its fixed ``1e-10``, but the eigenvalues of
    ``J~_20`` sit off the zeros of ``Q_20`` by more than ``64 eps``."""
    return _loose(raise_by)[0], K3


def _negative_tail_k3():
    """Chebyshev U with ``gamma_23 = gamma_24 = -1/4`` and ``a = (0.3, 0.2, 0.1)``:
    the tilde gammas above ``k + 1`` equal the gammas, so the first negative
    one is ``tilde gamma_23``."""
    return op.RecurrencePair([0.0] * 25, [0.25] * 22 + [-0.25] * 2), K3


def _route_report(rec, comb, m):
    """The verdict through index ``m - 1``: where it holds, the characteristic
    polynomial of ``J~_m`` is ``Q_m``."""
    return op.check_conditions(rec, comb, max(m - 1, comb.k + 2))


def _eigvals_route(rec, comb, m):
    """Eigenvalues of the reference balanced ``D^-1 ((J_P)_m - L_m) D``, sorted
    by real part, then imaginary part."""
    z = np.linalg.eigvals(balanced_matrix_diag_sums(rec, comb, m)).astype(complex)
    return z[np.lexsort((z.imag, z.real))]


def _reference_zeros(rec, comb, m, cross_tol=1e-8):
    """:func:`_eigvals_route`, refused as ``zeros_q`` refuses it: a Newton
    distance above ``cross_tol`` raises :class:`~opoly.errors.NumericError`."""
    z = _eigvals_route(rec, comb, m)
    if op.jacobi._newton_distance(rec, comb, z) > cross_tol:
        raise op.NumericError("eigenvalue/Newton cross-check mismatch")
    return z


def _assert_eigvals_route(monkeypatch, rec, comb, m):
    """``zeros_q`` returns the balanced ``eigvals`` route's zeros, bit for bit,
    as it does with the ``J^`` route switched off."""
    got = op.zeros_q(rec, comb, m)
    with monkeypatch.context() as patch:
        off_hat_route(patch)
        want = op.zeros_q(rec, comb, m)
    assert want.zeros.tobytes() == _eigvals_route(rec, comb, m).tobytes()
    assert got.zeros.tobytes() == want.zeros.tobytes()
    assert got.cross_check_distance == want.cross_check_distance


def _tilde_eigenvalues(rec, comb, report, m):
    """Eigenvalues of the symmetric tilde truncation, built here from the tilde
    recurrence, or None where the verdict fails or a tilde gamma below ``m``
    is not positive."""
    if not report.verdict:
        return None
    tilde = op.tilde_recurrence(rec, comb, max(m - 1, comb.k + 1), report=report)
    if min(tilde.gamma[1:m]) <= 0.0:
        return None
    off = np.sqrt(tilde.gamma[1:m])
    return np.linalg.eigvalsh(np.diag(tilde.beta[:m]) + np.diag(off, 1) + np.diag(off, -1))


def _hat_eigenvalues(rec, comb, m):
    """Eigenvalues of the reference ``J^_m``, or None where it is not real symmetric."""
    J = hat_jacobi_diag_sums(rec, comb, m)
    return None if J is None else np.linalg.eigvalsh(J)


def _route_cases():
    """Every bundled config at every ``m``, then a generated ``k1`` and
    ``k2_real_roots`` family at horizon 64, ``m = 3..63``."""
    for path in sorted(CONFIG_DIR.glob("*.json")):
        rec, comb = _bundled(path.name)
        yield path.name, rec, comb, range(comb.k + 1, rec.horizon + 2)
    yield "generated_k1", *generated_k1(64), range(3, 64)
    yield ("generated_k2_real_roots", k2_case_fixture("real_roots", 64)[3],
           op.CombCoeffs((1.0, 0.2)), range(3, 64))


def _tilde_route_cases():
    """The four Chebyshev kinds at horizon 30 with two ``k = 3`` combinations,
    at every ``m``, then :func:`_negative_tail_k3`."""
    for kind in (1, 2, 3, 4):
        rec = op.chebyshev_family(kind, 30)
        for a in (K3.a, (0.5, 0.1, 0.02)):
            yield f"kind{kind}/{a}", rec, op.CombCoeffs(a), range(4, 32)
    yield "negative_tail_k3", *_negative_tail_k3(), range(4, 26)


def _refuse(*args, **kwargs):
    raise AssertionError("zeros_q read the exact completion")


def _zeros(rec, comb, m):
    """``zeros_q`` with the exact completion refused: no route reads it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lincomb, "_complete_low", _refuse)
        return op.zeros_q(rec, comb, m)


def _assert_close(z, expect, label):
    """``|z - expect| <= 1e-14 max(1, |expect|)`` elementwise."""
    assert np.all(np.abs(z - expect) <= 1e-14 * np.maximum(1.0, np.abs(expect))), label


def _assert_newton_bound(zq, label):
    """The Newton distance is at most ``64 eps max(1, max|z|)``."""
    scale = max(1.0, float(np.max(np.abs(zq.zeros))))
    assert zq.cross_check_distance <= 64 * EPS * scale, label


class TestTildeRoute:
    """For ``k >= 3`` the zeros are the balanced ``eigvals`` route's.  Where the
    verdict holds through ``m - 1`` and ``tilde gamma_1..tilde gamma_{m-1} > 0``
    they agree with the eigenvalues of the symmetric tilde truncation, built
    here from the tilde recurrence, to ``1e-14 max(1, |z|)``; on every call
    their Newton distance is at most ``64 eps max(1, max|z|)``.  No call
    reads the verdict or the exact completion."""

    def test_route_agrees_with_eigvals(self):
        on_reference = set()
        for label, rec, comb, ms in _tilde_route_cases():
            for m in ms:
                zq = _zeros(rec, comb, m)
                assert zq.zeros.tobytes() == _eigvals_route(rec, comb, m).tobytes(), (label, m)
                _assert_newton_bound(zq, (label, m))
                expect = _tilde_eigenvalues(rec, comb, _route_report(rec, comb, m), m)
                if expect is not None:
                    on_reference.add(label)
                    _assert_close(zq.zeros, expect, (label, m))
        assert on_reference == {label for label, *_ in _tilde_route_cases()}

    @pytest.mark.parametrize("name", [
        "cheb4_k2_case_iv.json", "gen_k2_complex_roots.json", "gen_k2_equal_roots.json"])
    def test_off_route_is_the_eigvals_route(self, name, monkeypatch):
        # a_2 >= gamma_19, so J^_20 is not real symmetric, and a k = 2 call
        # takes the balanced eigvals route too
        rec, comb = _bundled(name)
        assert _hat_eigenvalues(rec, comb, 20) is None
        monkeypatch.setattr(lincomb, "_complete_low", _refuse)
        _assert_eigvals_route(monkeypatch, rec, comb, 20)
        _assert_newton_bound(op.zeros_q(rec, comb, 20), name)

    def test_negative_tail_crosses_its_first_negative_tilde_gamma(self):
        rec, comb = _negative_tail_k3()
        report = op.check_conditions(rec, comb, 22)
        assert report.verdict
        _assert_close(_zeros(rec, comb, 22).zeros, _tilde_eigenvalues(rec, comb, report, 22), 22)
        # m = 24 reads tilde gamma_23 < 0: no symmetric reference is left, and
        # the balanced matrix carries the sign of gamma_23 below its diagonal
        assert _tilde_eigenvalues(rec, comb, op.check_conditions(rec, comb, 23), 24) is None
        zq = _zeros(rec, comb, 24)
        assert zq.zeros.tobytes() == _eigvals_route(rec, comb, 24).tobytes()
        _assert_newton_bound(zq, 24)

    def test_loose_verdict_falls_back_to_eigvals(self):
        # gamma_10 raised by 1e-12 to 9e-11 passes the verdict at its fixed
        # 1e-10, but the tilde eigenvalues then sit off the zeros of Q_20 by
        # more than 64 eps; the balanced eigvals zeros do not
        m = 20
        for raise_by in (1e-12, 1e-11, 9e-11):
            rec, comb = _loose_k3(raise_by)
            report = op.check_conditions(rec, comb, m - 1)
            assert report.verdict
            tilde = _tilde_eigenvalues(rec, comb, report, m)
            assert op.jacobi._newton_distance(rec, comb, tilde) > 64 * EPS
            zq = _zeros(rec, comb, m)
            assert zq.zeros.tobytes() == _eigvals_route(rec, comb, m).tobytes()
            assert zq.cross_check_distance <= 64 * EPS

    def test_failed_verdict_keeps_the_tilde_zeros_that_pass_newton(self):
        # Chebyshev U with gamma_10 raised by 1e-10 fails its conditions at
        # n = 10, yet at m = 20 the eigenvalues of J~_20 pass the Newton check
        # at 64 eps, and the zeros, which read no verdict, agree with them
        gamma = [0.25] * 9 + [0.25 + 1e-10] + [0.25] * 20
        rec, comb, m = op.RecurrencePair([0.0] * 31, gamma), K3, 20
        k, a1 = comb.k, comb.a[0]
        assert not _route_report(rec, comb, m).verdict
        # the tilde recurrence below k + 3 from a verdict that holds there,
        # the closed formulas above it
        low = op.tilde_recurrence(rec, comb, k + 2, report=_route_report(rec, comb, k + 3))
        beta = list(low.betas) + list(rec.betas[k + 3:m])
        gamma = list(low.gammas[1:]) + [rec.gammas[n] + a1 * (rec.betas[n - 1] - rec.betas[n])
                                        for n in range(k + 3, m)]
        off = np.sqrt(gamma)
        expect = np.linalg.eigvalsh(np.diag(beta) + np.diag(off, 1) + np.diag(off, -1))
        assert op.jacobi._newton_distance(rec, comb, expect) <= 64 * EPS
        zq = _zeros(rec, comb, m)
        assert zq.zeros.tobytes() == _eigvals_route(rec, comb, m).tobytes()
        assert np.all(zq.zeros.imag == 0.0)
        _assert_close(zq.zeros, expect, m)
        _assert_newton_bound(zq, m)


#: The sizes at which the ``k = 3`` matching families are checked.
K3_SIZES = (5, 10, 20, 40, 63)


def test_k3_matching_families_pass_newton():
    # the verdict holds, every zeros_q call passes Newton at 64 eps, and where
    # v is positive definite below m the zeros agree with J~_m's eigenvalues
    on_reference = complex_cases = 0
    for i, (rec, comb) in enumerate(k3_matching_families()):
        report = op.check_conditions(rec, comb, rec.horizon)
        assert report.verdict, (i, report.failures)
        for m in K3_SIZES:
            zq = _zeros(rec, comb, m)
            _assert_newton_bound(zq, (i, m))
            complex_cases += bool(zq.zeros.imag.any())
            expect = _tilde_eigenvalues(rec, comb, report, m)
            if expect is not None:
                on_reference += 1
                _assert_close(zq.zeros, expect, (i, m))
    assert on_reference and complex_cases


def _sorted(z):
    """``z`` sorted by real part, then imaginary part, as ``zeros_q`` sorts."""
    return z[np.lexsort((z.imag, z.real))]


@pytest.mark.parametrize("s", [2.0, -1.0, 0.125, 16.0, 1 / 1024])
def test_k3_zeros_are_covariant_under_scaling(s):
    # x -> s x maps beta -> s beta, gamma -> s^2 gamma and a_j -> s^j a_j,
    # and the zeros, complex ones included, to s z: on the Chebyshev cases of
    # TestTildeRoute and on the matching families
    cases = [(label, rec, comb, (5, 10, 20, ms[-1])) for label, rec, comb, ms in _tilde_route_cases()]
    cases += [(i, rec, comb, K3_SIZES) for i, (rec, comb) in enumerate(k3_matching_families())]
    for label, rec, comb, sizes in cases:
        scaled = op.RecurrencePair(s * rec.beta, s * s * rec.gamma[1:])
        scaled_comb = op.CombCoeffs([s**j * a for j, a in enumerate(comb.a, start=1)])
        for m in sizes:
            z = op.zeros_q(rec, comb, m).zeros
            back = _sorted(op.zeros_q(scaled, scaled_comb, m).zeros / s)
            _assert_close(back, z, (label, m))


class TestHatRoute:
    """For ``k <= 2``, where ``gamma_1..gamma_{m-2} > 0`` and
    ``gamma_{m-1} > a_2``, ``zeros_q`` takes the eigenvalues of ``J^_m`` and
    refuses them when their Newton distance exceeds ``_NEWTON_TOL``; every
    other ``k <= 2`` call runs the balanced ``eigvals`` route.  Neither reads
    the verdict, the completion or the tilde data."""

    def test_route_agrees_with_hat_eigenvalues(self, monkeypatch):
        monkeypatch.setattr(lincomb, "_complete_low", _refuse)
        on_route = set()
        for label, rec, comb, ms in _route_cases():
            for m in ms:
                expect = _hat_eigenvalues(rec, comb, m)
                if expect is None:
                    try:
                        want = _reference_zeros(rec, comb, m)
                    except op.NumericError:
                        with pytest.raises(op.NumericError):
                            op.zeros_q(rec, comb, m)
                        continue
                    assert op.zeros_q(rec, comb, m).zeros.tobytes() == want.tobytes()
                    continue
                on_route.add(label)
                zq = op.zeros_q(rec, comb, m)
                assert zq.zeros.tobytes() == expect.astype(complex).tobytes(), (label, m)
                z = _eigvals_route(rec, comb, m)
                assert np.all(np.abs(zq.zeros - z) <= 1e-12 * np.maximum(1.0, np.abs(z)))
                scale = max(1.0, float(np.max(np.abs(expect))))
                assert zq.cross_check_distance <= 64 * EPS * scale, (label, m)
        # gen_k2_equal_roots joins the route at m = 27, where gamma_26 passes a_2
        assert on_route == HAT_ROUTE_CONFIGS | {
            "gen_k2_equal_roots.json", "generated_k1", "generated_k2_real_roots"}

    @pytest.mark.parametrize("kind,a", [(1, (0.0, -0.125)), (2, (0.5,)), (4, (1.0, 0.2))])
    def test_characteristic_polynomial_is_q(self, kind, a):
        rec, comb = op.chebyshev_family(kind, 12), op.CombCoeffs(a)
        for m in (3, 6, 10):
            got = char_poly_low_to_high(op.jacobi._hat_jacobi(rec, comb, m))
            assert np.allclose(got, np.array(op.q_poly(rec, comb, m).coeffs), atol=1e-12)

    def test_a_moved_hat_eigenvalue_is_refused(self, cheb_t, monkeypatch):
        comb = op.CombCoeffs((0.0, -0.125))
        assert op.zeros_q(cheb_t, comb, 20).cross_check_distance < 1e-13
        eigvalsh = np.linalg.eigvalsh

        def moved(A):
            out = eigvalsh(A)
            out[3] += 1e-6
            return out

        monkeypatch.setattr(np.linalg, "eigvalsh", moved)
        with pytest.raises(op.NumericError, match="cross-check mismatch"):
            op.zeros_q(cheb_t, comb, 20)

    def test_loose_family_keeps_the_hat_zeros(self, monkeypatch):
        # J^_20 reads beta and gamma alone: a raised gamma_10 moves it, and its
        # eigenvalues stay on the zeros of Q_20 at rounding level, whatever
        # the verdict says
        monkeypatch.setattr(lincomb, "_complete_low", _refuse)
        for raise_by in (1e-12, 9e-11, 1e-8):
            rec, comb = _loose(raise_by)
            expect = _hat_eigenvalues(rec, comb, 20)
            zq = op.zeros_q(rec, comb, 20)
            assert zq.zeros.tobytes() == expect.astype(complex).tobytes()
            assert zq.cross_check_distance <= 64 * EPS

    def test_negative_tail_leaves_the_route_at_its_first_negative_gamma(self, monkeypatch):
        rec, comb = _negative_tail()  # gamma_22..gamma_24 = -1/4
        assert op.zeros_q(rec, comb, 22).zeros.tobytes() == (
            _hat_eigenvalues(rec, comb, 22).astype(complex).tobytes())
        for m in (23, 24):
            assert op.jacobi._hat_jacobi(rec, comb, m) is None
            _assert_eigvals_route(monkeypatch, rec, comb, m)


def _newton_step_reference(rec, comb, z):
    """``z - Q_m(z) / Q_m'(z)`` from a walk that allocates its rows at every
    step: the bit-level reference for ``opoly.jacobi._newton_step``."""
    m, k, coef = z.size, comb.k, (1.0,) + comb.a
    with np.errstate(all="ignore"):
        shifted = z - rec.beta[:m, None]
        prev = np.array([np.ones_like(z), np.zeros_like(z)])
        cur = np.array([shifted[0], np.ones_like(z)])
        q = coef[m - 1] * cur if m - 1 <= k else 0.0
        for j in range(1, m):
            nxt = shifted[j] * cur
            nxt -= rec.gamma[j] * prev
            nxt[1] += cur[0]
            prev, cur = cur, nxt
            if m - 1 - j <= k:
                q = q + coef[m - 1 - j] * cur
        return z - q[0] / q[1]


def test_newton_step_matches_the_allocating_walk():
    # real zeros (the symmetric routes), complex ones (eigvals), and steps
    # that overflow: the preallocated rows give the same bits
    cases = [(label, rec, comb, m) for label, rec, comb, ms in _route_cases() for m in ms]
    cases.append(("overflow", op.RecurrencePair([0.0, 1e308, -1e308] + [0.0] * 5, [0.25] * 7),
                  op.CombCoeffs((1.0,)), 4))
    for label, rec, comb, m in cases:
        real = np.linalg.eigvalsh(op.jacobi._symmetric_jacobi(rec, m)) if np.all(
            rec.gamma[1:m] > 0) else np.linspace(-1.0, 1.0, m)
        for z in (real, _eigvals_route(rec, comb, m)):
            got, want = op.jacobi._newton_step(rec, comb, z), _newton_step_reference(rec, comb, z)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (label, m)


def test_norm_diagonal(cheb_t):
    assert op.norm_diagonal(cheb_t, 1) == pytest.approx(np.array([1.0]))
    assert op.norm_diagonal(cheb_t, 3) == pytest.approx(np.array([1.0, 0.5, 0.125]))
    mu = op.moments_from_recurrence(cheb_t, 20)
    D = op.norm_diagonal(cheb_t, 9)
    for n in range(9):
        p = op.poly_p(cheb_t, n)
        assert inner(mu, p, p) == pytest.approx(D[n], rel=1e-10)


class TestIntertwining:
    @pytest.mark.parametrize(
        "kind,a,m",
        [(1, (0.0, -0.125), 10), (2, (0.5,), 8), (3, (0.4,), 12)],
    )
    def test_exact_identity(self, kind, a, m):
        rec = op.chebyshev_family(kind, 20)
        comb = op.CombCoeffs(a)
        report = op.check_conditions(rec, comb, 18)
        assert intertwining_residual(rec, comb, report, m) < 1e-12

    def test_perturbation_shows_up_linearly(self, cheb_u):
        comb = op.CombCoeffs((0.5,))
        report = op.check_conditions(cheb_u, comb, 18)
        m = 10
        eps = 1e-6
        beta = cheb_u.beta.copy()
        beta[5] += eps
        perturbed = op.RecurrencePair(beta, cheb_u.gamma[1:].copy())
        M = op.change_basis_matrix(comb, report, m)
        JP = jacobi_truncation_diag_sums(perturbed, m)
        tilde = op.tilde_recurrence(cheb_u, comb, m - 1, report=report)
        JQ = jacobi_truncation_diag_sums(tilde, m)
        resid = np.max(np.abs((M @ JP - JQ @ M)[: m - comb.k - 1]))
        assert resid == pytest.approx(eps, rel=1e-6)


class TestHk:
    def test_second_kind_k1_proportional_to_one_plus_x(self, cheb_u):
        comb = op.CombCoeffs((0.5,))
        report = op.check_conditions(cheb_u, comb, 25)
        hk = op.solve_hk(cheb_u, comb, report)
        assert op.verify_functional_relation(cheb_u, comb, report, hk.poly).max_residual < 1e-9
        c0, c1 = hk.poly.coeffs
        assert c1 / c0 == pytest.approx(1.0, rel=1e-9)
        assert hk.scale == pytest.approx(1.0, rel=1e-9)

    def test_relation_and_positivity_first_kind_k2(self, cheb_t):
        comb = op.CombCoeffs((0.0, -0.125))
        report = op.check_conditions(cheb_t, comb, 25)
        hk = op.solve_hk(cheb_t, comb, report)
        rel = op.verify_functional_relation(cheb_t, comb, report, hk.poly)
        assert rel.ok
        assert rel.max_residual < 1e-9
        grid = np.linspace(-0.99, 0.99, 100)
        assert np.all(hk.poly(grid) > 0.0)

    def test_relation_trivial_identity(self, cheb_u):
        # U_n + U_{n-1}/2 is orthogonal for sqrt((1-x)/(1+x)), so h = 2(1 + x)
        # exactly, and every modified moment is a dyadic rational
        comb = op.CombCoeffs((0.5,))
        report = op.check_conditions(cheb_u, comb, 25)
        rel = op.verify_functional_relation(cheb_u, comb, report, op.Poly((2.0, 2.0)))
        assert rel.ok
        assert rel.scale == 1.0
        assert rel.max_residual == 0.0

    def test_relation_rejects_perturbed_h(self, cheb_u):
        comb = op.CombCoeffs((0.5,))
        report = op.check_conditions(cheb_u, comb, 25)
        hk = op.solve_hk(cheb_u, comb, report)
        bad = hk.poly + op.Poly((1e-3,))
        rel = op.verify_functional_relation(cheb_u, comb, report, bad)
        assert not rel.ok

    def test_relation_refuses_bad_inputs(self, cheb_u):
        comb = op.CombCoeffs((0.5,))
        report = op.check_conditions(cheb_u, comb, 25)
        beta = cheb_u.beta.copy()
        beta[5] = 0.1
        failed = op.check_conditions(op.RecurrencePair(beta, cheb_u.gamma[1:]), comb, 25)
        assert not failed.verdict
        with pytest.raises(op.StateError):
            op.verify_functional_relation(cheb_u, comb, failed, op.Poly((2.0, 2.0)))
        with pytest.raises(op.StateError):
            op.solve_hk(cheb_u, comb, failed)
        with pytest.raises(op.DegeneracyError):
            op.verify_functional_relation(cheb_u, comb, report, op.Poly((0.0,)))
        with pytest.raises(op.HorizonError):
            op.verify_functional_relation(cheb_u, comb, report, op.Poly((1.0,) * 31))

    def test_inconsistent_inputs_raise(self, cheb_u):
        # a clean report paired with a different recurrence gives an h_k that
        # fails both the relation on the modified moments and the orthonormal identity
        comb = op.CombCoeffs((0.5,))
        report = op.check_conditions(cheb_u, comb, 25)
        beta = cheb_u.beta.copy()
        beta[3] += 0.05
        other = op.RecurrencePair(beta, cheb_u.gamma[1:].copy())
        hk = op.solve_hk(other, comb, report)
        rel = op.verify_functional_relation(other, comb, report, hk.poly)
        assert not rel.ok
        assert rel.max_residual > 1e-2
        orth = op.orthonormal_identity_check(other, comb, report, 12)
        assert not orth.ok
        assert orth.residual > 1e-1

    def test_non_finite_system_raises(self):
        # gen_k2_real_roots with D = 1e200: the verdict passes, but the norm
        # product v(Q_2^2) overflows to inf, which zeroes the leading coefficient
        params = op.K2Params(op.K2Case.REAL_ROOTS, beta0=0.0, beta1=0.05, gamma1=0.3,
                             A=0.0, B=0.2, D=1e200, E=0.055278640450004204)
        rec = op.k2_family(1.0, 0.2, params, 50)
        comb = op.CombCoeffs((1.0, 0.2))
        report = op.check_conditions(rec, comb, 50)
        assert report.verdict
        with np.errstate(all="raise"), pytest.raises(
            op.NumericError, match="not a finite degree-2 polynomial"
        ):
            op.solve_hk(rec, comb, report)

    def test_equation_route_equivalence(self, cheb_t):
        # h(J_Q) agrees with M D_P M^T D_Q^{-1} and with M h(J_P) M^{-1}
        comb = op.CombCoeffs((0.0, -0.125))
        k = comb.k
        report = op.check_conditions(cheb_t, comb, 28)
        m = 12
        hk = op.solve_hk(cheb_t, comb, report)
        mm = m + 3 * k
        tilde = op.tilde_recurrence(cheb_t, comb, mm - 1, report=report)
        M = op.change_basis_matrix(comb, report, mm)
        JP = jacobi_truncation_diag_sums(cheb_t, mm)
        JQ = jacobi_truncation_diag_sums(tilde, mm)
        DP = op.norm_diagonal(cheb_t, mm)
        DQ = op.norm_diagonal(tilde, mm)

        def poly_of(mat):
            out = np.zeros_like(mat)
            power = np.eye(mat.shape[0])
            for c in hk.poly.coeffs:
                out += c * power
                power = power @ mat
            return out

        h_jq = poly_of(JQ)
        route_a = (M * DP[None, :]) @ (M.T / DQ[None, :])
        route_b = M @ poly_of(JP) @ np.linalg.inv(M)
        cut = m - k - 1
        assert np.max(np.abs((h_jq - route_a)[:cut, :cut])) < 1e-9
        assert np.max(np.abs((h_jq - route_b)[:cut, :cut])) < 1e-9


@pytest.mark.parametrize("a", [(0.5,), (0.0, -0.125), (0.3, 0.2, 0.1)])
def test_hk_matches_trig_square_closed_form(a):
    # for second-kind input the connecting polynomial has a classical closed
    # form (a squared trigonometric modulus in x = cos theta); the expansion
    # in the Q_j must reproduce it up to scale, through k = 3
    rec = op.chebyshev_family(2, 30)
    comb = op.CombCoeffs(a)
    report = op.check_conditions(rec, comb, 24)
    assert report.verdict
    hk = op.solve_hk(rec, comb, report)
    ref = trig_square_in_x(a)
    got = np.array(hk.poly.coeffs)
    ratio = got[-1] / ref[-1]
    assert np.allclose(got, ref * ratio, atol=1e-9)


def test_hk_pipeline_on_indefinite_family():
    # quasi-definite but not positive-definite: the constant equal-root
    # family with gamma1 = 1/4 has tilde gamma_1 = -3/4.  The functional
    # relation still holds, and h_2 is the same squared-modulus polynomial
    # as in the definite case but with a negative scale (the shifted
    # generator has a root inside the unit disk)
    params = op.K2Params(
        op.K2Case.EQUAL_ROOTS, beta0=0.0, beta1=0.0, gamma1=0.25, A=0.0, D=0.25
    )
    rec = op.k2_family(2.0, 1.0, params, 30)
    comb = op.CombCoeffs((2.0, 1.0))
    report = op.check_conditions(rec, comb, 24)
    assert report.verdict
    tilde = op.tilde_recurrence(rec, comb, 24, report=report)
    assert tilde.gamma[1] == pytest.approx(-0.75)
    hk = op.solve_hk(rec, comb, report)
    ref = trig_square_in_x(comb.a)  # (25, 40, 16) = (4x + 5)^2
    got = np.array(hk.poly.coeffs)
    ratio = got[-1] / ref[-1]
    assert ratio < 0
    assert np.allclose(got, ref * ratio, atol=1e-9)
    rel = op.verify_functional_relation(rec, comb, report, hk.poly)
    assert rel.ok
    assert rel.max_residual < 1e-9


def test_hk_relation_on_generated_k1_family():
    # non-classical input: a k=1 family with genuinely varying gammas
    gammas = [0.3, 0.26, 0.27, 0.25, 0.28] + [0.25] * 25
    rec = op.k1_family(gammas, 0.1, -0.05, 0.02, 0.6, 30)
    comb = op.CombCoeffs((0.6,))
    report = op.check_conditions(rec, comb, 24)
    assert report.verdict
    hk = op.solve_hk(rec, comb, report)
    rel = op.verify_functional_relation(rec, comb, report, hk.poly)
    assert rel.ok
    assert rel.max_residual < 1e-9


@pytest.mark.parametrize(
    "label,rec,comb", chebyshev_corpus(), ids=lambda v: v if isinstance(v, str) else ""
)
def test_hk_relation_holds_across_corpus(label, rec, comb):
    # every combination that passes the condition check admits a consistent
    # functional relation u = h_k v
    report = op.check_conditions(rec, comb, 24)
    assert report.verdict, label
    hk = op.solve_hk(rec, comb, report)
    rel = op.verify_functional_relation(rec, comb, report, hk.poly)
    assert rel.ok, label


ORTHOGONAL_CONFIGS = sorted(
    p for p in CONFIG_DIR.glob("*.json") if not p.name.startswith("broken")
)


@pytest.mark.parametrize("path", ORTHOGONAL_CONFIGS, ids=lambda p: p.name)
def test_relation_rejects_relative_change_of_c0(path):
    # h_k passes and a 1e-6 relative change of c_0 fails, at the library
    # defaults that `opoly hk` uses
    cfg = load_config(str(path))
    report = op.check_conditions(cfg.rec, cfg.comb, cfg.rec.horizon)
    assert report.verdict
    hk = op.solve_hk(cfg.rec, cfg.comb, report)
    assert op.verify_functional_relation(cfg.rec, cfg.comb, report, hk.poly).ok
    c = hk.poly.coeffs
    bad = op.Poly((c[0] * (1 + 1e-6),) + c[1:])
    rel = op.verify_functional_relation(cfg.rec, cfg.comb, report, bad)
    assert rel.ok is False
    assert rel.max_residual > 1e-8


class TestOrthonormalIdentity:
    @pytest.mark.parametrize("kind,a", [(1, (0.0, -0.125)), (2, (0.5,))])
    def test_passes_for_positive_definite(self, kind, a):
        rec = op.chebyshev_family(kind, 25)
        comb = op.CombCoeffs(a)
        report = op.check_conditions(rec, comb, 22)
        result = op.orthonormal_identity_check(rec, comb, report, 12)
        assert result.ok
        assert result.residual < 1e-10

    def test_rejects_indefinite_family(self):
        # constant equal-root family with gamma1 = 1/4 has tilde gamma_1 < 0
        params = op.K2Params(
            op.K2Case.EQUAL_ROOTS, beta0=0.0, beta1=0.0, gamma1=0.25, A=0.0, D=0.25
        )
        rec = op.k2_family(2.0, 1.0, params, 25)
        comb = op.CombCoeffs((2.0, 1.0))
        report = op.check_conditions(rec, comb, 22)
        assert report.verdict
        with pytest.raises(op.InapplicableError, match="tilde gamma_n > 0"):
            op.orthonormal_identity_check(rec, comb, report, 12)

    def test_fails_where_the_relation_passes(self, monkeypatch):
        # on the loose family the relation (~3.5e-9) passes at 1e-8, but the
        # identity at `opoly hk`'s truncation 16 (~2.7e-8) passes only at 1e-5
        rec, comb = _loose()
        assert not op.check_conditions(rec, comb, 24).verdict
        with monkeypatch.context() as patch:  # the verdict alone at 1e-5
            patch.setattr(lincomb, "_CONDITIONS_TOL", 1e-5)
            report = op.check_conditions(rec, comb, 24)
        hk = op.solve_hk(rec, comb, report)
        assert op.verify_functional_relation(rec, comb, report, hk.poly).ok
        result = op.orthonormal_identity_check(rec, comb, report, 16)
        assert result.ok is False
        assert 1e-8 < result.residual <= 1e-5


def test_multiset_distance():
    a = np.array([1.0 + 0j, 2.0 + 0j])
    b = np.array([2.0 + 1e-12j, 1.0 + 0j])
    assert op.multiset_distance(a, b) < 1e-11
    with pytest.raises(ValueError):
        op.multiset_distance(a, np.array([1.0 + 0j]))


def _greedy_distance_reference(a, b) -> float:
    """The original Python greedy loop, kept as the reference for the broadcast."""
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    remaining = list(b)
    worst = 0.0
    for z in sorted(a, key=lambda t: (t.real, t.imag)):
        dists = [abs(z - w) for w in remaining]
        i = int(np.argmin(dists))
        worst = max(worst, dists[i])
        remaining.pop(i)
    return worst


def test_multiset_distance_matches_greedy_reference(rng):
    for trial in range(200):
        m = int(rng.integers(1, 12))
        # few distinct grid values, so duplicates, conjugate pairs and exact ties are common
        half = rng.integers(-2, 3, size=(m + 1) // 2) + 1j * rng.integers(0, 3, size=(m + 1) // 2)
        a = np.concatenate((half, np.conj(half)))[:m] * 0.5
        rng.shuffle(a)
        b = a + (rng.integers(-1, 2, size=m) + 1j * rng.integers(-1, 2, size=m)) * 0.25
        if trial % 2:
            b = b + 1e-9 * rng.standard_normal(m)
        rng.shuffle(b)
        for x, y in ((a, b), (b, a), (a, a)):
            got, want = op.multiset_distance(x, y), _greedy_distance_reference(x, y)
            assert got == want and type(got) is type(want)


def _takes_identity_path(a, b) -> bool:
    """Whether every sorted ``a_i`` is strictly nearest to ``b_i``."""
    a = np.sort_complex(np.asarray(a, dtype=complex))
    d = np.abs(a[:, None] - np.asarray(b, dtype=complex)[None, :])
    return all(d[i, i] < min(np.delete(d[i], i), default=np.inf) for i in range(a.size))


@pytest.mark.parametrize("m", [1, 2, 5, 12, 40])
def test_multiset_distance_aligned_and_shuffled(rng, m):
    # zeros_q's case: sorted points against their own small perturbations
    # (the identity path), then shuffled, tied and reversed inputs (the loop)
    a = np.sort_complex(rng.standard_normal(m) + 1j * rng.standard_normal(m))
    b = a + 1e-9 * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
    aligned = [(a, b), (a, a.copy())]
    looped = [(a, b[rng.permutation(m)])]
    if m > 1:
        tied = a.copy()
        tied[1] = a[0]
        looped += [(tied, tied.copy()), (a, b[::-1].copy())]
    assert all(_takes_identity_path(x, y) for x, y in aligned)
    assert not any(_takes_identity_path(x, y) for x, y in looped[1:])
    for x, y in aligned + looped:
        got, want = op.multiset_distance(x, y), _greedy_distance_reference(x, y)
        assert got == want and type(got) is type(want)


def _builds_the_matrix(monkeypatch, a, b) -> bool:
    """Whether ``multiset_distance(a, b)`` takes the ``m x m`` path (the one
    that calls ``np.hypot``), after checking it against the greedy reference
    for equal value and type."""
    calls, hypot = [], np.hypot
    with monkeypatch.context() as patch:
        patch.setattr(np, "hypot", lambda *args: calls.append(args) or hypot(*args))
        got = op.multiset_distance(a, b)
    want = _greedy_distance_reference(a, b)
    assert got == want and type(got) is type(want)
    return bool(calls)


@pytest.mark.parametrize("m", [2, 40, 63])
def test_real_distance_reads_the_neighbours(monkeypatch, m):
    # zeros_q's J^ route: sorted real eigenvalues against their Newton refinements
    rec, comb = k2_case_fixture("real_roots", 64)[3], op.CombCoeffs((1.0, 0.2))
    z = np.linalg.eigvalsh(hat_jacobi_diag_sums(rec, comb, m))
    refined = op.jacobi._newton_step(rec, comb, z)
    assert np.all(np.diff(refined) > 0.0) and not np.array_equal(z, refined)
    assert not _builds_the_matrix(monkeypatch, z, refined)
    assert not _builds_the_matrix(monkeypatch, z, z.copy())
    assert not _builds_the_matrix(monkeypatch, z[::-1].copy(), refined)  # a is sorted first
    # complex dtype with zero imaginary parts is real
    assert not _builds_the_matrix(monkeypatch, z.astype(complex), refined - 0.0j)
    # a refinement that crosses its neighbour: b is no longer increasing
    crossed = refined.copy()
    crossed[m // 2 - 1], crossed[m // 2] = refined[m // 2], refined[m // 2 - 1]
    assert _builds_the_matrix(monkeypatch, z, crossed)
    # complex input keeps the m x m path, on either side
    assert _builds_the_matrix(monkeypatch, z + 1e-3j, refined)
    assert _builds_the_matrix(monkeypatch, z, refined + np.eye(1, m)[0] * 1e-3j)


@pytest.mark.parametrize("m", [2, 63])
def test_real_distance_falls_back_off_the_identity(monkeypatch, m):
    grid = 0.25 * np.arange(m)  # dyadic, so every distance below is exact
    assert not _builds_the_matrix(monkeypatch, grid, grid + 0.0625)
    # an exact tie: each a_{i+1} is as near to b_i as to b_{i+1}
    assert _builds_the_matrix(monkeypatch, grid, grid + 0.125)
    # a_i nearer to b_{i+1} than to b_i, with b still increasing
    near_next = grid.copy()
    near_next[m - 2] -= 0.1875
    near_next[m - 1] -= 0.125
    assert _builds_the_matrix(monkeypatch, grid, near_next)
    # a_i nearer to b_{i-1} than to b_i
    near_prev = grid.copy()
    near_prev[0] += 0.125
    near_prev[1] += 0.1875
    assert _builds_the_matrix(monkeypatch, grid, near_prev)


def test_real_distance_of_one_point(monkeypatch):
    x = np.array([0.3])
    for y in (x, np.nextafter(x, 1.0), np.array([-7.5]), np.array([-0.0])):
        assert not _builds_the_matrix(monkeypatch, x, y)
    assert not _builds_the_matrix(monkeypatch, np.array([0.0]), np.array([-0.0]))
    assert _builds_the_matrix(monkeypatch, x, np.array([0.3 + 1e-9j]))


def test_multiset_distance_of_empty_sets():
    got = op.multiset_distance(np.array([], dtype=complex), np.array([], dtype=complex))
    assert got == 0.0 and type(got) is float
