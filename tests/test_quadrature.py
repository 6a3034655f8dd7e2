import math
import warnings

import numpy as np
import pytest

import opoly as op

from conftest import chebyshev_corpus


class TestGaussRule:
    def test_first_kind_two_nodes(self, cheb_t):
        f = op.moments_from_recurrence(cheb_t, 8)
        rule = op.gauss_rule(cheb_t, f, 2)
        assert rule.nodes == pytest.approx(
            np.array([-1 / math.sqrt(2), 1 / math.sqrt(2)])
        )
        assert rule.weights == pytest.approx(np.array([0.5, 0.5]))
        assert rule.degree_of_precision == 3

    def test_single_node_second_kind(self, cheb_u):
        f = op.moments_from_recurrence(cheb_u, 6)
        rule = op.gauss_rule(cheb_u, f, 1)
        assert rule.nodes == pytest.approx(np.array([0.0]))
        assert rule.weights == pytest.approx(np.array([1.0]))
        assert rule.degree_of_precision == 1

    @pytest.mark.parametrize("kind", [1, 2, 3, 4])
    def test_low_degree_exactness(self, kind):
        rec = op.chebyshev_family(kind, 10)
        f = op.moments_from_recurrence(rec, 10)
        rule = op.gauss_rule(rec, f, 3)
        assert np.sum(rule.weights) == pytest.approx(f.moments[0], abs=1e-12)
        assert np.dot(rule.weights, rule.nodes) == pytest.approx(
            f.moments[1], abs=1e-12
        )

    @pytest.mark.parametrize("kind", [1, 2])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_gauss_degree_and_positive_weights(self, kind, n):
        rec = op.chebyshev_family(kind, 14)
        f = op.moments_from_recurrence(rec, 2 * n + 2)
        rule = op.gauss_rule(rec, f, n)
        assert rule.degree_of_precision == 2 * n - 1
        assert np.all(rule.weights > 0.0)

    def test_rejects_indefinite_recurrence(self):
        rec = op.RecurrencePair(np.zeros(6), [0.25, -0.25, 0.25, 0.25, 0.25])
        f = op.MomentFunctional(np.array([1.0, 0, 0.1, 0, 0.01, 0, 0.001]))
        with pytest.raises(ValueError):
            op.gauss_rule(rec, f, 3)


class TestChristoffel:
    def test_single_node(self, cheb_u):
        f = op.moments_from_recurrence(cheb_u, 4)
        assert op.christoffel_numbers(f, [0.3]) == pytest.approx(np.array([1.0]))

    def test_first_kind_pair(self, cheb_t):
        f = op.moments_from_recurrence(cheb_t, 6)
        lam = op.christoffel_numbers(f, [-1 / math.sqrt(2), 1 / math.sqrt(2)])
        assert lam == pytest.approx(np.array([0.5, 0.5]))

    def test_weights_sum_to_u0_on_combination_zeros(self, cheb_t):
        comb = op.CombCoeffs((0.0, -0.125))
        zeros = op.zeros_q(cheb_t, comb, 5).zeros.real
        f = op.moments_from_recurrence(cheb_t, 10)
        lam = op.christoffel_numbers(f, np.sort(zeros))
        assert np.sum(lam) == pytest.approx(1.0, abs=1e-12)

    def test_repeated_node_rejected(self, cheb_t):
        f = op.moments_from_recurrence(cheb_t, 6)
        with pytest.raises(ValueError):
            op.christoffel_numbers(f, [0.5, 0.5])


class TestDegreeOfPrecision:
    def test_gauss_four_nodes(self, cheb_u):
        f = op.moments_from_recurrence(cheb_u, 12)
        rule = op.gauss_rule(cheb_u, f, 4)
        assert op.degree_of_precision(f, rule, 10) == 7

    def test_needs_enough_moments(self, cheb_u):
        f = op.moments_from_recurrence(cheb_u, 6)
        rule = op.gauss_rule(cheb_u, f, 2)
        with pytest.raises(op.HorizonError):
            op.degree_of_precision(f, rule, 7)


class TestDegreeLossLaw:
    @pytest.mark.parametrize("n", [5, 6, 8])
    def test_k1_on_second_kind(self, cheb_u, n):
        f = op.moments_from_recurrence(cheb_u, 2 * n + 2)
        assert op.shohat_check(cheb_u, op.CombCoeffs((0.5,)), f, n).ok

    @pytest.mark.parametrize("n", [5, 6, 8])
    def test_k2_on_first_kind(self, cheb_t, n):
        f = op.moments_from_recurrence(cheb_t, 2 * n + 2)
        assert op.shohat_check(cheb_t, op.CombCoeffs((0.0, -0.125)), f, n).ok

    def test_small_k1_coefficient(self, cheb_u):
        f = op.moments_from_recurrence(cheb_u, 12)
        assert op.shohat_check(cheb_u, op.CombCoeffs((0.05,)), f, 5).ok

    def test_measured_degree_is_strictly_below_gauss(self, cheb_t):
        n = 6
        comb = op.CombCoeffs((0.0, -0.125))
        f = op.moments_from_recurrence(cheb_t, 2 * n + 2)
        zeros = np.sort(op.zeros_q(cheb_t, comb, n).zeros.real)
        lam = op.christoffel_numbers(f, zeros)
        rule = op.QuadratureRule(zeros, lam, -1)
        d = op.degree_of_precision(f, rule, 2 * n + 2)
        assert d == 2 * n - 1 - comb.k
        assert d < 2 * n - 1

    def test_k3_loses_three_degrees(self, cheb_u):
        comb = op.CombCoeffs((0.3, 0.2, 0.1))
        n = 7
        f = op.moments_from_recurrence(cheb_u, 2 * n + 2)
        assert op.shohat_check(cheb_u, comb, f, n).ok

    def test_complex_zeros_inapplicable(self, cheb_u):
        # Q_3 = P_3 + 2 P_1 = x^3 + 1.5 x has zeros 0, +-i sqrt(1.5)
        comb = op.CombCoeffs((0.0, 2.0))
        f = op.moments_from_recurrence(cheb_u, 10)
        with pytest.raises(op.InapplicableError):
            op.shohat_check(cheb_u, comb, f, 3)


@pytest.mark.parametrize(
    "label,rec,comb", chebyshev_corpus(), ids=lambda v: v if isinstance(v, str) else ""
)
def test_degree_loss_across_corpus(label, rec, comb):
    # the k-degree loss holds for every valid combination whose zeros are
    # real and distinct; complex-zero cases are legitimately inapplicable
    n = 6
    f = op.moments_from_recurrence(rec, 2 * n + 2)
    try:
        assert op.shohat_check(rec, comb, f, n).ok, label
    except op.InapplicableError:
        zeros = op.zeros_q(rec, comb, n).zeros
        assert np.max(np.abs(zeros.imag)) > 1e-9, label


def test_node_symmetry_for_even_combinations(cheb_u):
    comb = op.CombCoeffs((0.0, -0.125))
    n = 6
    f = op.moments_from_recurrence(cheb_u, 2 * n + 2)
    zeros = np.sort(op.zeros_q(cheb_u, comb, n).zeros.real)
    lam = op.christoffel_numbers(f, zeros)
    assert np.allclose(zeros, -zeros[::-1], atol=1e-10)
    assert np.allclose(lam, lam[::-1], atol=1e-10)


def test_rule_validation():
    with pytest.raises(ValueError):
        op.QuadratureRule(np.array([0.5, 0.5]), np.array([1.0, 1.0]), 1)
    with pytest.raises(ValueError):
        op.QuadratureRule(np.array([0.0, 1.0]), np.array([1.0]), 1)


def _christoffel_reference(f, nodes):
    """The original per-node loop: synthetic division by each ``x - c_j``, the
    Horner derivative through ``numpy.polynomial``, one moment dot per node."""
    from numpy.polynomial import polynomial as npp

    nodes = np.asarray(nodes, dtype=float).ravel()
    q = np.array([1.0])
    for c in nodes:
        q = np.convolve(q, np.array([-c, 1.0]))
    weights = np.empty(nodes.size)
    for j, c in enumerate(nodes):
        quotient = np.empty(nodes.size)
        acc = q[-1]
        for i in range(nodes.size - 1, -1, -1):
            quotient[i] = acc
            acc = q[i] + acc * c
        deriv = float(npp.polyval(c, quotient))
        if abs(deriv) <= 1e-13 * max(1.0, float(np.max(np.abs(quotient)))):
            raise op.NumericError(f"node {c} too close to its neighbours to deflate")
        weights[j] = op.apply_functional(f, op.Poly(tuple(quotient))) / deriv
    return weights


def test_christoffel_numbers_match_per_node_reference():
    checked = 0
    for label, rec, comb in chebyshev_corpus():
        for n in (1, 2, 5, 9, 12):
            f = op.moments_from_recurrence(rec, 2 * n + 2)
            node_sets = [op.gauss_rule(rec, f, n).nodes]
            if n > comb.k:
                zeros = op.zeros_q(rec, comb, n).zeros
                if np.all(zeros.imag == 0.0) and np.unique(zeros.real).size == n:
                    node_sets.append(zeros.real[::-1])
            for nodes in node_sets:
                want = _christoffel_reference(f, nodes)
                got = op.christoffel_numbers(f, nodes)
                assert got.tobytes() == want.tobytes(), label
                checked += 1
    assert checked > 150


@pytest.mark.parametrize(
    "nodes",
    [[100.0, 100.0 + 2e-10, 101.0], [101.0, 100.0 + 2e-10, 100.0], [1001.0, 999.0, 1000.0 + 1e-9, 1000.0]],
)
def test_christoffel_numbers_close_nodes_raise_like_reference(nodes):
    f = op.MomentFunctional(np.linspace(1.0, 2.0, len(nodes) + 1))
    with pytest.raises(op.NumericError) as want:
        _christoffel_reference(f, nodes)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(op.NumericError) as got:
            op.christoffel_numbers(f, nodes)
    assert str(got.value) == str(want.value)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
