import gc
import math
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import opoly as op
from opoly import jacobi, quadrature
from opoly.cli import load_config

from conftest import chebyshev_corpus, generated_k1, k2_case_fixture

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


class TestGaussRule:
    def test_first_kind_two_nodes(self, cheb_t):
        rule = op.gauss_rule(cheb_t, 2)
        assert rule.nodes == pytest.approx(
            np.array([-1 / math.sqrt(2), 1 / math.sqrt(2)])
        )
        assert rule.weights == pytest.approx(np.array([0.5, 0.5]))
        assert rule.degree_of_precision == 3

    def test_single_node_second_kind(self, cheb_u):
        rule = op.gauss_rule(cheb_u, 1)
        assert rule.nodes == pytest.approx(np.array([0.0]))
        assert rule.weights == pytest.approx(np.array([1.0]))
        assert rule.degree_of_precision == 1

    @pytest.mark.parametrize("kind", [1, 2, 3, 4])
    def test_low_degree_exactness(self, kind):
        rec = op.chebyshev_family(kind, 10)
        mu = op.moments_from_recurrence(rec, 10)
        rule = op.gauss_rule(rec, 3)
        assert np.sum(rule.weights) == pytest.approx(mu[0], abs=1e-12)
        assert np.dot(rule.weights, rule.nodes) == pytest.approx(mu[1], abs=1e-12)

    @pytest.mark.parametrize("kind", [1, 2])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_gauss_degree_and_positive_weights(self, kind, n):
        rule = op.gauss_rule(op.chebyshev_family(kind, 14), n)
        assert rule.degree_of_precision == 2 * n - 1
        assert np.all(rule.weights > 0.0)

    def test_rejects_indefinite_recurrence(self):
        rec = op.RecurrencePair(np.zeros(6), [0.25, -0.25, 0.25, 0.25, 0.25])
        with pytest.raises(op.InapplicableError):
            op.gauss_rule(rec, 3)


class TestChristoffel:
    def test_single_node(self, cheb_u):
        assert op.christoffel_numbers(cheb_u, [0.3]) == pytest.approx(np.array([1.0]))

    def test_first_kind_pair(self, cheb_t):
        lam = op.christoffel_numbers(cheb_t, [-1 / math.sqrt(2), 1 / math.sqrt(2)])
        assert lam == pytest.approx(np.array([0.5, 0.5]))

    def test_weights_sum_to_u0_on_combination_zeros(self, cheb_t):
        comb = op.CombCoeffs((0.0, -0.125))
        zeros = op.zeros_q(cheb_t, comb, 5).zeros.real
        lam = op.christoffel_numbers(cheb_t, np.sort(zeros))
        assert np.sum(lam) == pytest.approx(1.0, abs=1e-12)

    def test_repeated_node_rejected(self, cheb_t):
        with pytest.raises(ValueError):
            op.christoffel_numbers(cheb_t, [0.5, 0.5])


class TestDegreeOfPrecision:
    def test_gauss_four_nodes(self, cheb_u):
        rule = op.gauss_rule(cheb_u, 4)
        assert op.degree_of_precision(cheb_u, rule) == 7

    def test_needs_enough_moments(self):
        # degrees stop at 2 min(n + 1, N), so p_0..p_N suffice: at n = N = 4
        # degree 8 is checked on p_0..p_4 (and fails), degree 9 is not reached
        rec = op.chebyshev_family(2, 4)
        assert op.degree_of_precision(rec, op.gauss_rule(rec, 4)) == 7
        assert op.degree_of_precision(rec, op.gauss_rule(rec, 2)) == 3


class TestDegreeLossLaw:
    @pytest.mark.parametrize("n", [5, 6, 8])
    def test_k1_on_second_kind(self, cheb_u, n):
        assert op.shohat_check(cheb_u, op.CombCoeffs((0.5,)), n).ok

    @pytest.mark.parametrize("n", [5, 6, 8])
    def test_k2_on_first_kind(self, cheb_t, n):
        assert op.shohat_check(cheb_t, op.CombCoeffs((0.0, -0.125)), n).ok

    def test_small_k1_coefficient(self, cheb_u):
        assert op.shohat_check(cheb_u, op.CombCoeffs((0.05,)), 5).ok

    def test_measured_degree_is_strictly_below_gauss(self, cheb_t):
        n = 6
        comb = op.CombCoeffs((0.0, -0.125))
        zeros = np.sort(op.zeros_q(cheb_t, comb, n).zeros.real)
        lam = op.christoffel_numbers(cheb_t, zeros)
        rule = op.QuadratureRule(zeros, lam, -1)
        d = op.degree_of_precision(cheb_t, rule)
        assert d == 2 * n - 1 - comb.k
        assert d < 2 * n - 1

    def test_k3_loses_three_degrees(self, cheb_u):
        comb = op.CombCoeffs((0.3, 0.2, 0.1))
        assert op.shohat_check(cheb_u, comb, 7).ok

    @pytest.mark.parametrize("a,n", [((0.5,), -3), ((0.5,), 0), ((0.5,), 1),
                                     ((0.0, -0.125), 2), ((0.3, 0.2, 0.1), 3)])
    def test_n_below_k_plus_one_is_refused(self, a, n):
        # Q_n needs n >= k + 1 for every k, as zeros_q's m does
        comb = op.CombCoeffs(a)
        with pytest.raises(ValueError, match=f"at least k \\+ 1 = {comb.k + 1}"):
            op.shohat_check(op.chebyshev_family(2, 24), comb, n)

    def test_complex_zeros_inapplicable(self, cheb_u):
        # Q_3 = P_3 + 2 P_1 = x^3 + 1.5 x has zeros 0, +-i sqrt(1.5)
        comb = op.CombCoeffs((0.0, 2.0))
        with pytest.raises(op.InapplicableError):
            op.shohat_check(cheb_u, comb, 3)


@pytest.mark.parametrize(
    "label,rec,comb", chebyshev_corpus(), ids=lambda v: v if isinstance(v, str) else ""
)
def test_degree_loss_across_corpus(label, rec, comb):
    # the k-degree loss holds for every valid combination whose zeros are
    # real and distinct; complex-zero cases are legitimately inapplicable
    n = 6
    try:
        assert op.shohat_check(rec, comb, n).ok, label
    except op.InapplicableError:
        zeros = op.zeros_q(rec, comb, n).zeros
        assert np.max(np.abs(zeros.imag)) > 1e-9, label


def test_node_symmetry_for_even_combinations(cheb_u):
    comb = op.CombCoeffs((0.0, -0.125))
    n = 6
    zeros = np.sort(op.zeros_q(cheb_u, comb, n).zeros.real)
    lam = op.christoffel_numbers(cheb_u, zeros)
    assert np.allclose(zeros, -zeros[::-1], atol=1e-10)
    assert np.allclose(lam, lam[::-1], atol=1e-10)


def test_rule_validation():
    with pytest.raises(ValueError):
        op.QuadratureRule(np.array([0.5, 0.5]), np.array([1.0, 1.0]), 1)
    with pytest.raises(ValueError):
        op.QuadratureRule(np.array([0.0, 1.0]), np.array([1.0]), 1)


def test_christoffel_numbers_match_golub_welsch():
    # on the Gauss nodes the V-solve weights must equal the Christoffel-function
    # weights 1 / sum_{i<n} p_i(x_l)^2 that gauss_rule reads off its degree
    # table (which equal the squared first eigenvector components of
    # Golub-Welsch in exact arithmetic)
    checked = 0
    for label, rec, comb in chebyshev_corpus():
        for n in (1, 2, 5, 9, 12, 20):
            rule = op.gauss_rule(rec, n)
            got = op.christoffel_numbers(rec, rule.nodes)
            assert np.allclose(got, rule.weights, rtol=1e-12, atol=1e-15), (label, n)
            checked += 1
    assert checked == 120


@pytest.mark.parametrize("n", [1, 2, 7, 16, 40])
def test_christoffel_numbers_chebyshev_t_equal_weights(n):
    # Gauss-Chebyshev: nodes cos((2j - 1) pi / 2n), every weight 1/n
    nodes = np.cos((2 * np.arange(n, 0, -1) - 1) * np.pi / (2 * n))
    lam = op.christoffel_numbers(op.chebyshev_family(1, 64), nodes)
    assert np.allclose(lam, 1.0 / n, rtol=1e-12)


@pytest.mark.parametrize(
    "nodes",
    [[0.1, -0.3, 0.1], [100.0, 101.0, 100.0, 99.0], [1.0, 0.0, 1.0 + 1e-13],
     [0.0, 1e-11, 1.0]],  # within 1e-10 of the spread, as _distinct refuses
)
def test_christoffel_numbers_non_distinct_nodes_raise(nodes):
    with pytest.raises(ValueError):
        op.christoffel_numbers(op.chebyshev_family(2, 10), nodes)


def test_non_positive_gamma_is_inapplicable():
    n = 5
    gamma = np.full(10, 0.25)
    gamma[2] = -0.25  # gamma_3 < 0: p_3 is undefined
    with pytest.raises(op.InapplicableError):
        op.christoffel_numbers(op.RecurrencePair(np.zeros(11), gamma), [-0.5, 0.0, 0.2, 0.5])
    with pytest.raises(op.InapplicableError):
        op.gauss_rule(op.RecurrencePair(np.zeros(11), gamma), n)
    # gamma_{n+1} < 0 leaves the zeros of Q_n and their weights defined, but
    # not p_{n+1}, which the degree of precision needs
    gamma = np.full(10, 0.25)
    gamma[n] = -0.25
    rec = op.RecurrencePair(np.zeros(11), gamma)
    comb = op.CombCoeffs((0.5,))
    zeros = np.sort(op.zeros_q(rec, comb, n).zeros.real)
    assert op.christoffel_numbers(rec, zeros).shape == (n,)
    with pytest.raises(op.InapplicableError):
        op.shohat_check(rec, comb, n)


def _table_degree_reference(V, weights, tol: float) -> int:
    """The degree read off the table by the full ``np.eye`` residual and the
    ``np.add.outer`` degree grid: the reference for ``_table_degree``."""
    size = V.shape[0]
    err = np.abs((V * weights) @ V.T - np.eye(size))
    deg = np.add.outer(np.arange(size), np.arange(size))
    failed = deg[~(err <= tol)]
    return int(failed.min()) - 1 if failed.size else 2 * (size - 1)


def _reference_degree(rec, rule, tol: float = 1e-9) -> int:
    """:func:`_table_degree_reference` on the table ``degree_of_precision`` reads."""
    V = quadrature._orthonormal(rec, rule.nodes, min(rule.n + 1, rec.horizon) + 1)
    return _table_degree_reference(V, rule.weights, tol)


def test_table_degree_matches_the_reference_at_its_ends():
    rec = op.chebyshev_family(2, 30)
    rule = op.gauss_rule(rec, 8)
    V = quadrature._orthonormal(rec, rule.nodes, 10)
    for table, weights in ((V, rule.weights), (V[:8], rule.weights),
                           (V, np.full(8, np.nan)), (V, rule.weights + 1e-3)):
        expected = _table_degree_reference(table, weights, 1e-9)
        assert quadrature._table_degree(table, weights) == expected
    assert quadrature._table_degree(V[:8], rule.weights) == 14  # nothing fails
    assert quadrature._table_degree(V, np.full(8, np.nan)) == -1


def _hex(values):
    return [v.hex() for v in np.ravel(values).tolist()]


def _k2_pair():
    a1, a2, _, rec = k2_case_fixture("real_roots", 64)
    return rec, op.CombCoeffs((a1, a2))


def _fresh(rec):
    return op.RecurrencePair(rec.betas, rec.gammas[1:])


@pytest.mark.parametrize("n", [5, 40, 63])
def test_k2_rule_walks_its_nodes_once(n):
    rec, comb = _k2_pair()
    nodes = np.sort(op.zeros_q(rec, comb, n).zeros.real)
    weights = op.christoffel_numbers(rec, nodes, comb)
    rule = op.QuadratureRule(nodes, weights, -1)
    degree = op.degree_of_precision(rec, rule)
    # the weights read rows 0..n-1 of the table the degree then extended
    [(key, table)] = rec._p_table.items()
    rows = min(n + 1, rec.horizon) + 1
    assert key == rule.nodes.tobytes()
    assert table.shape == (rows, n) and not table.flags.writeable
    assert _hex(weights) == _hex(op.christoffel_numbers(_fresh(rec), nodes, comb))
    assert degree == op.degree_of_precision(_fresh(rec), rule)
    assert degree == _reference_degree(rec, rule)
    assert _hex(table) == _hex(quadrature._orthonormal(_fresh(rec), nodes, rows))
    # shohat_check on a new pair keeps the same one table
    other = _fresh(rec)
    shohat = op.shohat_check(other, comb, n)
    assert _hex(shohat.rule.weights) == _hex(weights)
    assert shohat.rule.degree_of_precision == degree
    [(key, kept)] = other._p_table.items()
    assert key == nodes.tobytes() and _hex(kept) == _hex(table)


@pytest.mark.parametrize("sizes", [(42, 10, 30, 65, 1), (1, 2, 7, 41, 42, 65)],
                         ids=["shorter_after_longer", "longer_after_shorter"])
def test_kept_table_reads_equal_fresh_walks(sizes):
    rec, comb = _k2_pair()
    nodes = np.sort(op.zeros_q(rec, comb, 40).zeros.real)
    for size in sizes:
        got = quadrature._orthonormal(rec, nodes, size)
        assert _hex(got) == _hex(quadrature._orthonormal(_fresh(rec), nodes, size)), size
        assert len(rec._p_table) == 1
        assert next(iter(rec._p_table.values())).shape[0] >= size


def test_nodes_one_bit_apart_miss_the_kept_table():
    rec, comb = _k2_pair()
    nodes = np.sort(op.zeros_q(rec, comb, 20).zeros.real)
    kept = quadrature._orthonormal(rec, nodes, 22)
    moved = nodes.copy()
    moved[7] = np.nextafter(moved[7], np.inf)
    got = quadrature._orthonormal(rec, moved, 10)
    assert list(rec._p_table) == [moved.tobytes()]
    assert not np.shares_memory(got, kept)
    assert _hex(got) == _hex(quadrature._orthonormal(_fresh(rec), moved, 10))
    assert _hex(got[:, 7]) != _hex(kept[:10, 7])


def test_kept_table_dies_with_its_pair():
    rec = op.chebyshev_family(2, 30)
    op.gauss_rule(rec, 12)
    [table] = rec._p_table.values()
    # no module-level cache: only the pair holds its table, and it goes with it
    assert [r for r in gc.get_referrers(rec._p_table) if r is not rec.__dict__] == []
    assert [r for r in gc.get_referrers(table) if r is not rec._p_table] == []
    refs = weakref.ref(rec), weakref.ref(table)
    del rec, table
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


# The Chebyshev combination shapes of the bundled configs.
SWEEP_SHAPES = ((0.0, -0.125), (1.0, 0.2), (0.5,), (0.5, 0.0625), (0.4,), (1.0, 1.0))
# Known defects of the combination rule at horizon 64, as (kind, a, n), on the
# route the CLI takes.  Empty since the k <= 2 rule became J^'s Gauss rule with
# its own Christoffel numbers: the 123 cases of a = (1, 0.2), where one zero
# of Q_n lies outside [-1, 1] and the V w = e_0 solve lost that node's tiny
# weight, all meet 2n - 1 - k.  Pinned by equality: a case that joins the set
# is a regression.
KNOWN_QUAD_DEFECTS = frozenset()


def test_horizon_sweep_to_the_cap():
    """Kinds 1-4 x the bundled shapes x n = k+1..63 at horizon 64: zeros_q
    never refuses, and every rule meets its law or raises a typed error."""
    defects = set()
    for kind in (1, 2, 3, 4):
        rec = op.chebyshev_family(kind, 64)
        for n in range(2, 64):
            rule = op.gauss_rule(rec, n)
            assert rule.degree_of_precision == 2 * n - 1, (kind, n)
            assert _reference_degree(rec, rule) == 2 * n - 1, (kind, n)
        for a in SWEEP_SHAPES:
            comb = op.CombCoeffs(a)
            for n in range(comb.k + 1, 64):
                try:
                    shohat = op.shohat_check(rec, comb, n)  # runs zeros_q first
                except op.InapplicableError:
                    op.zeros_q(rec, comb, n)
                    continue
                assert _reference_degree(rec, shohat.rule) == shohat.rule.degree_of_precision
                if not shohat.ok:
                    defects.add((kind, a, n))
    assert len(KNOWN_QUAD_DEFECTS) == 0
    assert defects == KNOWN_QUAD_DEFECTS, (sorted(defects - KNOWN_QUAD_DEFECTS),
                                           sorted(KNOWN_QUAD_DEFECTS - defects))


def _orthonormal_reference(rec, x, size):
    """``p_0..p_{size-1}`` at ``x`` from a walk that allocates every row: the
    bit-level reference for ``opoly.quadrature._orthonormal``."""
    root = np.sqrt(rec.gamma[:size])
    rows = [np.ones(x.size)]
    for i in range(size - 1):
        nxt = (x - rec.beta[i]) / root[i + 1] * rows[i]
        if i:
            nxt = nxt - root[i] / root[i + 1] * rows[i - 1]
        rows.append(nxt)
    return np.array(rows)


def test_tables_equal_the_allocating_walk():
    """The sweep's kinds and sizes: each Gauss rule's and each real combination
    rule's table, fresh at its ``n`` rows and then extended to the degree's."""
    for kind in (1, 2, 3, 4):
        rec = op.chebyshev_family(kind, 64)
        node_sets = [np.linalg.eigvalsh(jacobi._symmetric_jacobi(rec, n)) for n in range(1, 64)]
        for a in SWEEP_SHAPES:
            comb = op.CombCoeffs(a)
            zeros = (op.zeros_q(rec, comb, n).zeros for n in range(comb.k + 1, 64))
            node_sets += [z.real for z in zeros if not z.imag.any()]
        for nodes in node_sets:
            fresh, n = _fresh(rec), nodes.size
            for size in (n, min(n + 1, rec.horizon) + 1):
                want = _orthonormal_reference(rec, nodes, size)
                got = quadrature._orthonormal(fresh, nodes, size)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (kind, n)


def _exact_christoffel(rec, x: float, n: int, a2: float = 0.0) -> float:
    """``1 / sum_{i<n} P_i(x)^2 / (gamma^_1 ... gamma^_i)`` in exact rationals at
    the float ``x``, rounded once, where ``gamma^_i = gamma_i`` except
    ``gamma^_{n-1} = gamma_{n-1} - a2``: the Christoffel function of ``J_n``
    (``a2 = 0``), or of ``J^_n``, whose last row holds ``gamma_{n-1} - a_2``,
    with no rounding in the recurrence."""
    x = Fraction(x)
    beta = [Fraction(b) for b in rec.betas]
    gamma = [Fraction(0)] + [Fraction(g) for g in rec.gammas[1:]]
    gamma[n - 1] -= Fraction(a2)
    prev, cur, norm, total = Fraction(0), Fraction(1), Fraction(1), Fraction(1)
    for i in range(n - 1):
        prev, cur = cur, (x - beta[i]) * cur - gamma[i] * prev
        norm *= gamma[i + 1]
        total += cur * cur / norm
    return float(1 / total)


def test_gauss_weights_keep_their_relative_accuracy_far_out():
    # one node far out on the spectrum: the smallest weight is 3.6e-32, far
    # below the rounding of the largest
    rec = load_config(str(CONFIG_DIR / "gen_k2_equal_roots.json")).rec
    n = 34
    rule = op.gauss_rule(rec, n)
    assert rule.degree_of_precision == 2 * n - 1
    exact = np.array([_exact_christoffel(rec, x, n) for x in rule.nodes.tolist()])
    assert exact.min() < 1e-31
    assert np.all(np.abs(rule.weights - exact) <= 1e-12 * exact)


@pytest.mark.parametrize("case", ["cheb_u", "generated_k1"])
def test_k1_rule_sits_on_the_zeros_of_q_and_meets_its_law(case):
    # for k = 1 the nodes are the eigenvalues of the symmetric Jacobi matrix
    # with beta_{n-1} - a_1 in its last diagonal entry, and no zeros_q run
    if case == "cheb_u":
        rec, comb, ns = op.chebyshev_family(2, 64), op.CombCoeffs((0.5,)), range(2, 64)
    else:
        (rec, comb), ns = generated_k1(), range(38, 64)
    for n in ns:
        shohat = op.shohat_check(rec, comb, n)
        zeros = op.zeros_q(rec, comb, n).zeros
        assert np.all(zeros.imag == 0.0), n
        gap = np.abs(shohat.rule.nodes - zeros.real)
        assert np.all(gap <= 1e-12 * np.maximum(1.0, np.abs(zeros.real))), n
        assert shohat.rule.degree_of_precision == 2 * n - 2, n
        assert shohat.ok


def test_k1_quad_never_calls_zeros_q(monkeypatch):
    # the k = 1 rule comes from the symmetric Jacobi matrix, and never runs
    # zeros_q or its Newton check
    cfg = load_config(str(CONFIG_DIR / "cheb2_k1.json"))
    rec, comb, n = cfg.rec, cfg.comb, 10

    def refuse(*args, **kwargs):
        raise AssertionError("the k = 1 rule called zeros_q")

    monkeypatch.setattr(quadrature, "zeros_q", refuse)
    shohat = op.shohat_check(rec, comb, n)
    assert shohat.ok
    assert shohat.rule.degree_of_precision == 2 * n - 2


def test_tol_quad_reaches_the_gauss_rule():
    # at the fixed 1e-9 the combination rule measures 2n - 3 = 65 here, as the
    # Gauss rule measures 2n - 1 = 67: its weights, the Christoffel numbers of
    # J^_34, keep the smallest one's relative accuracy, so the degree needs no
    # looser exactness tolerance (the V w = e_0 weights measured 34)
    cfg = load_config(str(CONFIG_DIR / "gen_k2_equal_roots.json"))
    rec, comb, n = cfg.rec, cfg.comb, 34
    shohat = op.shohat_check(rec, comb, n)
    assert shohat.ok
    assert shohat.rule.degree_of_precision == 65 == 2 * n - 1 - comb.k
    assert _reference_degree(rec, shohat.rule) == 65
    assert _reference_degree(rec, op.gauss_rule(rec, n)) == 67


def test_combination_weights_keep_their_relative_accuracy_far_out():
    # the k = 2 rule's smallest weight, at a zero of Q_34 far out on the
    # spectrum, is 9.8e-31; every weight is within 1e-12 (relative) of J^'s
    # Christoffel function in exact rationals at its node
    cfg = load_config(str(CONFIG_DIR / "gen_k2_equal_roots.json"))
    rec, comb, n = cfg.rec, cfg.comb, 34
    rule = op.shohat_check(rec, comb, n).rule
    exact = np.array([_exact_christoffel(rec, x, n, comb.a[1]) for x in rule.nodes.tolist()])
    assert 9e-31 < exact.min() < 1e-30
    assert np.all(np.abs(rule.weights - exact) <= 1e-12 * exact)


def _k2_route_cases():
    """Every bundled ``k <= 2`` config at every ``n`` on the ``J^`` route up to
    the horizon, the largest ``n`` whose degree ``shohat_check`` can measure."""
    for path in sorted(CONFIG_DIR.glob("*.json")):
        cfg = load_config(str(path))
        for n in range(cfg.comb.k + 1, cfg.rec.horizon + 1):
            if jacobi._hat_gamma(cfg.rec, cfg.comb, n) is not None:
                yield path.name, cfg.rec, cfg.comb, n


def test_zeros_and_quad_share_one_set_of_nodes():
    # zeros and quad report the same zeros of Q_n, bit for bit, wherever
    # J^_n serves both: k = 1 builds J^_n without zeros_q, k = 2 through it
    names = set()
    for name, rec, comb, n in _k2_route_cases():
        zeros = op.zeros_q(rec, comb, n).zeros
        assert np.all(zeros.imag == 0.0), (name, n)
        nodes = op.shohat_check(_fresh(rec), comb, n).rule.nodes
        assert zeros.real.tobytes() == nodes.tobytes(), (name, n)
        names.add(name)
    assert len(names) == 12  # all but cheb4_k2_case_iv and gen_k2_complex_roots


@pytest.mark.parametrize("name,n", [("cheb1_k2.json", 10), ("gen_k2_real_roots.json", 30),
                                    ("cheb2_k1.json", 12), ("gen_k2_equal_roots.json", 30)])
def test_combination_weights_are_the_hat_gauss_weights(name, n):
    # on the J^ route the weights given the combination are J^_n's Gauss
    # weights: they match Golub-Welsch's squared first eigenvector components
    # and the V w = e_0 solve that christoffel_numbers runs without it
    cfg = load_config(str(CONFIG_DIR / name))
    rec, comb = cfg.rec, cfg.comb
    nodes = op.zeros_q(rec, comb, n).zeros.real
    weights = op.christoffel_numbers(rec, nodes, comb)
    _, vectors = np.linalg.eigh(jacobi._hat_jacobi(rec, comb, n))
    assert np.allclose(weights, np.square(vectors[0]), rtol=1e-10, atol=1e-14)
    assert np.allclose(weights, op.christoffel_numbers(_fresh(rec), nodes), rtol=1e-8)


def test_combination_weights_off_the_hat_route_solve_v_w_e0():
    # k = 3, and k = 2 with a_2 >= gamma_{n-1}: given the combination or not,
    # the weights are the V w = e_0 solve, bit for bit
    rec = op.chebyshev_family(2, 30)
    for comb, n in ((op.CombCoeffs((0.3, 0.2, 0.1)), 12), (op.CombCoeffs((0.5, 0.3)), 7)):
        assert jacobi._hat_gamma(rec, comb, n) is None
        nodes = op.shohat_check(rec, comb, n).rule.nodes
        assert _hex(op.christoffel_numbers(rec, nodes, comb)) == _hex(
            op.christoffel_numbers(_fresh(rec), nodes))
