import gc
import hashlib
import json
import math
import random
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import opoly as op
from opoly import K2Case, K2Params
from opoly.cli import load_config

from conftest import (
    chebyshev_weight_moments,
    eval_p,
    k2_case_fixture,
    poly_p_walk,
    worst_gram_ratio,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def test_poly_p_range_errors(cheb_u):
    with pytest.raises(op.HorizonError):
        op.poly_p(cheb_u, cheb_u.horizon + 2)
    with pytest.raises(op.HorizonError):
        op.poly_p(cheb_u, -1)


def test_poly_p_base_cases():
    rec = op.RecurrencePair([0.25, 0.0, 0.0], [0.25, 0.25])
    assert op.poly_p(rec, 0).coeffs == (1.0,)
    assert op.poly_p(rec, 1).coeffs == (-0.25, 1.0)


def test_poly_p_chebyshev_t(cheb_t):
    assert op.poly_p(cheb_t, 2).coeffs == pytest.approx((-0.5, 0.0, 1.0))


@pytest.mark.parametrize("kind", [1, 2, 3, 4])
def test_poly_p_matches_eval_p(kind, rng):
    rec = op.chebyshev_family(kind, 14)
    xs = rng.uniform(-2.0, 2.0, size=20)
    for n in range(rec.horizon + 2):
        p = op.poly_p(rec, n)
        for x in xs:
            direct = eval_p(rec, n, x)
            via_coeffs = p(x)
            assert via_coeffs == pytest.approx(direct, rel=1e-10, abs=1e-12)


def test_poly_p_matches_numpy_walk_bit_for_bit(tmp_path):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
    import golden

    walked = 0
    for label, path in golden.config_paths(str(tmp_path)).items():
        try:
            rec = load_config(path).rec
        except (op.OpolyError, ValueError):  # the edge configs that are refused
            continue
        for n in range(rec.horizon + 2):
            with np.errstate(all="ignore"):
                walk = poly_p_walk(rec, n)
            if not all(map(math.isfinite, walk)):  # coefficients past the float range
                with pytest.raises(ValueError, match="finite"):
                    op.poly_p(rec, n)
                continue
            got = op.poly_p(rec, n).coeffs
            assert [c.hex() for c in got] == [c.hex() for c in op.Poly(walk).coeffs], (label, n)
            walked += 1
    assert walked > 500


def _hex(poly):
    return [c.hex() for c in poly.coeffs]


def _real_roots_at_64(tmp_path):
    """``configs/gen_k2_real_roots.json`` carried to horizon 64."""
    config = json.loads((CONFIG_DIR / "gen_k2_real_roots.json").read_text())
    path = tmp_path / "real_roots_64.json"
    path.write_text(json.dumps(dict(config, horizon=64)))
    return load_config(str(path))


def test_poly_p_rows_are_kept_per_pair(tmp_path):
    rec = _real_roots_at_64(tmp_path).rec
    top = op.poly_p(rec, 63)
    fresh = op.RecurrencePair(rec.betas, rec.gammas[1:])
    # a lower read after a higher one is the fresh pair's own walk, bit for bit
    assert _hex(op.poly_p(rec, 40)) == _hex(op.poly_p(fresh, 40))
    assert _hex(op.poly_p(fresh, 63)) == _hex(top)
    # pairs that differ in one beta agree below that row and walk apart above it
    betas = list(rec.betas)
    betas[20] += 1e-3
    other = op.RecurrencePair(betas, rec.gammas[1:])
    assert _hex(op.poly_p(other, 20)) == _hex(op.poly_p(rec, 20))
    assert _hex(op.poly_p(other, 40)) != _hex(op.poly_p(rec, 40))
    assert _hex(op.poly_p(other, 40)) == _hex(op.Poly(poly_p_walk(other, 40)))
    assert rec._p_rows is not other._p_rows


def test_poly_p_rows_die_with_their_pair():
    rec = op.chebyshev_family(2, 30)
    op.poly_p(rec, 31)
    rows = rec._p_rows
    # no module-level cache: only the pair holds its rows, and they go with it
    assert [r for r in gc.get_referrers(rows) if r is not rec and r is not rec.__dict__] == []
    assert not hasattr(op.poly_p, "cache_info")
    ref = weakref.ref(rec)
    del rec, rows
    gc.collect()
    assert ref() is None


def test_q_poly_is_the_reference_walk_sum_at_k2(tmp_path):
    cfg = _real_roots_at_64(tmp_path)
    rec, comb = cfg.rec, cfg.comb
    assert comb.k == 2
    q = op.Poly(poly_p_walk(rec, 63))
    for j, aj in enumerate(comb.a, start=1):
        q = q + aj * op.Poly(poly_p_walk(rec, 63 - j))
    assert _hex(op.q_poly(rec, comb, 63)) == _hex(q)


def _q_poly_reference(rec, comb, n, report=None):
    """``P_n + c_1 P_{n-1} + ... + c_k P_{n-k}`` in ``Poly`` arithmetic, one
    ``Poly`` per product and per sum: the bit-level reference for
    :func:`opoly.q_poly`."""
    c = comb.a if n > comb.k else report.low_rows[n][-2::-1]
    q = op.poly_p(rec, n)
    for j, cj in enumerate(c, start=1):
        q = q + cj * op.poly_p(rec, n - j)
    return q


def test_q_poly_matches_poly_arithmetic(tmp_path):
    # Chebyshev T with a = (0, -1/8): each 0.0 * P_{n-1} trims to its constant
    # term, and the sum's zero fill turns the -0.0 of P_n into 0.0
    rec = op.chebyshev_family(1, 64)
    assert _hex(0.0 * op.poly_p(rec, 5)) == [(0.0).hex()]
    assert _hex(op.poly_p(rec, 6))[5] == (-0.0).hex()
    assert _hex(op.q_poly(rec, op.CombCoeffs((0.0, -0.125)), 6))[5] == (0.0).hex()
    cfg = _real_roots_at_64(tmp_path)
    cases = [(cfg.rec, cfg.comb)] + [
        (op.chebyshev_family(kind, 64), op.CombCoeffs(a)) for kind in (1, 2, 3, 4)
        for a in ((0.0, -0.125), (1.0, 0.2), (0.5,), (0.5, 0.0625), (1.0, 1.0), (-0.0, 0.0625))]
    low = 0
    for rec, comb in cases:
        for n in range(comb.k + 1, 64):
            assert _hex(op.q_poly(rec, comb, n)) == _hex(_q_poly_reference(rec, comb, n)), n
        report = op.check_conditions(rec, comb, 64)
        if report.verdict:  # below k + 1 the rows come from the report
            for n in range(comb.k + 1):
                got = op.q_poly(rec, comb, n, report=report)
                assert _hex(got) == _hex(_q_poly_reference(rec, comb, n, report)), n
            low += 1
    assert low


# sha256 of ``beta.tobytes() + gamma.tobytes()``, first 16 hex digits, for
# each bundled config: the bench tracer keys recomputation on these bytes,
# so they must not depend on how the pair stores its data
BUNDLED_PAIR_DIGESTS = {
    "broken_beta_perturbed.json": "a1a7ce17d09d645b",
    "broken_gamma_perturbed.json": "45f0bfe088873a7e",
    "broken_varying_gamma.json": "c171de2ad7196cce",
    "cheb1_k2.json": "c24be43334d85ca1",
    "cheb1_k2_case_iii.json": "c24be43334d85ca1",
    "cheb2_k1.json": "00506264bff13a16",
    "cheb2_k2_case_ii.json": "00506264bff13a16",
    "cheb3_k1.json": "0cda9e2c60faa406",
    "cheb4_k2_case_iv.json": "41f8a508f8d9ce00",
    "gen_k1.json": "399f623fced09cd7",
    "gen_k2_a1_zero.json": "590283f19ed24b07",
    "gen_k2_complex_roots.json": "34d13a459dff45d4",
    "gen_k2_equal_roots.json": "198acbd136244483",
    "gen_k2_real_roots.json": "f9b69ee3c40acd7d",
}


def test_bundled_pair_arrays_keep_their_bytes():
    configs = Path(__file__).resolve().parent.parent / "configs"
    digests = {}
    for path in sorted(configs.glob("*.json")):
        rec = load_config(str(path)).rec
        assert rec.beta.tolist() == list(rec.betas)
        assert rec.gamma[1:].tolist() == list(rec.gammas[1:]) and math.isnan(rec.gamma[0])
        digest = hashlib.sha256(rec.beta.tobytes() + rec.gamma.tobytes())
        digests[path.name] = digest.hexdigest()[:16]
    assert digests == BUNDLED_PAIR_DIGESTS


def test_poly_p_monic(cheb_t):
    for n in range(1, cheb_t.horizon + 2):
        assert op.poly_p(cheb_t, n).leading == 1.0


def test_chebyshev_coefficient_values():
    u = op.chebyshev_family(2, 10)
    assert u.beta[5] == 0.0 and u.gamma[5] == 0.25
    t = op.chebyshev_family(1, 10)
    assert t.gamma[1] == 0.5 and t.gamma[2] == 0.25
    v = op.chebyshev_family(3, 10)
    assert v.beta[0] == 0.5 and v.beta[1] == 0.0
    w = op.chebyshev_family(4, 10)
    assert w.beta[0] == -0.5 and np.all(w.gamma[1:] == 0.25)


def test_chebyshev_invalid_args():
    with pytest.raises(ValueError):
        op.chebyshev_family(5, 10)
    with pytest.raises(ValueError):
        op.chebyshev_family(1, 1)


@pytest.mark.parametrize("kind", [1, 2, 3, 4])
def test_chebyshev_moments_match_weight_integrals(kind):
    # closed-form weight moments are the independent oracle for the
    # recurrence conventions (including the kind-3/4 sign of beta_0)
    rec = op.chebyshev_family(kind, 14)
    mu = op.moments_from_recurrence(rec, 20)
    expected = chebyshev_weight_moments(kind, 20)
    for m in range(21):
        assert mu[m] == pytest.approx(float(expected[m]), abs=1e-14)


@pytest.mark.parametrize("kind", [1, 2, 3, 4])
def test_chebyshev_gram_diagonality(kind):
    rec = op.chebyshev_family(kind, 14)
    mu = op.moments_from_recurrence(rec, 24)
    polys = [op.poly_p(rec, n) for n in range(13)]
    assert worst_gram_ratio(mu, polys) <= 1e-10


def test_recurrence_pair_validation():
    with pytest.raises(op.DegeneracyError):
        op.RecurrencePair([0.0, 0.0, 0.0], [0.25, 0.0])
    with pytest.raises(ValueError):
        op.RecurrencePair([0.0, np.inf, 0.0], [0.25, 0.25])
    with pytest.raises(ValueError):
        op.RecurrencePair([0.0, 0.0], [0.25, 0.25])


def test_recurrence_pair_immutable(cheb_u):
    with pytest.raises(AttributeError):
        cheb_u.beta = np.zeros(3)
    with pytest.raises(ValueError):
        cheb_u.beta[0] = 1.0


def test_k2_a1_zero_reproduces_first_kind(cheb_t):
    _, _, _, rec = k2_case_fixture("a1_zero", horizon=30)
    assert np.allclose(rec.beta, cheb_t.beta)
    assert np.allclose(rec.gamma[1:], cheb_t.gamma[1:])
    # period-2 structure from index 2
    assert np.all(rec.gamma[4:] == rec.gamma[2:-2])


def test_k2_constant_solution():
    params = K2Params(K2Case.EQUAL_ROOTS, beta0=0.0, beta1=0.0, gamma1=0.25,
                      A=0.0, D=0.25)
    rec = op.k2_family(2.0, 1.0, params, 20)
    assert np.all(rec.beta[2:] == 0.0)
    assert np.all(rec.gamma[2:] == 0.25)


def test_k2_real_root_value():
    # lam^2 - 3 lam + 1 = 0 for a1 = 1, a2 = 1/5; inner root (3 - sqrt 5)/2
    a1, a2 = 1.0, 0.2
    lam = (3.0 - math.sqrt(5.0)) / 2.0
    assert abs(lam - 0.381966011250105) < 1e-12
    assert abs(a1 * a1 * lam - a2 * (1.0 + lam) ** 2) < 1e-12
    assert abs(op.recurrence._inner_real_root(a1, a2) - lam) < 1e-15


def test_k2_real_root_tail_matches_closed_form():
    a1, a2, params, rec = k2_case_fixture("real_roots", horizon=40)
    lam = (3.0 - math.sqrt(5.0)) / 2.0
    ns = np.arange(2, 41)
    assert np.allclose(rec.beta[2:], params.A + params.B * lam**ns, atol=1e-13)
    assert np.allclose(rec.gamma[2:], params.D + params.E * lam**ns, atol=1e-13)


def test_k2_complex_case_real_output():
    a1, a2, params, rec = k2_case_fixture("complex_roots", horizon=40)
    theta = math.acos(a1 * a1 / (2.0 * a2) - 1.0)
    ns = np.arange(2, 41)
    expect_beta = params.A + 2.0 * (complex(params.B) * np.exp(1j * theta * ns)).real
    expect_gamma = params.D + 2.0 * (complex(params.E) * np.exp(1j * theta * ns)).real
    assert np.allclose(rec.beta[2:], expect_beta, atol=1e-12)
    assert np.allclose(rec.gamma[2:], expect_gamma, atol=1e-12)
    assert rec.beta.dtype == np.float64


def _k2_root_inputs():
    """``(label, a1, a2, K2Params)`` of the bundled real- and complex-root
    configs, one real-root set with ``C, F != 0``, and bench-drawn sets."""
    def num(v):
        return complex(float(v[0]), float(v[1])) if isinstance(v, list) else float(v)

    def inputs(label, fam):
        params = K2Params(K2Case(fam["case"]), float(fam["beta0"]), float(fam["beta1"]),
                          float(fam["gamma1"]), **{x: num(fam.get(x, 0.0)) for x in "ABCDEF"})
        return label, float(fam["a1"]), float(fam["a2"]), params

    out = []
    for name in ("gen_k2_real_roots.json", "gen_k2_complex_roots.json"):
        out.append(inputs(name, json.loads((CONFIG_DIR / name).read_text())["family"]))
    _, a1, a2, params = out[0]
    C = 1e-20  # lam^-64 is about 1e27: the q <- q / lam powers matter
    out.append(("real_roots_C", a1, a2,
                params._replace(C=C, F=a1 * C / (1.0 + op.recurrence._inner_real_root(a1, a2)))))
    bench_dir = str(CONFIG_DIR.parent / "bench")
    if bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)
    import families

    rng = random.Random(1)
    for cls in ("k2_real_roots", "k2_complex_roots"):
        for i in range(8):
            out.append(inputs(f"{cls}_{i}", families.draw(cls, rng, 64).config["family"]))
    return out


#: Unit roundoff of binary64 and Higham's ``gamma_k = k u / (1 - k u)``.
_U = Fraction(1, 2**53)


def _gamma(k):
    return k * _U / (1 - k * _U)


def test_k2_root_tails_stay_within_their_rounding_bound():
    # the exact tails of the float inputs (lam, or c and s, and A..F) in
    # rationals, against the float tails at horizon 64.  Real roots: p = lam^n
    # takes n - 1 roundings and q = lam^-n takes n; one product and two sums
    # make each term of A + B p + C q at most n + 2 roundings, so the error is
    # at most gamma_{n+2} (|A| + |B p| + |C q|) (Higham 2002, Lemma 3.1).
    # Complex roots: a rotation step (a c - b s, a s + b c) errs by at most
    # sqrt(2) gamma_2 |a + ib| |lam| (Cauchy-Schwarz on each part), so the
    # rotated x = lam^n errs by e_n <= ((1 + sqrt(2) gamma_2)^n - 1) |lam|^n;
    # r = B_r x_r - B_i x_i adds gamma_2 |B| |x|, and (A + r) + r adds
    # gamma_2 (|A| + 2 |r|).  The complex bound is evaluated in floats: its own
    # rounding, a few ulps of the bound, is far below the slack the tails leave.
    horizon = 64
    inputs = _k2_root_inputs()
    assert len(inputs) == 19
    worst = 0.0
    for label, a1, a2, params in inputs:
        rec = op.k2_family(a1, a2, params, horizon)
        if params.case is K2Case.REAL_ROOTS:
            lam = Fraction(op.recurrence._inner_real_root(a1, a2))
            for got, base, u, v in ((rec.betas, params.A, params.B, params.C),
                                    (rec.gammas, params.D, params.E, params.F)):
                base, u, v = Fraction(base), Fraction(u), Fraction(v)
                for n in range(2, horizon + 1):
                    p, q = u * lam**n, v / lam**n
                    err = abs(Fraction(got[n]) - (base + p + q))
                    bound = _gamma(n + 2) * (abs(base) + abs(p) + abs(q))
                    assert err <= bound, (label, n)
                    worst = max(worst, float(err / bound))
        else:
            c = a1 * a1 / (2.0 * a2) - 1.0
            s = math.sqrt(1.0 - c * c)
            lam = (Fraction(c), Fraction(s))
            step = 1.0 + math.sqrt(2.0) * float(_gamma(2))
            for got, base, z in ((rec.betas, params.A, params.B),
                                 (rec.gammas, params.D, params.E)):
                xr, xi = Fraction(z.real), Fraction(z.imag)
                for n in range(1, horizon + 1):
                    xr, xi = xr * lam[0] - xi * lam[1], xr * lam[1] + xi * lam[0]
                    if n < 2:
                        continue
                    size = abs(z) * math.hypot(c, s) ** n  # |B lam^n|
                    e_n = (step**n - 1.0) * size
                    r_err = e_n + float(_gamma(2)) * (size + e_n)
                    err = abs(Fraction(got[n]) - (Fraction(base) + 2 * xr))
                    bound = 2.0 * r_err + float(_gamma(2)) * (abs(base) + 2.0 * (size + r_err))
                    assert err <= bound, (label, n)
                    worst = max(worst, float(err) / bound)
    assert worst > 0.0  # the tails do round: a bound met by exact zeros shows nothing


@pytest.mark.parametrize("case", ["equal_roots", "real_roots", "complex_roots"])
def test_k2_difference_equation(case):
    a1, a2, _, rec = k2_case_fixture(case, horizon=50)
    assert op.k2_difference_residual(rec.beta, a1, a2) < 1e-10
    assert op.k2_difference_residual(rec.gamma, a1, a2) < 1e-10
    bumped = rec.beta.copy()
    bumped[20] += 0.01
    assert op.k2_difference_residual(bumped, a1, a2) > 1e-3


def test_k2_case_tag_consistency():
    params = K2Params(K2Case.A1_ZERO, beta0=0.0, beta1=0.0, gamma1=0.5,
                      A=0.0, B=0.0, D=0.25, E=0.25)
    with pytest.raises(op.ConstraintError):
        op.k2_family(1.0, -0.125, params, 10)  # a1 != 0 with A1_ZERO
    params2 = K2Params(K2Case.REAL_ROOTS, beta0=0.0, beta1=0.0, gamma1=0.25, D=0.25)
    with pytest.raises(op.ConstraintError):
        op.k2_family(1.0, 1.0, params2, 10)  # a1^2 < 4 a2 is the complex case


def test_k2_constraint_violation_rejected():
    params = K2Params(K2Case.EQUAL_ROOTS, beta0=0.0, beta1=0.0, gamma1=0.25,
                      A=0.0, B=0.01, C=0.0, D=0.25, E=0.0, F=0.0)
    # a1*B = 2E - 2F fails (0.02 != 0)
    with pytest.raises(op.ConstraintError):
        op.k2_family(2.0, 1.0, params, 10)


def test_k2_degenerate_gamma_detected():
    # gamma_n = -0.01 + 0.005 n hits zero exactly at n = 2
    params = K2Params(K2Case.EQUAL_ROOTS, beta0=0.0, beta1=0.0, gamma1=0.25,
                      A=0.0, B=0.005, C=0.0, D=-0.01, E=0.005, F=0.0)
    with pytest.raises(op.DegeneracyError):
        op.k2_family(2.0, 1.0, params, 10)
    # the same check covers the seed gamma_1
    params = K2Params(K2Case.EQUAL_ROOTS, beta0=0.0, beta1=0.0, gamma1=0.0, D=0.25)
    with pytest.raises(op.DegeneracyError, match="gamma_1 = 0.0 is numerically zero"):
        op.k2_family(2.0, 1.0, params, 10)


def test_k2_gamma_floor_is_the_recurrence_pair_floor():
    # k2_family leaves the zero-gamma floor to RecurrencePair, as explicit
    # and k1 families do: 1e-13 passes, GAMMA_FLOOR itself does not
    params = K2Params(K2Case.EQUAL_ROOTS, beta0=0.0, beta1=0.0, gamma1=1e-13, D=0.25)
    assert op.k2_family(2.0, 1.0, params, 10).gamma[1] == 1e-13
    params = K2Params(K2Case.EQUAL_ROOTS, beta0=0.0, beta1=0.0, gamma1=op.GAMMA_FLOOR, D=0.25)
    with pytest.raises(op.DegeneracyError, match="gamma_1 = 1e-14 is numerically zero"):
        op.k2_family(2.0, 1.0, params, 10)


def test_k2_rejects_zero_a2():
    params = K2Params(K2Case.EQUAL_ROOTS, beta0=0.0, beta1=0.0, gamma1=0.25, D=0.25)
    with pytest.raises(ValueError):
        op.k2_family(1.0, 0.0, params, 10)


def test_k1_constant_gamma_gives_constant_beta():
    rec = op.k1_family([0.25] * 12, 0.0, 0.0, 0.0, 0.3, 12)
    assert np.all(rec.beta == 0.0)


def test_k1_first_kind_gammas():
    gammas = [0.5] + [0.25] * 11
    rec = op.k1_family(gammas, 0.0, 0.0, 0.0, 1.0, 12)
    assert np.all(rec.beta[3:] == 0.0)


def test_k1_direct_formula():
    gammas = [0.25, 0.25, 0.35] + [0.25] * 9
    rec = op.k1_family(gammas, 0.0, 0.0, 0.0, 0.5, 12)
    assert rec.beta[3] == pytest.approx(0.2, abs=1e-15)


def test_k1_degeneracy_and_domain_errors():
    # gamma_2 + a1*(beta_1 - beta_2) = 1/4 + 1*(0 - 1/4) = 0: the family is
    # built, and check_conditions' determination denominator refuses it
    rec = op.k1_family([0.25] * 12, 0.0, 0.0, 0.25, 1.0, 12)
    assert rec.beta.tolist() == [0.0, 0.0] + [0.25] * 11
    report = op.check_conditions(rec, op.CombCoeffs((1.0,)), 12)
    assert not report.verdict and report.denom == 0.0
    with pytest.raises(ValueError):
        op.k1_family([0.25] * 12, 0.0, 0.0, 0.0, 0.0, 12)
    with pytest.raises(op.DegeneracyError, match="gamma_2 = 0.0 is numerically zero"):
        op.k1_family([0.25, 0.0] + [0.25] * 10, 0.0, 0.0, 0.0, 0.5, 12)
    with pytest.raises(op.HorizonError):
        op.k1_family([0.25] * 5, 0.0, 0.0, 0.0, 0.5, 12)


@pytest.mark.parametrize("case", ["a1_zero", "equal_roots", "real_roots", "complex_roots"])
def test_k2_gamma_floor_invariant(case):
    _, _, _, rec = k2_case_fixture(case, horizon=50)
    assert np.all(np.abs(rec.gamma[1:]) > 1e-14)


def test_poly_arithmetic():
    p = op.Poly((1.0, 2.0))
    q = op.Poly((0.0, 1.0))
    assert (p + q).coeffs == (1.0, 3.0)
    assert (2.0 * p).coeffs == (2.0, 4.0)
    assert (p * 0.5).coeffs == (0.5, 1.0)
    assert op.Poly((1.0, 0.0, 0.0)).coeffs == (1.0,)
    with pytest.raises(TypeError):
        p * q  # products of polynomials are not supported


def test_poly_call_matches_numpy_polynomial_polyval(rng):
    from numpy.polynomial import polynomial as npp

    points = [0.0, -0.0, 3, -1.25, 0.7 - 0.3j, -2j, complex(-1.5, 0.0),
              rng.standard_normal(7), rng.standard_normal(5) + 1j * rng.standard_normal(5),
              np.array([-0.0, 0.0, 1e-300, -4e40])]
    for degree in range(8):
        for coeffs in (rng.standard_normal(degree + 1), -rng.standard_normal(degree + 1) * 1e3):
            p = op.Poly(tuple(coeffs))
            for x in points:
                got, want = p(x), npp.polyval(x, np.array(p.coeffs))
                # a Python scalar gives a Python scalar, an array an array
                assert isinstance(got, np.ndarray) is isinstance(x, np.ndarray)
                assert np.asarray(got).dtype == np.asarray(want).dtype
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
