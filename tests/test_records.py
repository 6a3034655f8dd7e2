"""opoly's records are immutable named tuples whose constructors keep their
checks, messages and normalisations."""

import math
import re

import numpy as np
import pytest

import opoly as op

RECORDS = sorted(name for name in op.__all__
                 if isinstance(getattr(op, name), type) and issubclass(getattr(op, name), tuple))


@pytest.fixture(scope="module")
def records():
    """One instance of each record type, on Chebyshev T with ``a = (0, -1/8)``."""
    rec, comb = op.chebyshev_family(1, 30), op.CombCoeffs((0.0, -0.125))
    report = op.check_conditions(rec, comb, 20)
    hk = op.solve_hk(rec, comb, report)
    return {
        "CombCoeffs": comb,
        "ConditionReport": report,
        "GramReport": op.oracle_gram_check(rec, comb, degree=6),
        "HkSolution": hk,
        "K2Params": op.K2Params(op.K2Case.A1_ZERO, beta0=0.0, beta1=0.0, gamma1=0.5),
        "OrthonormalReport": op.orthonormal_identity_check(rec, comb, report, 8),
        "Poly": op.poly_p(rec, 3),
        "QuadratureRule": op.gauss_rule(rec, 5),
        "RelationReport": op.verify_functional_relation(rec, comb, report, hk.poly),
        "ShohatReport": op.shohat_check(rec, comb, 6),
        "ZerosReport": op.zeros_q(rec, comb, 6),
    }


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable(records, name):
    record = records[name]
    assert type(record) is getattr(op, name)
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):  # no instance dict either
        record.extra = None


@pytest.mark.parametrize("build,message", [
    (lambda: op.CombCoeffs(()), "need at least one coefficient"),
    (lambda: op.CombCoeffs((math.inf, 0.5)), "combination coefficients must be finite"),
    (lambda: op.CombCoeffs((0.5, 0.0)), "a_k must be nonzero"),
    (lambda: op.Poly((1.0, math.nan)), "polynomial coefficients must be finite"),
    (lambda: op.QuadratureRule([0.0, 1.0], [1.0], 1),
     "nodes and weights must be matching 1-D arrays"),
    (lambda: op.QuadratureRule([1.0, 0.0], [0.5, 0.5], 1), "nodes must be strictly increasing"),
], ids=["comb-empty", "comb-inf", "comb-a_k-zero", "poly-nan", "rule-shapes", "rule-order"])
def test_record_constructors_refuse_bad_input(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_record_constructors_normalise_by_keyword():
    assert op.Poly(coeffs=[1, 2, 0, 0]).coeffs == (1.0, 2.0)
    assert op.CombCoeffs(a=[1, 2]).a == (1.0, 2.0)
    params = op.K2Params(case=op.K2Case.A1_ZERO, beta0=0.0, beta1=0.0, gamma1=0.5)
    assert params[4:] == (0.0,) * 6  # A..F default to zero
    nodes, weights = np.array([0.0, 1.0]), [0.5, 0.5]
    rule = op.QuadratureRule(nodes=nodes, weights=weights, degree_of_precision=1)
    assert rule.nodes is not nodes and rule.nodes.dtype == float
    moved = rule._replace(degree_of_precision=2)
    assert moved.degree_of_precision == 2 and moved.nodes is rule.nodes
    for arr in (*rule[:2], *moved[:2]):
        with pytest.raises(ValueError):
            arr[0] = 1.0
