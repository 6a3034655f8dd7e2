import inspect
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import opoly as op
from opoly import cli, jacobi, lincomb, quadrature
from opoly.cli import main


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, payload, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


BASE = {
    "family": {"type": "chebyshev", "kind": 1},
    "combination": {"k": 2, "a": ["0", "-0.125"]},
    "horizon": 20,
    "n": 6,
}
# Chebyshev T with gamma_10 raised by 1e-8: its verdict fails at the fixed
# tolerance, where tilde and hk stop and check's oracle agrees
LOOSE = dict(
    BASE,
    family={"type": "explicit", "beta": ["0"] * 25,
            "gamma": ["0.5"] + ["0.25"] * 8 + [repr(0.25 + 1e-8)] + ["0.25"] * 14},
    horizon=24,
)
# every check reads a fixed threshold, so any 'tolerances' field is refused
TOLERANCES_REFUSED = "field 'tolerances' is not accepted: every check runs at its default"
FIELDS = "a config holds only 'family', 'combination', 'horizon' and 'n'"
K2_FIELDS = ("the k2 family holds only 'type', 'case', 'a1', 'a2', 'beta0', 'beta1', "
             "'gamma1', 'A', 'B', 'C', 'D', 'E' and 'F'")


def test_check_passing_config(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    code, out, err = run(capsys, "check", "--config", cfg)
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["pass"] is True
    assert report["result"]["conditions"]["fourier"] == [0.0, -0.25]
    assert report["result"]["gram_oracle"]["agrees_with_verdict"] is True


def test_check_matches_library_verdict(tmp_path, capsys):
    cfg_payload = dict(BASE, combination={"k": 1, "a": ["0.4"]})
    cfg = write_config(tmp_path, cfg_payload)
    code, out, _ = run(capsys, "check", "--config", cfg)
    rec = op.chebyshev_family(1, 20)
    rep = op.check_conditions(rec, op.CombCoeffs((0.4,)), 20)
    assert (code == 0) == rep.verdict
    assert json.loads(out)["result"]["conditions"]["verdict"] == rep.verdict


def test_check_failing_config_exits_one(tmp_path, capsys):
    beta = ["0"] * 21
    beta[5] = "0.1"
    payload = {
        "family": {"type": "explicit", "beta": beta, "gamma": ["0.25"] * 20},
        "combination": {"k": 1, "a": ["0.5"]},
        "horizon": 20,
    }
    cfg = write_config(tmp_path, payload)
    code, out, _ = run(capsys, "check", "--config", cfg)
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_malformed_configs_exit_two(tmp_path, capsys):
    code, _, err = run(capsys, "check", "--config", str(tmp_path / "missing.json"))
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "check", "--config", str(bad))
    assert code == 2
    # a_k = 0 violates the combination invariant
    payload = dict(BASE, combination={"k": 2, "a": ["0.5", "0"]})
    code, _, err = run(capsys, "check", "--config", write_config(tmp_path, payload))
    assert code == 2
    # horizon below k + 3
    payload = dict(BASE, horizon=4)
    code, _, err = run(capsys, "check", "--config", write_config(tmp_path, payload))
    assert code == 2


@pytest.mark.parametrize("case,prefix", [
    ("config-is-a-directory", "cannot read config: "),
    ("config-not-utf8", "cannot read config: 'utf-8' codec can't decode byte 0xff"),
    ("out-is-a-directory", "cannot write report: "),
    ("out-in-missing-directory", "cannot write report: "),
], ids=["config-is-a-directory", "config-not-utf8", "out-is-a-directory",
        "out-in-missing-directory"])
def test_io_errors_exit_two(tmp_path, capsys, case, prefix):
    config, out = str(CONFIG_DIR / "cheb1_k2.json"), []
    if case == "config-is-a-directory":
        config = str(tmp_path)
    elif case == "config-not-utf8":
        (tmp_path / "job.json").write_bytes(b'{"horizon": "\xff"}')
        config = str(tmp_path / "job.json")
    elif case == "out-is-a-directory":
        out = ["--out", str(tmp_path)]
    else:
        out = ["--out", str(tmp_path / "missing" / "report.json")]
    code, stdout, err = run(capsys, "check", "--config", config, *out)
    assert (code, stdout) == (2, "")
    assert err.startswith(f"opoly: config error: {prefix}") and err.count("\n") == 1


@pytest.mark.parametrize(
    "change",
    [
        {"combination": {"k": 2, "a": ["inf", "-0.125"]}},
        {"combination": {"k": 2, "a": ["0", "nan"]}},
        {"combination": {"k": 2, "a": ["0", "-1e400"]}},
        {"combination": {"k": "2.5", "a": ["0", "-0.125"]}},
        {"horizon": "24.9"},
        {"horizon": float("inf")},
        {"n": "6.7"},
        {"tolerances": {"conditions": "nan"}},
        {"tolerances": {"conditions": -1e-10}},
        {"family": {"type": "chebyshev", "kind": True}},
        {"family": {"type": "chebyshev", "kind": 1.5}},
        {"horizon": {"value": 20}},
        {"combination": {"a": "0.5"}},
        {"combination": [0.5]},
        {"tolerances": [1]},
        {"tolerances": 0},
        {"tolerances": ""},
        {"tolerances": []},
    ],
    ids=["a-inf", "a-nan", "a-overflow", "k-fraction", "horizon-fraction", "horizon-inf",
         "n-fraction", "tol-nan", "tol-negative",
         "kind-bool", "kind-fraction", "horizon-object", "a-not-list", "combination-list",
         "tolerances-list", "tolerances-zero", "tolerances-empty-string", "tolerances-empty-list"],
)
def test_non_finite_or_non_integral_numbers_exit_two(tmp_path, capsys, change):
    code, _, err = run(capsys, "check", "--config", write_config(tmp_path, dict(BASE, **change)))
    assert code == 2
    assert err.startswith("opoly: config error: field ")
    if "tolerances" in change:  # refused whatever its value
        assert err == f"opoly: config error: {TOLERANCES_REFUSED}\n"


def test_only_the_oracle_takes_a_tolerance():
    # each check reads one fixed threshold where it is made; only the exact
    # oracle still takes its ratio threshold as an argument
    takes = set()
    for name in op.__all__:
        obj = getattr(op, name)
        if not callable(obj) or (isinstance(obj, type) and issubclass(obj, Exception)):
            continue
        if {"tol", "cross_tol"} & set(inspect.signature(obj).parameters):
            takes.add(name)
    assert takes == {"oracle_gram_check"}


K1 = {"type": "k1", "a1": "0.5", "beta0": "0", "beta1": "0", "beta2": "0", "gammas": ["0.25"] * 20}
# a_1 lam B = (1 + lam) E fails: E = 0.9 where the real-root case needs about 0.0553
K2 = {"type": "k2", "case": "real_roots", "a1": "1", "a2": "0.2", "A": "0", "B": "0.2",
      "D": "0.25", "E": "0.9", "beta0": "0", "beta1": "0", "gamma1": "0.3"}
# a valid a1 = 0 profile but for its zero seed gamma_1
K2_A1_ZERO = {"type": "k2", "case": "a1_zero", "a1": "0", "a2": "-0.125", "A": "0", "B": "0",
              "D": "0.25", "E": "0.25", "beta0": "0", "beta1": "0", "gamma1": "0"}


@pytest.mark.parametrize(
    "payload,message",
    [
        ([BASE], "config must be a JSON object"),
        ({key: v for key, v in BASE.items() if key != "horizon"}, "config needs a 'horizon' field"),
        (dict(BASE, family=["chebyshev"]), "family must be an object with a 'type' field"),
        (dict(BASE, family={"type": "chebyshev", "kind": 5}),
         "chebyshev family: kind must be 1, 2, 3 or 4; got 5"),
        (dict(BASE, family={"type": "explicit", "beta": ["0"] * 20, "gamma": ["0.25"] * 20}),
         "explicit family needs 21 betas and 20 gammas"),
        (dict(BASE, family={"type": "laguerre"}), "unknown family type 'laguerre'"),
        (dict(BASE, family={"type": "k2", "case": ["x"], "a2": "0.2", "gamma1": "0.3"}),
         "k2 family 'case' must be one of "
         "['a1_zero', 'complex_roots', 'equal_roots', 'real_roots']"),
        (dict(BASE, combination={"k": 1, "a": ["0", "-0.125"]}),
         "combination.k disagrees with len(combination.a)"),
        ({key: v for key, v in BASE.items() if key != "combination"},
         "config needs a 'combination' (or a generator family)"),
        (dict(BASE, tolerances={"gram": 1e-9}), TOLERANCES_REFUSED),
        (dict(BASE, tolerances={"gram": 1e-9}, N=20), TOLERANCES_REFUSED),
        (dict(BASE, tolerance={"conditions": 1e-5}, N=20),
         f"unknown fields ['N', 'tolerance']: {FIELDS}"),
        (dict(BASE, lambda_=0.5), f"unknown fields ['lambda_']: {FIELDS}"),
        (dict(BASE, combination={"k": 2, "a": ["0", "-0.125"], "a3": "0"}),
         "unknown fields ['a3']: the combination holds only 'k' and 'a'"),
        (dict(BASE, family={"type": "chebyshev", "kind": 1, "Kind": 2}),
         "unknown fields ['Kind']: the chebyshev family holds only 'type' and 'kind'"),
        ({"family": dict(K1, beta3="0.1"), "horizon": 12},
         "unknown fields ['beta3']: the k1 family holds only "
         "'type', 'gammas', 'beta0', 'beta1', 'beta2' and 'a1'"),
        (dict(BASE, family={"type": "explicit", "beta": ["0"] * 21, "gamma": ["0.25"] * 20,
                            "betas": []}),
         "unknown fields ['betas']: the explicit family holds only 'type', 'beta' and 'gamma'"),
        # refused before the family is built: a misspelt beta1 would fall back to 0
        ({"family": dict(K2, beta_1="0.05"), "horizon": 20},
         f"unknown fields ['beta_1']: {K2_FIELDS}"),
        (dict(BASE, horizon=1), "horizon must be at least 4 (k + 3 with k >= 1), got 1"),
        (dict(BASE, horizon=0, family={"type": "explicit", "beta": ["0"], "gamma": []}),
         "horizon must be at least 4 (k + 3 with k >= 1), got 0"),
        ({"family": K1, "horizon": 2}, "horizon must be at least 4 (k + 3 with k >= 1), got 2"),
        ({"family": dict(K1, gammas=["0.25"] * 2), "horizon": 12},
         "k1 family: need 12 gammas, got 2"),
        ({"family": dict(K1, a1="0"), "horizon": 12}, "k1 family: a1 must be nonzero"),
        ({"family": dict(K1, gammas=["0"] * 20), "horizon": 12},
         "k1 family: gamma_1 = 0.0 is numerically zero; the family is not quasi-definite"),
        ({"family": K2_A1_ZERO, "horizon": 20},
         "k2 family: gamma_1 = 0.0 is numerically zero; the family is not quasi-definite"),
        ({"family": {"type": "k2", "case": "real_roots", "a1": "1", "a2": "0", "gamma1": "0.3"},
          "horizon": 20}, "k2 family: a2 must be nonzero"),
        ({"family": K2, "horizon": 20}, "k2 family: real-root case needs a1*lam*B = (1 + lam)*E"),
        ({"family": dict(K2, case="equal_roots"), "horizon": 20},
         "k2 family: case 'equal_roots' inconsistent with a1=1.0, a2=0.2 (expected 'real_roots')"),
        # a1^2 > 4 a2, but 2 - a1^2/a2 rounds to 2.0, so the root formula sees a double root
        ({"family": dict(K2, a1="1e-9", a2="-1"), "horizon": 20},
         "k2 family: a1^2 - 4 a2 must be positive for distinct real roots"),
    ],
    ids=["not-object", "no-horizon", "family-not-object", "kind-5", "explicit-length",
         "unknown-family", "k2-case-list", "k-mismatch", "no-combination", "unknown-tolerance",
         "tolerances-before-unknown", "misspelt-fields", "unknown-field",
         "unknown-combination-field", "unknown-chebyshev-field", "unknown-k1-field",
         "unknown-explicit-field", "unknown-k2-field",
         "chebyshev-horizon-1", "explicit-horizon-0", "k1-horizon-2", "k1-short-gammas",
         "k1-a1-zero", "k1-gammas-zero", "k2-gamma1-zero", "k2-a2-zero", "k2-off-constraint", "k2-case-mismatch",
         "k2-double-root"],
)
def test_inconsistent_configs_exit_two(tmp_path, capsys, payload, message):
    code, out, err = run(capsys, "check", "--config", write_config(tmp_path, payload))
    assert (code, out) == (2, "")
    assert err == f"opoly: config error: {message}\n"


def test_hk_fails_when_orthonormal_identity_fails(monkeypatch, capsys):
    # the relation passes, so the failed identity alone sets the exit code
    # (tests/test_jacobi.py has a family on which the identity really fails)
    monkeypatch.setattr(cli, "orthonormal_identity_check",
                        lambda *args: op.OrthonormalReport(False, 1.0))
    code, out, err = run(capsys, "hk", "--config", str(CONFIG_DIR / "cheb1_k2.json"))
    report = json.loads(out)
    assert report["result"]["relation"]["ok"] is True
    assert report["result"]["orthonormal_identity"] == {"ok": False, "residual": 1.0}
    assert (code, err) == (1, "")
    assert report["pass"] is False


@pytest.mark.parametrize("kind", [1.0, "2"])
def test_integral_chebyshev_kind_is_accepted(tmp_path, capsys, kind):
    cfg = write_config(tmp_path, dict(BASE, family={"type": "chebyshev", "kind": kind}))
    assert run(capsys, "tilde", "--config", cfg)[0] == 0
    rec, expected = cli.load_config(cfg).rec, op.chebyshev_family(int(float(kind)), 20)
    assert np.array_equal(rec.beta, expected.beta)
    assert np.array_equal(rec.gamma[1:], expected.gamma[1:])


@pytest.mark.parametrize(
    "argv",
    [
        ["bogus", "--config", "job.json"],
        ["check"],
        ["check", "--config", "job.json", "--format", "xml"],
        # reports are JSON only, and there is no format flag to choose it
        ["check", "--config", str(CONFIG_DIR / "cheb1_k2.json"), "--format", "json"],
        ["tilde", "--config", str(CONFIG_DIR / "cheb1_k2.json"), "--format", "csv"],
        # tolerances are set in the config only, which the report echoes
        ["tilde", "--config", str(CONFIG_DIR / "cheb1_k2.json"), "--tol-conditions", "0"],
        ["zeros", "--config", str(CONFIG_DIR / "cheb1_k2.json"), "--tol-zeros=1e-6"],
        ["hk", "--config", str(CONFIG_DIR / "cheb1_k2.json"), "--tol-hk", "1e-5"],
        ["quad", "--config", str(CONFIG_DIR / "cheb1_k2.json"), "--tol-quad=1e-3"],
    ],
    ids=["unknown-command", "missing-config", "bad-format", "format-json", "format-csv",
         "tol-conditions", "tol-zeros", "tol-hk", "tol-quad"],
)
def test_usage_errors_exit_two(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_json_encoding_rejects_unknown_values():
    with pytest.raises(TypeError):
        cli._emit({"x": object()}, None)
    with pytest.raises(TypeError):  # report keys are strings; stdlib would write "1"
        cli._emit({"x": {1: 0}}, None)


class _Str(str):
    pass


class _Float(float):
    def __repr__(self):  # json writes float.__repr__, never a subclass's
        return "1.5"


@pytest.mark.parametrize("value", [
    float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 1.7976931348623157e308,
    0.1, 2**70, -(2**70), 0, True, False, None, "", "plain", "caf\u00e9 \u2211 \U0001f600",
    "tab\tquote\"slash\\nl\n\x00\x1f\x7f", [], {}, [[]], {"a": {}}, [{}, [[]], ()],
    (1.5, "x", None), np.float64(0.1), np.float64("nan"), [np.float64(-0.0), 3],
    _Str("sub"), {"\u00e9": 1, "b\n": [1, {"c": []}], "a": (2.5, {"z": None, "y": True})},
    {"deep": [[[{"x": [1.0, float("inf")]}]]], "empty": {"l": [], "d": {}}},
    {"b": 0, "a": 1, "\u00e9": 2, "\x01": 3, "": 4},
    # float lists, one repr each, and the lists that keep the leaf path
    [1e-05, 1e16, -0.0, 5e-324, 1.7976931348623157e308, 0.1], [2.5], [1.0, float("nan")],
    [float("inf"), -2.0], [-1.0, float("-inf")], [0.5, np.float64(0.1)], [np.float64(1e-7)],
    [1, 2.5], [2.5, True], [2.5, _Float(0.1)], (0.5, 1e-07, -2.0), (0.5,),
    [[[0.1, -0.0, 2e-300]]],
    {"x": [[1.5, 1e300], [float("nan")], []], "y": ([0.25],)},
], ids=repr)
def test_json_text_matches_stdlib_indent(value):
    assert cli._json_text(value, "") == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [{"x": np.int64(1)}, [np.bool_(True)], {"x": {1, 2}},
                                   {(1, 2): 0}, {"x": 1j}])
def test_json_text_rejects_what_stdlib_rejects(value):
    with pytest.raises(TypeError):
        json.dumps(value, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        cli._json_text(value, "")


@pytest.mark.parametrize("command", ["check", "tilde", "zeros", "hk", "quad", "gen"])
def test_reports_equal_stdlib_indented_json(command):
    emitted = 0
    for path in sorted(CONFIG_DIR.glob("*.json")):
        cfg = cli.load_config(str(path))
        cfg.n = 10
        try:
            code, result = cli._COMMANDS[command](cfg)
        except (op.OpolyError, ValueError):  # the runs that print no report
            continue
        report = cli._report(command, cfg, code == 0, result)
        assert cli._json_text(report, "") == json.dumps(report, sort_keys=True, indent=2)
        emitted += 1
    assert emitted


def test_check_reports_degenerate_oracle_completion(tmp_path, capsys):
    # no orthogonal completion exists (tilde gamma_1 = 0 exactly): the oracle
    # reports the exact degeneracy, agrees with the failed verdict, exit 1
    payload = dict(BASE, family={"type": "chebyshev", "kind": 2},
                   combination={"k": 2, "a": ["1", "0.25"]}, horizon=24)
    code, out, _ = run(capsys, "check", "--config", write_config(tmp_path, payload))
    assert code == 1
    report = json.loads(out)
    assert report["result"]["conditions"]["verdict"] is False
    gram = report["result"]["gram_oracle"]
    assert gram["ok"] is False
    assert gram["error"] == "exact completion: tilde gamma at degree 1 is zero"
    assert gram["agrees_with_verdict"] is True


def test_check_reports_zero_determination_denominator(tmp_path, capsys):
    # k = 1: gamma_2 + a_1 (beta_1 - beta_2) = 1/4 + (0 - 1/2)/2 = 0, so the
    # combination is not determined; the oracle's exact completion agrees
    payload = {"family": {"type": "explicit", "beta": ["0", "0", "0.5"] + ["0"] * 10,
                          "gamma": ["0.25"] * 12},
               "combination": {"a": ["0.5"]}, "horizon": 12}
    code, out, _ = run(capsys, "check", "--config", write_config(tmp_path, payload))
    assert code == 1
    result = json.loads(out)["result"]
    conditions = result["conditions"]
    assert conditions["failures"][0] == (
        "gamma_{k+1} + a_1*(beta_k - beta_{k+1}) is numerically zero")
    assert conditions["denominator"] == 0.0
    assert result["gram_oracle"]["error"] == "exact completion: denominator is zero"
    assert result["gram_oracle"]["agrees_with_verdict"] is True


def test_numeric_error_exits_three(tmp_path, capsys):
    # finite data whose exact values leave the float range
    payload = dict(BASE, family={"type": "explicit", "beta": ["1e200", "-1e200"] * 10 + ["1e200"],
                                 "gamma": ["0.25"] * 20}, combination={"k": 1, "a": ["0.5"]})
    code, out, err = run(capsys, "check", "--config", write_config(tmp_path, payload))
    assert code == 3
    assert err.startswith("opoly: NumericError: ")
    # a_1 gamma_1 / (gamma_2 + a_1 (beta_1 - beta_2)) = 0.5e300 / 1e-9 in the P-basis row of Q_1
    payload = dict(BASE, family={"type": "explicit", "beta": ["0", "0", "0.5"] + ["0"] * 18,
                                 "gamma": ["1e300", "0.250000001"] + ["0.25"] * 18},
                   combination={"k": 1, "a": ["0.5"]})
    code, out, err = run(capsys, "check", "--config", write_config(tmp_path, payload))
    assert code == 3
    assert err.startswith("opoly: NumericError: low-degree completion: ")


def test_zero_gamma_is_named_as_a_plain_float(tmp_path, capsys):
    payload = dict(BASE, family={"type": "explicit", "beta": ["0"] * 21,
                                 "gamma": ["0"] + ["0.25"] * 19})
    code, out, err = run(capsys, "check", "--config", write_config(tmp_path, payload))
    assert (code, out) == (2, "")
    assert err == ("opoly: config error: explicit family: gamma_1 = 0.0 is numerically zero; "
                   "the family is not quasi-definite\n")


def test_k1_zero_denominator_is_judged_by_the_verdict(tmp_path, capsys):
    # gamma_2 + a_1 (beta_1 - beta_2) = 1/4 + (0 - 1/4) = 0, spelled as a k1
    # generator and as the explicit family it builds: both build, both fail
    spellings = [
        {"family": dict(K1, a1="1", beta2="0.25"), "horizon": 12},
        {"family": {"type": "explicit", "beta": ["0", "0"] + ["0.25"] * 11,
                    "gamma": ["0.25"] * 12},
         "combination": {"a": ["1"]}, "horizon": 12},
    ]
    failures = []
    for payload in spellings:
        code, out, err = run(capsys, "check", "--config", write_config(tmp_path, payload))
        assert (code, err) == (1, "")
        failures.append(json.loads(out)["result"]["conditions"]["failures"])
    assert failures[0] == failures[1]
    assert failures[0][0] == "gamma_{k+1} + a_1*(beta_k - beta_{k+1}) is numerically zero"
    code, out, err = run(capsys, "gen", "--config", write_config(tmp_path, spellings[0]))
    assert (code, err) == (1, "")
    assert json.loads(out)["result"]["validation"]["failures"] == failures[0]


# gen_k2_real_roots with D = 1e200 passes the verdict, but the norm product
# v(Q_2^2) and the Newton recurrence overflow
K2_OVERFLOW = json.loads((CONFIG_DIR / "gen_k2_real_roots.json").read_text())
K2_OVERFLOW["family"]["D"] = "1e200"
# beta_1 - beta_2 = 2e308: the orthonormal table p_i(x_l) of the Gauss rule
# overflows, and two of its computed nodes coincide
QUAD_OVERFLOW = {
    "family": {"type": "explicit", "beta": ["0", "1e308", "-1e308"] + ["0"] * 5,
               "gamma": ["0.25"] * 7},
    "combination": {"a": ["1"]},
    "horizon": 7,
}
NEWTON_INF = "eigenvalue/Newton cross-check mismatch: multiset distance inf"


@pytest.mark.parametrize("payload,command,n,message", [
    pytest.param(K2_OVERFLOW, "hk", "10", "h_k is not a finite degree-2 polynomial: "
                 "u(Q_j) / v(Q_j^2) = [1.0, 1e-200, 0.0]", id="hk"),
    pytest.param(K2_OVERFLOW, "zeros", "10", NEWTON_INF, id=f"zeros-{NEWTON_INF}"),
    pytest.param(K2_OVERFLOW, "quad", "10", NEWTON_INF, id=f"quad-{NEWTON_INF}"),
    pytest.param(QUAD_OVERFLOW, "quad", "4", "quadrature nodes or weights are not finite",
                 id="quad_overflow"),
])
def test_overflow_refusals_print_one_line(tmp_path, capsys, payload, command, n, message):
    # one refusal line, no warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, command, "--config", write_config(tmp_path, payload),
                             "--n", n)
    assert (code, out) == (3, "")
    assert err == f"opoly: NumericError: {message}\n"


def test_quad_degree_rows_past_the_float_range_warn_nothing(tmp_path, capsys):
    # beta_5 = 1e308 reaches only the rows p_6 that measure the degree of the
    # n = 5 rules: the weights are finite, and the rows that overflow fail the
    # exactness test without an arithmetic warning
    payload = dict(QUAD_OVERFLOW, combination={"a": ["0.5"]},
                   family={"type": "explicit", "beta": ["0"] * 5 + ["1e308", "0", "0"],
                           "gamma": ["0.25"] * 7})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "quad", "--config", write_config(tmp_path, payload),
                             "--n", "5")
    assert (code, err) == (1, "")
    result = json.loads(out)["result"]
    assert result["gauss"]["degree_of_precision"] < result["gauss"]["expected"]


@pytest.mark.parametrize("beta,gamma", [
    (["0"] * 3 + ["1e200", "-1e200"] * 11, ["0.25"] * 24),
    (["0"] * 25, ["0.25"] * 3 + ["1e300"] * 21),
], ids=["beta-1e200", "gamma-1e300"])
def test_check_refuses_gram_past_float_range(tmp_path, capsys, beta, gamma):
    # the completion is finite, but exact Gram values are not: exit 3, not a traceback
    payload = dict(BASE, family={"type": "explicit", "beta": beta, "gamma": gamma},
                   combination={"k": 1, "a": ["0.5"]}, horizon=24)
    code, out, err = run(capsys, "check", "--config", write_config(tmp_path, payload))
    assert (code, out) == (3, "")
    assert err.startswith("opoly: NumericError: Gram oracle: ")


def test_tilde_table(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    code, out, _ = run(capsys, "tilde", "--config", cfg)
    assert code == 0
    table = json.loads(out)["result"]["tilde"]
    rec = op.chebyshev_family(1, 20)
    comb = op.CombCoeffs((0.0, -0.125))
    tilde = op.tilde_recurrence(rec, comb, 20)
    assert table[0]["beta"] == tilde.beta[0]
    for entry in table[1:]:
        n = entry["n"]
        assert entry["beta"] == pytest.approx(tilde.beta[n], abs=1e-15)
        assert entry["gamma"] == pytest.approx(tilde.gamma[n], abs=1e-15)


def test_zeros_command(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    code, out, _ = run(capsys, "zeros", "--config", cfg, "--n", "4")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["n"] == 4
    assert result["cross_check_distance"] < 1e-8
    zs = [z["re"] for z in result["zeros"]]
    assert zs == sorted(zs)


def test_zeros_needs_n(tmp_path, capsys):
    payload = dict(BASE)
    del payload["n"]
    cfg = write_config(tmp_path, payload)
    code, _, err = run(capsys, "zeros", "--config", cfg)
    assert code == 2


@pytest.mark.parametrize(
    "command,n,lo,hi",
    # cheb1_k2 has k = 2 and horizon 24
    [("zeros", n, 3, 25) for n in (0, 1, 2, 26, 200)]
    + [("quad", n, 3, 23) for n in (0, 1, 2, 24, 27)],
)
def test_n_out_of_range_exits_two(capsys, command, n, lo, hi):
    code, out, err = run(capsys, command, "--config", str(CONFIG_DIR / "cheb1_k2.json"),
                         "--n", str(n))
    assert code == 2
    assert out == ""
    assert f"config error: {command} needs n in [{lo}, {hi}], got {n}" in err


@pytest.mark.parametrize("command,n", [("zeros", 3), ("zeros", 25), ("quad", 3), ("quad", 23)])
def test_n_range_ends_are_accepted(capsys, command, n):
    code, _, err = run(capsys, command, "--config", str(CONFIG_DIR / "cheb1_k2.json"),
                       "--n", str(n))
    assert code == 0, err


def test_hk_command(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(BASE, horizon=24))
    code, out, _ = run(capsys, "hk", "--config", cfg)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["relation"]["ok"] is True
    assert result["relation"]["max_residual"] < 1e-9
    assert result["positivity"]["positive_on_grid"] is True
    assert result["orthonormal_identity"]["ok"] is True


HK_FLOOR_A = {3: ["0.3", "0.2", "0.1"], 4: ["0.2", "0.1", "0.05", "0.02"]}


@pytest.mark.parametrize("k,horizon,code", [
    (3, 6, 2), (3, 7, 0), (3, 18, 0), (4, 8, 2), (4, 9, 0),
])
def test_hk_default_truncation_needs_horizon_2k_plus_1(tmp_path, capsys, k, horizon, code):
    # the truncation m = min(16, horizon + 1 - k) reaches the orthonormal
    # identity's least k + 2 (one compared row) at horizon 2k + 1, and 16 at
    # horizon 15 + k; load_config's own floor k + 3 lies below 2k + 1 for k >= 3
    payload = {"family": {"type": "chebyshev", "kind": 2},
               "combination": {"a": HK_FLOOR_A[k]}, "horizon": horizon}
    got, out, err = run(capsys, "hk", "--config", write_config(tmp_path, payload))
    assert got == code, err
    if code == 2:
        assert out == ""
        assert err == (f"opoly: config error: hk needs horizon >= 2k + 1 = {2 * k + 1}, "
                       f"got {horizon}\n")
    else:
        result = json.loads(out)["result"]
        assert result["truncation"] == min(16, horizon + 1 - k)
        assert result["orthonormal_identity"]["ok"] is True


def test_hk_refuses_truncation_field(tmp_path, capsys):
    # the truncation is always min(16, horizon + 1 - k); a config's
    # hk_truncation is an unknown field, refused like any other
    payload = json.loads((CONFIG_DIR / "cheb1_k2.json").read_text())
    code, out, err = run(capsys, "hk", "--config", write_config(tmp_path, payload))
    assert code == 0, err
    payload["hk_truncation"] = 9
    code, out, err = run(capsys, "hk", "--config", write_config(tmp_path, payload))
    assert (code, out) == (2, "")
    assert err == f"opoly: config error: unknown fields ['hk_truncation']: {FIELDS}\n"


def scaled_payload(path, s):
    """The config at ``path`` under the exact map ``x -> s x``, as an explicit
    family: ``beta -> s beta``, ``gamma -> s^2 gamma``, ``a_j -> s^j a_j``."""
    cfg = cli.load_config(str(path))
    return {
        "family": {
            "type": "explicit",
            "beta": [s * b for b in cfg.rec.beta],
            "gamma": [s * s * g for g in cfg.rec.gamma[1:]],
        },
        "combination": {"a": [s**j * a for j, a in enumerate(cfg.comb.a, start=1)]},
        "horizon": cfg.rec.horizon,
    }


@pytest.mark.parametrize("s", [2.0, -1.0, 0.125, 16.0, 1 / 1024])
@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.name)
def test_hk_verdict_is_covariant_under_scaling(tmp_path, capsys, path, s):
    # powers of two keep every scaled coefficient exact, so the verdict and the
    # relation residual must not depend on the unit of x
    code, _, err = run(capsys, "hk", "--config", str(path))
    cfg = write_config(tmp_path, scaled_payload(path, s))
    scaled_code, out, scaled_err = run(capsys, "hk", "--config", cfg)
    assert scaled_code == code, (err, scaled_err)
    relation = json.loads(out)["result"].get("relation")
    if relation is not None:
        assert relation["max_residual"] <= 1e-13


SCALES = [2.0, -1.0, 0.125, 16.0, 1 / 1024]
BUNDLED = sorted(CONFIG_DIR.glob("*.json"))
# The configs whose exit code at --n 20 changes under x -> s x, by command
# and scale: none, on either zeros route.
SCALE_MISMATCHES = {}


@pytest.mark.parametrize("s", SCALES)
@pytest.mark.parametrize("command", ["zeros", "quad"])
def test_zeros_and_quad_exit_codes_under_scaling(tmp_path, capsys, command, s):
    mismatched = set()
    for path in BUNDLED:
        code, _, _ = run(capsys, command, "--config", str(path), "--n", "20")
        cfg = write_config(tmp_path, scaled_payload(path, s))
        if run(capsys, command, "--config", cfg, "--n", "20")[0] != code:
            mismatched.add(path.name)
    assert mismatched == SCALE_MISMATCHES.get((command, s), set())


def _zeros(capsys, cfg, n):
    code, out, err = run(capsys, "zeros", "--config", cfg, "--n", str(n))
    assert code == 0, err
    return np.array([complex(z["re"], z["im"]) for z in json.loads(out)["result"]["zeros"]])


@pytest.mark.parametrize("s", SCALES)
@pytest.mark.parametrize("name", [p.name for p in BUNDLED])
def test_tilde_route_zeros_are_covariant_under_scaling(tmp_path, capsys, name, s):
    # on both routes, J^_n and the balanced eigvals matrix, the zeros mapped
    # back by s and sorted again, complex ones included, are the unscaled zeros
    scaled = write_config(tmp_path, scaled_payload(CONFIG_DIR / name, s))
    for n in (3, 10, 20):
        z = _zeros(capsys, str(CONFIG_DIR / name), n)
        back = _zeros(capsys, scaled, n) / s
        back = back[np.lexsort((back.imag, back.real))]
        assert np.all(np.abs(back - z) <= 1e-14 * np.maximum(1.0, np.abs(z))), n


def test_quad_command(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(BASE, horizon=24))
    code, out, _ = run(capsys, "quad", "--config", cfg, "--n", "6")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["gauss"]["degree_of_precision"] == 11
    assert result["combination"]["degree_of_precision"] == 9
    assert result["combination"]["ok"] is True


def test_reports_read_the_library_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(BASE, horizon=24))
    rec = op.chebyshev_family(1, 24)
    comb = op.CombCoeffs((0.0, -0.125))
    n = 6
    code, out, _ = run(capsys, "quad", "--config", cfg, "--n", str(n))
    assert code == 0
    block = json.loads(out)["result"]["combination"]
    shohat = op.shohat_check(rec, comb, n)
    assert block["nodes"] == list(shohat.rule.nodes)
    assert block["weights"] == list(shohat.rule.weights)
    assert block["degree_of_precision"] == shohat.rule.degree_of_precision
    assert block["ok"] is shohat.ok
    code, out, _ = run(capsys, "zeros", "--config", cfg, "--n", str(n))
    assert code == 0
    result = json.loads(out)["result"]
    zq = op.zeros_q(rec, comb, n)
    assert result["zeros"] == [{"re": z.real, "im": z.imag} for z in zq.zeros]
    assert result["cross_check_distance"] == zq.cross_check_distance
    assert result["coefficients"] == list(op.q_poly(rec, comb, n).coeffs)


@pytest.mark.parametrize(
    "name,n",
    [("gen_k2_a1_zero.json", 28), ("gen_k2_real_roots.json", 30), ("gen_k2_equal_roots.json", 34)],
)
def test_quad_honours_zeros_tolerance(capsys, name, n):
    # quad takes its nodes from the zeros_q run that zeros reports, under the
    # same fixed cross-check tolerance
    argv = ("--config", str(CONFIG_DIR / name), "--n", str(n))
    code, out, err = run(capsys, "zeros", *argv)
    assert code == 0, err
    zeros = json.loads(out)["result"]["zeros"]
    code, out, err = run(capsys, "quad", *argv)
    assert code != 3, err
    nodes = json.loads(out)["result"]["combination"]["nodes"]
    assert nodes == sorted(z["re"] for z in zeros)


def test_quad_meets_the_law_at_n41_on_chebyshev_u(tmp_path, capsys):
    # one zero of Q_41 lies outside [-1, 1], and its weight falls below the
    # rounding of the table that measures the degree; the Christoffel numbers
    # of J^_41 keep that weight's relative accuracy, where the V w = e_0 solve
    # measured degree 72
    payload = {"family": {"type": "chebyshev", "kind": 2},
               "combination": {"a": ["1", "0.2"]}, "horizon": 64}
    code, out, err = run(capsys, "quad", "--config", write_config(tmp_path, payload),
                         "--n", "41")
    assert (code, err) == (0, "")
    block = json.loads(out)["result"]["combination"]
    assert (block["degree_of_precision"], block["expected"]) == (79, 79)


@pytest.mark.parametrize("edge", ["hat_just_inside", "hat_just_outside"])
@pytest.mark.parametrize("command", ["zeros", "quad"])
def test_zeros_and_quad_keep_the_failure_contract_at_the_hat_boundary(
        tmp_path, capsys, command, edge):
    # Chebyshev U with a_2 = 1/4 - 2^-40 (J^ route) and a_2 = 1/4 (eigvals
    # route, where Q_n = x P_{n-1} has a double zero for even n): every n
    # exits 0, 1 or 3, and a refusal is one typed line
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
    import golden

    cfg = write_config(tmp_path, golden.edge_configs()[edge])
    top = 24 if command == "zeros" else 22
    codes = set()
    for n in range(3, top + 2):
        code, out, err = run(capsys, command, "--config", cfg, "--n", str(n))
        assert code in (0, 1, 3), (n, err)
        if code == 3:
            assert err.startswith("opoly: NumericError: ") and err.count("\n") == 1, err
        codes.add(code)
    assert codes == ({0} if edge == "hat_just_inside" else {0, 3})


@pytest.mark.parametrize("command", ["zeros", "quad"])
@pytest.mark.parametrize("name", ["cheb1_k2.json", "gen_k2_real_roots.json"])
def test_zeros_and_quad_read_no_verdict(monkeypatch, capsys, command, name):
    # zeros_q picks its own route, so neither command takes check_conditions
    def refuse(*args, **kwargs):
        raise AssertionError(f"{command} called check_conditions")

    monkeypatch.setattr(cli, "check_conditions", refuse)
    monkeypatch.setattr(lincomb, "check_conditions", refuse)
    code, _, err = run(capsys, command, "--config", str(CONFIG_DIR / name), "--n", "10")
    assert (code, err) == (0, "")


def test_quad_reaches_both_laws_at_n28_on_a1_zero(capsys):
    argv = ("--config", str(CONFIG_DIR / "gen_k2_a1_zero.json"), "--n", "28")
    code, out, err = run(capsys, "quad", *argv)
    assert code == 0, err
    result = json.loads(out)["result"]
    assert result["gauss"]["degree_of_precision"] == 55
    assert result["combination"]["degree_of_precision"] == 53


@pytest.mark.parametrize("name", ["gen_k2_real_roots.json", "gen_k2_a1_zero.json"])
def test_zeros_at_n30_pass_the_newton_cross_check(capsys, name):
    code, out, err = run(capsys, "zeros", "--config", str(CONFIG_DIR / name), "--n", "30")
    assert code == 0, err
    assert json.loads(out)["result"]["cross_check_distance"] <= 1e-8


def test_hk_positivity_samples_the_spectrum_hull(capsys):
    path = CONFIG_DIR / "gen_k2_equal_roots.json"
    code, out, err = run(capsys, "hk", "--config", str(path))
    assert code == 0, err
    block = json.loads(out)["result"]["positivity"]
    cfg = cli.load_config(str(path))
    assert np.all(cfg.rec.gamma[1:] > 0)  # so the hull comes from the symmetric matrix
    eigs = np.linalg.eigvalsh(op.jacobi._symmetric_jacobi(cfg.rec, cfg.rec.horizon + 1))
    assert block["interval"] == [float(eigs.min()), float(eigs.max())]
    assert block["interval"][1] > 5.0  # the spectrum reaches far past [-1, 1]


def test_hk_hull_scales_with_x(tmp_path, capsys):
    # under the exact map x -> 16 x the hull must scale by 16, to within a
    # few ulps of the spectral radius
    cfg = cli.load_config(str(CONFIG_DIR / "gen_k2_equal_roots.json"))
    hulls = []
    for s in (1.0, 16.0):
        payload = {
            "family": {"type": "explicit", "beta": (s * cfg.rec.beta).tolist(),
                       "gamma": (s * s * cfg.rec.gamma[1:]).tolist()},
            "combination": {"a": [s**j * v for j, v in enumerate(cfg.comb.a, start=1)]},
            "horizon": cfg.rec.horizon,
        }
        code, out, err = run(capsys, "hk", "--config", write_config(tmp_path, payload))
        assert code == 0, err
        hulls.append(json.loads(out)["result"]["positivity"]["interval"])
    (lo, hi), (lo16, hi16) = hulls
    ulp = np.spacing(16.0 * max(abs(lo), abs(hi)))
    assert abs(lo16 - 16.0 * lo) <= 4 * ulp and abs(hi16 - 16.0 * hi) <= 4 * ulp


@pytest.mark.parametrize("family,ortho", [
    # every gamma_n = -1/4: eigvals of J_P would give the real parts of an
    # imaginary spectrum, and the orthonormal form has no square roots
    ({"type": "explicit", "beta": ["0"] * 25, "gamma": ["-0.25"] * 24}, None),
    # gamma_22..24 = -1/4: no hull, but at m = 16 the orthonormal identity
    # reads gamma_n and tilde gamma_n only for n < m + k = 17
    ({"type": "k1", "a1": "0.5", "beta0": "0", "beta1": "0", "beta2": "0",
      "gammas": ["0.25"] * 21 + ["-0.25"] * 3}, True),
], ids=["all-negative", "negative-tail"])
def test_hk_blocks_need_positive_gammas(tmp_path, capsys, family, ortho):
    payload = {"family": family, "horizon": 24}
    if family["type"] == "explicit":
        payload["combination"] = {"a": ["0", "0.125"]}
    code, out, err = run(capsys, "hk", "--config", write_config(tmp_path, payload))
    assert code == 0, err
    result = json.loads(out)["result"]
    assert result["relation"]["ok"] is True
    assert result["positivity"] is None
    if ortho is None:
        assert result["orthonormal_identity"] is None
    else:
        assert result["truncation"] == 16
        assert result["orthonormal_identity"]["ok"] is True
        assert result["orthonormal_identity"]["residual"] < 1e-14


def _leaf_types(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return set().union(*map(_leaf_types, value))
    return {type(value)}


@pytest.mark.parametrize("command", ["check", "tilde", "zeros", "hk", "quad", "gen"])
def test_results_hold_builtin_scalars(command):
    # the report emitter dispatches on exact types, and a numpy float takes
    # its slower isinstance fallback; a report built from .tolist() avoids it
    seen = set()
    for path in sorted(CONFIG_DIR.glob("*.json")):
        cfg = cli.load_config(str(path))
        cfg.n = 10
        if command == "gen" and cfg.generator_a is None:
            continue
        try:
            _, result = cli._COMMANDS[command](cfg)
        except op.OpolyError:  # e.g. quad on a Q_n with complex zeros
            continue
        seen |= _leaf_types(result)
    assert float in seen and seen <= {int, float, bool, str, type(None)}


def test_gen_requires_generator_family(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    code, _, err = run(capsys, "gen", "--config", cfg)
    assert code == 2


def test_gen_command(tmp_path, capsys):
    payload = {
        "family": {
            "type": "k1", "a1": "0.5",
            "gammas": ["0.25"] * 20,
            "beta0": "0", "beta1": "0", "beta2": "0",
        },
        "horizon": 20,
    }
    cfg = write_config(tmp_path, payload)
    code, out, _ = run(capsys, "gen", "--config", cfg)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["validation"]["verdict"] is True
    assert len(result["family"]["beta"]) == 21


@pytest.mark.parametrize(
    "name", ["gen_k2_equal_roots.json", "gen_k2_real_roots.json", "gen_k2_complex_roots.json"]
)
def test_gen_reports_k2_difference_residual(name, capsys):
    path = CONFIG_DIR / name
    code, out, err = run(capsys, "gen", "--config", str(path))
    assert code == 0, err
    result = json.loads(out)["result"]
    cfg = cli.load_config(str(path))
    a1, a2 = cfg.comb.a
    expected = max(op.k2_difference_residual(seq, a1, a2) for seq in (cfg.rec.beta, cfg.rec.gamma))
    assert result["difference_equation_max_residual"] == expected
    assert expected < 1e-10


@pytest.mark.parametrize("name,lam", [("gen_k2_real_roots.json", 0.38),
                                      ("gen_k2_complex_roots.json", [0.0, 1.0])])
def test_gen_refuses_lambda(tmp_path, capsys, name, lam):
    # a_1 and a_2 fix the root, so no generator reads a lambda: it is refused
    payload = json.loads((CONFIG_DIR / name).read_text())
    payload["family"]["lambda"] = lam
    code, out, err = run(capsys, "gen", "--config", write_config(tmp_path, payload))
    assert (code, out) == (2, "")
    assert err == f"opoly: config error: unknown fields ['lambda']: {K2_FIELDS}\n"


def _renamings(payload):
    """Each copy of ``payload`` with one family or combination key renamed."""
    for block in ("family", "combination"):
        for key in payload.get(block, {}):
            renamed = json.loads(json.dumps(payload))
            renamed[block][key + "_"] = renamed[block].pop(key)
            yield f"{block}.{key}", renamed


@pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.name)
def test_every_renamed_family_or_combination_key_exits_two(tmp_path, capsys, path):
    payload = json.loads(path.read_text())
    command = "gen" if path.name.startswith("gen_") else "check"
    assert run(capsys, command, "--config", str(path))[0] in (0, 1)
    for label, renamed in _renamings(payload):
        code, out, err = run(capsys, command, "--config", write_config(tmp_path, renamed))
        assert (code, out) == (2, ""), label
        assert err.startswith("opoly: config error: ") and err.count("\n") == 1, label


def test_horizon_cap(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(BASE, horizon=80))
    code, _, err = run(capsys, "check", "--config", cfg)
    assert code == 2
    assert "cap" in err


@pytest.mark.parametrize("flag", ["false", True])
def test_horizon_cap_has_no_override(tmp_path, capsys, flag):
    cfg = write_config(tmp_path, dict(BASE, horizon=100, allow_large_horizon=flag))
    code, _, err = run(capsys, "check", "--config", cfg)
    assert code == 2
    assert "horizon 100 exceeds the cap 64" in err


@pytest.mark.parametrize("command", ["check", "quad"])
def test_reports_are_byte_deterministic(tmp_path, capsys, command):
    cfg = write_config(tmp_path, dict(BASE, horizon=24))
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main([command, "--config", cfg, "--out", str(out_a)]) == 0
    assert main([command, "--config", cfg, "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.name)
def test_bundled_configs(path, capsys):
    command = "gen" if path.name.startswith("gen_") else "check"
    code, out, err = run(capsys, command, "--config", str(path))
    expected = 1 if path.name.startswith("broken") else 0
    assert code == expected, err
    assert json.loads(out)["schema"] == 1


@pytest.mark.parametrize(
    "command,config",
    [(command, "gen_k2_real_roots.json") for command in cli._COMMANDS]
    + [(command, "loose") for command in cli._COMMANDS if command != "gen"],
)
def test_report_reproduces_itself(tmp_path, capsys, command, config):
    # rerunning on the config a report echoes, with its result.n where the
    # command reads n, gives the same exit code and the same bytes
    path = write_config(tmp_path, LOOSE) if config == "loose" else str(CONFIG_DIR / config)
    n_argv = ["--n", "10"] if command in ("zeros", "quad") else []
    code, out, err = run(capsys, command, "--config", path, *n_argv)
    report = json.loads(out)
    echo = write_config(tmp_path, report["config"], "echo.json")
    rerun_n = ["--n", str(report["result"]["n"])] if n_argv else []
    assert run(capsys, command, "--config", echo, *rerun_n) == (code, out, err)


def test_import_does_not_load_numpy_polynomial():
    # each bench process keeps whatever `import opoly.cli` loads resident
    src = str(Path(op.__file__).resolve().parent.parent)
    code = "import sys, opoly.cli; sys.exit('numpy.polynomial' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0


def _count_calls(monkeypatch, module, name) -> list:
    """Replace ``module.name`` by a wrapper that records each call."""
    calls, original = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


# The cross-checks of the README's route table, as (module, function, calls)
# in each command: quad measures both rules and runs the Newton check only
# where its nodes come from zeros_q (k >= 2).
CROSS_CHECKS = [
    ("quad", "cheb2_k1.json", [(quadrature, "_table_degree", 2), (jacobi, "_newton_step", 0)]),
    ("quad", "cheb1_k2.json", [(quadrature, "_table_degree", 2), (jacobi, "_newton_step", 1)]),
    ("zeros", "cheb2_k1.json", [(jacobi, "_newton_step", 1)]),
    ("zeros", "cheb1_k2.json", [(jacobi, "_newton_step", 1)]),
    ("check", "cheb1_k2.json", [(lincomb, "exact_gram", 1)]),
    ("hk", "cheb1_k2.json", [(cli, "verify_functional_relation", 1),
                             (cli, "orthonormal_identity_check", 1)]),
    ("gen", "gen_k2_real_roots.json", [(cli, "k2_difference_residual", 2),
                                       (cli, "check_conditions", 1)]),
]


@pytest.mark.parametrize("command,name,checks", CROSS_CHECKS,
                         ids=[f"{c}-{n[:-5]}" for c, n, _ in CROSS_CHECKS])
def test_each_cross_check_runs_in_its_command(monkeypatch, capsys, command, name, checks):
    counts = [(_count_calls(monkeypatch, module, fn), want) for module, fn, want in checks]
    n_argv = ["--n", "10"] if command in ("zeros", "quad") else []
    code, _, err = run(capsys, command, "--config", str(CONFIG_DIR / name), *n_argv)
    assert (code, err) == (0, "")
    assert [len(calls) for calls, _ in counts] == [want for _, want in counts]
