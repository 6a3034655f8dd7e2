import csv
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import opoly as op
from opoly import cli
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


@pytest.mark.parametrize(
    "argv",
    [
        ["bogus", "--config", "job.json"],
        ["check"],
        ["check", "--config", "job.json", "--format", "xml"],
    ],
    ids=["unknown-command", "missing-config", "bad-format"],
)
def test_usage_errors_exit_two(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_json_encoding_of_numpy_and_complex_values(capsys):
    args = SimpleNamespace(format="json", out=None)
    cli._emit(
        {"a": np.arange(2), "i": np.int64(3), "b": np.bool_(True), "z": 1 + 2j,
         "f": np.float64(0.1)},
        [], args,
    )
    numpy_text = capsys.readouterr().out
    cli._emit(
        {"a": [0, 1], "i": 3, "b": True, "z": {"im": 2.0, "re": 1.0}, "f": 0.1},
        [], args,
    )
    assert numpy_text == capsys.readouterr().out
    with pytest.raises(TypeError):
        cli._emit({"x": object()}, [], args)


def test_numeric_error_exits_three(tmp_path, capsys):
    payload = {
        "family": {
            "type": "k2", "case": "real_roots", "a1": "1", "a2": "0.2",
            "A": "0", "B": "0.2", "D": "0.25", "E": "0.9",
            "beta0": "0", "beta1": "0", "gamma1": "0.3",
        },
        "horizon": 20,
    }
    cfg = write_config(tmp_path, payload)
    code, out, err = run(capsys, "gen", "--config", cfg)
    assert code == 3
    assert "ConstraintError" in err


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


def test_tilde_csv_round_trip(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    code, out, _ = run(capsys, "tilde", "--config", cfg, "--format", "csv")
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["n", "beta", "gamma"]
    rec = op.chebyshev_family(1, 20)
    tilde = op.tilde_recurrence(rec, op.CombCoeffs((0.0, -0.125)), 20)
    for row in rows[2:]:
        n = int(row[0])
        assert float(row[1]) == tilde.beta[n]
        assert float(row[2]) == tilde.gamma[n]


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


def test_hk_command(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(BASE, horizon=24))
    code, out, _ = run(capsys, "hk", "--config", cfg)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["residual"] < 1e-9
    assert result["relation"]["ok"] is True
    assert result["positivity"]["positive_on_grid"] is True
    assert result["orthonormal_identity"]["ok"] is True


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
    f = op.moments_from_recurrence(rec, 2 * n + 2)
    shohat = op.shohat_check(rec, comb, f, n, tol=1e-9, cross_tol=1e-8)
    assert block["nodes"] == list(shohat.rule.nodes)
    assert block["weights"] == list(shohat.rule.weights)
    assert block["degree_of_precision"] == shohat.rule.degree_of_precision
    assert block["ok"] is shohat.ok
    code, out, _ = run(capsys, "zeros", "--config", cfg, "--n", str(n))
    assert code == 0
    result = json.loads(out)["result"]
    zq = op.zeros_q(rec, comb, n, cross_tol=1e-8)
    assert result["zeros"] == [{"re": z.real, "im": z.imag} for z in zq.zeros]
    assert result["cross_check_distance"] == zq.cross_check_distance
    assert result["coefficients"] == list(zq.poly.coeffs)


@pytest.mark.parametrize(
    "name,n",
    [("gen_k2_a1_zero.json", 28), ("gen_k2_real_roots.json", 30), ("gen_k2_equal_roots.json", 34)],
)
def test_quad_honours_zeros_tolerance(capsys, name, n):
    # the zeros cross-check on these families exceeds the default 1e-8 here
    # but stays within the 1e-6 the run allows
    argv = ("--config", str(CONFIG_DIR / name), "--n", str(n), "--tol-zeros", "1e-6")
    code, out, err = run(capsys, "zeros", *argv)
    assert code == 0, err
    zeros = json.loads(out)["result"]["zeros"]
    code, out, err = run(capsys, "quad", *argv)
    assert code != 3, err
    nodes = json.loads(out)["result"]["combination"]["nodes"]
    assert nodes == sorted(z["re"] for z in zeros)


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


def test_horizon_cap(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(BASE, horizon=80))
    code, _, err = run(capsys, "check", "--config", cfg)
    assert code == 2
    assert "cap" in err


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
