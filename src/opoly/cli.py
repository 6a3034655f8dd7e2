"""Command-line front end: declarative JSON job configs in, reports out.

Usage:

    opoly check|tilde|zeros|hk|quad|gen --config job.json [--out path]
          [--format json|csv] [--n N] [--tol-conditions X] [--tol-zeros X]
          [--tol-hk X] [--tol-quad X]

Every command takes the same options.  A config names exactly one family
(``chebyshev``, ``explicit``, ``k2`` or ``k1``), a combination ``a_1..a_k``,
a horizon, and optional tolerances or a node count ``n``.  Numbers may be
given as decimal strings to avoid double-rounding in published configs.
Reports are deterministic JSON (``schema: 1``); ``--format csv`` emits the
command's main table instead.  ``gen`` on a ``k2`` family with ``a1 != 0``
also reports ``difference_equation_max_residual``, the larger
:func:`~opoly.recurrence.k2_difference_residual` of ``beta`` and ``gamma``.

Exit codes: 0 pass, 1 checked-and-failed, 2 usage/config error,
3 numeric/degeneracy error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .errors import DegeneracyError, OpolyError
from .jacobi import (
    orthonormal_identity_check,
    solve_hk,
    verify_functional_relation,
    zeros_q,
)
from .lincomb import (
    CombCoeffs,
    check_conditions,
    oracle_gram_check,
    tilde_recurrence,
)
from .moments import DEFAULT_MAX_HORIZON, moments_from_recurrence
from .quadrature import gauss_rule, shohat_check
from .recurrence import (
    K2Case,
    K2Params,
    RecurrencePair,
    chebyshev_family,
    k1_family,
    k2_difference_residual,
    k2_family,
)

DEFAULT_TOLERANCES = {
    "conditions": 1e-10,
    "zeros": 1e-8,
    "hk": 1e-8,
    "quad": 1e-9,
}


class ConfigError(ValueError):
    """Malformed or inconsistent job configuration."""


def _num(value, field: str) -> float:
    if isinstance(value, bool) or value is None:
        raise ConfigError(f"field {field!r} must be a number")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError as exc:
            raise ConfigError(f"field {field!r}: cannot parse {value!r}") from exc
    raise ConfigError(f"field {field!r} must be a number, got {type(value).__name__}")


def _num_list(values, field: str) -> list[float]:
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"field {field!r} must be a list of numbers")
    return [_num(v, f"{field}[{i}]") for i, v in enumerate(values)]


def _complex(value, field: str) -> complex:
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_num(value[0], field), _num(value[1], field))
    return complex(_num(value, field))


@dataclass
class JobConfig:
    raw: dict
    rec: RecurrencePair
    comb: CombCoeffs
    horizon: int
    n: int | None
    hk_truncation: int | None
    tolerances: dict
    family_type: str


_K2_CASES = {c.value: c for c in K2Case}


def _build_family(fam: dict, horizon: int) -> tuple[RecurrencePair, str, tuple[float, ...] | None]:
    """Returns (pair, family_type, implied combination or None)."""
    if not isinstance(fam, dict) or "type" not in fam:
        raise ConfigError("family must be an object with a 'type' field")
    ftype = fam["type"]
    if ftype == "chebyshev":
        kind = fam.get("kind")
        if kind not in (1, 2, 3, 4):
            raise ConfigError("chebyshev family needs 'kind' in {1,2,3,4}")
        return chebyshev_family(kind, horizon), ftype, None
    if ftype == "explicit":
        beta = _num_list(fam.get("beta"), "family.beta")
        gamma = _num_list(fam.get("gamma"), "family.gamma")
        if len(beta) != horizon + 1 or len(gamma) != horizon:
            raise ConfigError(
                f"explicit family needs {horizon + 1} betas and {horizon} gammas"
            )
        return RecurrencePair(beta, gamma), ftype, None
    if ftype == "k2":
        case_name = fam.get("case")
        if case_name not in _K2_CASES:
            raise ConfigError(f"k2 family 'case' must be one of {sorted(_K2_CASES)}")
        a1 = _num(fam.get("a1", 0), "family.a1")
        a2 = _num(fam.get("a2"), "family.a2")
        case = _K2_CASES[case_name]
        lam = None
        if "lambda" in fam:
            lam = _complex(fam["lambda"], "family.lambda")
            if lam.imag == 0.0:
                lam = lam.real
        kwargs = {}
        for name in ("A", "D"):
            kwargs[name] = _num(fam.get(name, 0.0), f"family.{name}")
        for name in ("B", "C", "E", "F"):
            val = fam.get(name, 0.0)
            if case is K2Case.COMPLEX_ROOTS:
                kwargs[name] = _complex(val, f"family.{name}")
            else:
                kwargs[name] = _num(val, f"family.{name}")
        params = K2Params(
            case=case,
            beta0=_num(fam.get("beta0", 0.0), "family.beta0"),
            beta1=_num(fam.get("beta1", 0.0), "family.beta1"),
            gamma1=_num(fam.get("gamma1"), "family.gamma1"),
            lam=lam,
            **kwargs,
        )
        return k2_family(a1, a2, params, horizon), ftype, (a1, a2)
    if ftype == "k1":
        gammas = _num_list(fam.get("gammas"), "family.gammas")
        a1 = _num(fam.get("a1"), "family.a1")
        pair = k1_family(
            gammas,
            _num(fam.get("beta0", 0.0), "family.beta0"),
            _num(fam.get("beta1", 0.0), "family.beta1"),
            _num(fam.get("beta2", 0.0), "family.beta2"),
            a1,
            horizon,
        )
        return pair, ftype, (a1,)
    raise ConfigError(f"unknown family type {ftype!r}")


def load_config(path: str) -> JobConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")

    if "horizon" not in raw:
        raise ConfigError("config needs a 'horizon' field")
    horizon = int(_num(raw["horizon"], "horizon"))
    if horizon > DEFAULT_MAX_HORIZON and not raw.get("allow_large_horizon", False):
        raise ConfigError(
            f"horizon {horizon} exceeds the default cap {DEFAULT_MAX_HORIZON}; "
            "set 'allow_large_horizon': true to override"
        )

    rec, ftype, implied = _build_family(raw.get("family"), horizon)

    comb_cfg = raw.get("combination")
    if comb_cfg is not None:
        a = _num_list(comb_cfg.get("a"), "combination.a")
        if "k" in comb_cfg and int(_num(comb_cfg["k"], "combination.k")) != len(a):
            raise ConfigError("combination.k disagrees with len(combination.a)")
        try:
            comb = CombCoeffs(tuple(a))
        except ValueError as exc:
            raise ConfigError(f"invalid combination: {exc}") from exc
    elif implied is not None:
        comb = CombCoeffs(implied)
    else:
        raise ConfigError("config needs a 'combination' (or a generator family)")

    if horizon < comb.k + 3:
        raise ConfigError(f"horizon must be at least k + 3 = {comb.k + 3}")

    tolerances = dict(DEFAULT_TOLERANCES)
    for key, val in (raw.get("tolerances") or {}).items():
        if key not in tolerances:
            raise ConfigError(f"unknown tolerance {key!r}")
        tolerances[key] = _num(val, f"tolerances.{key}")

    n = raw.get("n")
    n = int(_num(n, "n")) if n is not None else None
    hk_m = raw.get("hk_truncation")
    hk_m = int(_num(hk_m, "hk_truncation")) if hk_m is not None else None
    return JobConfig(
        raw=raw, rec=rec, comb=comb, horizon=horizon, n=n,
        hk_truncation=hk_m, tolerances=tolerances, family_type=ftype,
    )


def _report(command: str, cfg: JobConfig, passed: bool, result: dict) -> dict:
    return {
        "schema": 1,
        "tool": {"name": "opoly", "version": __version__},
        "command": command,
        "config": cfg.raw,
        "pass": bool(passed),
        "result": result,
    }


def _json_default(obj):
    """``json.dumps`` hook for numpy and complex values (``np.float64`` is a float)."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, complex):
        return {"im": obj.imag, "re": obj.real}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _emit(report: dict, csv_rows, args) -> None:
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for row in csv_rows:
            writer.writerow(row)
        text = buf.getvalue()
    else:
        text = json.dumps(report, sort_keys=True, indent=2, default=_json_default) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _conditions(cfg: JobConfig):
    return check_conditions(cfg.rec, cfg.comb, cfg.horizon, tol=cfg.tolerances["conditions"])


def _condition_summary(rep) -> dict:
    worst_main = max((abs(r[1]) for r in rep.matching), default=0.0)
    worst_extra = max(
        (abs(v) for r in rep.matching for v in r[2]), default=0.0
    )
    return {
        "verdict": rep.verdict,
        "failures": list(rep.failures),
        "denominator": rep.denom,
        "fourier": list(rep.fourier),
        "beta0_tilde": rep.beta0_tilde,
        "tilde_low": [
            {"j": j, "beta": b, "gamma": g, "ok": ok}
            for j, b, g, ok in rep.completion
        ],
        "matching_max_residual": max(worst_main, worst_extra),
        "matching_failures": [
            {"n": n, "main": main, "extra": list(extra)}
            for n, main, extra, ok in rep.matching
            if not ok
        ],
        "tail_gamma_ok": rep.tail_gamma_ok,
    }


def _cmd_check(cfg: JobConfig, args) -> tuple[int, dict, list]:
    rep = _conditions(cfg)
    degree = min(12, (cfg.horizon + 1) // 2)
    try:
        gram = oracle_gram_check(cfg.rec, cfg.comb, degree=degree, tol=1e-9)
        gram_info = {
            "ok": gram.ok,
            "worst_ratio": gram.worst_ratio,
            "degree": degree,
            "agrees_with_verdict": gram.ok == rep.verdict,
        }
    except DegeneracyError as exc:
        # no orthogonal completion exists at all; oracle counts as failed
        gram_info = {
            "ok": False,
            "error": str(exc),
            "degree": degree,
            "agrees_with_verdict": not rep.verdict,
        }
    result = {"conditions": _condition_summary(rep), "gram_oracle": gram_info}
    rows = [("section", "name", "value")]
    rows += [("conditions", "verdict", rep.verdict)]
    rows += [("conditions", f"fourier_{j+1}", v) for j, v in enumerate(rep.fourier)]
    rows += [("gram_oracle", "ok", gram_info["ok"])]
    if not gram_info["agrees_with_verdict"]:
        return 3, result, rows
    return (0 if rep.verdict else 1), result, rows


def _cmd_tilde(cfg: JobConfig, args) -> tuple[int, dict, list]:
    rep = _conditions(cfg)
    if not rep.verdict:
        return 1, {"conditions": _condition_summary(rep)}, [("error", "not orthogonal")]
    tilde = tilde_recurrence(cfg.rec, cfg.comb, cfg.horizon, report=rep)
    table = [{"n": 0, "beta": float(tilde.beta[0]), "gamma": None}]
    table += [
        {"n": n, "beta": float(tilde.beta[n]), "gamma": float(tilde.gamma[n])}
        for n in range(1, cfg.horizon + 1)
    ]
    rows = [("n", "beta", "gamma"), (0, float(tilde.beta[0]), "")]
    rows += [(e["n"], e["beta"], e["gamma"]) for e in table[1:]]
    result = {"conditions": _condition_summary(rep), "tilde": table}
    return 0, result, rows


def _require_n(cfg: JobConfig, args) -> int:
    n = args.n if args.n is not None else cfg.n
    if n is None:
        raise ConfigError("this command needs 'n' (config field or --n flag)")
    return int(n)


def _cmd_zeros(cfg: JobConfig, args) -> tuple[int, dict, list]:
    n = _require_n(cfg, args)
    zq = zeros_q(cfg.rec, cfg.comb, n, cross_tol=cfg.tolerances["zeros"])
    result = {
        "n": n,
        "zeros": [{"re": z.real, "im": z.imag} for z in zq.zeros],
        "cross_check_distance": zq.cross_check_distance,
        "coefficients": list(zq.poly.coeffs),
    }
    rows = [("index", "re", "im")]
    rows += [(i, z.real, z.imag) for i, z in enumerate(zq.zeros)]
    return 0, result, rows


def _cmd_hk(cfg: JobConfig, args) -> tuple[int, dict, list]:
    k = cfg.comb.k
    rep = _conditions(cfg)
    if not rep.verdict:
        return 1, {"conditions": _condition_summary(rep)}, [("error", "not orthogonal")]
    m = cfg.hk_truncation or min(16, cfg.horizon + 1 - k)
    hk = solve_hk(cfg.rec, cfg.comb, rep, m, tol=cfg.tolerances["hk"])
    n_moments = min(20, 2 * cfg.horizon - k)
    u = moments_from_recurrence(cfg.rec, n_moments)
    tilde = tilde_recurrence(cfg.rec, cfg.comb, cfg.horizon, report=rep)
    v = moments_from_recurrence(tilde, n_moments + k)
    rel = verify_functional_relation(u, v, hk.poly, tol=cfg.tolerances["hk"])
    relation = {"ok": rel.ok, "scale": rel.scale, "max_residual": rel.max_residual}
    grid = np.linspace(-0.99, 0.99, 100)
    values = hk.poly(grid)
    positivity = {
        "grid_min": float(np.min(values)),
        "positive_on_grid": bool(np.all(values > 0.0)),
    }
    ortho = None
    if np.all(cfg.rec.gamma[1:] > 0) and np.all(tilde.gamma[1:] > 0):
        rep_orth = orthonormal_identity_check(cfg.rec, cfg.comb, rep, m)
        ortho = {"ok": rep_orth.ok, "residual": rep_orth.residual}
    result = {
        "truncation": m,
        "coefficients": list(hk.coeffs),
        "residual": hk.residual,
        "scale": hk.scale,
        "relation": relation,
        "positivity": positivity,
        "orthonormal_identity": ortho,
    }
    rows = [("i", "c_i")]
    rows += [(i, c) for i, c in enumerate(hk.coeffs)]
    return (0 if rel.ok else 1), result, rows


def _cmd_quad(cfg: JobConfig, args) -> tuple[int, dict, list]:
    n = _require_n(cfg, args)
    k = cfg.comb.k
    count = 2 * n + 2
    if count > 2 * cfg.horizon:
        raise ConfigError(f"horizon {cfg.horizon} too small for n = {n}")
    f = moments_from_recurrence(cfg.rec, count)
    rule = gauss_rule(cfg.rec, f, n)
    gauss_ok = rule.degree_of_precision == 2 * n - 1
    shohat = shohat_check(
        cfg.rec, cfg.comb, f, n,
        tol=cfg.tolerances["quad"], cross_tol=cfg.tolerances["zeros"],
    )
    comb_rule = shohat.rule
    result = {
        "n": n,
        "gauss": {
            "nodes": list(rule.nodes),
            "weights": list(rule.weights),
            "degree_of_precision": rule.degree_of_precision,
            "expected": 2 * n - 1,
            "weights_positive": bool(np.all(rule.weights > 0)),
            "ok": gauss_ok,
        },
        "combination": {
            "nodes": list(comb_rule.nodes),
            "weights": list(comb_rule.weights),
            "degree_of_precision": comb_rule.degree_of_precision,
            "expected": 2 * n - 1 - k,
            "bracket": [n - 1, 2 * n - 1],
            "ok": shohat.ok,
        },
    }
    rows = [("set", "node", "weight")]
    rows += [("gauss", x, w) for x, w in zip(rule.nodes, rule.weights)]
    rows += [("combination", x, w) for x, w in zip(comb_rule.nodes, comb_rule.weights)]
    return (0 if (gauss_ok and shohat.ok) else 1), result, rows


def _cmd_gen(cfg: JobConfig, args) -> tuple[int, dict, list]:
    if cfg.family_type not in ("k2", "k1"):
        raise ConfigError("gen requires a 'k2' or 'k1' generator family")
    rep = _conditions(cfg)
    fam = cfg.raw["family"]
    extras: dict = {}
    if cfg.family_type == "k2":
        a1 = _num(fam.get("a1", 0), "family.a1")
        a2 = _num(fam.get("a2"), "family.a2")
        if a1 != 0.0:
            extras["difference_equation_max_residual"] = max(
                k2_difference_residual(seq, a1, a2) for seq in (cfg.rec.beta, cfg.rec.gamma)
            )
    result = {
        "family": {
            "beta": list(cfg.rec.beta),
            "gamma": list(cfg.rec.gamma[1:]),
        },
        "validation": _condition_summary(rep),
        **extras,
    }
    rows = [("n", "beta", "gamma"), (0, float(cfg.rec.beta[0]), "")]
    rows += [
        (n, float(cfg.rec.beta[n]), float(cfg.rec.gamma[n]))
        for n in range(1, cfg.horizon + 1)
    ]
    return (0 if rep.verdict else 1), result, rows


_COMMANDS = {
    "check": _cmd_check,
    "tilde": _cmd_tilde,
    "zeros": _cmd_zeros,
    "hk": _cmd_hk,
    "quad": _cmd_quad,
    "gen": _cmd_gen,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opoly",
        description="Constant-coefficient combinations of monic orthogonal polynomials",
    )
    parser.add_argument("command", choices=tuple(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to a JSON job config")
    parser.add_argument("--out", default=None, help="write the report here instead of stdout")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--n", type=int, default=None, help="polynomial index for zeros/quad")
    for tol in DEFAULT_TOLERANCES:
        parser.add_argument(f"--tol-{tol}", type=float, default=None, dest=f"tol_{tol}")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        for tol in DEFAULT_TOLERANCES:
            override = getattr(args, f"tol_{tol}")
            if override is not None:
                cfg.tolerances[tol] = override
        code, result, rows = _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"opoly: config error: {exc}", file=sys.stderr)
        return 2
    except (OpolyError, ValueError) as exc:
        print(f"opoly: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    report = _report(args.command, cfg, code == 0, result)
    _emit(report, rows, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
