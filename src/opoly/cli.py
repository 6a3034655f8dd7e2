"""Command-line front end: declarative JSON job configs in, reports out.

Usage:

    opoly check|tilde|zeros|hk|quad|gen --config job.json [--out path] [--n N]

Every command takes the same options.  A config names exactly one family
(``chebyshev``, ``explicit``, ``k2`` or ``k1``), a combination ``a_1..a_k``,
a horizon, and optionally a node count ``n``.  Numbers may be given as
decimal strings to avoid double-rounding in published configs.  Each check
reads one fixed threshold where it is made, and a config with any other
top-level field, ``tolerances`` included, is refused as a config error, as
is any family or ``combination`` key that no builder reads.
``zeros`` and ``quad`` read no verdict: ``zeros_q`` picks its own route.
``--n`` overrides the config's ``n`` (``zeros`` and ``quad`` report it as
``result.n``), and each command then reads only the resolved
:class:`JobConfig`.
Reports are deterministic JSON (``schema: 1``).  ``gen`` on a ``k2`` family
with ``a1 != 0`` also reports ``difference_equation_max_residual``, the larger
:func:`~opoly.recurrence.k2_difference_residual` of ``beta`` and ``gamma``.

Exit codes: 0 pass, 1 checked-and-failed, 2 usage/config error,
3 numeric/degeneracy error.  A family that cannot be built (a generator
parameter out of its domain, a zero gamma) is a config error; a family
that builds is judged by :func:`~opoly.lincomb.check_conditions`.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from json.encoder import encode_basestring_ascii

from . import __version__
from .errors import DegeneracyError, InapplicableError, OpolyError
from .jacobi import (
    _symmetric_jacobi,
    orthonormal_identity_check,
    solve_hk,
    verify_functional_relation,
    zeros_q,
)
from .lincomb import (
    CombCoeffs,
    check_conditions,
    oracle_gram_check,
    q_poly,
    tilde_recurrence,
)
from .quadrature import gauss_rule, shohat_check
from .recurrence import (
    DEFAULT_MAX_HORIZON,
    K2Case,
    K2Params,
    RecurrencePair,
    chebyshev_family,
    k1_family,
    k2_difference_residual,
    k2_family,
)

class ConfigError(ValueError):
    """Malformed or inconsistent job configuration."""


def _num(value, field: str) -> float:
    if isinstance(value, bool) or value is None:
        raise ConfigError(f"field {field!r} must be a number")
    if not isinstance(value, (int, float, str)):
        raise ConfigError(f"field {field!r} must be a number, got {type(value).__name__}")
    try:
        out = float(value)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"field {field!r}: cannot parse {value!r}") from exc
    if not math.isfinite(out):
        raise ConfigError(f"field {field!r} must be finite, got {value!r}")
    return out


def _int(value, field: str) -> int:
    out = _num(value, field)
    if not out.is_integer():
        raise ConfigError(f"field {field!r} must be an integer, got {value!r}")
    return int(out)


def _num_list(values, field: str) -> list[float]:
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"field {field!r} must be a list of numbers")
    return [_num(v, f"{field}[{i}]") for i, v in enumerate(values)]


def _complex(value, field: str) -> complex:
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_num(value[0], field), _num(value[1], field))
    return complex(_num(value, field))


class JobConfig:
    """A loaded job; ``main`` sets ``n`` from ``--n`` when it is given."""

    def __init__(self, raw: dict, rec: RecurrencePair, comb: CombCoeffs, n: int | None,
                 generator_a: tuple[float, ...] | None):
        self.raw, self.rec, self.comb, self.n = raw, rec, comb, n
        self.generator_a = generator_a  # the combination a k1/k2 family was built for


def _object(raw: dict, field: str) -> dict | None:
    value = raw.get(field)
    if value is not None and not isinstance(value, dict):
        raise ConfigError(f"field {field!r} must be an object")
    return value


def _only(obj: dict, fields: tuple[str, ...], holder: str) -> None:
    """Refuse every key of ``obj`` outside ``fields``: a report must not echo
    a misspelt field as if it applied, nor a generator read a default for it."""
    unknown = sorted(obj.keys() - set(fields))
    if unknown:
        names = ", ".join(map(repr, fields[:-1])) + f" and {fields[-1]!r}"
        raise ConfigError(f"unknown fields {unknown}: {holder} holds only {names}")


# The fields each family type reads, the optional ones included
_FAMILY_FIELDS = {
    "chebyshev": ("type", "kind"),
    "explicit": ("type", "beta", "gamma"),
    "k1": ("type", "gammas", "beta0", "beta1", "beta2", "a1"),
    "k2": ("type", "case", "a1", "a2", "beta0", "beta1", "gamma1", *"ABCDEF"),
}


def _build_family(fam: dict, horizon: int) -> tuple[RecurrencePair, tuple[float, ...] | None]:
    """Returns (pair, the generator's combination or None)."""
    if not isinstance(fam, dict) or "type" not in fam:
        raise ConfigError("family must be an object with a 'type' field")
    ftype = fam["type"]
    if not isinstance(ftype, str) or ftype not in _FAMILY_FIELDS:
        raise ConfigError(f"unknown family type {ftype!r}")
    _only(fam, _FAMILY_FIELDS[ftype], f"the {ftype} family")
    if ftype == "chebyshev":
        return chebyshev_family(_int(fam.get("kind"), "family.kind"), horizon), None
    if ftype == "explicit":
        beta = _num_list(fam.get("beta"), "family.beta")
        gamma = _num_list(fam.get("gamma"), "family.gamma")
        if len(beta) != horizon + 1 or len(gamma) != horizon:
            raise ConfigError(
                f"explicit family needs {horizon + 1} betas and {horizon} gammas"
            )
        return RecurrencePair(beta, gamma), None
    if ftype == "k2":
        try:
            case = K2Case(fam.get("case"))
        except ValueError as exc:
            names = sorted(c.value for c in K2Case)
            raise ConfigError(f"k2 family 'case' must be one of {names}") from exc
        a1 = _num(fam.get("a1", 0), "family.a1")
        a2 = _num(fam.get("a2"), "family.a2")
        parse = _complex if case is K2Case.COMPLEX_ROOTS else _num
        kwargs = {name: _num(fam.get(name, 0.0), f"family.{name}") for name in "AD"}
        kwargs.update({name: parse(fam.get(name, 0.0), f"family.{name}") for name in "BCEF"})
        params = K2Params(
            case=case,
            beta0=_num(fam.get("beta0", 0.0), "family.beta0"),
            beta1=_num(fam.get("beta1", 0.0), "family.beta1"),
            gamma1=_num(fam.get("gamma1"), "family.gamma1"),
            **kwargs,
        )
        return k2_family(a1, a2, params, horizon), (a1, a2)
    gammas = _num_list(fam.get("gammas"), "family.gammas")  # k1
    a1 = _num(fam.get("a1"), "family.a1")
    betas = [_num(fam.get(f"beta{i}", 0.0), f"family.beta{i}") for i in range(3)]
    return k1_family(gammas, *betas, a1, horizon), (a1,)


def load_config(path: str) -> JobConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    if "tolerances" in raw:  # a report must not echo a value its verdict never read
        raise ConfigError("field 'tolerances' is not accepted: every check runs at its default")

    if "horizon" not in raw:
        raise ConfigError("config needs a 'horizon' field")
    horizon = _int(raw["horizon"], "horizon")
    if horizon > DEFAULT_MAX_HORIZON:
        raise ConfigError(f"horizon {horizon} exceeds the cap {DEFAULT_MAX_HORIZON}")
    if horizon < 4:
        raise ConfigError(f"horizon must be at least 4 (k + 3 with k >= 1), got {horizon}")

    try:
        rec, generator_a = _build_family(raw.get("family"), horizon)
    except ConfigError:
        raise
    except (OpolyError, ValueError) as exc:  # a family that cannot be built
        raise ConfigError(f"{raw['family']['type']} family: {exc}") from exc

    comb_cfg = _object(raw, "combination")
    if comb_cfg is not None:
        _only(comb_cfg, ("k", "a"), "the combination")
        a = _num_list(comb_cfg.get("a"), "combination.a")
        if "k" in comb_cfg and _int(comb_cfg["k"], "combination.k") != len(a):
            raise ConfigError("combination.k disagrees with len(combination.a)")
        try:
            comb = CombCoeffs(tuple(a))
        except ValueError as exc:
            raise ConfigError(f"invalid combination: {exc}") from exc
    elif generator_a is not None:
        comb = CombCoeffs(generator_a)
    else:
        raise ConfigError("config needs a 'combination' (or a generator family)")

    if horizon < comb.k + 3:
        raise ConfigError(f"horizon must be at least k + 3 = {comb.k + 3}")

    n = raw.get("n")
    n = _int(n, "n") if n is not None else None
    _only(raw, ("family", "combination", "horizon", "n"), "a config")
    return JobConfig(raw=raw, rec=rec, comb=comb, n=n, generator_a=generator_a)


def _report(command: str, cfg: JobConfig, passed: bool, result: dict) -> dict:
    return {
        "schema": 1,
        "tool": {"name": "opoly", "version": __version__},
        "command": command,
        "config": cfg.raw,
        "pass": bool(passed),
        "result": result,
    }


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x: float) -> str:
    text = float.__repr__(x)
    return _NON_FINITE.get(text, text)


# the text of each JSON leaf, by exact type; ``_json_text`` falls back to
# ``isinstance`` for subclasses (``np.float64`` is a ``float``)
_LEAVES = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _json_text(value, indent: str) -> str:
    """``value`` as ``json.dumps(value, sort_keys=True, indent=2)`` writes it
    at the nesting whose closing bracket is indented by ``indent``.

    With ``indent`` set, the stdlib runs its pure-Python encoder; this one
    keeps its leaf texts (``float.__repr__``, the C string escaper) and its
    layout, and builds each container with one join.  A ``list`` of exact
    ``float``s with no ``nan`` or ``inf`` is the ``repr`` of the list, which
    runs ``float.__repr__`` in C, with its ``", "`` turned into the layout's
    line breaks.  Every dict key must be a ``str``; the string escaper raises
    ``TypeError`` on any other.
    """
    leaf = _LEAVES.get(type(value))
    if leaf is not None:
        return leaf(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{encode_basestring_ascii(k)}: {_json_text(v, inner)}"
                 for k, v in sorted(value.items())]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if type(value) is list and set(map(type, value)) == {float}:
            text = repr(value)
            if "n" not in text:  # no nan or inf, whose JSON texts differ
                rows = text[1:-1].replace(", ", ",\n" + inner)
                return "[\n" + inner + rows + "\n" + indent + "]"
        items = [_json_text(v, inner) for v in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    for base in (str, int, float):
        if isinstance(value, base):
            return _LEAVES[base](value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(report: dict, out: str | None) -> None:
    text = _json_text(report, "") + "\n"
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write report: {exc}") from exc
    else:
        sys.stdout.write(text)


def _conditions(cfg: JobConfig):
    return check_conditions(cfg.rec, cfg.comb, cfg.rec.horizon)


def _condition_summary(rep) -> dict:
    worst_main = max((abs(r[1]) for r in rep.matching), default=0.0)
    worst_extra = max(
        (abs(v) for r in rep.matching for v in r[2]), default=0.0
    )
    return {
        "verdict": rep.verdict,
        "failures": list(rep.failures),
        "denominator": rep.denom,
        "fourier": list(rep.low_rows[-1][-2::-1] if rep.low_rows else ()),
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


def _cmd_check(cfg: JobConfig) -> tuple[int, dict]:
    rep = _conditions(cfg)
    degree = min(12, (cfg.rec.horizon + 1) // 2)
    try:
        gram = oracle_gram_check(cfg.rec, cfg.comb, degree=degree)
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
    if not gram_info["agrees_with_verdict"]:
        return 3, result
    return (0 if rep.verdict else 1), result


def _cmd_tilde(cfg: JobConfig) -> tuple[int, dict]:
    rep = _conditions(cfg)
    if not rep.verdict:
        return 1, {"conditions": _condition_summary(rep)}
    tilde = tilde_recurrence(cfg.rec, cfg.comb, cfg.rec.horizon, report=rep)
    table = [{"n": 0, "beta": tilde.betas[0], "gamma": None}]
    table += [
        {"n": n, "beta": tilde.betas[n], "gamma": tilde.gammas[n]}
        for n in range(1, cfg.rec.horizon + 1)
    ]
    return 0, {"conditions": _condition_summary(rep), "tilde": table}


def _require_n(cfg: JobConfig, command: str, hi: int) -> int:
    """The node count of ``zeros``/``quad``, which must lie in ``[k + 1, hi]``."""
    if cfg.n is None:
        raise ConfigError("this command needs 'n' (config field or --n flag)")
    lo = cfg.comb.k + 1
    if not lo <= cfg.n <= hi:
        raise ConfigError(f"{command} needs n in [{lo}, {hi}], got {cfg.n}")
    return cfg.n


def _cmd_zeros(cfg: JobConfig) -> tuple[int, dict]:
    n = _require_n(cfg, "zeros", cfg.rec.horizon + 1)
    zq = zeros_q(cfg.rec, cfg.comb, n)
    return 0, {
        "n": n,
        "zeros": [{"re": re, "im": im}
                  for re, im in zip(zq.zeros.real.tolist(), zq.zeros.imag.tolist())],
        "cross_check_distance": zq.cross_check_distance,
        "coefficients": list(q_poly(cfg.rec, cfg.comb, n).coeffs),
    }


def _cmd_hk(cfg: JobConfig) -> tuple[int, dict]:
    import numpy as np
    k = cfg.comb.k
    m = min(16, cfg.rec.horizon + 1 - k)
    if m < k + 2:  # the orthonormal identity compares rows 0..m-k-2
        raise ConfigError(f"hk needs horizon >= 2k + 1 = {2 * k + 1}, got {cfg.rec.horizon}")
    rep = _conditions(cfg)
    if not rep.verdict:
        return 1, {"conditions": _condition_summary(rep)}
    hk = solve_hk(cfg.rec, cfg.comb, rep)
    rel = verify_functional_relation(cfg.rec, cfg.comb, rep, hk.poly)
    relation = {"ok": rel.ok, "scale": rel.scale, "max_residual": rel.max_residual}
    positivity = None
    if np.all(cfg.rec.gamma[1:] > 0):  # h_k > 0 means something only for a positive-definite u
        hull = np.linalg.eigvalsh(_symmetric_jacobi(cfg.rec, cfg.rec.horizon + 1))
        lo, hi = float(np.min(hull)), float(np.max(hull))
        values = hk.poly(np.linspace(lo, hi, 100))
        positivity = {
            "interval": [lo, hi],
            "grid_min": float(np.min(values)),
            "positive_on_grid": bool(np.all(values > 0.0)),
        }
    try:
        rep_orth = orthonormal_identity_check(cfg.rec, cfg.comb, rep, m)
        ortho = {"ok": rep_orth.ok, "residual": rep_orth.residual}
    except InapplicableError:  # not positive definite up to m + k
        ortho = None
    result = {
        "truncation": m,
        "coefficients": list(hk.poly.coeffs),
        "scale": hk.scale,
        "relation": relation,
        "positivity": positivity,
        "orthonormal_identity": ortho,
    }
    return (0 if rel.ok and (ortho is None or ortho["ok"]) else 1), result


def _cmd_quad(cfg: JobConfig) -> tuple[int, dict]:
    n = _require_n(cfg, "quad", cfg.rec.horizon - 1)
    k = cfg.comb.k
    rule = gauss_rule(cfg.rec, n)
    gauss_ok = rule.degree_of_precision == 2 * n - 1
    shohat = shohat_check(cfg.rec, cfg.comb, n)
    comb_rule = shohat.rule
    result = {
        "n": n,
        "gauss": {
            "nodes": rule.nodes.tolist(),
            "weights": rule.weights.tolist(),
            "degree_of_precision": rule.degree_of_precision,
            "expected": 2 * n - 1,
            "weights_positive": bool((rule.weights > 0).all()),
            "ok": gauss_ok,
        },
        "combination": {
            "nodes": comb_rule.nodes.tolist(),
            "weights": comb_rule.weights.tolist(),
            "degree_of_precision": comb_rule.degree_of_precision,
            "expected": 2 * n - 1 - k,
            "bracket": [n - 1, 2 * n - 1],
            "ok": shohat.ok,
        },
    }
    return (0 if (gauss_ok and shohat.ok) else 1), result


def _cmd_gen(cfg: JobConfig) -> tuple[int, dict]:
    a = cfg.generator_a
    if a is None:
        raise ConfigError("gen requires a 'k2' or 'k1' generator family")
    rep = _conditions(cfg)
    extras: dict = {}
    if len(a) == 2 and a[0] != 0.0:
        extras["difference_equation_max_residual"] = max(
            k2_difference_residual(seq, *a) for seq in (cfg.rec.betas, cfg.rec.gammas)
        )
    result = {
        "family": {
            "beta": list(cfg.rec.betas),
            "gamma": list(cfg.rec.gammas[1:]),
        },
        "validation": _condition_summary(rep),
        **extras,
    }
    return (0 if rep.verdict else 1), result


_COMMANDS = {
    "check": _cmd_check,
    "tilde": _cmd_tilde,
    "zeros": _cmd_zeros,
    "hk": _cmd_hk,
    "quad": _cmd_quad,
    "gen": _cmd_gen,
}


_PARSER = argparse.ArgumentParser(
    prog="opoly",
    description="Constant-coefficient combinations of monic orthogonal polynomials",
)
_PARSER.add_argument("command", choices=tuple(_COMMANDS))
_PARSER.add_argument("--config", required=True, help="path to a JSON job config")
_PARSER.add_argument("--out", default=None, help="write the report here instead of stdout")
_PARSER.add_argument("--n", type=int, default=None, help="polynomial index for zeros/quad")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.n is not None:
            cfg.n = args.n
        code, result = _COMMANDS[args.command](cfg)
        _emit(_report(args.command, cfg, code == 0, result), args.out)
    except ConfigError as exc:
        print(f"opoly: config error: {exc}", file=sys.stderr)
        return 2
    except (OpolyError, ValueError) as exc:
        print(f"opoly: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
