"""The argv grid on which two checkouts' CLI reports are compared.

:func:`outputs` runs ``opoly.cli.main`` in-process on every command x config
x ``--n`` (none, 3, 10, 20, 27, 30) and maps each argv (space-joined) to
``[exit code, stdout, stderr]``.  The configs are the bundled ones plus
:func:`edge_configs`, which reach paths no bundled config does; those are
written to a temporary directory (``configs/`` must match the benchmark's
truth table) and keyed as ``edge/<name>.json``; bundled ones are read from
the repository root.  ``tools/report_diff.py OLD_SRC NEW_SRC`` runs this grid
under two ``src/`` trees and lists what differs.

Stdlib only (opoly itself needs numpy).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMANDS = ("check", "tilde", "zeros", "hk", "quad", "gen")
NS = (None, 3, 10, 20, 27, 30)


def capture(main, argv: list[str]) -> list:
    """``[exit code, stdout, stderr]`` of one in-process CLI run.  Every warning
    is shown, so a run's stderr does not depend on the runs before it."""
    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          warnings.catch_warnings()):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return [code, out.getvalue(), err.getvalue()]


def _bundled(name: str) -> dict:
    """The bundled config ``name``."""
    with open(os.path.join(ROOT, "configs", name), encoding="utf-8") as fh:
        return json.load(fh)


def _with_family(name: str, fields: dict) -> dict:
    """The bundled config ``name`` with ``family`` fields set to ``fields``."""
    config = _bundled(name)
    config["family"].update(fields)
    return config


def _renamed(name: str, old: str, new: str) -> dict:
    """The bundled config ``name`` with family field ``old`` renamed ``new``."""
    config = _bundled(name)
    config["family"][new] = config["family"].pop(old)
    return config


def edge_configs() -> dict:
    """Configs that reach paths no bundled config does, by name."""
    return {
        # gamma_n = -1/4 throughout: u is not positive definite, so hk has no hull
        "all_negative": {
            "family": {"type": "explicit", "beta": ["0"] * 25, "gamma": ["-0.25"] * 24},
            "combination": {"a": ["0", "0.125"]},
            "horizon": 24,
        },
        # gamma_22..24 < 0: no hull, but the orthonormal identity at m = 16 reads
        # gammas only up to index 17
        "negative_tail": {
            "family": {"type": "k1", "a1": "0.5", "beta0": "0", "beta1": "0", "beta2": "0",
                       "gammas": ["0.25"] * 21 + ["-0.25"] * 3},
            "horizon": 24,
        },
        # gamma_2 + a_1 (beta_1 - beta_2) = 1/4 + (0 - 1/2)/2 = 0
        "zero_denominator": {
            "family": {"type": "explicit", "beta": ["0", "0", "0.5"] + ["0"] * 10,
                       "gamma": ["0.25"] * 12},
            "combination": {"a": ["0.5"]},
            "horizon": 12,
        },
        # a_1, a_2 fix the root, so no generator reads a lambda: a config error
        "k2_lambda_off_root": _with_family("gen_k2_real_roots.json", {"lambda": 0.5}),
        # a misspelt optional field would fall back to its default (beta_1 = 0):
        # every family field no generator reads is a config error
        "k2_renamed_key": _renamed("gen_k2_real_roots.json", "beta1", "beta_1"),
        # generator parameters out of their domain: config errors
        "k1_a1_zero": _with_family("gen_k1.json", {"a1": "0"}),
        "k2_a2_zero": _with_family("gen_k2_real_roots.json", {"a2": "0"}),
        "k2_case_mismatch": _with_family("gen_k2_real_roots.json", {"case": "equal_roots"}),
        "k2_off_constraint": _with_family("gen_k2_real_roots.json", {"B": "0.3"}),
        # a family that cannot be built is a config error, whatever its type
        "k2_gamma1_zero": _with_family("gen_k2_real_roots.json", {"gamma1": "0"}),
        "chebyshev_kind_5": _with_family("cheb1_k2.json", {"kind": 5}),
        # gamma_2 + a_1 (beta_1 - beta_2) = 1/4 + (0 - 1/2)/2 = 0: k1 builds the
        # family, and check_conditions refuses it as it does zero_denominator
        "k1_zero_denominator": _with_family("gen_k1.json", {"beta2": "0.5"}),
        # gamma_1 = 0: the family is not quasi-definite
        "explicit_gamma1_zero": {
            "family": {"type": "explicit", "beta": ["0"] * 13, "gamma": ["0"] + ["0.25"] * 11},
            "combination": {"a": ["0.5"]},
            "horizon": 12,
        },
        # the verdict passes, but h_k's norm products and the Newton steps overflow
        "k2_overflow": _with_family("gen_k2_real_roots.json", {"D": "1e200"}),
        # beta_1 - beta_2 = 2e308: quad's orthonormal table overflows, and the
        # rule is refused with one line
        "quad_overflow": {
            "family": {"type": "explicit", "beta": ["0", "1e308", "-1e308"] + ["0"] * 5,
                       "gamma": ["0.25"] * 7},
            "combination": {"a": ["1"]},
            "horizon": 7,
            "n": 4,
        },
        # k = 3 at horizon 2k + 1 = 7: the truncation m = 5 = k + 2 leaves the
        # orthonormal identity one compared row, the least hk accepts
        "hk_floor_k3": {
            "family": {"type": "chebyshev", "kind": 2},
            "combination": {"a": ["0.3", "0.2", "0.1"]},
            "horizon": 7,
        },
        # every check runs at its library default, so a config that sets
        # tolerances is refused as a config error
        "tolerances_refused": {**_bundled("cheb1_k2.json"), "tolerances": {"conditions": 1e-5}},
        # failed verdicts at both ends of zeros_q's size range, which the
        # grid's --n values never reach: m = k + 1 at k = 1 and m = horizon + 1
        # at k = 2, both on the J^ route, which reads no verdict
        "zeros_m_k_plus_1": {**_bundled("broken_varying_gamma.json"), "n": 2},
        "zeros_m_horizon_plus_1": {**_bundled("broken_gamma_perturbed.json"), "n": 25},
        # Chebyshev U at both sides of the J^ route's condition gamma_{n-1} > a_2
        # (gamma_n = 1/4): J^'s last off-diagonal is 2^-20 just inside, and just
        # outside zeros_q takes the eigvals route, whose Q_n = x P_{n-1} has a
        # double zero at 0 for even n
        "hat_just_inside": {
            "family": {"type": "chebyshev", "kind": 2},
            "combination": {"a": ["0", repr(0.25 - 2.0**-40)]},
            "horizon": 24,
        },
        "hat_just_outside": {
            "family": {"type": "chebyshev", "kind": 2},
            "combination": {"a": ["0", "0.25"]},
            "horizon": 24,
        },
        # k = 3 takes zeros_q's balanced eigvals route: on Chebyshev T, on a
        # co-recursive Chebyshev U (beta_0 moved; the matching conditions
        # still hold), and on Chebyshev U with gamma_23 = gamma_24 = -1/4,
        # whose balanced matrix carries their sign below its diagonal
        "k3_chebyshev": {
            "family": {"type": "chebyshev", "kind": 1},
            "combination": {"a": ["0.3", "0.2", "0.1"]},
            "horizon": 30,
        },
        "k3_corecursive": {
            "family": {"type": "explicit", "beta": ["0.3"] + ["0"] * 30, "gamma": ["0.25"] * 30},
            "combination": {"a": ["0.3", "0.2", "0.1"]},
            "horizon": 30,
        },
        "k3_negative_tail": {
            "family": {"type": "explicit", "beta": ["0"] * 25,
                       "gamma": ["0.25"] * 22 + ["-0.25"] * 2},
            "combination": {"a": ["0.3", "0.2", "0.1"]},
            "horizon": 24,
        },
        # cheb4_k2_case_iv under x -> 16 x (beta -> 16 beta, gamma -> 256 gamma,
        # a_j -> 16^j a_j): a_2 >= gamma_{n-1}, so the balanced route, whose
        # zeros scale with x
        "cheb4_k2_case_iv_x16": {
            "family": {"type": "explicit", "beta": ["-8"] + ["0"] * 24, "gamma": ["4"] * 24},
            "combination": {"a": ["16", "256"]},
            "horizon": 24,
        },
    }


def config_paths(edge_dir: str) -> dict:
    """Map each config's label in the grid to the path the CLI reads: bundled
    configs as ``configs/<name>``, :func:`edge_configs` written to ``edge_dir``."""
    paths = {f"configs/{f}": f"configs/{f}"
             for f in sorted(os.listdir(os.path.join(ROOT, "configs"))) if f.endswith(".json")}
    for name, config in edge_configs().items():
        path = os.path.join(edge_dir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        paths[f"edge/{name}.json"] = path
    return paths


def outputs(src: str = os.path.join(ROOT, "src")) -> dict:
    """Map each argv of the grid (space-joined, with the config's label) to
    its :func:`capture`, running the ``opoly`` found in ``src``."""
    sys.path.insert(0, src)
    from opoly.cli import main

    os.chdir(ROOT)
    table = {}
    with tempfile.TemporaryDirectory() as edge_dir:
        paths = config_paths(edge_dir)
        for command in COMMANDS:
            for label, path in paths.items():
                for n in NS:
                    tail = [] if n is None else ["--n", str(n)]
                    key = " ".join([command, "--config", label, *tail])
                    table[key] = capture(main, [command, "--config", path, *tail])
    return table
