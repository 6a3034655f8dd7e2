"""Which opoly paths load numpy, and what ``import opoly.cli`` loads, each
run in a fresh interpreter.

``check``, ``tilde`` and ``gen`` do no linear algebra, so a process that
runs only them never imports numpy, whatever the config.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import opoly as op

SRC = str(Path(op.__file__).resolve().parent.parent)
CONFIGS = Path(SRC).parent / "configs"

SCRIPT = """
import contextlib, io, json, sys
import opoly.cli
out = {"after_import": sorted(m for m in ("numpy", "opoly.jacobi", "opoly.quadrature",
                                          "opoly.moments") if m in sys.modules)}

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = opoly.cli.main(argv)
    return code, "numpy" in sys.modules

out["runs"] = [[path, cmd, *run([cmd, "--config", path])]
               for path in sys.argv[2:] for cmd in ("check", "tilde", "gen")]
out["zeros"] = run(["zeros", "--config", sys.argv[1], "--n", "5"])
print(json.dumps(out))
"""


def _python(*args):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC))


def test_check_tilde_and_gen_leave_numpy_unloaded():
    paths = [str(p) for p in sorted(CONFIGS.glob("*.json"))]
    proc = _python("-c", SCRIPT, str(CONFIGS / "cheb2_k1.json"), *paths)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["after_import"] == ["opoly.jacobi", "opoly.moments", "opoly.quadrature"]
    assert len(out["runs"]) == 3 * len(paths) >= 30
    # runs go in order, so the first run that loads numpy is the one to blame
    assert next((run[:2] for run in out["runs"] if run[3]), None) is None
    assert {code for *_, code, _ in out["runs"]} <= {0, 1, 2}
    assert out["zeros"] == [0, True]


def test_import_leaves_dataclasses_and_inspect_unloaded():
    # opoly's records are named tuples: dataclasses, and the inspect, ast, dis
    # and tokenize it pulls in, cost more than opoly's own import
    proc = _python("-c", "import sys, opoly.cli; "
                   "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))")
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


@pytest.mark.parametrize("command", ["check", "gen"])
def test_k1_overflow_is_one_config_error_line(tmp_path, command):
    # beta_n = beta_2 + (gamma_n - gamma_2) / a1 overflows to inf, which the
    # finite check refuses, with no arithmetic warning before the error line
    config = json.loads((CONFIGS / "gen_k1.json").read_text())
    config["family"]["a1"] = "1e-310"
    path = tmp_path / "k1_tiny_a1.json"
    path.write_text(json.dumps(config))
    proc = _python("-m", "opoly.cli", command, "--config", str(path))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines() == [
        "opoly: config error: k1 family: recurrence coefficients must be finite"]
