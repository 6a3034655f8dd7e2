"""Fingerprint every CLI report so two checkouts can be compared byte for byte.

Runs ``opoly.cli.main`` in-process on every command x bundled config x
``--format json|csv`` x ``--n`` (none, 3, 10, 20, 27, 30) and prints one JSON
object mapping each argv (space-joined) to ``[exit code, sha256 of stdout,
stderr]``.  Config paths are relative to the repository root, so the output of
two checkouts is directly comparable::

    python tools/golden.py > before.json     # in the parent checkout
    python tools/golden.py > after.json      # in the changed checkout
    diff before.json after.json

Stdlib only (opoly itself needs numpy).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMANDS = ("check", "tilde", "zeros", "hk", "quad", "gen")
FORMATS = ("json", "csv")
NS = (None, 3, 10, 20, 27, 30)


def capture(main, argv: list[str]) -> list:
    """``[exit code, stdout, stderr]`` of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return [code, out.getvalue(), err.getvalue()]


def outputs(src: str = os.path.join(ROOT, "src")) -> dict:
    """Map each argv of the grid (space-joined) to its :func:`capture`,
    running the ``opoly`` found in ``src``."""
    sys.path.insert(0, src)
    from opoly.cli import main

    os.chdir(ROOT)
    configs = sorted(f for f in os.listdir("configs") if f.endswith(".json"))
    table = {}
    for command in COMMANDS:
        for name in configs:
            for fmt in FORMATS:
                for n in NS:
                    argv = [command, "--config", f"configs/{name}", "--format", fmt]
                    if n is not None:
                        argv += ["--n", str(n)]
                    table[" ".join(argv)] = capture(main, argv)
    return table


def golden() -> dict:
    return {
        argv: [code, hashlib.sha256(out.encode()).hexdigest(), err]
        for argv, (code, out, err) in outputs().items()
    }


if __name__ == "__main__":
    json.dump(golden(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
