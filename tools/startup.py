"""Cold-start split: the interpreter, numpy, ``import opoly.cli`` and one
``opoly`` run per command on each bundled config, each in a fresh process,
plus the import of ``opoly.cli`` alone, timed inside its process.

Usage::

    python tools/startup.py [--src SRC ...] [--starts N]

It first runs ``python -m compileall -q SRC/opoly``, which writes bytecode
even under ``PYTHONDONTWRITEBYTECODE``, so no start pays for compiling
opoly.  It then starts every case once per round under each tree, ``N``
rounds (default 7), and prints per tree and case the median and quartiles
of the wall milliseconds from start to exit, and the exit code of the
``opoly`` runs.  The case ``import opoly.cli in-process`` reports instead
the ``time.perf_counter()`` milliseconds around the import, which leave out
the interpreter's own start and spread far less than a whole process.
``zeros`` and ``quad`` take the config's ``n``, or ``--n 8`` where it has
none.  The last line of output is the tables as JSON.  ``--src`` names a
``src/`` tree to run, and may be repeated (default: this checkout's).  The trees take turns case by case, the first
one alternating from round to round, so a drift in host speed falls on
all of them alike; the configs always come from this checkout's
``configs/``, so the trees are compared on the same runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG_DIR = os.path.join(ROOT, "configs")
COMMANDS = ("check", "tilde", "zeros", "hk", "quad", "gen")
IN_PROCESS = "import opoly.cli in-process"  # the case that prints its own milliseconds


def cases() -> dict[str, list[str]]:
    """Case name -> interpreter arguments."""
    out = {
        "python -c pass": ["-c", "pass"],
        "import numpy": ["-c", "import numpy"],
        "import opoly.cli": ["-c", "import opoly.cli"],
        IN_PROCESS: ["-c", "import time; t = time.perf_counter(); import opoly.cli; "
                           "print(1000.0 * (time.perf_counter() - t))"],
    }
    for name in sorted(os.listdir(CONFIG_DIR)):
        path = os.path.join(CONFIG_DIR, name)
        with open(path, encoding="utf-8") as fh:
            has_n = "n" in json.load(fh)
        for command in COMMANDS:
            argv = ["-m", "opoly.cli", command, "--config", path]
            if command in ("zeros", "quad") and not has_n:
                argv += ["--n", "8"]
            out[f"opoly {command} {name}"] = argv
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append")
    parser.add_argument("--starts", type=int, default=7)
    args = parser.parse_args(argv)
    srcs = [os.path.abspath(src) for src in args.src or [os.path.join(ROOT, "src")]]
    for src in srcs:
        subprocess.run([sys.executable, "-m", "compileall", "-q", os.path.join(src, "opoly")],
                       check=True)
    table = cases()
    ms = {src: {name: [] for name in table} for src in srcs}
    codes: dict[tuple[str, str], int] = {}
    for round_ in range(args.starts):
        order = srcs[round_ % len(srcs):] + srcs[:round_ % len(srcs)]
        for name, case in table.items():
            for src in order:
                start = time.perf_counter()
                proc = subprocess.run([sys.executable, *case], cwd=ROOT,
                                      env=dict(os.environ, PYTHONPATH=src),
                                      stdout=subprocess.PIPE if name == IN_PROCESS
                                      else subprocess.DEVNULL, stderr=subprocess.DEVNULL)
                wall = 1000.0 * (time.perf_counter() - start)
                ms[src][name].append(float(proc.stdout) if name == IN_PROCESS else wall)
                codes[src, name] = proc.returncode
    rows: dict[str, dict] = {}
    for src in srcs:
        print(f"{src}\n{'case':48s} {'p25_ms':>8s} {'p50_ms':>8s} {'p75_ms':>8s}  exit")
        rows[src] = {}
        for name, values in ms[src].items():
            q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            code = codes[src, name]
            rows[src][name] = {"p25_ms": round(q1, 1), "p50_ms": round(q2, 1),
                               "p75_ms": round(q3, 1), "exit": code}
            print(f"{name:48s} {q1:8.1f} {q2:8.1f} {q3:8.1f}  {code}")
    print(json.dumps({"starts": args.starts, "trees": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
