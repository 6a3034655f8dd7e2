"""List every CLI report field that differs between two ``src/`` trees.

Runs the argv grid of ``tools/golden.py`` under each tree, each in its own
subprocess, against this checkout's ``configs/`` and ``golden.edge_configs()``,
and prints:

* every run whose exit code or stderr differs;
* every report path whose value differs in some run, with the number of
  such runs and the largest distance in units in the last place (ulps)
  between the two values, or ``-`` where a value is not a float on both
  sides (a changed string, flag, count, or a key or row present on one side
  only).  Floats differ when their signs do, so ``-0.0 -> 0.0`` is listed
  at 0 ulps; a run whose bytes differ with no leaf differing is listed as
  ``<stdout>``.

List indices fold into ``[]``, so ``check:result.conditions.tilde_low[].beta``
covers every row.  Usage::

    python tools/report_diff.py OLD_SRC NEW_SRC

Stdlib only (opoly itself needs numpy).
"""

from __future__ import annotations

import json
import math
import os
import struct
import subprocess
import sys

TOOLS = os.path.dirname(os.path.abspath(__file__))


def _dump(src: str) -> dict:
    """The golden grid's ``[exit, stdout, stderr]`` per argv under ``src``."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--dump", os.path.abspath(src)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def _ordered(x: float) -> int:
    """Integer whose order and spacing match the doubles' (``-0.0 -> 0``)."""
    i = struct.unpack("<q", struct.pack("<d", x))[0]
    return i if i >= 0 else -(i & 0x7FFF_FFFF_FFFF_FFFF)


def _ulps(a, b):
    """Ulp distance of two floats; None when either is not a finite float."""
    if all(isinstance(v, float) and math.isfinite(v) for v in (a, b)):
        return abs(_ordered(a) - _ordered(b))
    return None


def _same(a, b) -> bool:
    """Equal values, with floats equal only in sign too (``-0.0 != 0.0``) and NaN equal to NaN."""
    if isinstance(a, float) and isinstance(b, float):
        return a != a and b != b or a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    return a == b


def _leaves(a, b, path: str):
    """Yield ``(path, ulps)`` for each differing leaf of two JSON values."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key in a and key in b:
                yield from _leaves(a[key], b[key], f"{path}.{key}")
            else:
                yield f"{path}.{key}", None
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for x, y in zip(a, b):
            yield from _leaves(x, y, path + "[]")
    elif not _same(a, b):
        yield path, _ulps(a, b)


def _worse(u, v):
    return None if u is None or v is None else max(u, v)


def compare(old: dict, new: dict):
    """``(run changes, {path: (runs, max ulps or None)})`` over the argvs of ``old``."""
    runs, fields = [], {}
    for argv, (code_a, out_a, err_a) in old.items():
        code_b, out_b, err_b = new[argv]
        if code_a != code_b or err_a != err_b:
            runs.append((argv, code_a, code_b, err_a, err_b))
        if out_a == out_b:
            continue
        if out_a and out_b:
            pairs = _leaves(json.loads(out_a), json.loads(out_b), "")
        else:
            pairs = [("<stdout>", None)]
        in_run = {}
        for path, ulps in pairs:
            in_run[path] = _worse(in_run[path], ulps) if path in in_run else ulps
        if not in_run:  # the bytes differ but no leaf does
            in_run["<stdout>"] = None
        for path, ulps in in_run.items():
            key = f"{argv.split()[0]}:{path.lstrip('.')}"
            count, worst = fields.get(key, (0, 0))
            fields[key] = (count + 1, _worse(worst, ulps))
    return runs, fields


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--dump":
        sys.path.insert(0, TOOLS)
        import golden

        json.dump(golden.outputs(argv[1]), sys.stdout)
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = _dump(argv[0]), _dump(argv[1])
    runs, fields = compare(old, new)
    print(f"{len(old)} runs; {len(runs)} with a changed exit code or stderr")
    for argv_s, code_a, code_b, err_a, err_b in runs:
        print(f"  {argv_s}: exit {code_a} -> {code_b}; stderr {err_a!r} -> {err_b!r}")
    print(f"{len(fields)} changed report paths (runs, max ulps):")
    for path, (count, ulps) in sorted(fields.items()):
        print(f"  {path}  {count}  {'-' if ulps is None else ulps}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
