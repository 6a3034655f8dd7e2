"""Reference kernel that tracks the host's speed between jobs.

The host this benchmark was written on (Intel Xeon, 2.0 GHz, 2 vCPUs) shares
its cores with other tenants, and its speed drifts by up to 2x within
seconds: the same ``derive_mix`` pass took from 3.0 to 4.7 s within two
minutes, and the interquartile range of plain wall-time ``jobs_per_s`` over
runs of five passes was 31-47% of the median on ``derive_mix`` and 10-14% on
``oracle_deep``.  A fixed kernel timed between jobs sees the same drift.
Each job's time is divided by the mean of the kernel samples taken just
before and just after it and multiplied by ``REFERENCE_MS``, which expresses
it at the speed where the kernel takes that long.  On the same recorded
passes this brought the range down to 1-2% (``derive_mix``) and 4-6%
(``oracle_deep``).

The kernel never calls opoly, so a change to opoly moves the normalised
times exactly as it moves the raw ones.  It mixes the three kinds of work
opoly does: argument parsing and JSON reports, small numpy linear algebra,
and exact ``Fraction`` polynomial products.
"""

from __future__ import annotations

import argparse
import json
import time
from fractions import Fraction

import numpy as np

# Median kernel time on the reference host (Intel Xeon, 2.0 GHz, 2 vCPUs).
REFERENCE_MS = 3.0


def _cli_like():
    parser = argparse.ArgumentParser(prog="kernel")
    sub = parser.add_subparsers(dest="command")
    for name in ("a", "b", "c"):
        p = sub.add_parser(name)
        p.add_argument("--x")
        p.add_argument("--n", type=int)
    parser.parse_args(["a", "--x", "1", "--n", "3"])
    report = {"table": [{"n": i, "beta": i / 7, "gamma": i / 3} for i in range(40)]}
    json.loads(json.dumps(report, sort_keys=True, indent=2))


def _numpy_like():
    n = np.arange(31.0)
    J = np.diag(n / 31) + np.diag(np.full(30, 0.25), 1) + np.diag(np.full(30, 0.25), -1)
    np.linalg.eigvals(J)
    c = np.array([1.0])
    for z in np.linspace(-1.0, 1.0, 20):
        c = np.convolve(c, [-z, 1.0])
    np.roots(c)


def _fraction_like():
    a = [Fraction(i + 1, 2 ** (i % 53 + 1)) + Fraction(1, 3 + i) for i in range(14)]
    out = [Fraction(0)] * 27
    for i, x in enumerate(a):
        for j, y in enumerate(a):
            out[i + j] += x * y


def sample() -> float:
    """Seconds one run of the kernel takes now."""
    t0 = time.perf_counter()
    _cli_like()
    _numpy_like()
    _fraction_like()
    return time.perf_counter() - t0


def scales(kernel_samples, segments):
    """Per-job factors turning raw seconds into seconds at reference speed;
    job ``i`` ran between kernel samples ``segments[i]`` and ``segments[i] + 1``."""
    ref = REFERENCE_MS / 1000.0
    return [2.0 * ref / (kernel_samples[s] + kernel_samples[s + 1]) for s in segments]
