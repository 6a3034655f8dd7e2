"""Time the ``zeros`` and ``quad`` stages per horizon: the layer scaling curve.

For one bundled Chebyshev ``k = 2`` config and one bundled generated ``k2``
config, each rebuilt at horizons 8, 16, 24, 32, 48 and 64 with
``n = horizon - 1``, prints per horizon the median milliseconds over
``repeat`` rounds of five stages: the four an ``opoly quad`` job runs, in
its order, with the coefficients ``opoly zeros`` prints after its zeros:

* ``gauss_rule`` -- the Gauss rule on the zeros of ``P_n`` with its degree;
* ``zeros_q`` -- the zeros of ``Q_n``, on the route it picks itself, as in
  ``opoly zeros`` and ``opoly quad``;
* ``q_poly`` -- the monomial coefficients of ``Q_n``, from the coefficient
  rows of ``P_{n-k}..P_n`` that the fresh pair walks for it;
* ``christoffel_numbers`` -- the weights on those zeros, given the
  combination as ``opoly quad`` gives it, so on the route ``quad`` takes;
* ``degree_of_precision`` -- the degree of that rule.

Each round runs on a fresh copy of the family, so nothing a pair keeps from
an earlier round is reused, and the stages of one round see exactly what the
stages before them left, as in one job.  The exact low-degree completion
that ``zeros_q`` reads is memoised by value, so only the first round pays
for it.  Every figure is at reference host speed, as in ``bench/run.py``:
the benchmark's kernel (``bench/calibrate.py``) is timed before and after
each row, and the row's times are divided by the mean of the two samples
and multiplied by the kernel's reference time.

Usage::

    python tools/layer_curve.py [--src SRC] [--horizons 8 16 ... 64] [--repeat 21]

``--src`` names the ``src/`` tree to import ``opoly`` from (default: this
checkout's), so two trees can be compared with the same configs.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

from oracle_curve import load_at_horizon

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = ("cheb1_k2.json", "gen_k2_real_roots.json")
STAGES = ("gauss_rule", "zeros_q", "q_poly", "christoffel_numbers", "degree_of_precision")


def _round(op, rec, comb, n: int) -> list[float]:
    """Seconds of each stage in one run of the five, on a fresh copy of ``rec``."""
    rec = op.RecurrencePair(rec.betas, rec.gammas[1:])
    times = []

    def timed(fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        times.append(time.perf_counter() - start)
        return out

    timed(op.gauss_rule, rec, n)
    zeros = timed(op.zeros_q, rec, comb, n).zeros
    timed(op.q_poly, rec, comb, n)
    nodes = zeros.real  # zeros_q sorts by real part
    weights = timed(op.christoffel_numbers, rec, nodes, comb)
    timed(op.degree_of_precision, rec, op.QuadratureRule(nodes, weights, -1))
    return times


def curve(src: str, horizons: list[int], repeat: int) -> list[tuple]:
    """``(config, horizon, n, *stage_ms)`` rows at reference speed."""
    sys.path[:0] = [src, os.path.join(ROOT, "bench")]
    import calibrate
    import opoly as op
    from opoly.cli import load_config

    rows = []
    for name in CONFIGS:
        for horizon in horizons:
            cfg = load_at_horizon(load_config, name, horizon)
            rec, comb, n = cfg.rec, cfg.comb, horizon - 1
            before = calibrate.sample()
            rounds = [_round(op, rec, comb, n) for _ in range(repeat)]
            scale = calibrate.scales([before, calibrate.sample()], [0])[0]
            rows.append((name, horizon, n, *(1000.0 * statistics.median(stage) * scale
                                             for stage in zip(*rounds))))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    parser.add_argument("--horizons", type=int, nargs="+", default=[8, 16, 24, 32, 48, 64])
    parser.add_argument("--repeat", type=int, default=21)
    args = parser.parse_args(argv)
    if min(args.horizons) < 4 or max(args.horizons) > 64 or args.repeat < 1:
        parser.error("horizons must lie in [4, 64] and --repeat be at least 1")
    print(f"{'config':24s} {'horizon':>7s} {'n':>3s}"
          + "".join(f" {s + '_ms':>23s}" for s in STAGES))
    for name, horizon, n, *times in curve(args.src, args.horizons, args.repeat):
        print(f"{name:24s} {horizon:7d} {n:3d}" + "".join(f" {t:23.4f}" for t in times))
    return 0


if __name__ == "__main__":
    sys.exit(main())
