"""Time the exact Gram oracle per degree: the oracle-degree scaling curve.

For one bundled ``k = 1`` and one bundled ``k = 2`` config, rebuilt at
horizon ``2 * max(degrees) - 1``, prints per degree the best-of-``repeat``
milliseconds of

* ``completion`` -- the exact low-degree completion that ``check_conditions``
  and the oracle share, with its one-entry memo cleared before each call
  (it reads only the data up to ``k + 1``, so its curve is flat);
* ``exact_gram`` -- the integer Gram matrix, called right after
  ``check_conditions`` on the same data, as in ``opoly check``;
* ``ratio_loop`` -- ``oracle_gram_check`` with ``exact_gram`` answered from
  a precomputed result, i.e. the argument checks and the ratio test alone.

Every figure is at reference host speed, as in ``bench/run.py``: the
benchmark's kernel (``bench/calibrate.py``) is timed before and after each
row, and the row's times are divided by the mean of the two samples and
multiplied by the kernel's reference time.

Usage::

    python tools/oracle_curve.py [--src SRC] [--degrees 6 8 ... 32] [--repeat 5]

``--src`` names the ``src/`` tree to import ``opoly`` from (default: this
checkout's), so two trees can be compared with the same configs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = ("cheb2_k1.json", "gen_k2_real_roots.json")


def best_ms(fn, repeat: int) -> float:
    """Fastest of ``repeat`` calls of ``fn``, in milliseconds."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1000.0 * min(times)


def load_at_horizon(load_config, name: str, horizon: int):
    """The bundled config ``name`` with its horizon replaced."""
    with open(os.path.join(ROOT, "configs", name), encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["horizon"] = horizon
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(raw, fh)
        return load_config(path)


def curve(src: str, degrees: list[int], repeat: int) -> list[tuple[str, int, float, float, float]]:
    """``(config, degree, completion_ms, exact_gram_ms, ratio_loop_ms)`` rows
    at reference speed."""
    sys.path[:0] = [src, os.path.join(ROOT, "bench")]
    import calibrate
    from opoly import _exact, lincomb
    from opoly.cli import load_config

    def completion(rec, comb):
        _exact._low_completion.cache_clear()
        _exact.low_completion(rec.beta, rec.gamma, comb.a)

    exact_gram = lincomb.exact_gram
    rows = []
    for name in CONFIGS:
        cfg = load_at_horizon(load_config, name, 2 * max(degrees) - 1)
        rec, comb = cfg.rec, cfg.comb
        for degree in degrees:
            before = calibrate.sample()
            completion_ms = best_ms(lambda: completion(rec, comb), repeat)
            lincomb.check_conditions(rec, comb, rec.horizon)
            gram = exact_gram(rec.beta, rec.gamma, comb.a, degree)
            gram_ms = best_ms(lambda: exact_gram(rec.beta, rec.gamma, comb.a, degree), repeat)
            lincomb.exact_gram = lambda *args: gram
            try:
                loop_ms = best_ms(
                    lambda: lincomb.oracle_gram_check(rec, comb, degree=degree, tol=1e-9), repeat)
            finally:
                lincomb.exact_gram = exact_gram
            scale = calibrate.scales([before, calibrate.sample()], [0])[0]
            rows.append((name, degree, *(t * scale for t in (completion_ms, gram_ms, loop_ms))))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    parser.add_argument("--degrees", type=int, nargs="+", default=list(range(6, 33, 2)))
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args(argv)
    if min(args.degrees) < 1 or args.repeat < 1:
        parser.error("degrees and --repeat must be at least 1")
    print(f"{'config':26s} {'degree':>6s} {'completion_ms':>14s} {'exact_gram_ms':>14s} "
          f"{'ratio_loop_ms':>14s}")
    for name, degree, *times in curve(args.src, args.degrees, args.repeat):
        print(f"{name:26s} {degree:6d}" + "".join(f" {t:14.4f}" for t in times))
    return 0


if __name__ == "__main__":
    sys.exit(main())
