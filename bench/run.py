"""opoly benchmark: one closed-loop client, one job in flight, three workloads.

    python3 bench/run.py --workload check_mix|oracle_deep|derive_mix \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  The job list comes from ``--seed`` (see
``workloads.py``).  One untimed warm-up pass runs first; then whole passes
repeat until ``--seconds`` of wall time have gone and at least
``MIN_PASSES`` passes are done, so every run times the same job mix.  Every
job's outcome is checked against the truth table on every pass.

Times are normalised to a reference host speed with a kernel timed between
jobs (``calibrate.py``); the raw figures are printed alongside.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics (``tracer.py``)
plus the tracing overhead.  Human-readable lines go first; the last line of
standard output is the JSON result.
"""

from __future__ import annotations

import os

# One BLAS thread in this process and in the set-up children; set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
CONFIG_DIR = os.path.join(ROOT, "configs")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
TRACE_OUT = os.path.join(ROOT, ".bench_out")

MIN_PASSES = 5
SETUP_STARTS = 11
SEGMENT_S = 0.05  # job time between two kernel samples, judged from the warm-up pass
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)


def tail_percentile(samples: int) -> float:
    """Highest ladder percentile that leaves at least ten samples above it."""
    for p in TAIL_LADDER:
        if samples * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def _percentile(sorted_values, p):
    """Linear-interpolated percentile of an ascending list."""
    pos = (len(sorted_values) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def measure_setup() -> float:
    """Median wall seconds of a cold ``import opoly.cli`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    raw = []
    for _ in range(SETUP_STARTS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import opoly.cli"], env=env, cwd=ROOT, check=True)
        raw.append(time.perf_counter() - t0)
    return statistics.median(raw)


def timed_pass(jobs, every, tracer=None):
    """Run every job once, sampling the kernel before every ``every``-th job
    and after the last.  Returns (raw seconds, reference-speed factors,
    outcomes), one entry per job."""
    import calibrate
    import workloads

    latencies, segments, kernel, outcomes = [], [], [], []
    clock = time.perf_counter
    for i, job in enumerate(jobs):
        if i % every == 0:
            kernel.append(calibrate.sample())
        segments.append(len(kernel) - 1)
        span = tracer.job_span(job.jid) if tracer else contextlib.nullcontext()
        t0 = clock()
        with span:
            try:
                produced = workloads.run_job(job)
            except Exception as exc:  # an untyped crash is an outcome, not a harness error
                produced = exc
        latencies.append(clock() - t0)
        outcomes.append(workloads.judge(job, produced))
    kernel.append(calibrate.sample())
    return latencies, calibrate.scales(kernel, segments), outcomes


def jobs_per_s(passes) -> float:
    """Jobs per second of busy time, each job's busy time being its median
    over the passes."""
    return len(passes[0]) / sum(statistics.median(col) for col in zip(*passes))


def _scaled(lat, scale):
    return [t * s for t, s in zip(lat, scale)]


def _without_slowest_pass(passes):
    """All job latencies in ms, ascending, leaving out each job's slowest
    pass: a stall of the shared host lands on one pass of a job, while a
    slower opoly slows every pass."""
    return sorted(1000.0 * v for col in zip(*passes) for v in sorted(col)[:-1])


def _passes(seconds, one_pass):
    start = time.perf_counter()
    done = 0
    while done < MIN_PASSES or time.perf_counter() - start < seconds:
        one_pass()
        done += 1


def _check_stable(first, outcomes):
    if outcomes != first:
        changed = [i for i, (a, b) in enumerate(zip(first, outcomes)) if a != b]
        raise RuntimeError(f"job outcomes changed between passes at jobs {changed[:10]}")


def summarize_outcomes(jobs, outcomes):
    counts = {"ok": 0, "refused": 0, "wrong": 0, "false_pass": 0}
    for o in outcomes:
        counts[o] += 1
    by_command: dict[str, list[int]] = {}
    for job, o in zip(jobs, outcomes):
        row = by_command.setdefault(job.command, [0, 0])
        row[0] += 1
        row[1] += o != "ok"
    return counts, by_command


def _result(counts, metrics):
    """The JSON result.  ``attempted`` and ``failed`` count the distinct jobs
    of the list, not their repeats: every pass gives each job the same
    outcome (``_check_stable``), so the counts depend on the seed alone and
    not on how many passes fitted into ``--seconds``."""
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    return {
        "correct": counts["false_pass"] == 0,
        "attempted": sum(counts.values()),
        "failed": sum(counts.values()) - counts["ok"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    jobs = workloads.build_jobs(workload, seed, CONFIG_DIR)
    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK_ROOT)
    try:
        workloads.write_configs(jobs, work_dir)
        setup = None if trace else measure_setup()
        # warm-up pass: untimed; its outcomes must match every timed pass
        lat, _, first = timed_pass(jobs, 1)
        every = max(1, int(SEGMENT_S * len(jobs) / sum(lat)))
        if trace:
            return run_traced(workload, seed, seconds, jobs, first, every)
        return run_plain(workload, seconds, jobs, first, every, setup)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def run_plain(workload, seconds, jobs, first, every, setup) -> dict:
    raw, norm, scales, outcomes = [], [], [], []

    def one_pass():
        lat, scale, out = timed_pass(jobs, every)
        _check_stable(first, out)
        raw.append(lat)
        norm.append(_scaled(lat, scale))
        scales.extend(scale)
        outcomes.extend(out)

    _passes(seconds, one_pass)
    counts, by_command = summarize_outcomes(jobs, first)
    p_tail = tail_percentile(len(jobs) * (MIN_PASSES - 1))
    lat_ms = sorted(1000.0 * v for lat in norm for v in lat)
    raw_ms = sorted(1000.0 * v for lat in raw for v in lat)
    tail_ms, raw_tail_ms = _without_slowest_pass(norm), _without_slowest_pass(raw)
    ok = counts["ok"] / len(jobs)
    print(f"workload {workload}: {len(jobs)} jobs per pass, {len(norm)} timed passes, "
          f"{len(outcomes)} timed jobs, kernel every {every} jobs")
    print(f"job_tail_ms is p{p_tail:g} of {len(tail_ms)} samples, each job's slowest pass "
          f"left out ({len(tail_ms) - int(len(tail_ms) * p_tail / 100.0)} beyond it)")
    print("outcomes per pass: " + ", ".join(f"{k}={v}" for k, v in counts.items()))
    for command, (n, bad) in sorted(by_command.items()):
        print(f"  {command:6s} {n:4d} jobs, {bad:4d} not ok")
    print(f"failed_frac = {1.0 - ok:.6g} fraction")
    print(f"raw wall time: setup_s = {setup:.6g} s, jobs_per_s = {jobs_per_s(raw):.6g} 1/s, "
          f"job_p50_ms = {statistics.median(raw_ms):.6g} ms, "
          f"job_tail_ms = {_percentile(raw_tail_ms, p_tail):.6g} ms")
    return _result(counts, {
        # a child start sits too far from the in-process kernel for a per-start
        # factor, so it takes the run's median one
        "setup_s": (setup * statistics.median(scales), "s"),
        "jobs_per_s": (jobs_per_s(norm), "1/s"),
        "job_p50_ms": (statistics.median(lat_ms), "ms"),
        "job_tail_ms": (_percentile(tail_ms, p_tail), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (ok, "fraction"),
    })


def run_traced(workload, seed, seconds, jobs, first, every) -> dict:
    import tracer as tracer_mod

    tracer = tracer_mod.Tracer()
    plain, traced, spans, scales = [], [], [], []

    def one_pass():
        lat, scale, out = timed_pass(jobs, every)
        _check_stable(first, out)
        plain.append(_scaled(lat, scale))
        tracer.install()
        try:
            lat, scale, out = timed_pass(jobs, every, tracer)
        finally:
            tracer.uninstall()
        _check_stable(first, out)
        traced.append(_scaled(lat, scale))
        spans.append(tracer.harvest())
        scales.append(scale)

    _passes(seconds / 2.0, one_pass)
    os.makedirs(TRACE_OUT, exist_ok=True)
    with open(os.path.join(TRACE_OUT, f"spans-{workload}-{seed}.json"), "w") as fh:
        json.dump([s[:5] for s in spans[0]], fh)
    counts, _ = summarize_outcomes(jobs, first)
    metrics = tracer_mod.per_layer(spans, scales, counts)
    metrics["trace.overhead_pct"] = (100.0 * (jobs_per_s(plain) / jobs_per_s(traced) - 1.0), "%")
    print(f"workload {workload}: {len(jobs)} jobs per pass, {len(traced)} traced passes")
    return _result(counts, metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "opoly")) or not os.path.isdir(CONFIG_DIR):
        print(f"bench: no opoly sources under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, BENCH_DIR]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
