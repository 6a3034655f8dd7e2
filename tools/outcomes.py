"""Per-job outcomes of the bench workloads: every job that is not ``ok``.

Builds each workload's job list with ``bench/workloads.build_jobs``, runs
every job once through ``run_job`` and ``judge`` (the warm-up pass of
``bench/run.py``, untimed), and prints one line per job whose outcome is
not ``ok``::

    workload seed index command outcome

The number of such jobs per workload goes to standard error.  Usage::

    python tools/outcomes.py [--seed N ...] [--src SRC]

``--seed`` may be repeated and defaults to 1.  ``--src`` picks the ``src/``
tree opoly is imported from (default: this checkout's); the job lists and
their truth always come from this checkout's ``bench/`` and ``configs/``, so
two trees are compared on the same jobs.
"""

from __future__ import annotations

import os

# One BLAS thread, as in bench/run.py; set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "bench")
CONFIG_DIR = os.path.join(ROOT, "configs")
WORKLOADS = ("check_mix", "oracle_deep", "derive_mix")


def failures(workload: str, seed: int) -> tuple[list[tuple], int]:
    """``(workload, seed, index, command, outcome)`` of each job that is not
    ``ok``, in job order, and the number of jobs."""
    import workloads

    jobs = workloads.build_jobs(workload, seed, CONFIG_DIR)
    out = []
    with tempfile.TemporaryDirectory() as work_dir:
        workloads.write_configs(jobs, work_dir)
        for job in jobs:
            try:
                produced = workloads.run_job(job)
            except Exception as exc:  # an untyped crash is an outcome, as in bench/run.py
                produced = exc
            outcome = workloads.judge(job, produced)
            if outcome != "ok":
                out.append((workload, seed, job.jid, job.command, outcome))
    return out, len(jobs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, action="append")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.abspath(args.src), BENCH_DIR]
    for workload in WORKLOADS:
        for seed in args.seed or [1]:
            rows, total = failures(workload, seed)
            for row in rows:
                print(*row)
            print(f"{workload} seed {seed}: {len(rows)} of {total} jobs not ok", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
