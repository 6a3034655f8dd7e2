"""The three workloads: fixed, seeded job lists, how to run a job, and how to
judge its outcome against the truth in :mod:`families`.

Every job is one call into opoly.  ``check_mix`` and ``derive_mix`` call
``opoly.cli.main`` on a config file written before timing starts;
``oracle_deep`` calls ``check_conditions`` and ``oracle_gram_check`` on a
family built by opoly's public generators.  A job's list position and its
inputs depend only on the seed, so every pass over a list does the same work.

An outcome is ``"ok"`` when the job delivered what the input's construction
guarantees.  Every other outcome is a failure: ``"refused"`` when it raised a
typed error (exit 3) although the quantity exists, ``"false_pass"`` when it
claimed success for a wrong answer (exit 0 or a positive verdict where the
truth is negative, or exit 0 with wrong numbers), and ``"wrong"`` for the
rest: a negative answer where the truth is positive, a wrong exit code, or an
untyped exception.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass

import numpy as np

import opoly
from opoly import cli
from families import BUNDLED_TRUTH, CHEB_PAIRS, GENERATED, Family, chebyshev, draw

WORKLOADS = ("check_mix", "oracle_deep", "derive_mix")

# Tolerances of the payload checks.  They compare opoly's numbers with the
# benchmark's own independent evaluation, so they sit well above rounding
# and well below any real disagreement.
REL_TOL = 1e-9
ZERO_TOL = 1e-6


@dataclass
class Job:
    jid: int
    command: str              # check/tilde/zeros/hk/quad/gen, or "oracle"
    family: Family
    n: int | None = None      # polynomial index for zeros/quad
    degree: int | None = None  # oracle degree for "oracle" jobs
    argv: list | None = None  # cli.main arguments for CLI jobs


def _n_grid(k: int, horizon: int) -> list[int]:
    return sorted(set(range(k + 2, horizon, 5)) | {horizon - 1})


def _bundled(config_dir: str) -> list[Family]:
    names = sorted(f for f in os.listdir(config_dir) if f.endswith(".json"))
    if names != sorted(BUNDLED_TRUTH):
        raise RuntimeError(
            f"bundled configs {names} differ from the truth table {sorted(BUNDLED_TRUTH)}"
        )
    out = []
    for name in names:
        with open(os.path.join(config_dir, name), encoding="utf-8") as fh:
            out.append(Family(name, json.load(fh), BUNDLED_TRUTH[name]))
    return out


def build_jobs(workload: str, seed: int, config_dir: str) -> list[Job]:
    """The workload's job list for ``seed``.  Commands, family classes,
    horizons, ``n`` and degrees never depend on the seed; it draws the
    generated family parameters and, in ``check_mix``, which Chebyshev
    combination goes with which horizon."""
    rng = random.Random(f"{workload}:{seed}")
    jobs: list[Job] = []

    def add(command, fam, n=None, degree=None):
        jobs.append(Job(len(jobs), command, fam, n, degree))

    if workload == "check_mix":
        # CLI oracle degree min(12, (h + 1) // 2) runs 6, 8 and 12 here
        for fam in _bundled(config_dir):
            add("check", fam)
        for i, h in enumerate((12, 16, 24, 32, 48, 64)):
            add("check", chebyshev((i + seed) % len(CHEB_PAIRS), h))
            for cls in GENERATED:
                add("check", draw(cls, rng, h))
    elif workload == "oracle_deep":
        # Each degree 14..24 appears; the two bundled k=2 configs are the
        # ones whose oracle disagrees with the verdict at these degrees.
        for pair, d in enumerate((24, 22, 20, 18, 16, 14)):
            add("oracle", chebyshev(pair, 2 * d), degree=d)
        for cls, d in zip(GENERATED, (18, 20, 16, 14, 22)):
            add("oracle", draw(cls, rng, 2 * d), degree=d)
        bundled = {fam.label: fam for fam in _bundled(config_dir)}
        add("oracle", bundled["gen_k2_equal_roots.json"], degree=14)
        add("oracle", bundled["gen_k2_complex_roots.json"], degree=16)
    elif workload == "derive_mix":
        fams = [chebyshev(p, h) for p in range(len(CHEB_PAIRS)) for h in (32, 64)]
        fams += [draw(cls, rng, h, positive_definite=True)
                 for cls in GENERATED for h in (24, 48, 64)]
        for fam in fams:
            add("tilde", fam)
            add("hk", fam)
            if fam.config["family"]["type"] in ("k1", "k2"):
                add("gen", fam)
            for n in _n_grid(fam.k, fam.horizon):
                add("zeros", fam, n)
                if fam.positive_definite:
                    add("quad", fam, n)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs


def write_configs(jobs: list[Job], work_dir: str) -> None:
    """Write each CLI job's config once and fix its ``cli.main`` argv."""
    os.makedirs(work_dir, exist_ok=True)
    paths: dict[int, str] = {}
    for job in jobs:
        if job.command == "oracle":
            continue
        key = id(job.family)
        if key not in paths:
            paths[key] = os.path.join(work_dir, f"config_{len(paths):04d}.json")
            with open(paths[key], "w", encoding="utf-8") as fh:
                json.dump(job.family.config, fh)
        job.argv = [job.command, "--config", paths[key]]
        if job.n is not None:
            job.argv += ["--n", str(job.n)]


def library_pair(fam: Family) -> opoly.RecurrencePair:
    """The family's recurrence built by opoly's own public generator."""
    cfg, h = fam.config["family"], fam.horizon
    if cfg["type"] == "chebyshev":
        return opoly.chebyshev_family(cfg["kind"], h)
    if cfg["type"] == "k1":
        return opoly.k1_family(cfg["gammas"], float(cfg["beta0"]), float(cfg["beta1"]),
                               float(cfg["beta2"]), float(cfg["a1"]), h)
    case = opoly.K2Case(cfg["case"])
    params = {}
    for name in "ABCDEF":
        v = cfg.get(name, 0.0)
        params[name] = complex(*map(float, v)) if isinstance(v, list) else float(v)
    params = opoly.K2Params(case=case, beta0=float(cfg["beta0"]), beta1=float(cfg["beta1"]),
                            gamma1=float(cfg["gamma1"]), **params)
    return opoly.k2_family(float(cfg.get("a1", 0.0)), float(cfg["a2"]), params, h)


def run_job(job: Job):
    """Run one job and return what it produced; this is the timed call."""
    if job.command == "oracle":
        rec = library_pair(job.family)
        comb = opoly.CombCoeffs(job.family.a)
        report = opoly.check_conditions(rec, comb, job.family.horizon)
        try:
            gram = opoly.oracle_gram_check(rec, comb, degree=job.degree, tol=1e-9)
        except opoly.DegeneracyError:
            return report.verdict, False
        return report.verdict, gram.ok
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(job.argv)
    return code, out.getvalue()


def _close(got, want, tol=REL_TOL) -> bool:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want)))
    )


def _same_zeros(got, want) -> bool:
    """Greedy multiset match of two equal-size complex sets."""
    got, left = list(got), list(np.asarray(want, dtype=complex))
    if len(got) != len(left):
        return False
    for z in got:
        i = min(range(len(left)), key=lambda j: abs(z - left[j]))
        if abs(z - left[i]) > ZERO_TOL * max(1.0, abs(left[i])):
            return False
        left.pop(i)
    return True


def _payload_ok(job: Job, result: dict) -> bool:
    fam, n = job.family, job.n
    if job.command == "check":
        return (result["conditions"]["verdict"] is fam.orthogonal
                and result["gram_oracle"]["ok"] is fam.orthogonal)
    if job.command == "tilde":
        table = result["tilde"]
        gammas = [row["gamma"] for row in table[1:]]
        return (_close([row["beta"] for row in table], fam.tilde_beta)
                and _close(gammas, fam.tilde_gamma[1:]))
    if job.command == "zeros":
        got = [complex(z["re"], z["im"]) for z in result["zeros"]]
        return _same_zeros(got, fam.zeros(n))
    if job.command == "hk":
        return result["relation"]["ok"] is True and len(result["coefficients"]) == fam.k + 1
    if job.command == "quad":
        comb = result["combination"]
        return (result["gauss"]["degree_of_precision"] == 2 * n - 1
                and comb["degree_of_precision"] == 2 * n - 1 - fam.k
                and _close(comb["nodes"], fam.zeros(n), ZERO_TOL))
    if job.command == "gen":
        return (result["validation"]["verdict"] is True
                and _close(result["family"]["beta"], fam.beta, 1e-12)
                and _close(result["family"]["gamma"], fam.gamma[1:], 1e-12))
    raise ValueError(job.command)


def judge(job: Job, produced) -> str:
    """Classify what ``run_job`` produced (or the exception it raised):
    ``"ok"``, ``"refused"`` (typed error although the answer exists),
    ``"wrong"`` (a wrong negative answer or an untyped crash) or
    ``"false_pass"`` (a success claimed for a wrong answer)."""
    fam = job.family
    if isinstance(produced, opoly.OpolyError):
        return "refused"
    if isinstance(produced, BaseException):
        return "wrong"
    if job.command == "oracle":
        verdict, oracle_ok = produced
        if verdict is fam.orthogonal and oracle_ok is fam.orthogonal:
            return "ok"
        return "wrong" if fam.orthogonal else "false_pass"
    code, out = produced
    expected = 0 if fam.orthogonal else 1
    if code == expected:
        if _payload_ok(job, json.loads(out)["result"]):
            return "ok"
        return "false_pass" if code == 0 else "wrong"
    if code == 3:
        return "refused"
    return "false_pass" if code == 0 else "wrong"
