"""Tests of the benchmark itself: tracer coverage, self-time accounting, job
lists and the outcome classes.  Run with ``python3 -m pytest bench``."""

from __future__ import annotations

import json
import os
import random
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import opoly  # noqa: E402
import opoly.cli  # noqa: E402
import families  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from workloads import Job  # noqa: E402

CONFIG_DIR = os.path.join(ROOT, "configs")

# Spans each job kind must produce: at least one per layer, and the calls that
# reach a function through a ``from ... import`` binding in another module.
EXPECTED = {
    "check": {"cli.main", "cli.load_config", "lincomb.check_conditions",
              "lincomb.oracle_gram_check", "_exact.exact_gram", "recurrence.chebyshev_family"},
    "tilde": {"lincomb.tilde_recurrence"},
    "zeros": {"jacobi.zeros_q", "lincomb.q_poly", "recurrence.poly_p", "jacobi.multiset_distance"},
    "hk": {"jacobi.solve_hk", "moments.moments_from_recurrence",
           "jacobi.verify_functional_relation", "jacobi.orthonormal_identity_check"},
    "quad": {"quadrature.gauss_rule", "quadrature.shohat_check",
             "quadrature.christoffel_numbers", "quadrature.degree_of_precision"},
    "gen": {"recurrence.k1_family"},
    "oracle": {"lincomb.check_conditions", "lincomb.oracle_gram_check", "_exact.exact_gram"},
}
# (child, parent) pairs that only appear if the importing module was rebound.
REBOUND = {
    ("lincomb.check_conditions", "cli.main"),
    ("jacobi.zeros_q", "quadrature.shohat_check"),
    ("_exact.exact_gram", "lincomb.oracle_gram_check"),
    ("recurrence.poly_p", "lincomb.q_poly"),
}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    cheb = families.chebyshev(0, 24)
    k1 = families.draw("k1", random.Random(0), 24, positive_definite=True)
    jobs = [Job(0, "check", cheb), Job(1, "tilde", cheb), Job(2, "zeros", cheb, n=8),
            Job(3, "hk", cheb), Job(4, "quad", cheb, n=8), Job(5, "gen", k1),
            Job(6, "oracle", cheb, degree=6)]
    workloads.write_configs(jobs, str(tmp_path_factory.mktemp("configs")))
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        outcomes = []
        for job in jobs:
            with tr.job_span(job.jid):
                produced = workloads.run_job(job)
            outcomes.append(workloads.judge(job, produced))
    finally:
        tr.uninstall()
    return jobs, tr.harvest(), outcomes


def test_traced_jobs_succeed(traced):
    _, _, outcomes = traced
    assert outcomes == ["ok"] * len(outcomes)


def test_every_layer_span_appears_on_a_job_that_calls_it(traced):
    jobs, spans, _ = traced
    names_by_job = {}
    for span in spans:
        names_by_job.setdefault(span[4], set()).add(span[0])
    for job in jobs:
        missing = EXPECTED[job.command] - names_by_job[job.jid]
        assert not missing, f"{job.command} job lacks spans {missing}"
    all_traced = {f"{m}.{f}" for m, fns in tracer_mod.TRACED.items() for f in fns}
    seen = set().union(*names_by_job.values())
    assert all_traced - {"recurrence.k2_family"} <= seen


def test_from_import_bindings_are_traced(traced):
    _, spans, _ = traced
    pairs = {(s[0], spans[s[3]][0]) for s in spans if s[3] >= 0}
    assert REBOUND <= pairs


def test_self_times_sum_to_cli_main(traced):
    _, spans, _ = traced
    own = tracer_mod.self_times(spans)

    def under(i, root):
        while i >= 0:
            if i == root:
                return True
            i = spans[i][3]
        return False

    roots = [i for i, s in enumerate(spans) if s[0] == "cli.main"]
    assert len(roots) == 6
    for root in roots:
        total = sum(t for i, t in enumerate(own) if under(i, root))
        assert total == pytest.approx(spans[root][2] - spans[root][1], abs=1e-9)


def test_uninstall_restores_bindings():
    original = opoly.cli.check_conditions
    tr = tracer_mod.Tracer()
    tr.install()
    assert opoly.cli.check_conditions is not original
    tr.uninstall()
    assert opoly.cli.check_conditions is original
    assert opoly.lincomb.check_conditions is original


def test_per_layer_reports_recompute(traced):
    jobs, spans, _ = traced
    counts = {"ok": len(jobs), "refused": 0, "wrong": 0, "false_pass": 0}
    metrics = tracer_mod.per_layer([spans], [[1.0] * len(jobs)], counts)
    # hk runs solve_hk twice with equal arguments (once inside the orthonormal check)
    assert metrics["cli.recompute_ratio"][0] > 1.0
    assert metrics["jacobi.solve_hk_calls"][0] == pytest.approx(2 / len(jobs))
    assert metrics["exact.exact_gram_ms.d6"][0] > 0.0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_job_lists_are_seeded_with_fixed_composition(workload):
    def shape(jobs):
        return [(j.command, j.family.config["family"]["type"], j.family.horizon, j.n, j.degree)
                for j in jobs]

    a = workloads.build_jobs(workload, 1, CONFIG_DIR)
    b = workloads.build_jobs(workload, 1, CONFIG_DIR)
    c = workloads.build_jobs(workload, 2, CONFIG_DIR)
    assert [j.family.config for j in a] == [j.family.config for j in b]
    assert [j.family.config for j in a] != [j.family.config for j in c]
    if workload != "check_mix":  # check_mix rotates the Chebyshev pair across horizons
        assert shape(a) == shape(c)
    else:
        assert sorted(shape(a), key=str) == sorted(shape(c), key=str)


def test_truth_matches_the_library_on_generated_families():
    rng = random.Random(3)
    for cls in families.GENERATED:
        fam = families.draw(cls, rng, 30)
        rec = workloads.library_pair(fam)
        comb = opoly.CombCoeffs(fam.a)
        tilde = opoly.tilde_recurrence(rec, comb, 30)
        assert tilde.beta == pytest.approx(fam.tilde_beta, abs=1e-12)
        assert tilde.gamma[1:] == pytest.approx(fam.tilde_gamma[1:], abs=1e-12)


def test_outcome_classes():
    broken = workloads._bundled(CONFIG_DIR)[0]
    assert broken.orthogonal is False
    job = Job(0, "check", broken)
    report = {"result": {"conditions": {"verdict": True}, "gram_oracle": {"ok": True}}}
    assert workloads.judge(job, (0, json.dumps(report))) == "false_pass"
    assert workloads.judge(job, (3, "")) == "refused"
    assert workloads.judge(job, (2, "")) == "wrong"
    assert workloads.judge(job, ZeroDivisionError()) == "wrong"
    assert workloads.judge(job, opoly.NumericError()) == "refused"


def test_result_counts_each_job_once():
    import run

    jobs = workloads.build_jobs("check_mix", 1, CONFIG_DIR)
    outcomes = ["ok"] * (len(jobs) - 2) + ["refused", "wrong"]
    counts, _ = run.summarize_outcomes(jobs, outcomes)
    result = run._result(counts, {"setup_s": (0.2, "s")})
    assert (result["attempted"], result["failed"], result["correct"]) == (len(jobs), 2, True)
