"""In-memory span tracer around opoly's public functions.

``Tracer.install`` wraps each function in ``TRACED`` and rebinds every name
that refers to it in any loaded ``opoly`` module, so calls made through
``from ... import`` bindings (``cli`` takes ``check_conditions`` and
``zeros_q``, ``quadrature`` takes ``zeros_q``, ``lincomb`` takes
``exact_gram`` and ``poly_p``) are traced as well.  A span is ``[name,
start, end, parent index, job id, info]``; spans stay in memory until the
caller harvests them.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

import numpy as np

# module -> public functions traced in it.  The module names are the layers.
TRACED = {
    "cli": ("main", "load_config"),
    "lincomb": ("check_conditions", "oracle_gram_check", "tilde_recurrence", "q_poly"),
    "_exact": ("exact_gram",),
    "recurrence": ("poly_p", "chebyshev_family", "k1_family", "k2_family"),
    "moments": ("moments_from_recurrence",),
    "jacobi": ("zeros_q", "solve_hk", "orthonormal_identity_check",
               "verify_functional_relation", "multiset_distance"),
    "quadrature": ("gauss_rule", "shohat_check", "christoffel_numbers", "degree_of_precision"),
}
JOB_SPAN = "bench.job"

# Calls whose arguments are fingerprinted to count recomputation.
RECOMPUTE = frozenset({
    "lincomb.check_conditions", "lincomb.tilde_recurrence", "jacobi.solve_hk",
    "jacobi.zeros_q", "quadrature.christoffel_numbers",
})


def _fingerprint(value):
    """A hashable value-key for an argument: equal inputs give equal keys."""
    if isinstance(value, np.ndarray):
        return ("nd", value.shape, value.tobytes())
    if hasattr(value, "beta") and hasattr(value, "gamma"):  # RecurrencePair
        return ("rec", value.beta.tobytes(), value.gamma.tobytes())
    if hasattr(value, "moments"):  # MomentFunctional
        return ("mf", value.moments.tobytes())
    if isinstance(value, (list, tuple)):
        return tuple(_fingerprint(v) for v in value)
    try:
        hash(value)
    except TypeError:
        return ("id", id(value))
    return value


def _info(name, args, kwargs):
    """What a span keeps of its arguments, computed after the call."""
    if name == "_exact.exact_gram":
        return args[3] if len(args) > 3 else kwargs["degree"]
    if name == "lincomb.check_conditions":
        n_max = args[2] if len(args) > 2 else kwargs["n_max"]
        return n_max, _fingerprint((args, sorted(kwargs.items())))
    if name in RECOMPUTE:
        return _fingerprint((args, sorted(kwargs.items())))
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.job: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if name in RECOMPUTE or name == "_exact.exact_gram":
                    span[5] = (args, kwargs)  # turned into _info by harvest()

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "opoly" or key.startswith("opoly.")]
        for mod_name, names in TRACED.items():
            home = sys.modules["opoly." + mod_name]
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def job_span(self, job_id: int):
        """One root span around a whole job."""
        self.job = job_id
        span = [JOB_SPAN, 0.0, 0.0, -1, job_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            self.job = None

    def harvest(self) -> list[list]:
        """Hand over the spans recorded so far, with arguments reduced to the
        keys the per-layer metrics need, and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        for span in spans:
            if span[5] is not None:
                args, kwargs = span[5]
                span[5] = _info(span[0], args, kwargs)
        return spans


def self_times(spans: list[list]) -> list[float]:
    """Self time in seconds of each span (indices as in ``spans``)."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


_PER_JOB_MS = {
    "exact.exact_gram_ms": ("_exact.exact_gram",),
    "lincomb.oracle_gram_check_self_ms": ("lincomb.oracle_gram_check",),
    "lincomb.check_conditions_ms": ("lincomb.check_conditions",),
    "lincomb.q_poly_ms": ("lincomb.q_poly",),
    "recurrence.family_build_ms": ("recurrence.chebyshev_family", "recurrence.k1_family",
                                   "recurrence.k2_family"),
    "recurrence.poly_p_ms": ("recurrence.poly_p",),
    "moments.moments_from_recurrence_ms": ("moments.moments_from_recurrence",),
    "jacobi.zeros_q_ms": ("jacobi.zeros_q",),
    "jacobi.solve_hk_ms": ("jacobi.solve_hk",),
    "jacobi.orthonormal_identity_check_ms": ("jacobi.orthonormal_identity_check",),
    "jacobi.verify_functional_relation_ms": ("jacobi.verify_functional_relation",),
    "jacobi.multiset_distance_ms": ("jacobi.multiset_distance",),
    "quadrature.gauss_rule_ms": ("quadrature.gauss_rule",),
    "quadrature.shohat_check_ms": ("quadrature.shohat_check",),
    "quadrature.christoffel_numbers_ms": ("quadrature.christoffel_numbers",),
    "quadrature.degree_of_precision_ms": ("quadrature.degree_of_precision",),
    "cli.self_ms": ("cli.main",),
    "cli.load_config_ms": ("cli.load_config",),
}
_PER_JOB_CALLS = {
    "lincomb.check_conditions_calls": "lincomb.check_conditions",
    "lincomb.tilde_recurrence_calls": "lincomb.tilde_recurrence",
    "recurrence.poly_p_calls": "recurrence.poly_p",
    "moments.moments_from_recurrence_calls": "moments.moments_from_recurrence",
    "jacobi.zeros_q_calls": "jacobi.zeros_q",
    "jacobi.solve_hk_calls": "jacobi.solve_hk",
    "quadrature.christoffel_numbers_calls": "quadrature.christoffel_numbers",
}
EXACT_DEGREES = (6, 12, 18, 24)
CHECK_HORIZONS = (24, 48, 64)


def per_layer(passes: list[list[list]], scales: list[list[float]], counts: dict) -> dict:
    """Per-layer metrics from the harvested spans of each traced pass.

    ``scales[p][j]`` turns pass ``p``'s raw seconds for job ``j`` into seconds
    at reference speed.  Times are self times in ms per job, except ``cli.main_ms`` (inclusive)
    and the ``.dN``/``.hN`` variants (mean ms per call at that oracle degree
    or ``check_conditions`` horizon; 0 when the workload makes no such call).
    Call counts are per job.  ``cli.recompute_ratio`` is calls over distinct
    (function, arguments) pairs within a job, summed over the first pass.
    """
    jobs = sum(len(scale) for scale in scales)
    self_ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    main_ms = 0.0
    gram_entries = 0
    by_degree: dict[int, list[float]] = {d: [] for d in EXACT_DEGREES}
    by_horizon: dict[int, list[float]] = {h: [] for h in CHECK_HORIZONS}
    for spans, scale in zip(passes, scales):
        for span, t in zip(spans, self_times(spans)):
            name, ms = span[0], 1000.0 * scale[span[4]]
            self_ms[name] = self_ms.get(name, 0.0) + ms * t
            calls[name] = calls.get(name, 0) + 1
            if name == "cli.main":
                main_ms += ms * (span[2] - span[1])
            elif name == "_exact.exact_gram":
                d = span[5]
                gram_entries += (d + 1) * (d + 2) // 2
                if d in by_degree:
                    by_degree[d].append(ms * t)
            elif name == "lincomb.check_conditions" and span[5][0] in by_horizon:
                by_horizon[span[5][0]].append(ms * t)

    seen: dict[tuple, set] = {}
    total = 0
    for span in passes[0]:
        if span[0] in RECOMPUTE:
            key = span[5][1] if span[0] == "lincomb.check_conditions" else span[5]
            seen.setdefault((span[4], span[0]), set()).add(key)
            total += 1
    distinct = sum(len(v) for v in seen.values())

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    out = {}
    for metric, names in _PER_JOB_MS.items():
        out[metric] = (sum(self_ms.get(n, 0.0) for n in names) / jobs, "ms")
    for metric, name in _PER_JOB_CALLS.items():
        out[metric] = (calls.get(name, 0) / jobs, "count")
    out["exact.gram_entries"] = (gram_entries / jobs, "count")
    for d in EXACT_DEGREES:
        out[f"exact.exact_gram_ms.d{d}"] = (mean(by_degree[d]), "ms")
    for h in CHECK_HORIZONS:
        out[f"lincomb.check_conditions_ms.h{h}"] = (mean(by_horizon[h]), "ms")
    out["cli.main_ms"] = (main_ms / jobs, "ms")
    out["cli.recompute_ratio"] = (total / distinct if distinct else 1.0, "ratio")
    out["cli.wrong_verdicts"] = (counts["wrong"] + counts["false_pass"], "count")
    out["cli.refusals"] = (counts["refused"], "count")
    return out
