"""Closed-loop measurement of one workload and the metrics it reports."""

from __future__ import annotations

import contextlib
import gc
import resource
import statistics
import time

import reference
import workloads
from tracer import Tracer, aggregate

#: set-up runs at least this often and for at least this long; its median is setup_s
SETUP_MIN_REPS = 5
SETUP_MIN_S = 2.0
SETUP_MAX_REPS = 200

clock = time.perf_counter


def _fingerprint(items) -> list:
    return [(it.request, it.env_text, it.controller_text) for it in items]


def setup(workload: str, seed: int):
    """Repeat set-up, running the reference kernel after each repetition.

    Returns the prepared items, each repetition's time and each
    reference time."""
    times, refs, items = [], [], None
    while len(times) < SETUP_MIN_REPS or (sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPS):
        start = clock()
        fresh = workloads.prepare(workloads.generate(workload, seed))
        times.append(clock() - start)
        refs.append(reference.timed(clock))
        if items is not None and _fingerprint(fresh) != _fingerprint(items):
            raise RuntimeError("set-up is not deterministic for one seed")
        items = fresh
    # The prepared requests live for the whole run.  Freezing them keeps
    # the cyclic collector from rescanning them during every verdict,
    # which a user's own process would not have to do.
    gc.collect()
    gc.freeze()
    return items, times, refs


def traced_setup(workload: str, seed: int) -> Tracer:
    tracer = Tracer(clock)
    with tracer.installed():
        workloads.prepare(workloads.generate(workload, seed))
    return tracer


def timed_verdict(item, failures: list, tracer=None) -> float:
    """Time one verdict; the oracle runs after the clock stops.

    An exception or a wrong verdict is appended to ``failures``."""
    if tracer is not None:
        tracer.rid = item.request.rid
    error = None
    with tracer.installed() if tracer is not None else contextlib.nullcontext():
        start = clock()
        try:
            outcome, measures = workloads.verdict(item)
        except Exception as exc:  # a crash is a failed request, not a crashed benchmark
            error = f"{type(exc).__name__}: {exc}"
        elapsed = clock() - start
    if error is None:
        error = workloads.check(item.request, outcome, measures)
    if error is not None:
        failures.append((item.request.rid, error))
    return elapsed


def run_plain(items, seconds: float):
    """Whole passes over the request list until ``seconds`` have passed.

    The reference kernel runs after every verdict.  Returns one list of
    verdict times and one of reference times per pass, in request order."""
    passes, refs, failures = [], [], []
    start = clock()
    while not passes or clock() - start < seconds:
        passes.append([])
        refs.append([])
        for item in items:
            passes[-1].append(timed_verdict(item, failures))
            refs[-1].append(reference.timed(clock))
    return passes, refs, failures


def run_traced(items, seconds: float):
    """Whole passes, each request once untraced and once traced.

    Which of the two goes first alternates between requests.  Every pass
    gets its own tracer; counters come from the first pass, so they
    repeat exactly for one seed.  Returns the untraced and the traced
    verdict times, one list per pass each."""
    plain, traced, failures, tracers = [], [], [], []
    start = clock()
    while not tracers or clock() - start < seconds:
        tracer = Tracer(clock)
        tracers.append(tracer)
        plain.append([])
        traced.append([])
        for i, item in enumerate(items):
            for use in ((None, tracer) if i % 2 == 0 else (tracer, None)):
                (plain if use is None else traced)[-1].append(timed_verdict(item, failures, use))
    return plain, traced, failures, tracers


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def scale(times, refs) -> list[float]:
    """``times`` in nominal seconds: scaled by how much slower than
    ``reference.NOMINAL_S`` the reference kernel ran beside them."""
    return [t * reference.NOMINAL_S / statistics.median(refs) for t in times]


def per_request(times_per_pass) -> list[float]:
    """Each request's median verdict time over the passes of a run."""
    return [statistics.median(times) for times in zip(*times_per_pass)]


def end_to_end(setup_times, setup_refs, passes, refs, failures) -> dict:
    """name -> (value, unit); ``ok_frac`` is 1 - failed/attempted.

    Times are in nominal seconds: each pass, and set-up, is scaled by the
    median reference time measured during it.  The verdict quantiles and
    the rate are over the requests of the list, each timed by its median
    over the passes."""
    times = per_request([scale(p, r) for p, r in zip(passes, refs)])
    attempted = sum(len(p) for p in passes)
    return {
        "setup_s": (statistics.median(scale(setup_times, setup_refs)), "s"),
        "verdict_s.p50": (statistics.median(times), "s"),
        "verdict_s.p90": (statistics.quantiles(times, n=10, method="inclusive")[8], "s"),
        "verdicts_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ok_frac": ((attempted - len(failures)) / attempted, "ratio"),
    }


def per_layer(setup_tracer: Tracer, tracers, plain, traced) -> dict:
    """name -> (value, unit).  Counts are from the first traced pass,
    times are means over the traced passes; ``domains.build_s`` is per
    set-up."""
    first = tracers[0]
    aggs = [aggregate(t.spans) for t in tracers]

    def calls(name):
        return aggs[0].get(name, {}).get("calls", 0)

    def per_pass(name, key):
        return statistics.fmean(a.get(name, {}).get(key, 0.0) for a in aggs)

    lam_calls = calls("ledger.calc_lambda")
    or_steps = first.counts["pandor.or_steps"]
    synth_s = per_pass("pandor.synth", "total_s")
    ledger_s = sum(
        per_pass(name, "self_s")
        for name in ("ledger.calc_lambda", "ledger.cumulate_alpha", "ledger.snapshot", "ledger.restore")
    )
    build = aggregate(setup_tracer.spans).get("domains.build", {})
    return {
        "ledger.calc_lambda.calls": (lam_calls, "count"),
        "ledger.calc_lambda.self_s": (per_pass("ledger.calc_lambda", "self_s"), "s"),
        "ledger.cumulate_alpha.calls": (calls("ledger.cumulate_alpha"), "count"),
        "ledger.cumulate_alpha.self_s": (per_pass("ledger.cumulate_alpha", "self_s"), "s"),
        "ledger.snapshot.calls": (calls("ledger.snapshot"), "count"),
        "ledger.snapshot_s": (per_pass("ledger.snapshot", "total_s"), "s"),
        "ledger.restore.calls": (calls("ledger.restore"), "count"),
        "ledger.restore_s": (per_pass("ledger.restore", "total_s"), "s"),
        "ledger.share": (ledger_s / synth_s if synth_s else 0.0, "ratio"),
        "pandor.synth_s": (synth_s, "s"),
        "pandor.self_s": (per_pass("pandor.synth", "self_s"), "s"),
        "pandor.or_steps": (or_steps, "count"),
        "pandor.peak_depth.max": (first.peak_depth, "count"),
        "pandor.lambda_per_or_step": (lam_calls / or_steps if or_steps else 0.0, "ratio"),
        "verifier.exact_measures.calls": (calls("verifier.exact_measures"), "count"),
        "verifier.build_chain_s": (per_pass("verifier.build_chain", "total_s"), "s"),
        "verifier.solve_s": (per_pass("verifier.exact_measures", "self_s"), "s"),
        "verifier.chain_nodes": (first.counts["verifier.chain_nodes"], "count"),
        "domains.parse_env_s": (per_pass("domains.parse_env", "total_s"), "s"),
        "domains.parse_env.lines": (first.counts["domains.parse_env.lines"], "count"),
        "domains.parse_controller_s": (per_pass("domains.parse_controller", "total_s"), "s"),
        "domains.serialize_controller_s": (per_pass("domains.serialize_controller", "total_s"), "s"),
        "domains.build_s": (build.get("total_s", 0.0), "s"),
        "trace.overhead": (statistics.median(per_request(traced)) / statistics.median(per_request(plain)) - 1, "ratio"),
    }
