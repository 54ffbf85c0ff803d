"""Tests for the benchmark's own code: generation, oracle and tracing.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from fractions import Fraction as F

import pytest

import measure
import reference
import workloads
from fscsynth import ledger, pandor, verifier
from fscsynth.verifier import Measures
from tracer import Tracer, aggregate, self_times
from workloads import Request, check, generate, prepare


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_requests(workload):
    assert generate(workload, 7) == generate(workload, 7)
    assert generate(workload, 7) != generate(workload, 8)
    a, b = prepare(generate(workload, 7)), prepare(generate(workload, 7))
    assert [(x.env_text, x.controller_text) for x in a] == [(x.env_text, x.controller_text) for x in b]


def test_every_seed_gets_the_same_catalogue():
    def shape(requests):
        return sorted((r.domain, dict(r.params).get("n", 0), r.max_states) for r in requests)

    for workload in workloads.WORKLOADS:
        assert shape(generate(workload, 1)) == shape(generate(workload, 2))


def _bridge(max_states=2, lgt_star=None):
    best = F(9, 10) ** 3
    return Request(0, "bridgewalk", (("n", 3), ("p_fall", F(1, 10))), max_states, lgt_star or best * F(1001, 1000), best)


def _measures(lgt, undefined=F(0)):
    return Measures(lgt, lgt, 1 - lgt - undefined, undefined)


def test_oracle_accepts_right_verdicts():
    assert check(_bridge(), "failure-proved", None) is None
    reachable = _bridge(lgt_star=F(1, 2))
    assert check(reachable, "controller", _measures(F(729, 1000))) is None
    cert = Request(0, "noisy-hall-a-1d", (("n", 10), ("p", F(1, 2))), None, None, F(1))
    assert check(cert, "certified", _measures(F(1))) is None


def test_oracle_flags_wrong_verdicts():
    assert check(_bridge(), "controller", _measures(F(1))) is not None
    assert check(_bridge(), "budget-exhausted", None) is not None
    reachable = _bridge(lgt_star=F(1, 2))
    assert check(reachable, "failure-proved", None) is not None
    assert check(reachable, "controller", _measures(F(1, 4))) is not None
    assert check(reachable, "controller", _measures(F(3, 5), undefined=F(1, 10))) is not None
    cert = Request(0, "noisy-hall-a-1d", (("n", 10), ("p", F(1, 2))), None, None, F(1))
    assert check(cert, "certified", _measures(F(99, 100))) is not None


def test_a_crashing_verdict_counts_as_failed():
    (item,) = prepare([Request(0, "noisy-hall-a-1d", (("n", 10), ("p", F(1, 2))), None, None, F(1))])
    item.env_text = "states a\ntrans a b 1 a\n"
    failures = []
    measure.timed_verdict(item, failures)
    assert failures and failures[0][1].startswith("ParseError")


def test_nested_span_self_time():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("inner", lambda: None)

    def body():
        inner()
        inner()

    tracer.wrap("outer", body)()
    spans = tracer.spans
    assert [s[0] for s in spans] == ["outer", "inner", "inner"]
    assert [s[3] for s in spans] == [-1, 0, 0]
    assert self_times(spans) == [10.0 - 2.0 - 0.5, 2.0, 0.5]
    agg = aggregate(spans)
    assert agg["inner"] == {"calls": 2, "total_s": 2.5, "self_s": 2.5}
    assert agg["outer"]["self_s"] == 7.5


def test_installed_wrappers_are_removed():
    originals = (pandor.calc_lambda, pandor.cumulate_alpha, ledger.calc_lambda, verifier.build_chain)
    snapshot = ledger.SearchLedger.__dict__["snapshot"]
    with Tracer().installed():
        assert pandor.calc_lambda is not originals[0]
    assert (pandor.calc_lambda, pandor.cumulate_alpha, ledger.calc_lambda, verifier.build_chain) == originals
    assert ledger.SearchLedger.__dict__["snapshot"] is snapshot


TINY = {
    "prove": [
        _bridge(),
        Request(1, "three-state", (), 2, F(1, 2), F(0)),
    ],
    "find": [
        Request(0, "noisy-hall-a-1d", (("n", 4), ("p", F(37, 101))), 2, F(9, 10), F(1)),
    ],
    "certify": [
        Request(0, "noisy-hall-a-2d", (("n", 4), ("p", F(1, 2))), None, None, F(1)),
        Request(1, "bridgewalk", (("n", 5), ("p_fall", F(7, 73))), None, None, F(66, 73) ** 5),
    ],
}


def _traced_layers(requests):
    items = prepare(requests)
    plain, traced, failures, tracers = measure.run_traced(items, seconds=0)
    assert failures == []
    return measure.per_layer(Tracer(), tracers, plain, traced)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_counters_repeat(workload):
    first, second = _traced_layers(TINY[workload]), _traced_layers(TINY[workload])
    counters = [name for name, (_, unit) in first.items() if unit == "count"]
    assert counters
    assert {n: first[n] for n in counters} == {n: second[n] for n in counters}


def test_layers_that_do_not_run_read_zero():
    prove = _traced_layers(TINY["prove"])
    assert prove["pandor.or_steps"][0] > 0 and prove["ledger.calc_lambda.calls"][0] > 0
    assert all(v == 0 for n, (v, _) in prove.items() if n.startswith("verifier."))
    certify = _traced_layers(TINY["certify"])
    assert certify["verifier.chain_nodes"][0] > 0 and certify["domains.parse_env.lines"][0] > 0
    assert all(v == 0 for n, (v, _) in certify.items() if n.startswith(("ledger.", "pandor.")))


def test_reference_scaling_cancels_host_speed():
    nominal = reference.NOMINAL_S
    fast = measure.end_to_end([1.0, 1.2], [nominal] * 2, [[0.1, 0.3], [0.2, 0.4]], [[nominal] * 2] * 2, [])
    slow = measure.end_to_end(
        [2.0, 2.4], [2 * nominal] * 2, [[0.2, 0.6], [0.4, 0.8]], [[2 * nominal] * 2] * 2, []
    )
    for name in ("setup_s", "verdict_s.p50", "verdict_s.p90", "verdicts_per_s"):
        assert slow[name][0] == pytest.approx(fast[name][0])
    # each request is timed by its median over the passes
    assert fast["verdict_s.p50"][0] == pytest.approx(0.25)
    assert fast["setup_s"][0] == pytest.approx(1.1)


def test_reference_kernel_is_fixed_work():
    assert reference.kernel() == reference.kernel()
    assert reference.timed() > 0
