"""The ledger's cached bounds against the ``calc_lambda`` reference.

Every mutation goes through the ledger's own methods, so after each one
the cached index-0 bounds and cycle masses must equal a from-scratch
``calc_lambda`` exactly, and the reference must find no saturation left
to apply.  A ledger that applies the dead-index rule as a cascade
(``helpers.CascadeLedger``) runs alongside: its slots and cache must stay
equal to the one-pass ledger's.
"""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from fscsynth.ledger import LedgerError, SearchLedger, calc_lambda, cumulate_alpha

from helpers import CascadeLedger, clone_ledger

_PROBS = st.sampled_from([F(1), F(1, 2), F(1, 3), F(2, 3), F(1, 4), F(3, 4)])
_MASS = st.sampled_from([F(1, 16), F(1, 8), F(1, 4), F(1, 3), F(1, 2), F(3, 4)])

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("extend"), _PROBS),
        st.tuples(st.just("goal"), _MASS),
        st.tuples(st.just("fail"), _MASS),
        st.tuples(st.just("noter"), _MASS),
        st.tuples(st.just("loop"), st.integers(0, 7), _MASS),
        st.tuples(st.just("fold")),
        st.tuples(st.just("snapshot")),
        st.tuples(st.just("restore"), st.integers(0, 7)),
    ),
    max_size=40,
)

# a cycle whose amplification changes after a fold migrated it to column n
_FOLD_THEN_CYCLE = [
    ("extend", F(1, 2)), ("extend", F(1, 2)), ("extend", F(1, 2)),
    ("loop", 0, F(1, 4)), ("fold",), ("loop", 1, F(1, 2)),
]
# the worked saturation shapes: two cycles whose amplified mass fills index
# 0, a cycle that never-terminating mass completes, and the other way round
_CONSPIRING_CYCLES = [
    ("extend", F(1)), ("extend", F(1)), ("extend", F(1)),
    ("loop", 1, F(1, 2)), ("loop", 0, F(1, 2)),
]
_CYCLE_PLUS_NOTER = [("extend", F(1)), ("loop", 0, F(1, 2)), ("noter", F(1, 2)), ("fold",)]
_NOTER_PLUS_CYCLE = [("extend", F(1)), ("noter", F(1, 2)), ("extend", F(1, 2)), ("loop", 0, F(1, 2))]


def _corridor(m, end="noter"):
    """A retry corridor: m steps, each entered with mass 1/2 and retried
    with mass 1/2, then one record that kills every index: never-terminating
    mass 1/2, or a second retry at the top that fills its unit."""
    ops = [("extend", F(1)), ("loop", 0, F(1, 2))]
    for k in range(1, m):
        ops += [("extend", F(1, 2)), ("loop", k, F(1, 2))]
    return ops + [("noter", F(1, 2)) if end == "noter" else ("loop", m - 1, F(1, 2))]


# dead indices 3, 1 and 0 with index 2 live between them: once 3 is dead,
# index 2 holds cycle mass 1/4 and passes 1/2 into a dead index (3/4 in
# all), while index 1 holds 1/2 and passes 3/4 * 1/2 / (1 - 1/4) = 1/2
_DEAD_LIVE_DEAD = [
    ("extend", F(1)), ("loop", 0, F(1, 2)),
    ("extend", F(1, 2)), ("loop", 1, F(1, 2)),
    ("extend", F(3, 4)), ("loop", 2, F(1, 4)),
    ("extend", F(1, 2)), ("loop", 3, F(1, 2)),
    ("noter", F(1, 2)),
]


def _apply(led, op, snaps, fresh):
    kind = op[0]
    if kind == "extend":
        led.extend(0, fresh, op[1])
    elif kind == "goal":
        led.record_goal(op[1])
    elif kind == "fail":
        led.record_fail(op[1])
    elif kind == "noter":
        led.record_noter(op[1])
    elif kind == "loop" and len(led):
        led.record_loop(op[1] % len(led), op[2])
    elif kind == "fold" and len(led):
        cumulate_alpha(led)
    elif kind == "snapshot":
        snaps.append(led.snapshot())
    elif kind == "restore" and snaps:
        led.restore(snaps[op[1] % len(snaps)])


def _assert_cache_matches_reference(led):
    ref_ledger = clone_ledger(led)
    lam = calc_lambda(ref_ledger)
    assert (led.goal0, led.fail0, led.noter0) == (lam.goal0, lam.fail0, lam.noter0)
    assert led.total == lam.goal0 + lam.fail0 + lam.noter0
    assert tuple(1 - h for h in led.headroom) == lam.loop
    # nothing was left for the reference to saturate
    assert ref_ledger.loop == led.loop and ref_ledger.noter == led.noter
    assert led.top == [max((m for m, v in enumerate(row) if v), default=-1) for row in led.loop]
    # h_curr in branch order, also after folds and restores
    assert list(led.pos.values()) == list(range(len(led)))


def _run(ops):
    """Apply each feasible op and compare after it; returns the ledger.

    An op is tried on copies first and dropped when the cache or the
    reference rejects the result (mass above 1 somewhere).  The cascading
    ledger must accept and reject the same ops and end each one in the
    same state."""
    led, cascade = SearchLedger(), CascadeLedger()
    snaps = []
    for fresh, op in enumerate(ops):
        trial, cascade_trial = clone_ledger(led), clone_ledger(cascade)
        trial_snaps = list(snaps)
        try:
            _apply(cascade_trial, op, list(snaps), fresh)
        except LedgerError:
            cascade_trial = None
        try:
            _apply(trial, op, trial_snaps, fresh)
        except LedgerError:
            assert cascade_trial is None
            continue
        assert cascade_trial is not None
        assert trial.snapshot() == cascade_trial.snapshot()
        try:
            calc_lambda(clone_ledger(trial))
        except LedgerError:
            continue
        led, cascade, snaps = trial, cascade_trial, trial_snaps
        _assert_cache_matches_reference(led)
    return led


@settings(max_examples=250, deadline=None, derandomize=True)
@given(_OPS)
@example(_FOLD_THEN_CYCLE)
@example(_CONSPIRING_CYCLES)
@example(_CYCLE_PLUS_NOTER)
@example(_NOTER_PLUS_CYCLE)
@example(_corridor(6))
@example(_corridor(6, "loop"))
@example(_DEAD_LIVE_DEAD)
def test_cached_bounds_equal_calc_lambda(ops):
    _run(ops)


def test_cycles_that_fill_the_unit_saturate_at_once():
    led = _run(_CONSPIRING_CYCLES)
    assert len(led) == 3
    assert led.noter0 == 1 and led.noter[1] == 1
    assert all(not any(row) for row in led.loop)


def test_never_terminating_mass_completing_a_cycle_saturates_at_once():
    led = _run(_CYCLE_PLUS_NOTER[:-1])
    assert led.noter0 == 1 and led.noter[1] == 1 and led.headroom == [1, 1]
    cumulate_alpha(led)
    assert len(led) == 0 and led.noter == [1]


def test_a_cycle_completing_never_terminating_mass_saturates_at_once():
    led = _run(_NOTER_PLUS_CYCLE)
    assert len(led) == 2
    assert led.noter0 == 1 and led.noter[1] == 1 and led.headroom == [1, 1, 1]


def _count_saturations(monkeypatch):
    """(ledger class, index) of every ``_saturate_at`` call from now on."""
    calls = []
    saturate = SearchLedger._saturate_at

    def counted(self, k):
        calls.append((type(self), k))
        saturate(self, k)

    monkeypatch.setattr(SearchLedger, "_saturate_at", counted)
    return calls


@pytest.mark.parametrize("end", ["noter", "loop"])
@pytest.mark.parametrize("m", [1, 2, 5, 12])
def test_a_corridor_of_dead_indices_saturates_once(monkeypatch, m, end):
    calls = _count_saturations(monkeypatch)
    led = _run(_corridor(m, end))
    assert calls == [(CascadeLedger, k) for k in reversed(range(m))] + [(SearchLedger, 0)]
    assert len(led) == m
    # the whole corridor is dead: everything entering h_curr[0] is lost
    assert led.noter0 == 1 and led.noter[1] == 1 and not any(led.noter[2:])
    assert all(not any(row) for row in led.loop) and all(h == 1 for h in led.headroom)


def test_a_live_index_between_dead_ones_is_saturated_with_them(monkeypatch):
    calls = _count_saturations(monkeypatch)
    led = _run(_DEAD_LIVE_DEAD)
    assert calls == [(CascadeLedger, 3), (CascadeLedger, 1), (CascadeLedger, 0), (SearchLedger, 0)]
    assert len(led) == 4
    assert led.noter0 == 1 and led.noter[1] == 1 and not any(led.noter[2:])
    assert all(not any(row) for row in led.loop)
