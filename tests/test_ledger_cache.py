"""The ledger's cached bounds against the ``calc_lambda`` reference.

Every mutation goes through the ledger's own methods, so after each one
the cached index-0 bounds and cycle masses must equal a from-scratch
``calc_lambda`` exactly, and the reference must find no saturation left
to apply.
"""

from fractions import Fraction as F

from hypothesis import example, given, settings, strategies as st

from fscsynth.ledger import LedgerError, SearchLedger, calc_lambda, cumulate_alpha

from helpers import clone_ledger

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
    assert tuple(led.lam_loop) == lam.loop
    # nothing was left for the reference to saturate
    assert ref_ledger.loop == led.loop and ref_ledger.noter == led.noter
    assert led.top == [max((m for m, v in enumerate(row) if v), default=-1) for row in led.loop]


def _run(ops):
    """Apply each feasible op and compare after it; returns the ledger.

    An op is tried on a copy first and dropped when the cache or the
    reference rejects the result (mass above 1 somewhere)."""
    led = SearchLedger()
    snaps = []
    for fresh, op in enumerate(ops):
        trial = clone_ledger(led)
        trial_snaps = list(snaps)
        try:
            _apply(trial, op, trial_snaps, fresh)
            calc_lambda(clone_ledger(trial))
        except LedgerError:
            continue
        led, snaps = trial, trial_snaps
        _assert_cache_matches_reference(led)
    return led


@settings(max_examples=250, deadline=None, derandomize=True)
@given(_OPS)
@example(_FOLD_THEN_CYCLE)
@example(_CONSPIRING_CYCLES)
@example(_CYCLE_PLUS_NOTER)
@example(_NOTER_PLUS_CYCLE)
def test_cached_bounds_equal_calc_lambda(ops):
    _run(ops)


def test_cycles_that_fill_the_unit_saturate_at_once():
    led = _run(_CONSPIRING_CYCLES)
    assert len(led) == 3
    assert led.noter0 == 1 and led.noter[1] == 1
    assert all(not any(row) for row in led.loop)


def test_never_terminating_mass_completing_a_cycle_saturates_at_once():
    led = _run(_CYCLE_PLUS_NOTER[:-1])
    assert led.noter0 == 1 and led.noter[1] == 1 and led.lam_loop == [0, 0]
    cumulate_alpha(led)
    assert len(led) == 0 and led.noter == [1]


def test_a_cycle_completing_never_terminating_mass_saturates_at_once():
    led = _run(_NOTER_PLUS_CYCLE)
    assert len(led) == 2
    assert led.noter0 == 1 and led.noter[1] == 1 and led.lam_loop == [0, 0, 0]
