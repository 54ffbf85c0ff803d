"""The ledger's cached bounds against the ``calc_lambda`` reference.

Every mutation goes through the ledger's own methods, so after each one
the cached index-0 bounds and cycle masses must equal a from-scratch
``calc_lambda`` exactly and the reference must find no saturation left
to apply.  A ledger that applies the dead-index rule eagerly
(``helpers.CascadeLedger``) runs alongside: its index-0 bounds must stay
equal to the lazy ledger's, and so must both ledgers once folded down to
the empty branch.  The integer-pair arithmetic the ledger runs on is
checked against ``Fraction``'s.
"""

from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from fscsynth.ledger import (
    _LISTS, _P1, LedgerError, SearchLedger, _add, _cmp, _div, _mul, _sub, calc_lambda, cumulate_alpha,
)
from fscsynth.pandor import _check_cache

from helpers import CascadeLedger, clone_ledger, write_cycle

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
# a cycle of 1/3 next to noter mass 3/4: the eager cascade rejects the
# cycle record, the lazy ledger accepts it and calc_lambda rejects it
_OVERFULL_CYCLE_PLUS_NOTER = [("extend", F(1, 3)), ("noter", F(3, 4)), ("loop", 0, F(1, 3))]
# index 1 dies (cycle 1/2 plus noter 1/2) with a cycle of row 0 sealed
# past it: the eager cascade rejects the noter record as it saturates
# index 1, the lazy ledger accepts it and its fold of index 1 rejects it
_CYCLE_THROUGH_DEAD_INDEX = [
    ("extend", F(1)), ("extend", F(1, 2)), ("loop", 0, F(1, 8)), ("loop", 1, F(1, 2)), ("noter", F(1, 2)),
]
# nested cycles: rows 0 and 1 hold cycles sealed past index 2, so the last
# record, to index 2, changes the cycle mass of rows 2, 1 and 0
_NESTED_THREE_ROWS = [
    ("extend", F(1)), ("extend", F(1, 2)), ("extend", F(1, 2)), ("extend", F(1, 2)),
    ("loop", 0, F(1, 16)), ("loop", 1, F(1, 8)), ("loop", 2, F(1, 4)),
]
# row 2 holds column 3 alone and row 0 column 2: a record to index 3
# changes row 1 (sealed at 5), skips row 2, and then changes row 0, which
# runs past the new lowest changed index 1
_NESTED_SKIPPING_A_ROW = [
    ("extend", F(1)), ("extend", F(1, 2)), ("loop", 0, F(1, 8)),
    ("extend", F(1, 2)), ("loop", 2, F(1, 4)),
    ("extend", F(1, 2)), ("extend", F(1, 2)), ("loop", 1, F(1, 16)), ("loop", 3, F(1, 4)),
]


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
        led.extend(0, fresh, op[1].as_integer_ratio())
    elif kind == "goal":
        led.record_goal(op[1].as_integer_ratio())
    elif kind == "fail":
        led.record_fail(op[1].as_integer_ratio())
    elif kind == "noter":
        led.record_noter(op[1].as_integer_ratio())
    elif kind == "loop" and len(led):
        led.record_loop(op[1] % len(led), op[2].as_integer_ratio())
    elif kind == "fold" and len(led):
        cumulate_alpha(led)
    elif kind == "snapshot":
        snaps.append(led.snapshot())
    elif kind == "restore" and snaps:
        led.restore(snaps[op[1] % len(snaps)])


def _bounds0(led):
    """The cached index-0 bounds."""
    return led.acc_goal[-1], led.acc_fail[-1], led.acc_noter[-1]


def _assert_cache_matches_reference(led):
    ref_ledger = clone_ledger(led)
    lam = calc_lambda(ref_ledger)
    _check_cache(led, lam)
    assert led.headroom == [(1 - v).as_integer_ratio() for v in lam.loop]
    # nothing was left for the reference to saturate
    assert ref_ledger.loop == led.loop and ref_ledger.noter == led.noter
    # one sparse cycle row per branch entry, holding only positive masses
    # sealed at or above the row's own index and at most at the frontier
    L = len(led)
    assert len(led.loop) == L
    assert all(j <= m <= L and v[0] > 0 for j, row in enumerate(led.loop) for m, v in row.items())
    # h_curr in branch order, also after folds and restores
    assert list(led.pos.values()) == list(range(len(led)))


def _is_pair(v):
    """A reduced pair of ints (not bools) with a positive denominator: zero
    is (0, 1), so == on pairs is == on values."""
    return (
        type(v) is tuple and len(v) == 2 and type(v[0]) is int and type(v[1]) is int
        and v[1] > 0 and gcd(*v) == 1
    )


def _assert_all_pairs(led):
    """Skipping an addition of zero or a product with one stores the other
    operand: every slot, cycle entry and cache entry must still be a
    reduced pair."""
    values = [v for name in _LISTS for v in getattr(led, name)]
    values += [v for row in led.loop for v in row.values()]
    assert all(_is_pair(v) for v in values), values


def _assert_cycle_columns_above_rows(led):
    """A cycle record lands in a column above its row, and a fold moves a
    lower row's column L to n above it: ``SearchLedger._row_lambda`` reads
    no column <= k in row k."""
    assert all(min(row) > k for k, row in enumerate(led.loop) if row), led.loop


def _drained(led):
    """A copy of ``led`` folded down to the empty branch."""
    led = clone_ledger(led)
    while len(led):
        cumulate_alpha(led)
    return led


def _rejected_later(led):
    """Whether ``calc_lambda`` or folding down to the empty branch rejects ``led``."""
    try:
        calc_lambda(clone_ledger(led))
        _drained(led)
    except LedgerError:
        return True
    return False


def _attempt(led, snaps, op, fresh):
    """``op`` applied to copies of ``led`` and its snapshots, or None when
    the ledger rejects it."""
    led, snaps = clone_ledger(led), list(snaps)
    try:
        _apply(led, op, snaps, fresh)
    except LedgerError:
        return None
    return led, snaps


def _run(ops):
    """Apply each feasible op to a ledger and to the eager cascade, compare
    after it, and return the ledger.

    An op is kept when both ledgers and ``calc_lambda`` accept it.  One
    that a single side rejects (the eager side checks each dead index when
    it saturates, the lazy side when it folds) must be rejected by the
    other side once folded down or checked by ``calc_lambda``."""
    lazy, eager = (SearchLedger(), []), (CascadeLedger(), [])
    for fresh, op in enumerate(ops):
        trials = [_attempt(*lazy, op, fresh), _attempt(*eager, op, fresh)]
        if None in trials or _rejected_later(trials[0][0]):
            assert all(trial is None or _rejected_later(trial[0]) for trial in trials), op
            continue
        lazy, eager = trials
        led, ref = lazy[0], eager[0]
        assert _bounds0(led) == _bounds0(ref)
        assert _drained(led).snapshot() == _drained(ref).snapshot()
        _assert_cache_matches_reference(led)
        _assert_cache_matches_reference(ref)
        _assert_all_pairs(led)
        _assert_all_pairs(ref)
        _assert_cycle_columns_above_rows(led)
        _assert_cycle_columns_above_rows(ref)
    return lazy[0]


@settings(max_examples=250, deadline=None, derandomize=True)
@given(_OPS)
@example(_FOLD_THEN_CYCLE)
@example(_CONSPIRING_CYCLES)
@example(_CYCLE_PLUS_NOTER)
@example(_NOTER_PLUS_CYCLE)
@example(_OVERFULL_CYCLE_PLUS_NOTER)
@example(_CYCLE_THROUGH_DEAD_INDEX)
@example(_corridor(6))
@example(_corridor(6, "loop"))
@example(_DEAD_LIVE_DEAD)
@example(_NESTED_THREE_ROWS)
@example(_NESTED_SKIPPING_A_ROW)
def test_cached_bounds_equal_calc_lambda(ops):
    _run(ops)


@pytest.mark.parametrize("ops, rows", [
    (_NESTED_THREE_ROWS, [2, 1, 0]),
    (_NESTED_SKIPPING_A_ROW, [3, 1, 0]),
])
def test_a_cycle_record_recomputes_exactly_the_rows_it_changes(monkeypatch, ops, rows):
    led = _run(ops[:-1])
    visited = []
    row_lambda = SearchLedger._row_lambda

    def counted(self, j):
        visited.append(j)
        return row_lambda(self, j)

    monkeypatch.setattr(SearchLedger, "_row_lambda", counted)
    before = list(led.headroom)
    _apply(led, ops[-1], [], len(ops))
    assert visited == rows
    assert [j for j, h in enumerate(led.headroom) if h != before[j]] == sorted(rows)
    _assert_cache_matches_reference(led)


def _count_saturations(monkeypatch):
    """(ledger class, index) of every ``_saturate_at`` call from now on."""
    calls = []
    saturate = SearchLedger._saturate_at

    def counted(self, k):
        calls.append((type(self), k))
        saturate(self, k)

    monkeypatch.setattr(SearchLedger, "_saturate_at", counted)
    return calls


def _saturations(calls, ledger_class):
    return [k for cls, k in calls if cls is ledger_class]


def _assert_all_lost(led):
    """Everything entering h_curr[0] never terminates, and folding the
    branch away charges it all to the root's noter slot."""
    assert led.acc_noter[-1] == (1, 1)
    drained = _drained(led)
    assert (drained.goal, drained.fail, drained.noter) == ([(0, 1)], [(0, 1)], [(1, 1)])


def test_cycles_that_fill_the_unit_saturate_at_once(monkeypatch):
    calls = _count_saturations(monkeypatch)
    led = _run(_CONSPIRING_CYCLES)
    assert _saturations(calls, SearchLedger) == _saturations(calls, CascadeLedger) == [0]
    assert len(led) == 3
    assert led.noter[1] == (1, 1)
    assert all(not any(v[0] for v in row.values()) for row in led.loop)
    _assert_all_lost(led)


def test_never_terminating_mass_completing_a_cycle_is_charged_at_the_fold(monkeypatch):
    calls = _count_saturations(monkeypatch)
    led = _run(_CYCLE_PLUS_NOTER[:-1])
    assert _saturations(calls, SearchLedger) == [] and _saturations(calls, CascadeLedger) == [0]
    # index 0 is dead but keeps its cycle: 1 / (1 - 1/2) * 1/2 = 1
    assert led.noter[1] == (1, 2) and led.headroom == [(1, 2), (1, 1)]
    _assert_all_lost(led)


def test_a_cycle_completing_never_terminating_mass_is_charged_at_the_fold(monkeypatch):
    calls = _count_saturations(monkeypatch)
    led = _run(_NOTER_PLUS_CYCLE)
    assert _saturations(calls, SearchLedger) == [] and _saturations(calls, CascadeLedger) == [0]
    assert len(led) == 2
    assert led.noter[1] == (1, 2) and led.headroom == [(1, 2), (1, 1), (1, 1)]
    _assert_all_lost(led)


@pytest.mark.parametrize("end", ["noter", "loop"])
@pytest.mark.parametrize("m", [1, 2, 5, 12])
def test_a_corridor_of_dead_indices_saturates_only_a_full_cycle(monkeypatch, m, end):
    calls = _count_saturations(monkeypatch)
    led = _run(_corridor(m, end))
    # the eager cascade saturates every index from the top; the ledger only
    # the top index when a retry leaves it no headroom
    assert _saturations(calls, CascadeLedger) == list(reversed(range(m)))
    assert _saturations(calls, SearchLedger) == ([] if end == "noter" else [m - 1])
    assert len(led) == m
    _assert_all_lost(led)


def test_dead_indices_around_a_live_one_are_not_saturated(monkeypatch):
    calls = _count_saturations(monkeypatch)
    led = _run(_DEAD_LIVE_DEAD)
    assert _saturations(calls, CascadeLedger) == [3, 1, 0]
    assert _saturations(calls, SearchLedger) == []
    assert len(led) == 4
    _assert_all_lost(led)


def _dead_index_ledger(zero_past):
    """A hand-written ledger whose index 1 is dead (cycle 1/2 plus noter
    1/2) while row 0 holds a cycle of 1/8 sealed at index 1; with
    ``zero_past``, row 0 also holds a zero pair in column 2, past the dead
    index, which only ``calc_lambda`` may read: the ledger stores no zero
    mass."""
    led = SearchLedger()
    led.extend(0, 0, (1, 1))
    led.extend(0, 1, (1, 2))
    led.goal[1] = (1, 4)
    write_cycle(led, 0, 1, (1, 8))
    write_cycle(led, 1, 2, (1, 2))
    led.noter[2] = (1, 2)
    if zero_past:
        led.loop[0][2] = (0, 1)
    return led


def test_a_stored_zero_pair_is_no_mass():
    # a zero pair is a truthy tuple: a check that tests the pair and not
    # its numerator takes it for a cycle through the dead index
    assert calc_lambda(_dead_index_ledger(True)) == calc_lambda(_dead_index_ledger(False))


# zero, one, the laws of the tests and the benchmark, and large coprime
# denominators; signed, since ``1 - x`` with x > 1 is how ``record_loop``
# finds a cycle mass above 1
_RATIONALS = st.one_of(
    st.sampled_from([
        F(0), F(1), F(-1), F(1, 2), F(9, 10), F(99, 100), F(7, 73), F(66, 73), F(37, 101), F(91, 101),
        F(10**9 - 1, 10**9), F(1, 2**61 - 1), F(2**61 - 2, 2**61 - 1), F(1001, 1000) * F(66, 73) ** 5,
    ]),
    st.fractions(min_value=-3, max_value=3, max_denominator=10**12),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_RATIONALS, _RATIONALS)
@example(F(0), F(0))
@example(F(1), F(3, 2))
@example(F(5, 7), F(5, 7))
@example(F(7, 73), F(-7, 73))
def test_pair_arithmetic_equals_fraction_arithmetic(x, y):
    a, b = x.as_integer_ratio(), y.as_integer_ratio()
    results = {
        "add": (_add(a, b), x + y),
        "sub": (_sub(a, b), x - y),
        "one minus": (_sub(_P1, b), 1 - y),
        "mul": (_mul(a, b), x * y),
    }
    if y:
        results["div"] = (_div(a, b), x / y)
    else:
        with pytest.raises(ZeroDivisionError):
            _div(a, b)
    for name, (pair, exact) in results.items():
        assert _is_pair(pair), (name, pair)
        assert pair == exact.as_integer_ratio(), name
    sign = _cmp(a, b)
    assert (sign < 0, sign == 0, sign > 0) == (x < y, x == y, x > y)
    assert (a == b) == (x == y)
