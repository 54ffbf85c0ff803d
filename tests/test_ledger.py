from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from fscsynth.ledger import LambdaVector, LedgerError, SearchLedger, calc_lambda, cumulate_alpha

from helpers import clone_ledger


def test_base_case_empty_branch():
    led = SearchLedger()
    led.goal[0] = (3, 7)
    lam = calc_lambda(led)
    assert lam.goal0 == F(3, 7)
    assert lam.fail0 == 0 and lam.noter0 == 0


def test_goal_mass_amplified_by_colocated_cycle():
    # one sure step, then goal mass 1/2 next to cycle mass 1/2: total 1
    led = SearchLedger()
    led.extend(0, 0, (1, 1))
    led.extend(0, 1, (1, 1))
    led.goal[2] = (1, 2)
    led.loop[1][2] = (1, 2)
    lam = calc_lambda(led)
    assert lam.goal[1] == 1
    assert lam.goal0 == 1


def test_decay_loop_shape():
    led = SearchLedger()
    led.extend(0, 0, (1, 1))
    led.record_loop(0, (1, 2))
    led.record_goal((1, 2))
    lam = calc_lambda(led)
    assert lam.loop[0] == F(1, 2)
    assert lam.goal0 == 1


def _branch_tree_ledger(pa1, pb1, pa2, pb2, pc2, pa3, pb3, pc3):
    """The worked three-level search-tree configuration: one branch fully
    folded away (its goal and cycle mass resting at low indices), the
    current branch three deep with two cycles sealed at the frontier."""
    led = SearchLedger()
    led.extend(0, 100, (1, 1))
    led.extend(0, 101, pa1.as_integer_ratio())
    led.extend(0, 102, pa2.as_integer_ratio())
    led.goal[1] = (pb1 * pb2).as_integer_ratio()
    led.goal[3] = pb3.as_integer_ratio()
    led.loop[0][0] = (pb1 * pc2).as_integer_ratio()
    led.loop[1][3] = (pa2 * pa3).as_integer_ratio()
    led.loop[2][3] = pc3.as_integer_ratio()
    return led


_TREE_CASES = [
    (F(1, 3), F(2, 3), F(1), F(1, 2), F(1, 2), F(1, 4), F(1, 4), F(1, 2)),
    (F(1, 5), F(4, 5), F(1, 2), F(1, 3), F(2, 3), F(1, 7), F(2, 7), F(4, 7)),
    (F(9, 10), F(1, 10), F(3, 4), F(1, 6), F(5, 6), F(1, 3), F(1, 3), F(1, 3)),
]


@pytest.mark.parametrize("ps", _TREE_CASES)
def test_branch_tree_matches_closed_form(ps):
    pa1, pb1, pa2, pb2, pc2, pa3, pb3, pc3 = ps
    led = _branch_tree_ledger(*ps)
    lam = calc_lambda(led)
    assert lam.loop[2] == pc3
    assert lam.loop[1] == pa2 * pa3 / (1 - pc3)
    assert lam.loop[0] == pb1 * pc2
    expected = (pb1 * pb2 + pa1 * pa2 * pb3 / (1 - pc3 - pa2 * pa3)) / (1 - pb1 * pc2)
    assert lam.goal0 == expected


@pytest.mark.parametrize("ps", _TREE_CASES)
def test_branch_tree_fold_chain(ps):
    led = _branch_tree_ledger(*ps)
    before = calc_lambda(led)
    for keep in (3, 2, 1):
        cumulate_alpha(led)
        after = calc_lambda(led)
        assert after.goal[:keep] == before.goal[:keep]
        assert after.fail[:keep] == before.fail[:keep]
        assert after.noter[:keep] == before.noter[:keep]
        assert after.loop[:keep - 1] == before.loop[:keep - 1]
    assert len(led) == 0


def test_fold_of_zero_ledger_is_zero():
    led = SearchLedger()
    led.extend(0, 0, (1, 1))
    cumulate_alpha(led)
    assert len(led) == 0
    assert led.goal == [(0, 1)] and led.fail == [(0, 1)] and led.noter == [(0, 1)]


def test_fold_decay_loop_keeps_goal_at_one():
    led = SearchLedger()
    led.extend(0, 0, (1, 1))
    led.record_loop(0, (1, 2))
    led.record_goal((1, 2))
    assert calc_lambda(led).goal0 == 1
    cumulate_alpha(led)
    assert len(led) == 0
    assert calc_lambda(led).goal0 == 1


def test_fold_of_empty_branch_is_an_error():
    with pytest.raises(LedgerError):
        cumulate_alpha(SearchLedger())


def test_saturation_rule_on_conspiring_cycles():
    # three-state shape: cycle to 0 of mass 1/2 amplified by a co-located
    # cycle of mass 1/2 saturates; the step mass must become noter
    led = SearchLedger()
    led.extend(0, 0, (1, 1))
    led.extend(0, 1, (1, 1))
    led.extend(0, 2, (1, 1))
    led.record_loop(1, (1, 2))
    led.record_loop(0, (1, 2))
    lam = calc_lambda(led)
    assert lam.noter0 == 1
    assert lam.goal0 == 0 and lam.fail0 == 0
    # mutation persists: the cycle slots are zeroed, noter slot saturated
    assert all(not any(v[0] for v in row.values()) for row in led.loop)
    assert led.noter[1] == (1, 1)
    lam2 = calc_lambda(led)
    assert lam2.noter0 == 1


def test_fold_rejects_cycle_and_noter_mass_above_the_unit():
    # cycle 1/2 at index 0 leaves headroom 1/2; noter 3/4 from h_curr[0]
    # would be charged as 3/2
    led = SearchLedger()
    led.extend(0, 0, (1, 1))
    led.loop[0][1] = (1, 2)
    led.noter[1] = (3, 4)
    with pytest.raises(LedgerError, match="cycle\\+noter mass above 1 at index 0"):
        cumulate_alpha(led)


def test_a_dead_index_folds_to_its_step_mass(monkeypatch):
    # cycle 1/2 plus noter 1/2 fill index 1's unit; the fold charges the
    # step into it, 1/3, to the parent's noter slot, and nothing saturates
    def no_saturation(self, k):
        raise AssertionError(f"saturated index {k}")

    monkeypatch.setattr(SearchLedger, "_saturate_at", no_saturation)
    led = SearchLedger()
    led.extend(0, 0, (1, 1))
    led.record_goal((1, 4))
    led.extend(0, 1, (1, 3))
    led.record_loop(1, (1, 2))
    led.record_noter((1, 2))
    assert led.noter[2] == (1, 2) and led.noter[1] == (0, 1)
    cumulate_alpha(led)
    assert len(led) == 1 and led.noter == [(0, 1), (1, 3)]
    assert (led.acc_goal[-1], led.acc_noter[-1]) == ((1, 4), (1, 3))


def _cycle_past_a_dead_index():
    """Index 1 is dead (cycle 1/2 plus noter 1/2) while row 0 holds a
    cycle of 1/8 sealed past it: an escape of mass 1/4 from h_curr[1], so
    1 + 1/4 leaves it."""
    led = SearchLedger()
    led.extend(0, 0, (1, 1))
    led.extend(0, 1, (1, 2))
    led.record_loop(0, (1, 8))
    led.record_loop(1, (1, 2))
    led.record_noter((1, 2))
    return led


@pytest.mark.parametrize("check", [cumulate_alpha, calc_lambda])
def test_a_cycle_through_a_dead_index_is_rejected(check):
    with pytest.raises(LedgerError, match="cycle mass through dead index 1"):
        check(_cycle_past_a_dead_index())


def test_lambda_out_of_range_raises():
    led = SearchLedger()
    led.goal[0] = (2, 1)
    with pytest.raises(LedgerError):
        calc_lambda(led)


def test_lambda_checks_cycle_goal_fail_and_noter_mass_together():
    # from h_curr[0]: a return of mass 1/2 and goal mass 3/4 without one;
    # the step of mass 1/2 into it keeps every amplified bound in [0, 1]
    led = SearchLedger()
    led.extend(0, 0, (1, 2))
    led.loop[0][1] = (1, 2)
    led.goal[1] = (3, 4)
    with pytest.raises(LedgerError, match="cycle\\+goal\\+fail\\+noter mass above 1 at index 0"):
        calc_lambda(led)


def test_snapshot_restore_round_trip():
    led = SearchLedger()
    led.extend(0, 0, (1, 1))
    led.record_loop(0, (1, 3))
    snap = led.snapshot()
    reference = calc_lambda(clone_ledger(led))
    led.extend(0, 1, (1, 2))
    led.record_goal((1, 4))
    led.restore(snap)
    assert len(led) == 1
    assert calc_lambda(led) == reference


_PROBS = st.sampled_from([F(1), F(1, 2), F(1, 3), F(2, 3), F(1, 4), F(3, 4)])
_MASS = st.sampled_from([F(0), F(0), F(0), F(0), F(1, 16), F(1, 8), F(1, 4), F(3, 16), F(1, 2)])


@st.composite
def feasible_ledgers(draw, min_len=0):
    length = draw(st.integers(min_len, 4))
    led = SearchLedger()
    for k in range(length):
        led.extend(0, k, (1, 1) if k == 0 else draw(_PROBS).as_integer_ratio())
    for k in range(length + 1):
        led.goal[k] = draw(_MASS).as_integer_ratio()
        led.fail[k] = draw(_MASS).as_integer_ratio()
        led.noter[k] = draw(_MASS).as_integer_ratio()
    for k in range(length):
        for m in range(k, length + 1):
            led.loop[k][m] = draw(_MASS).as_integer_ratio()
    try:
        calc_lambda(clone_ledger(led))
    except LedgerError:
        assume(False)
    return led


@settings(max_examples=300, deadline=None)
@given(feasible_ledgers(min_len=1))
def test_fold_preserves_lambda_prefix(led):
    calc_lambda(led)  # settle any saturation mutation first
    before = calc_lambda(led)
    keep = len(led)
    cumulate_alpha(led)
    after = calc_lambda(led)
    assert after.goal[:keep] == before.goal[:keep]
    assert after.fail[:keep] == before.fail[:keep]
    assert after.noter[:keep] == before.noter[:keep]
    assert after.loop[:keep - 1] == before.loop[:keep - 1]


@settings(max_examples=300, deadline=None)
@given(feasible_ledgers())
def test_lambda_components_in_unit_interval(led):
    lam = calc_lambda(led)
    for vec in (lam.goal, lam.fail, lam.noter, lam.loop):
        for v in vec:
            assert 0 <= v <= 1


@pytest.mark.parametrize("record", ["record_goal", "record_fail", "record_noter"])
@pytest.mark.parametrize("mass", [(0, 1), (-1, 4)])
def test_terminal_records_need_positive_mass(record, mass):
    # the cache keeps its bounds non-negative by refusing such records
    led = SearchLedger()
    led.extend(0, 0, (1, 2))
    with pytest.raises(LedgerError, match="non-positive"):
        getattr(led, record)(mass)
