import itertools
import random
from fractions import Fraction as F

import pytest

from fscsynth import andor, pandor
from fscsynth.andor import andor_synth
from fscsynth.domains import build, domain_names, parse_env
from fscsynth.ledger import SearchLedger
from fscsynth.model import ModelError, STOP, SynthesisRequest
from fscsynth.pandor import DEFAULT_BUDGET, measure, pandor_synth
from fscsynth.verifier import exact_measures

from helpers import (
    CascadeLedger,
    always_a_controller,
    enumerate_controllers,
    full_candidates_synth,
    goal_unreachable,
    hooked_measure,
    hooked_synth,
    random_env,
    random_total_controller,
    stuck_pairs,
    uncut_synth,
)


def test_coin_flip_meets_a_reachable_bound():
    prob = build("coin-flip")
    result = pandor_synth(SynthesisRequest(prob, 2, F(2, 5)))
    assert result.outcome == "controller"
    assert exact_measures(prob, result.controller).lgt >= F(2, 5)


def test_coin_flip_proves_absence_above_the_optimum():
    # no 2-state controller exceeds 1/2 (certified by enumeration below)
    prob = build("coin-flip")
    best = max(exact_measures(prob, c).lgt for c in enumerate_controllers(prob, 2))
    assert best == F(1, 2)
    result = pandor_synth(SynthesisRequest(prob, 2, F(3, 5)))
    assert result.outcome == "failure-proved"


def test_decay_loop_certifies_the_geometric_series():
    prob = build("decay-loop")
    result = pandor_synth(SynthesisRequest(prob, 1, F(99, 100)))
    assert result.outcome == "controller"
    assert exact_measures(prob, result.controller).lgt == 1


def test_conspiring_cycles_fail_the_termination_bound():
    prob = build("three-state")
    result = pandor_synth(SynthesisRequest(prob, 1, F(1, 2), lter_star=F(1, 10)))
    assert result.outcome == "failure-proved"
    m = exact_measures(prob, always_a_controller(prob))
    assert m.nonterm == 1


def test_noisy_corridor_keeps_retrying_at_the_far_end():
    prob = build("noisy-hall-a-1d", {"n": 4})
    result = pandor_synth(SynthesisRequest(prob, 2, F(99, 100)))
    assert result.outcome == "controller"
    env = prob.environment
    retry_edge = result.controller.transitions.get((1, env.observation_index("B")))
    assert retry_edge == (env.action_index("left"), 1)
    assert exact_measures(prob, result.controller).lgt == 1


def test_budget_abort_is_not_a_proof():
    prob = build("noisy-hall-a-1d", {"n": 4})
    result = pandor_synth(SynthesisRequest(prob, 2, F(99, 100)), budget=5)
    assert result.outcome == "budget-exhausted"
    assert result.controller is None


def test_budget_exhausted_run_reports_exactly_the_budget():
    # the OR step that would exceed the budget is not counted
    prob = build("bridgewalk", {"n": 4})
    result = pandor_synth(SynthesisRequest(prob, 3, F(99, 100)), budget=5)
    assert (result.outcome, result.or_steps) == ("budget-exhausted", 5)


@pytest.mark.parametrize("budget", [-1, 0, 2.5])
def test_a_budget_that_is_not_a_positive_integer_is_rejected(budget):
    # a budget the OR-step count can never equal would run to completion
    prob = build("bridgewalk", {"n": 4})
    with pytest.raises(ModelError, match="budget"):
        pandor_synth(SynthesisRequest(prob, 3, F(99, 100)), budget=budget)


def test_deterministic_runs_are_identical():
    prob = build("noisy-hall-a-1d", {"n": 3})
    r1 = pandor_synth(SynthesisRequest(prob, 2, F(9, 10)))
    r2 = pandor_synth(SynthesisRequest(prob, 2, F(9, 10)))
    assert r1.controller.transitions == r2.controller.transitions
    assert r1.or_steps == r2.or_steps


def test_lower_bounds_never_exceed_truth_during_exploration():
    rng = random.Random(5150)
    for _ in range(40):
        prob = random_env(rng, partial=True)
        ctrl = random_total_controller(rng, prob.environment)
        m = exact_measures(prob, ctrl)
        evaluations = []

        def hook(fingerprint, lam):
            evaluations.append(lam)
            assert lam.goal0 <= m.lgt
            assert lam.fail0 <= m.fail
            assert lam.noter0 <= m.nonterm

        hooked_measure(prob, ctrl, hook)
        assert evaluations


def test_exhaustive_exploration_reaches_the_exact_measures():
    rng = random.Random(777)
    for _ in range(60):
        prob = random_env(rng)
        ctrl = random_total_controller(rng, prob.environment)
        lam = measure(prob, ctrl)
        m = exact_measures(prob, ctrl)
        assert lam.goal0 == m.lgt
        assert lam.fail0 == m.fail
        assert lam.noter0 == m.nonterm
        assert lam.goal0 + lam.fail0 + lam.noter0 == 1


def test_partial_controller_measurement_leaves_undefined_mass_out():
    rng = random.Random(31)
    for _ in range(40):
        prob = random_env(rng, partial=True)
        ctrl = random_total_controller(rng, prob.environment)
        # drop one transition to make it partial
        transitions = dict(ctrl.transitions)
        transitions.popitem()
        partial = type(ctrl)(ctrl.num_states, transitions)
        lam = measure(prob, partial)
        m = exact_measures(prob, partial)
        assert lam.goal0 == m.lgt
        assert lam.goal0 + lam.fail0 + lam.noter0 == 1 - m.undefined_mass


def test_synthesis_soundness_on_random_problems():
    rng = random.Random(2024)
    successes = 0
    for trial in range(120):
        prob = random_env(rng, n_states=rng.randint(2, 5), partial=(trial % 3 == 0))
        lgt_star = F(rng.randint(1, 9), 10)
        lter_star = F(rng.randint(1, 9), 10) if trial % 2 else None
        result = pandor_synth(
            SynthesisRequest(prob, rng.randint(1, 2), lgt_star, lter_star), budget=200_000
        )
        if result.outcome == "controller":
            m = exact_measures(prob, result.controller)
            assert m.lgt >= lgt_star
            if lter_star is not None:
                assert m.lter >= lter_star
            successes += 1
    assert successes > 20


def test_termination_bound_can_exceed_goal_bound():
    # bounds are independent: a high LTER* with a low LGT* is satisfiable
    # on the coin flip by stopping everywhere
    prob = build("coin-flip")
    result = pandor_synth(SynthesisRequest(prob, 1, F(1, 10), lter_star=F(9, 10)))
    assert result.outcome == "controller"
    m = exact_measures(prob, result.controller)
    assert m.lgt >= F(1, 10) and m.lter >= F(9, 10)


def test_completeness_against_enumeration_on_the_coin_flip():
    prob = build("coin-flip")
    for n in (1, 2):
        best = max(exact_measures(prob, c).lgt for c in enumerate_controllers(prob, n))
        for i in range(1, 10):
            star = F(i, 10)
            result = pandor_synth(SynthesisRequest(prob, n, star))
            assert (result.outcome == "controller") == (best >= star)


def test_synthesis_hook_sees_monotone_sound_bounds():
    prob = build("noisy-hall-a-1d", {"n": 3})
    seen = []

    def hook(fingerprint, lam):
        assert lam.goal0 + lam.fail0 + lam.noter0 <= 1
        seen.append((fingerprint, lam.goal0))

    result = hooked_synth(SynthesisRequest(prob, 2, F(9, 10)), hook)
    assert result.outcome == "controller"
    assert seen
    # the last evaluation is the one that met the bound
    assert seen[-1][1] >= F(9, 10)


def test_bounds_that_a_bounded_controller_meets_exactly_are_met():
    # a verdict compares the cached bounds with LGT* and LTER* exactly: a
    # goal bound equal to LGT* meets it, and non-goal mass equal to a cap
    # prunes nothing
    rng = random.Random(1)
    lgt_cases = lter_cases = 0
    while lgt_cases < 12:
        prob = random_env(rng, n_states=rng.randint(2, 4), partial=rng.random() < 0.5)
        n = rng.randint(1, 2)
        controllers = list(itertools.islice(enumerate_controllers(prob, n), 501))
        if len(controllers) > 500:
            continue
        vectors = sorted({(m.lgt, m.lter) for m in (exact_measures(prob, c) for c in controllers)})
        best = max(lgt for lgt, _ in vectors)
        if not 0 < best < 1:
            continue
        lgt_cases += 1
        assert pandor_synth(SynthesisRequest(prob, n, best)).outcome == "controller", (lgt_cases, best)
        inside = [(lgt, lter) for lgt, lter in vectors if 0 < lgt <= lter < 1]
        if inside:
            lter_cases += 1
            lgt, lter = rng.choice(inside)
            assert pandor_synth(SynthesisRequest(prob, n, lgt, lter)).outcome == "controller", (lgt, lter)
    assert lter_cases >= 3


_P_FALL = F(7, 73)


@pytest.mark.parametrize("name, params, max_states, lgt_star, lter_star, outcome", [
    ("noisy-hall-a-2d", {"n": 3, "p": F(91, 101)}, 2, F(99, 100), None, "controller"),
    # retry cycles on a branch up to 23 entries long
    ("noisy-hall-a-1d", {"n": 12, "p": F(66, 73)}, 2, F(9, 10), None, "controller"),
    ("bridgewalk", {"n": 5, "p_fall": _P_FALL}, 3, F(1001, 1000) * (1 - _P_FALL) ** 5, None, "failure-proved"),
    # no goal-unreachable cut: fail mass counts as terminating
    ("noisy-hall-a-2d", {"n": 3, "p": F(37, 101)}, 2, F(1, 2), F(99, 100), "controller"),
], ids=["2d-hall", "1d-hall-n12", "bridgewalk", "2d-hall-lter"])
def test_cached_bounds_equal_calc_lambda_at_every_evaluation_with_large_denominators(
    name, params, max_states, lgt_star, lter_star, outcome
):
    # ``hooked_synth`` compares the ledger's integer-pair cache with
    # ``calc_lambda`` before every judgement, on laws like the benchmark's
    prob = build(name, params)
    request = SynthesisRequest(prob, max_states, lgt_star, lter_star)
    evaluations = []

    def hook(fingerprint, lam):
        assert lam.goal0 + lam.fail0 + lam.noter0 <= 1
        evaluations.append(lam)

    result = hooked_synth(request, hook)
    assert result == pandor_synth(request)
    assert result.outcome == outcome
    assert len(evaluations) > 20
    if outcome == "controller":
        m = exact_measures(prob, result.controller)
        assert m.lgt >= lgt_star and (lter_star is None or m.lter >= lter_star)


def test_differential_against_enumeration_on_random_problems():
    # both directions: a controller is returned iff some canonical bounded
    # controller meets the bounds exactly (completeness and soundness)
    # (the search may need far more OR steps than there are controllers, so
    # problems with a large controller space are skipped to bound the time)
    rng = random.Random(4242)
    outcomes = {"controller": 0, "failure-proved": 0}
    with_stuck_pairs = 0
    for trial in range(120):
        prob = random_env(rng, n_states=rng.randint(2, 4), partial=(trial % 3 == 0))
        n = rng.randint(1, 2)
        controllers = list(itertools.islice(enumerate_controllers(prob, n), 3001))
        if len(controllers) > 3000:
            continue
        with_stuck_pairs += bool(stuck_pairs(prob.environment))
        vectors = {(m.lgt, m.lter) for m in (exact_measures(prob, c) for c in controllers)}
        for _ in range(3):
            lgt_star = F(rng.randint(1, 19), 20)
            lter_star = F(rng.randint(1, 19), 20) if rng.random() < 0.5 else None
            result = pandor_synth(SynthesisRequest(prob, n, lgt_star, lter_star), budget=200_000)
            exists = any(
                lgt >= lgt_star and (lter_star is None or lter >= lter_star) for lgt, lter in vectors
            )
            case = (trial, n, lgt_star, lter_star, result.outcome)
            assert result.outcome == ("controller" if exists else "failure-proved"), case
            if exists:
                m = exact_measures(prob, result.controller)
                assert m.lgt >= lgt_star and (lter_star is None or m.lter >= lter_star), case
            outcomes[result.outcome] += 1
    assert min(outcomes.values()) >= 20, outcomes
    # the corpus must exercise the stuck-action collapse of the candidates
    assert with_stuck_pairs >= 20, with_stuck_pairs


def _assert_same_search(request, label):
    """pandor_synth against the full candidate list: same outcome and
    controller, never more OR steps; returns (new, full) OR steps."""
    new, full = pandor_synth(request), full_candidates_synth(request)
    case = (*label, request.max_states, request.lgt_star, request.lter_star)
    assert (new.outcome, new.controller) == (full.outcome, full.controller), case
    assert new.or_steps <= full.or_steps, case
    return new.or_steps, full.or_steps


@pytest.mark.parametrize("name, params", [
    ("coin-flip", {}),
    ("decay-loop", {}),
    ("hall-a-1d", {}),
    ("bridgewalk", {"n": 3}),
    ("bridgewalk", {"n": 4}),
    ("bridgewalk", {"n": 5}),
], ids=["coin-flip", "decay-loop", "hall-a-1d", "bridgewalk-n3", "bridgewalk-n4", "bridgewalk-n5"])
def test_stuck_action_collapse_keeps_every_answer(name, params):
    prob = build(name, params)
    assert stuck_pairs(prob.environment)
    best = F(9, 10) ** params["n"] if name == "bridgewalk" else F(1, 2)
    bounds = [(F(1, 2), None), (F(99, 100), None), (F(1, 10), F(9, 10)), (best, None)]
    if name == "bridgewalk":
        bounds.append((best * F(1001, 1000), None))  # just above the optimum: exhaustive
    saved = 0
    for N in (1, 2, 3, 4):
        for lgt_star, lter_star in bounds:
            new, full = _assert_same_search(SynthesisRequest(prob, N, lgt_star, lter_star), (name, params))
            saved += full - new
    if name == "bridgewalk":
        assert saved > 0


@pytest.mark.parametrize(
    "name, params", [("three-state", {}), ("noisy-hall-a-1d", {"n": 3}), ("hall-a-2d", {"n": 3})],
    ids=["three-state", "noisy-hall-a-1d-n3", "hall-a-2d-n3"],
)
def test_domains_without_stuck_pairs_search_as_before(name, params):
    prob = build(name, params)
    assert not stuck_pairs(prob.environment)
    for N in (1, 2):
        for lgt_star, lter_star in ((F(1, 2), None), (F(99, 100), F(1, 10))):
            new, full = _assert_same_search(SynthesisRequest(prob, N, lgt_star, lter_star), (name, params))
            assert new == full


def test_stuck_action_collapse_on_random_partial_problems():
    rng = random.Random(8080)
    seen = {"stuck": 0, "lower": 0}
    for trial in range(250):
        prob = random_env(rng, n_states=rng.randint(2, 4), partial=True)
        lgt_star = F(rng.randint(1, 19), 20)
        lter_star = F(rng.randint(1, 19), 20) if rng.random() < 0.5 else None
        request = SynthesisRequest(prob, rng.randint(1, 2), lgt_star, lter_star)
        new, full = pandor_synth(request, budget=5000), full_candidates_synth(request, budget=5000)
        case = (trial, request.max_states, lgt_star, lter_star)
        assert new.or_steps <= full.or_steps, case
        if full.outcome != "budget-exhausted":
            assert (new.outcome, new.controller) == (full.outcome, full.controller), case
        if stuck_pairs(prob.environment):
            seen["stuck"] += 1
            seen["lower"] += new.or_steps < full.or_steps
        else:
            assert new.or_steps == full.or_steps, case
    assert seen["stuck"] >= 100 and seen["lower"] >= 1, seen


class _JudgingEverywhere(pandor._Search):
    """The search, also judging its branch after every extend and every
    fold; each of those judgements must give no verdict."""

    judged = 0

    def _execute(self, q, s, p, tr):
        depth = len(self.ledger)
        verdict = super()._execute(q, s, p, tr)
        if len(self.ledger) > depth:
            self._judge_in_vain()
        return verdict

    def _retreat(self, q, s):
        super()._retreat(q, s)
        self._judge_in_vain()

    def _judge_in_vain(self):
        assert self._evaluate() is None
        self.judged += 1


def _assert_judging_everywhere_changes_nothing(request, budget=DEFAULT_BUDGET):
    search = _JudgingEverywhere(request.problem, request.max_states, request.lgt_star, request.lter_star, budget)
    assert search.run() == pandor_synth(request, budget)
    return search.judged


def test_folds_and_extends_never_move_a_verdict():
    judged = 0
    for name in domain_names():
        prob = build(name)
        for N, lgt_star in itertools.product((1, 2, 3), (F(1, 10), F(1, 2), F(9, 10))):
            judged += _assert_judging_everywhere_changes_nothing(SynthesisRequest(prob, N, lgt_star))
    rng = random.Random(7070)
    for trial in range(200):
        prob = random_env(rng, n_states=rng.randint(2, 4), partial=rng.random() < 0.5)
        lter_star = F(rng.randint(1, 19), 20) if trial % 2 else None
        request = SynthesisRequest(prob, rng.randint(1, 2), F(rng.randint(1, 19), 20), lter_star)
        judged += _assert_judging_everywhere_changes_nothing(request, budget=3000)
    assert judged > 1000


def _checking_choice_stack(engine):
    """``engine``'s search, checking before every OR step that the
    controller holds exactly the entry of each live choice point: the only
    undo record ``_backtrack`` keeps."""

    class Checking(engine):
        checked = 0

        def _or_step(self, q, s, p):
            assert set(self.controller) == {(c.q, self.env.obs(c.s)) for c in self.choices}
            self.checked += 1
            return super()._or_step(q, s, p)

    return Checking


def test_the_controller_holds_one_entry_per_live_choice_point():
    problems = [(build(name), n) for name in domain_names() for n in (1, 2, 3)]
    rng = random.Random(1515)
    for _ in range(100):
        prob = random_env(rng, n_states=rng.randint(3, 5), partial=rng.random() < 0.5)
        problems.append((prob, rng.randint(1, 3)))
    checked = 0
    for prob, n in problems:
        request = SynthesisRequest(prob, n, F(3, 4))
        search = _checking_choice_stack(pandor._Search)(prob, n, F(3, 4), None, 1000)
        assert search.run() == pandor_synth(request, 1000)
        classic = _checking_choice_stack(andor._Search)(prob, n, 1000)
        assert classic.run() == andor_synth(prob, n, 1000)
        checked += search.checked + classic.checked
    assert checked > 10_000


def test_bridgewalk_proof_step_count():
    # 19 960 OR steps when every stuck action was offered with every
    # successor, 1 536 without the cut at the fallen state
    request = SynthesisRequest(build("bridgewalk", {"n": 8, "p_fall": F(1, 10)}), 4, F(1, 2))
    result, uncut = pandor_synth(request), uncut_synth(request)
    assert result.outcome == uncut.outcome == "failure-proved"
    assert (result.or_steps, uncut.or_steps) == (548, 1536)


def _assert_cut_keeps_the_answer(request, label, budget=DEFAULT_BUDGET):
    """pandor_synth against the search without the goal-unreachable cut:
    the same outcome wherever the reference is conclusive, never more OR
    steps, and every returned controller meets the bounds exactly;
    returns (cut, uncut) OR steps."""
    new, ref = pandor_synth(request, budget), uncut_synth(request, budget)
    case = (*label, request.max_states, request.lgt_star, request.lter_star)
    if ref.outcome != "budget-exhausted":
        assert new.outcome == ref.outcome, case
    assert new.or_steps <= ref.or_steps, case
    if new.controller is not None:
        m = exact_measures(request.problem, new.controller)
        assert m.lgt >= request.lgt_star, case
        assert request.lter_star is None or m.lter >= request.lter_star, case
    return new.or_steps, ref.or_steps


@pytest.mark.parametrize("name, params, lost, best", [
    ("coin-flip", {}, {"nogoal"}, F(1, 2)),
    ("bridgewalk", {"n": 3}, {"fallen"}, F(9, 10) ** 3),
    ("bridgewalk", {"n": 5}, {"fallen"}, F(9, 10) ** 5),
    ("three-state", {}, {"s0", "s1", "s2"}, F(0)),
], ids=["coin-flip", "bridgewalk-n3", "bridgewalk-n5", "three-state"])
def test_goal_unreachable_cut_keeps_every_answer(name, params, lost, best):
    prob = build(name, params)
    assert prob.lost_states == goal_unreachable(prob)
    assert {prob.environment.states[s] for s in prob.lost_states} == lost
    # the last two bounds lie just above the best LGT: exhaustive proofs
    bounds = [
        (F(1, 2), None), (F(1, 10), F(9, 10)), (F(1, 2), F(1, 10)),
        (best + F(1, 1000), None), (best + F(1, 1000), F(1, 10)),
    ]
    saved = 0
    for N in (1, 2, 3):
        for lgt_star, lter_star in bounds:
            new, ref = _assert_cut_keeps_the_answer(SynthesisRequest(prob, N, lgt_star, lter_star), (name,))
            if lter_star is not None:
                assert new == ref  # the cut is off under LTER*
            saved += ref - new
    # nogoal has no successor: a visit is one OR step, cut or not
    assert saved > 0 or name == "coin-flip"


def test_goal_unreachable_cut_on_random_problems():
    rng = random.Random(6060)
    seen = {"lost": 0, "lower": 0, "lter": 0}
    for trial in range(250):
        prob = random_env(rng, n_states=rng.randint(2, 4), partial=rng.random() < 0.5)
        lgt_star = F(rng.randint(1, 19), 20)
        lter_star = F(rng.randint(1, 19), 20) if trial % 2 else None
        request = SynthesisRequest(prob, rng.randint(1, 2), lgt_star, lter_star)
        lost = prob.lost_states
        assert lost == goal_unreachable(prob), trial
        new, ref = _assert_cut_keeps_the_answer(request, (trial,), budget=3000)
        if lter_star is not None or not lost:
            assert new == ref, trial
            seen["lter"] += lter_star is not None
        else:
            seen["lost"] += 1
            seen["lower"] += new < ref
    assert seen["lter"] == 125 and seen["lost"] >= 30 and seen["lower"] >= 15, seen


def test_lost_mass_is_not_counted_as_terminating():
    # s1 is lost (it only loops on itself) yet stopping there is what lifts
    # LTER to 7/10: counting lost mass as failing (terminating) mass would
    # return a total controller with LTER 2/5, and counting it in no LTER
    # test would leave the exhausted search without a verdict
    prob = parse_env(
        "states s0 s1 s2 s3\n"
        "actions a0 a1\n"
        "observations o0 o1\n"
        "observe s0 o0\nobserve s1 o0\nobserve s2 o0\nobserve s3 o1\n"
        "init s0\ngoal s3\n"
        "trans s0 a1 1/8 s2 1/2 s1 3/8 s3\n"
        "trans s1 a1 1 s1\n"
        "trans s2 a0 1 s3\n"
        "trans s2 a1 1/2 s0 1/2 s1\n"
        "trans s3 a0 1 s0\n"
    )
    assert prob.lost_states == goal_unreachable(prob) == {prob.environment.state_index("s1")}
    request = SynthesisRequest(prob, 2, F(3, 10), F(7, 10))
    result, ref = pandor_synth(request), uncut_synth(request)
    assert result == ref and result.outcome == "controller"
    m = exact_measures(prob, result.controller)
    assert m.lgt >= F(3, 10) and m.lter >= F(7, 10)


def _search_counting_saturations(monkeypatch, request, ledger_class):
    """``pandor_synth`` on a ``ledger_class`` ledger; also returns, for each
    saturation, the number of the never-terminating or cycle record that
    made it."""
    saturate = SearchLedger._saturate_at
    records = itertools.count()
    current = [None]
    calls = []

    def counted_saturate(self, k):
        calls.append(current[0])
        saturate(self, k)

    def counted(record):
        def wrapped(self, *args):
            current[0] = next(records)
            record(self, *args)
        return wrapped

    with monkeypatch.context() as patch:
        patch.setattr(pandor, "SearchLedger", ledger_class)
        patch.setattr(SearchLedger, "_saturate_at", counted_saturate)
        for name in ("record_noter", "record_loop"):
            patch.setattr(ledger_class, name, counted(getattr(ledger_class, name)))
        result = pandor_synth(request)
    return result, calls


@pytest.mark.parametrize("n, cascade_saturations", [(12, 3 * 11 + 4 * 12), (36, 3 * 35 + 4 * 36)])
def test_lazy_dead_index_rule_searches_as_the_cascade(monkeypatch, n, cascade_saturations):
    # seven branches die in one record each, three by a never-terminating
    # record and four by a retry cycle that fills the unit at the top: the
    # eager cascade saturates n - 1 or n indices of each, the ledger only
    # the top index of the four, where the headroom reaches zero
    request = SynthesisRequest(build("noisy-hall-a-1d", {"n": n, "p": F(1, 2)}), 2, F(9, 10))
    new, calls = _search_counting_saturations(monkeypatch, request, SearchLedger)
    ref, ref_calls = _search_counting_saturations(monkeypatch, request, CascadeLedger)
    assert new.outcome == "controller"
    assert (new.outcome, new.or_steps, new.peak_depth, new.controller) == (
        ref.outcome, ref.or_steps, ref.peak_depth, ref.controller
    )
    assert len(calls) == len(set(calls)) == 4
    assert len(set(ref_calls)) == 7
    assert len(ref_calls) == cascade_saturations


def test_the_search_adds_and_subtracts_no_zero_outside_calc_lambda(monkeypatch):
    # the search runs on integer pairs: outside calc_lambda, the plain
    # reference the cache is checked against, it constructs no Fraction
    # and applies no Fraction operator (so it adds no Fraction zero either)
    requests = [
        SynthesisRequest(build("bridgewalk", {"n": 5}), 3, F(9, 10) ** 5 * F(1001, 1000)),
        SynthesisRequest(build("noisy-hall-a-1d", {"n": 12}), 2, F(99, 100)),
    ]
    in_reference, calls, reference_calls = [False], [], []

    def counted(name, op):
        def wrapped(*args, **kwargs):
            (reference_calls if in_reference[0] else calls).append(name)
            return op(*args, **kwargs)
        return wrapped

    def reference(ledger, calc_lambda=pandor.calc_lambda):
        in_reference[0] = True
        try:
            return calc_lambda(ledger)
        finally:
            in_reference[0] = False

    operators = [
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
        "__floordiv__", "__rfloordiv__", "__mod__", "__rmod__", "__divmod__", "__rdivmod__", "__pow__",
        "__rpow__", "__pos__", "__neg__", "__abs__", "__bool__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__",
    ]
    for name in operators:
        monkeypatch.setattr(F, name, counted(name, getattr(F, name)))
    monkeypatch.setattr(F, "__new__", staticmethod(counted("__new__", F.__new__)))
    monkeypatch.setattr(pandor, "calc_lambda", reference)
    outcomes = [pandor_synth(request).outcome for request in requests]
    monkeypatch.undo()
    assert outcomes == ["failure-proved", "controller"]
    # the patched constructor and operators see calc_lambda's arithmetic
    assert {"__new__", "__add__"} <= set(reference_calls)
    assert calls == []
