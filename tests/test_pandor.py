import functools
import itertools
import json
import random
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest

from fscsynth import andor, pandor
from fscsynth.andor import andor_synth
from fscsynth.domains import build, domain_names, parse_env
from fscsynth.ledger import SearchLedger
from fscsynth.model import Controller, Environment, ModelError, PlanningProblem, STOP, SynthesisRequest, SynthResult
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
    lost_states,
    perfbench_workloads,
    r300_script,
    random_env,
    random_total_controller,
    revisit_synth,
    stuck_pairs,
    unbounded_synth,
    uncut_synth,
    walk_synth,
    walking,
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
    # the OR step that would exceed the budget is not counted; every state
    # of the corridor has goal bound 1, and the proof takes 5 OR steps (8
    # without the settle)
    prob = build("hall-a-1d", {"n": 5})
    result = pandor_synth(SynthesisRequest(prob, 1, F(99, 100)), budget=4)
    assert (result.outcome, result.or_steps) == ("budget-exhausted", 4)


@pytest.mark.parametrize("budget", [-1, 0, 2.5, True])
def test_a_budget_that_is_not_a_positive_integer_is_rejected(budget):
    # a budget the OR-step count can never equal would run to completion
    prob = build("bridgewalk", {"n": 4})
    with pytest.raises(ModelError, match="budget"):
        pandor_synth(SynthesisRequest(prob, 3, F(99, 100)), budget=budget)


_R300 = Path(__file__).parent / "data" / "r300.jsonl"


def test_deterministic_runs_are_identical():
    prob = build("noisy-hall-a-1d", {"n": 3})
    r1 = pandor_synth(SynthesisRequest(prob, 2, F(9, 10)))
    r2 = pandor_synth(SynthesisRequest(prob, 2, F(9, 10)))
    assert r1.controller.transitions == r2.controller.transitions
    assert r1.or_steps == r2.or_steps


def test_r300_replays_its_fast_seeds_line_for_line():
    # the other 7 seeds (up to the 60 000-step budget) are diffed by CI
    row = r300_script()["row"]
    lines = _R300.read_text().splitlines()
    fast = [line for line in lines if json.loads(line)["or_steps"] <= 2000]
    assert len(fast) == 293
    for line in fast:
        assert json.dumps(row(json.loads(line)["seed"])) == line


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


def test_measure_builds_no_candidate_list(monkeypatch):
    # the controller pandor returns on bridgewalk n=3 for N=2, LGT* 1/2
    # leaves the fallen pairs undefined; measure walks past them
    prob = build("bridgewalk", {"n": 3})
    ctrl = pandor_synth(SynthesisRequest(prob, 2, F(1, 2))).controller
    calls = []
    candidates = pandor._Backtracker._candidates

    def counting(self, s):
        calls.append(s)
        return candidates(self, s)

    monkeypatch.setattr(pandor._Backtracker, "_candidates", counting)
    lam = measure(prob, ctrl)
    assert calls == []
    assert (lam.goal, lam.fail, lam.noter, lam.loop) == ((F(729, 1000),), (0,), (0,), (0,))
    assert exact_measures(prob, ctrl).undefined_mass == F(271, 1000)


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


@pytest.mark.parametrize("name, params, max_states, lgt_star, lter_star, outcome, min_loops", [
    # cycles around the hall, up to 11 entries long
    ("noisy-hall-a-2d", {"n": 3, "p": F(91, 101)}, 2, F(99, 100), None, "controller", 100),
    # retries that alternate two controller states, in cycles of 2 to 7 entries
    ("noisy-hall-a-1d", {"n": 12, "p": F(66, 73)}, 3, F(9, 10), None, "controller", 30),
    # the goal bound settles this one at the root: the search without it
    ("bridgewalk", {"n": 5, "p_fall": _P_FALL}, 3, F(1001, 1000) * (1 - _P_FALL) ** 5, None, "failure-proved", 0),
    # no goal-unreachable cut: fail mass counts as terminating
    ("noisy-hall-a-2d", {"n": 3, "p": F(37, 101)}, 2, F(1, 2), F(99, 100), "controller", 60),
], ids=["2d-hall", "1d-hall-n12", "bridgewalk", "2d-hall-lter"])
def test_cached_bounds_equal_calc_lambda_at_every_evaluation_with_large_denominators(
    monkeypatch, name, params, max_states, lgt_star, lter_star, outcome, min_loops
):
    # ``hooked_synth`` compares the ledger's integer-pair cache with
    # ``calc_lambda`` before every judgement, on laws like the benchmark's;
    # the cycle records are counted, so that none of the searches can lose
    # the cycles it is here for. The settle would end each hall search at
    # its first closed controller, so the searches are walked: a settled
    # search makes a subsequence of the walk's judgements
    bounded = name != "bridgewalk"
    synth = walk_synth if bounded else functools.partial(unbounded_synth, walk=True)
    prob = build(name, params)
    request = SynthesisRequest(prob, max_states, lgt_star, lter_star)
    evaluations, loops = [], []
    record_loop = SearchLedger.record_loop

    def hook(fingerprint, lam):
        assert lam.goal0 + lam.fail0 + lam.noter0 <= 1
        evaluations.append(lam)

    def counted_record_loop(ledger, k, p_loop):
        loops.append(k)
        record_loop(ledger, k, p_loop)

    monkeypatch.setattr(SearchLedger, "record_loop", counted_record_loop)
    result = hooked_synth(request, hook, bounded=bounded, walk=True)
    assert result == synth(request)
    assert result.outcome == outcome
    assert len(evaluations) > 20
    assert len(loops) >= min_loops
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
    # the search and the walk each against their full candidate lists; on
    # these small problems the settle decides every dropped sibling in no
    # OR step, so only the walks show the collapse saving OR steps
    rng = random.Random(8080)
    seen = Counter()
    for trial in range(250):
        prob = random_env(rng, n_states=rng.randint(2, 4), partial=True)
        lgt_star = F(rng.randint(1, 19), 20)
        lter_star = F(rng.randint(1, 19), 20) if rng.random() < 0.5 else None
        request = SynthesisRequest(prob, rng.randint(1, 2), lgt_star, lter_star)
        stuck = bool(stuck_pairs(prob.environment))
        seen["stuck"] += stuck
        for walk, synth in ((False, pandor_synth), (True, walk_synth)):
            new, full = synth(request, budget=5000), full_candidates_synth(request, budget=5000, walk=walk)
            case = (trial, walk, request.max_states, lgt_star, lter_star)
            assert new.or_steps <= full.or_steps, case
            if full.outcome != "budget-exhausted":
                assert (new.outcome, new.controller) == (full.outcome, full.controller), case
            if stuck:
                seen["walk lower"] += walk and new.or_steps < full.or_steps
            else:
                assert new.or_steps == full.or_steps, case
    assert seen["stuck"] >= 100 and seen["walk lower"] >= 1, seen


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


def _verdict_grid():
    """(request, budget): the catalogue domains for N 1-3 and three LGT*
    values, then 200 random problems, every other one with an LTER*."""
    for name in domain_names():
        prob = build(name)
        for N, lgt_star in itertools.product((1, 2, 3), (F(1, 10), F(1, 2), F(9, 10))):
            yield SynthesisRequest(prob, N, lgt_star), DEFAULT_BUDGET
    rng = random.Random(7070)
    for trial in range(200):
        prob = random_env(rng, n_states=rng.randint(2, 4), partial=rng.random() < 0.5)
        lter_star = F(rng.randint(1, 19), 20) if trial % 2 else None
        yield SynthesisRequest(prob, rng.randint(1, 2), F(rng.randint(1, 19), 20), lter_star), 3000


def test_folds_and_extends_never_move_a_verdict():
    judged = sum(_assert_judging_everywhere_changes_nothing(request, budget) for request, budget in _verdict_grid())
    assert judged > 1000


class _CountingFolds(pandor._Search):
    """The search, counting its folds and checking that none leaves the
    branch empty."""

    folds = 0

    def _retreat(self, q, s):
        super()._retreat(q, s)
        assert len(self.ledger), "a fold emptied the branch"
        self.folds += 1


def test_no_synthesis_folds_its_branch_to_empty():
    # the record before such a fold judged the final bounds, which sum to
    # one and so give a verdict: the search has ended or backtracked. The
    # settle skips most folds, so the walk runs the grid too
    folds = Counter()
    engines = ((_CountingFolds, pandor_synth), (walking(_CountingFolds), walk_synth))
    for request, budget in _verdict_grid():
        for engine, synth in engines:
            search = engine(request.problem, request.max_states, request.lgt_star, request.lter_star, budget)
            assert search.run() == synth(request, budget)
            folds[synth] += search.folds
    assert folds[walk_synth] > 1000 and folds[pandor_synth] > 100, folds


def _checking_choice_stack(engine):
    """``engine``'s search, checking before every OR step that the
    controller holds exactly the entry of each live choice point: the only
    undo record ``_backtrack`` keeps."""

    class Checking(engine):
        checked = 0

        def _or_step(self, q, s, p):
            assert set(self.controller) == {(c.q, self.omega[c.s]) for c in self.choices}
            self.checked += 1
            return super()._or_step(q, s, p)

    return Checking


def test_the_controller_holds_one_entry_per_live_choice_point():
    problems = [(build(name), n) for name in domain_names() for n in (1, 2, 3)]
    rng = random.Random(1515)
    for _ in range(100):
        prob = random_env(rng, n_states=rng.randint(3, 5), partial=rng.random() < 0.5)
        problems.append((prob, rng.randint(1, 3)))
    # the settle skips most OR steps of pandor's searches, so the walk
    # runs them too
    checked = Counter()
    engines = ((_checking_choice_stack(pandor._Search), pandor_synth),
               (_checking_choice_stack(walking(pandor._Search)), walk_synth))
    for prob, n in problems:
        request = SynthesisRequest(prob, n, F(3, 4))
        for engine, synth in engines:
            search = engine(prob, n, F(3, 4), None, 1000)
            assert search.run() == synth(request, 1000)
            checked[synth] += search.checked
        classic = _checking_choice_stack(andor._Search)(prob, n, 1000)
        assert classic.run() == andor_synth(prob, n, 1000)
        checked[andor_synth] += classic.checked
    assert checked[walk_synth] + checked[andor_synth] > 10_000 and checked[pandor_synth] > 1000, checked



def _recording_or_steps(engine):
    class Recording(engine):
        def __init__(self, *args):
            super().__init__(*args)
            self.visits = []

        def _or_step(self, q, s, p):
            self.visits.append((q, s))
            return super()._or_step(q, s, p)

    return Recording


def test_a_search_visits_a_law_in_delta_order():
    # one step from s0 reaches three goal states, listed in neither index
    # order nor its reverse; each has its own observation, so the
    # controller stays open, and the settle idle, until the last visit
    law = ((3, F(1, 2)), (1, F(1, 3)), (2, F(1, 6)))
    env = Environment(("s0", "g1", "g2", "g3"), ("go",), ("start", "o1", "o2", "o3"), {(0, 0): law}, (0, 1, 2, 3))
    prob = PlanningProblem(env, 0, frozenset({1, 2, 3}))
    assert [s2 for s2, _ in env.delta.get((0, 0))] == [3, 1, 2]
    search = _recording_or_steps(pandor._Search)(prob, 1, F(99, 100), None, 100)
    classic = _recording_or_steps(andor._Search)(prob, 1, 100)
    assert search.run().outcome == classic.run().outcome == "controller"
    assert search.visits == classic.visits == [(0, 0), (0, 3), (0, 1), (0, 2)]


def test_bridgewalk_proof_step_count():
    # 19 960 OR steps when every stuck action was offered with every
    # successor, 1 536 without the cut at the fallen state, both walked;
    # with the goal bound, U(s0) = 0.9^8 < 1/2 settles the root visit
    request = SynthesisRequest(build("bridgewalk", {"n": 8, "p_fall": F(1, 10)}), 4, F(1, 2))
    refs = [synth(request, walk=walk) for walk in (True, False) for synth in (unbounded_synth, uncut_synth)]
    result = pandor_synth(request)
    assert {r.outcome for r in refs} == {result.outcome} == {"failure-proved"}
    assert [r.or_steps for r in refs] == [548, 1536, 548, 1532]
    assert (result.or_steps, result.peak_depth) == (1, 0)


def _assert_summing_keeps_the_answer(request, new, label, budget=DEFAULT_BUDGET, walk=False):
    """``new``, the search's result on ``request`` (walked where ``walk``
    is true), against the search that walks each retry as a revisit: the
    same outcome wherever both are conclusive, never more OR steps, and a
    returned controller meets the bounds exactly; returns the reference's
    result."""
    ref = revisit_synth(request, budget, walk=walk)
    case = (*label, request.max_states, request.lgt_star, request.lter_star, new.outcome, ref.outcome)
    if "budget-exhausted" not in (new.outcome, ref.outcome):
        assert new.outcome == ref.outcome, case
    assert new.or_steps <= ref.or_steps, case
    if new.controller is not None:
        m = exact_measures(request.problem, new.controller)
        assert m.lgt >= request.lgt_star, case
        assert request.lter_star is None or m.lter >= request.lter_star, case
    return ref


def test_summed_retries_keep_every_catalogue_answer():
    # the benchmark's searches at seeds 1-3; the built-in noisy laws list
    # "stay" first, so the reference seals each retry before it walks the
    # move, and the same controller is found in fewer OR steps
    workloads = perfbench_workloads()
    shrunk = Counter()
    for seed, workload in itertools.product((1, 2, 3), ("prove", "find")):
        for item in workloads["prepare"](workloads["generate"](workload, seed)):
            new = pandor_synth(item.synth, workloads["BUDGET"])
            label = (seed, item.request.domain, item.request.params)
            ref = _assert_summing_keeps_the_answer(item.synth, new, label, workloads["BUDGET"])
            assert new.outcome != "budget-exhausted" and new.controller == ref.controller, label
            if new.or_steps < ref.or_steps:
                shrunk[item.request.domain] += 1
    # every hall search shrinks (five find requests and one prove request
    # on the 2-D hall, four on the 1-D one, per seed); no bridgewalk or
    # three-state law lists its own state
    assert shrunk == {"noisy-hall-a-2d": 3 * 6, "noisy-hall-a-1d": 3 * 4}, shrunk


def _r300_results():
    """(seed, request, result) for each line of the committed R300 table,
    the search's side of the R300 comparisons: CI diffs every line of it,
    and test_r300_replays_its_fast_seeds_line_for_line replays most."""
    request = r300_script()["request"]
    rows = [json.loads(line) for line in _R300.read_text().splitlines()]
    assert Counter(row["outcome"] for row in rows) == {"controller": 237, "failure-proved": 59, "budget-exhausted": 4}
    for row in rows:
        transitions = row["controller"]
        controller = Controller(row["num_states"], {tuple(k): tuple(v) for k, v in transitions}) if transitions else None
        yield row["seed"], request(row["seed"]), SynthResult(row["outcome"], controller, row["or_steps"], row["peak_depth"])


def test_summed_retries_keep_every_r300_answer():
    steps = Counter()
    for seed, request, new in _r300_results():
        ref = _assert_summing_keeps_the_answer(request, new, (seed,), budget=60_000)
        steps.update(new=new.or_steps, revisit=ref.or_steps, lower=new.or_steps < ref.or_steps)
    assert steps == {"new": 263_314, "revisit": 265_668, "lower": 36}


def test_summed_retries_on_random_partial_problems():
    # the search and the walk each against their revisit walks; the settle
    # decides most closed controllers before a retry is walked, so the
    # walks carry the OR-step counts
    rng = random.Random(9191)
    seen = Counter()
    for trial in range(500):
        prob = random_env(rng, n_states=rng.randint(2, 5), partial=True)
        lter_star = F(rng.randint(1, 19), 20) if trial % 2 else None
        request = SynthesisRequest(prob, rng.randint(1, 3), F(rng.randint(1, 19), 20), lter_star)
        for walk, synth in ((False, pandor_synth), (True, walk_synth)):
            new = synth(request, budget=3000)
            ref = _assert_summing_keeps_the_answer(request, new, (trial, walk), budget=3000, walk=walk)
            if prob.retry_laws == prob.pair_laws:
                assert new == ref, (trial, walk)
            if walk:
                seen["conclusive"] += "budget-exhausted" not in (new.outcome, ref.outcome)
                seen["lower"] += new.or_steps < ref.or_steps
                seen["lter lower"] += new.or_steps < ref.or_steps and lter_star is not None
    assert seen["conclusive"] >= 450 and seen["lower"] >= 100 and seen["lter lower"] >= 50, seen


def _counting_settles(monkeypatch) -> Counter:
    """The settle's verdicts, counted by wrapping ``_Search._settle``; the
    walk's own ``_settle`` is not counted."""
    settle = pandor._Search._settle
    verdicts = Counter()

    def counted(self):
        verdict = settle(self)
        verdicts[verdict] += 1
        return verdict

    monkeypatch.setattr(pandor._Search, "_settle", counted)
    return verdicts


def _assert_settling_keeps_the_answer(request, new, label, budget=DEFAULT_BUDGET):
    """``new``, the search's result on ``request``, against the walk, the
    search without the settle: the same outcome and controller wherever
    both are conclusive, never more OR steps, no deeper branch wherever the
    walk is conclusive (a search that is not can reach, within its budget,
    branches the walk never does), and a returned controller meets the
    bounds exactly; returns the walk's result."""
    ref = walk_synth(request, budget)
    case = (*label, request.max_states, request.lgt_star, request.lter_star, new.outcome, ref.outcome)
    if "budget-exhausted" not in (new.outcome, ref.outcome):
        assert (new.outcome, new.controller) == (ref.outcome, ref.controller), case
    assert new.or_steps <= ref.or_steps, case
    assert new.peak_depth <= ref.peak_depth or ref.outcome == "budget-exhausted", case
    if new.controller is not None:
        m = exact_measures(request.problem, new.controller)
        assert m.lgt >= request.lgt_star, case
        assert request.lter_star is None or m.lter >= request.lter_star, case
    return ref


def test_settling_keeps_every_catalogue_answer(monkeypatch):
    # the benchmark's searches at seeds 1-3: each find controller is closed
    # with LGT = 1 before its walk has pushed goal0 past LGT*
    workloads = perfbench_workloads()
    settles = _counting_settles(monkeypatch)
    steps = Counter()
    for seed, workload in itertools.product((1, 2, 3), ("prove", "find")):
        for item in workloads["prepare"](workloads["generate"](workload, seed)):
            new = pandor_synth(item.synth, workloads["BUDGET"])
            label = (seed, item.request.domain, item.request.params)
            ref = _assert_settling_keeps_the_answer(item.synth, new, label, workloads["BUDGET"])
            assert new.outcome != "budget-exhausted" and ref.outcome != "budget-exhausted", label
            steps.update({workload: new.or_steps, f"{workload} walked": ref.or_steps})
    # 1 167 against 5 004 OR steps on find, 45 against 135 on prove
    assert steps["find"] * 4 < steps["find walked"] and steps["prove"] * 2 < steps["prove walked"], steps
    assert settles["fail"] >= 50 and settles["controller"] >= 10, settles


def test_settling_keeps_every_r300_answer():
    # the walk runs out of budget on seeds 129 and 142; the settle returns
    # a controller for each, the one the walk returns with a budget of 1 M
    steps = Counter()
    for seed, request, new in _r300_results():
        ref = _assert_settling_keeps_the_answer(request, new, (seed,), budget=60_000)
        steps.update(new=new.or_steps, walk=ref.or_steps, lower=new.or_steps < ref.or_steps)
        if new.outcome != ref.outcome:
            steps[f"{new.outcome} {seed}"] = new.or_steps
    assert steps == {
        "new": 263_314, "walk": 461_983, "lower": 91, "controller 129": 5185, "controller 142": 11_252,
    }


def test_settling_on_random_partial_problems(monkeypatch):
    # partial tables, N 1-3, every other request with an LTER*
    rng = random.Random(4545)
    settles = _counting_settles(monkeypatch)
    seen = Counter()
    for trial in range(600):
        prob = random_env(rng, n_states=rng.randint(2, 5), partial=True)
        lter_star = F(rng.randint(1, 19), 20) if trial % 2 else None
        request = SynthesisRequest(prob, rng.randint(1, 3), F(rng.randint(1, 19), 20), lter_star)
        before = settles.copy()
        new = pandor_synth(request, budget=3000)
        ref = _assert_settling_keeps_the_answer(request, new, (trial,), budget=3000)
        seen["conclusive"] += "budget-exhausted" not in (new.outcome, ref.outcome)
        seen["lower"] += new.or_steps < ref.or_steps
        seen["lter lower"] += new.or_steps < ref.or_steps and lter_star is not None
        seen["settled"] += settles["fail"] + settles["controller"] > before["fail"] + before["controller"]
    assert seen["conclusive"] >= 550 and seen["settled"] >= 100, seen
    assert seen["lower"] >= 100 and seen["lter lower"] >= 50, seen
    assert settles["fail"] >= 1000 and settles["controller"] >= 10, settles


def _assert_cut_keeps_the_answer(request, label, budget=DEFAULT_BUDGET, walk=False):
    """The search without the goal bound against the search without the
    goal-unreachable cut too (the bound is 0 at a lost state, so it would
    cut there as well), both walked where ``walk`` is true: the same
    outcome wherever the reference is conclusive, never more OR steps, and
    every returned controller meets the bounds exactly; returns (cut,
    uncut) OR steps."""
    new, ref = unbounded_synth(request, budget, walk), uncut_synth(request, budget, walk)
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
    assert lost_states(prob) == goal_unreachable(prob)
    assert {prob.environment.states[s] for s in lost_states(prob)} == lost
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
        lost = lost_states(prob)
        assert lost == goal_unreachable(prob), trial
        # both sides walked: with settles the cut can cost OR steps (trial
        # 246: 16 against 11), since a pair first met at a lost state is
        # opened later, where the settle may find it closed later too
        new, ref = _assert_cut_keeps_the_answer(request, (trial,), budget=3000, walk=True)
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
    assert lost_states(prob) == goal_unreachable(prob) == {prob.environment.states.index("s1")}
    request = SynthesisRequest(prob, 2, F(3, 10), F(7, 10))
    result, ref = pandor_synth(request), uncut_synth(request)
    assert result == ref and result.outcome == "controller"
    m = exact_measures(prob, result.controller)
    assert m.lgt >= F(3, 10) and m.lter >= F(7, 10)


def _search_counting_saturations(monkeypatch, request, ledger_class):
    """``walk_synth`` on a ``ledger_class`` ledger; also returns, for each
    saturation, the number of the never-terminating or cycle record that
    made it.  The settle would end these searches before most of their
    saturations, and the ledger rule is the same in the walk."""
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
        result = walk_synth(request)
    return result, calls


@pytest.mark.parametrize("seed, n_states, outcome, saturations, cascade_saturations", [
    (12, 6, "controller", 2, 23),
    (50, 5, "failure-proved", 6, 25),
    (191, 6, "controller", 37, 131),
])
def test_lazy_dead_index_rule_searches_as_the_cascade(
    monkeypatch, seed, n_states, outcome, saturations, cascade_saturations
):
    # branches that die above cycles of two or more entries: the eager
    # cascade saturates, after each never-terminating or cycle record, every
    # index whose cycle and never-terminating mass fill its unit; the ledger
    # only the index whose headroom a cycle record brings to zero
    prob = random_env(random.Random(seed), n_states=n_states, partial=True)
    request = SynthesisRequest(prob, 2, F(1, 2))
    new, calls = _search_counting_saturations(monkeypatch, request, SearchLedger)
    ref, ref_calls = _search_counting_saturations(monkeypatch, request, CascadeLedger)
    assert new.outcome == outcome
    assert (new.outcome, new.or_steps, new.peak_depth, new.controller) == (
        ref.outcome, ref.or_steps, ref.peak_depth, ref.controller
    )
    assert len(calls) == len(set(calls)) == saturations
    assert len(ref_calls) == cascade_saturations


def test_the_search_adds_and_subtracts_no_zero_outside_calc_lambda(monkeypatch):
    # the search runs on integer pairs: outside calc_lambda, the plain
    # reference the cache is checked against, it constructs no Fraction
    # and applies no Fraction operator (so it adds no Fraction zero either)
    # the bridgewalk proof twice: the goal bound, computed in the patched
    # search, settles it at the root; the search without it is exhaustive
    bridge = SynthesisRequest(build("bridgewalk", {"n": 5}), 3, F(9, 10) ** 5 * F(1001, 1000))
    hall = SynthesisRequest(build("noisy-hall-a-1d", {"n": 12}), 2, F(99, 100))
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
    outcomes = [synth(request).outcome for synth, request in (
        (pandor_synth, bridge), (unbounded_synth, bridge), (pandor_synth, hall),
    )]
    monkeypatch.undo()
    assert outcomes == ["failure-proved", "failure-proved", "controller"]
    # the patched constructor and operators see calc_lambda's arithmetic
    assert {"__new__", "__add__"} <= set(reference_calls)
    assert calls == []
