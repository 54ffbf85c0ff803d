import random
from fractions import Fraction as F

import pytest

from fscsynth import andor
from fscsynth.andor import andor_synth
from fscsynth.domains import build, domain_names, parse_env, serialize_env
from fscsynth.model import Environment, ModelError, PlanningProblem, STOP, SynthesisRequest
from fscsynth.pandor import pandor_synth
from fscsynth.verifier import exact_measures

from helpers import classic_andor_synth, corridor_controller, random_env


def test_corridor_returns_the_two_state_sweep_controller():
    prob = build("hall-a-1d", {"n": 5})
    result = andor_synth(prob, 2)
    assert result.outcome == "controller"
    expected = corridor_controller(prob.environment)
    assert result.controller.transitions == expected.transitions
    assert result.controller.num_states == 2


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fails_when_some_run_is_unavoidably_nongoal(n):
    # one coin flip can always land outside the goal
    result = andor_synth(build("coin-flip"), n)
    assert result.outcome == "failure-proved"


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fails_when_every_controller_has_a_looping_history(n):
    result = andor_synth(build("decay-loop"), n)
    assert result.outcome == "failure-proved"


@pytest.mark.parametrize(
    "name,params,n",
    [
        ("hall-a-1d", {"n": 3}, 2),
        ("hall-a-1d", {"n": 4}, 2),
        ("hall-a-1d", {"n": 5}, 2),
        ("hall-a-2d", {"n": 3}, 2),
    ],
)
def test_returned_controllers_are_strong(name, params, n):
    prob = build(name, params)
    result = andor_synth(prob, n)
    assert result.outcome == "controller"
    m = exact_measures(prob, result.controller)
    assert m.lgt == 1 and m.nonterm == 0


@pytest.mark.parametrize("n", [0, 2.5, F(3, 2), "2", True])
def test_a_state_bound_that_is_not_a_positive_integer_is_rejected(n):
    with pytest.raises(ModelError, match="state bound"):
        andor_synth(build("hall-a-1d", {"n": 4}), n)


def test_deterministic_runs_are_identical():
    prob = build("hall-a-1d", {"n": 4})
    r1 = andor_synth(prob, 2)
    r2 = andor_synth(prob, 2)
    assert r1.controller.transitions == r2.controller.transitions
    assert r1.or_steps == r2.or_steps


def test_budget_abort_is_distinct():
    result = andor_synth(build("hall-a-1d", {"n": 5}), 2, budget=3)
    assert result.outcome == "budget-exhausted"
    assert result.controller is None


def test_budget_exhausted_run_reports_exactly_the_budget():
    # the OR step that would exceed the budget is not counted
    result = andor_synth(build("hall-a-1d", {"n": 5}), 2, budget=5)
    assert (result.outcome, result.or_steps) == ("budget-exhausted", 5)


@pytest.mark.parametrize("budget", [-1, 0, 2.5, True])
def test_a_budget_that_is_not_a_positive_integer_is_rejected(budget):
    # a budget the OR-step count can never equal would run to completion
    with pytest.raises(ModelError, match="budget"):
        andor_synth(build("hall-a-1d", {"n": 5}), 2, budget=budget)


def _differential_corpus():
    """(label, problem, N, budget) runs of the differential test: every
    built-in domain, then seeded random problems (``random_env`` draws one
    initial state each), partial ones included."""
    for name in domain_names():
        prob = build(name)
        for n in (1, 2, 3):
            for budget in (1, 5, 37, 200_000):
                yield f"{name} N={n} budget={budget}", prob, n, budget
    rng = random.Random(2024)
    for i in range(320):
        prob = random_env(rng, n_states=rng.randint(3, 5), partial=rng.random() < 0.5)
        yield f"random #{i}", prob, rng.choice((1, 2, 3)), rng.choice((3, 50, 20_000))


def _summary(result):
    c = result.controller
    return result.outcome, result.peak_depth, None if c is None else (c.num_states, c.transitions)


def test_shared_core_searches_like_the_classic_baseline(monkeypatch):
    dead_ends = []
    candidates = andor._Search._candidates

    def recording(self, s):
        found = candidates(self, s)
        if not found and s not in self.goals:
            dead_ends.append(s)
        return found

    monkeypatch.setattr(andor._Search, "_candidates", recording)
    seen = set()
    for label, prob, n, budget in _differential_corpus():
        dead_ends.clear()
        new, ref = andor_synth(prob, n, budget), classic_andor_synth(prob, n, budget)
        assert _summary(new) == _summary(ref), label
        if new.outcome == "budget-exhausted":
            # the reference counts the step that exceeds the budget
            assert (new.or_steps, ref.or_steps) == (budget, budget + 1), label
        else:
            assert new.or_steps == ref.or_steps, label
        seen.add(new.outcome)
        if dead_ends:
            seen.add("dead-end")
    assert seen == {"controller", "failure-proved", "budget-exhausted", "dead-end"}


@pytest.mark.parametrize("name,params,n,resumed", [
    ("bridgewalk", {"n": 6}, 2, 5),
    ("hall-a-1d", {"n": 5}, 1, 1),
])
def test_backtrack_restores_only_the_choice_point_that_resumes(name, params, n, resumed):
    search = andor._Search(build(name, params), n, None)
    counts = {"restores": 0, "resumed": 0}
    restore, backtrack = search._restore, search._backtrack

    def counting_restore(snap):
        counts["restores"] += 1
        restore(snap)

    def counting_backtrack():
        verdict = backtrack()
        counts["resumed"] += verdict != "failure-proved"
        return verdict

    search._restore, search._backtrack = counting_restore, counting_backtrack
    search.run()
    assert counts == {"restores": resumed, "resumed": resumed}


@pytest.mark.parametrize("n", [3, 4, 5])
def test_agreement_with_probabilistic_engine_on_deterministic_domains(n):
    prob = build("hall-a-1d", {"n": n})
    near_one = F(10**9 - 1, 10**9)
    for bound in (1, 2):
        ra = andor_synth(prob, bound)
        rp = pandor_synth(SynthesisRequest(prob, bound, near_one))
        assert (ra.outcome == "controller") == (rp.outcome == "controller")
        if ra.outcome == "controller":
            assert exact_measures(prob, ra.controller).lgt == 1
            assert exact_measures(prob, rp.controller).lgt == 1


@pytest.mark.parametrize("initial", [1, 0], ids=["goal-initial", "non-goal-initial"])
def test_an_environment_without_actions(initial):
    # no action at all, so no observation has a stuck action to offer: a
    # goal state offers stop alone, and andor drops that at a non-goal state
    env = Environment(("s", "g"), (), ("o", "won"), {}, (0, 1))
    prob = PlanningProblem(env, initial, frozenset({1}))
    text = serialize_env(prob)
    assert ["actions"] in [line.split() for line in text.splitlines()]
    assert parse_env(text) == prob
    assert prob.offers == ((), ())
    results = [
        pandor_synth(SynthesisRequest(prob, 2, F(1, 2))),
        pandor_synth(SynthesisRequest(prob, 2, F(1, 2), F(1, 2))),
        andor_synth(prob, 2),
    ]
    for result in results:
        if initial == 1:
            assert result.outcome == "controller"
            assert result.controller.transitions == {(0, 1): (STOP, 0)}
            assert exact_measures(prob, result.controller).lgt == 1
        else:
            assert (result.outcome, result.or_steps) == ("failure-proved", 1)
    assert prob.goal_bound[0] == (0, 1)
