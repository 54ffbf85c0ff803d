"""``PlanningProblem.goal_bound`` against the exact fully observable value
U(s), and the search's goal-bound cut against the search without it."""

import functools
import itertools
import random
from collections import Counter
from fractions import Fraction as F
from math import gcd

import pytest

from fscsynth import model
from fscsynth.domains import build
from fscsynth.model import GOAL_BOUND_EPS, Controller, Environment, PlanningProblem, STOP, SynthesisRequest
from fscsynth.pandor import pandor_synth
from fscsynth.verifier import exact_measures

from helpers import goal_unreachable, lost_states, lost_trial_94, perfbench_workloads, random_env, unbounded_synth


def exact_goal_values(prob: PlanningProblem) -> list:
    """U(s) for every state s: the best LGT of a memoryless deterministic
    policy, stop included, on a copy of the environment that observes its
    state, each policy solved by ``exact_measures`` from each state."""
    env = prob.environment
    n = len(env.states)
    observed = Environment(env.states, env.actions, env.states, env.delta, tuple(range(n)))
    choices = [[STOP] + [a for a in range(len(env.actions)) if (s, a) in env.delta] for s in range(n)]
    best = [F(0)] * n
    for policy in itertools.product(*choices):
        controller = Controller(1, {(0, s): (a, 0) for s, a in enumerate(policy)})
        for s in range(n):
            lgt = exact_measures(PlanningProblem(observed, s, prob.goal_states), controller).lgt
            best[s] = max(best[s], lgt)
    return best


def _values(prob: PlanningProblem) -> list:
    """The goal bound as ``Fraction``s, once its pairs and the gaps the
    search reads have been checked against it."""
    bound = prob.goal_bound
    assert len(bound) == len(prob.environment.states)
    for n, d in bound:
        # reduced pairs of plain ints in [0, 1]
        assert type(n) is int and type(d) is int and 0 <= n <= d and gcd(n, d) == 1
    values = [F(*v) for v in bound]
    # the gaps: 1 - v(s) as reduced pairs, for the states below 1 alone
    gaps = prob.goal_gaps
    assert gaps is prob.goal_gaps
    assert all(type(n) is int and type(d) is int and gcd(n, d) == 1 for n, d in gaps.values())
    assert {s: F(*g) for s, g in gaps.items()} == {s: 1 - v for s, v in enumerate(values) if v < 1}
    return values


def _random_problems():
    """300 fresh random problems, the same ones at every call: partial
    tables, where fewer states reach a goal surely, so U is often
    fractional."""
    rng = random.Random(3131)
    for _ in range(300):
        yield random_env(rng, n_states=rng.randint(3, 5), partial=True)


@functools.lru_cache(maxsize=None)
def _random_exact_values() -> tuple:
    return tuple(exact_goal_values(prob) for prob in _random_problems())


def test_the_bound_is_at_least_the_exact_fully_observable_value():
    seen = Counter()
    for trial, (prob, exact) in enumerate(zip(_random_problems(), _random_exact_values())):
        lost = goal_unreachable(prob)
        for s, (v, u) in enumerate(zip(_values(prob), exact)):
            assert v >= u, (trial, s, v, u)
            # the bound is 0 at the states no action sequence takes to a goal, and only there
            assert (v == 0) == (s in lost) == (u == 0), (trial, s)
            seen["fractional"] += 0 < u < 1
            seen["tight"] += 0 < u < 1 and v - u <= GOAL_BOUND_EPS
    # the corpus must exercise the float proposal and its exact check
    assert seen["fractional"] >= 40 and seen["tight"] == seen["fractional"], seen


@pytest.mark.parametrize("p_fall", [F(1, 10), F(7, 73), F(1, 2)])
def test_the_bound_is_tight_on_bridgewalk(p_fall):
    for n in range(3, 9):
        prob = build("bridgewalk", {"n": n, "p_fall": p_fall})
        values = _values(prob)
        for i in range(n):
            # from b_i the walk crosses n - i segments
            assert 0 <= values[i] - (1 - p_fall) ** (n - i) <= GOAL_BOUND_EPS, (n, i)
        assert values[n] == 1 and values[n + 1] == 0


@pytest.mark.parametrize("name, params", [
    ("hall-a-1d", {"n": 5}),
    ("noisy-hall-a-1d", {"n": 12, "p": F(66, 73)}),
    ("hall-a-2d", {"n": 3}),
    ("noisy-hall-a-2d", {"n": 4, "p": F(37, 101)}),
])
def test_halls_are_bounded_by_graph_passes_alone(monkeypatch, name, params):
    # every state reaches the goal with probability 1 under some policy:
    # neither the float proposal nor the exact check runs
    def unused(*args):
        raise AssertionError("the halls need no arithmetic")

    monkeypatch.setattr(model, "_propose", unused)
    monkeypatch.setattr(model, "lcm", unused)
    prob = build(name, params)
    assert _values(prob) == [1] * len(prob.environment.states)
    assert prob.goal_gaps == {}  # so a search makes no goal-bound check


def _halved(propose):
    def below(laws_at, rest, x):
        return [v / 2 for v in propose(laws_at, rest, x)]
    return below


def test_a_proposal_below_the_value_is_raised_to_one(monkeypatch):
    # half the float values, far below U wherever U > 2 * eps: each one
    # fails the exact check, so no state keeps a value below U
    monkeypatch.setattr(model, "_propose", _halved(model._propose))
    raised = 0
    for trial, (prob, exact) in enumerate(zip(_random_problems(), _random_exact_values())):
        for s, (v, u) in enumerate(zip(_values(prob), exact)):
            assert v >= u, (trial, s, v, u)
            if 0 < u < 1:
                assert v == 1, (trial, s)
                raised += 1
    bridge = build("bridgewalk", {"n": 5, "p_fall": F(7, 73)})
    assert _values(bridge) == [1] * 6 + [0]
    assert raised >= 40


def _assert_bound_keeps_the_answer(request, label, budget):
    """pandor_synth against the search without the goal-bound cut: the same
    outcome wherever both are conclusive, never more OR steps, a returned
    controller that meets the bounds exactly; returns both results."""
    new, ref = pandor_synth(request, budget), unbounded_synth(request, budget)
    case = (*label, request.max_states, request.lgt_star, request.lter_star, new.outcome, ref.outcome)
    if "budget-exhausted" not in (new.outcome, ref.outcome):
        assert new.outcome == ref.outcome, case
    assert new.or_steps <= ref.or_steps, case
    if new.controller is not None:
        m = exact_measures(request.problem, new.controller)
        assert m.lgt >= request.lgt_star, case
        assert request.lter_star is None or m.lter >= request.lter_star, case
    return new, ref


def test_the_bound_keeps_every_catalogue_answer():
    # the benchmark's searches at seeds 1-3: every bridgewalk proof ends at
    # the root, since LGT* sits just above U(s0); the halls' bounds are 1,
    # so their searches are unchanged
    workloads = perfbench_workloads()
    steps = Counter()
    for seed, workload in itertools.product((1, 2, 3), ("prove", "find")):
        for item in workloads["prepare"](workloads["generate"](workload, seed)):
            label = (seed, item.request.domain, item.request.params)
            new, ref = _assert_bound_keeps_the_answer(item.synth, label, workloads["BUDGET"])
            assert new.outcome != "budget-exhausted" and new.controller == ref.controller, label
            if item.request.domain == "bridgewalk":
                assert (new.or_steps, new.peak_depth) == (1, 0) < (ref.or_steps, ref.peak_depth), label
            else:
                assert new == ref, label
            steps.update({workload: new.or_steps, f"{workload} without": ref.or_steps})
    assert steps["find"] == steps["find without"]
    assert steps["prove"] < steps["prove without"] // 10, steps


def test_the_bound_keeps_every_answer_on_random_problems():
    rng = random.Random(6363)
    seen = Counter()
    for trial in range(500):
        prob = random_env(rng, n_states=rng.randint(2, 5), partial=rng.random() < 0.5)
        lter_star = F(rng.randint(1, 19), 20) if trial % 2 else None
        request = SynthesisRequest(prob, rng.randint(1, 3), F(rng.randint(1, 19), 20), lter_star)
        new, ref = _assert_bound_keeps_the_answer(request, (trial,), budget=3000)
        seen["conclusive"] += "budget-exhausted" not in (new.outcome, ref.outcome)
        seen["lower"] += new.or_steps < ref.or_steps
        seen["lter lower"] += new.or_steps < ref.or_steps and lter_star is not None
    # most of the cuts are at lost states under LTER*, where the
    # goal-unreachable cut is off
    assert seen["conclusive"] >= 450 and seen["lower"] >= 50 and seen["lter lower"] >= 50, seen


def test_searches_with_a_raised_bound_keep_every_answer(monkeypatch):
    monkeypatch.setattr(model, "_propose", _halved(model._propose))
    rng = random.Random(5252)
    for trial in range(150):
        prob = random_env(rng, n_states=rng.randint(3, 5), partial=True)
        lter_star = F(rng.randint(1, 19), 20) if trial % 2 else None
        request = SynthesisRequest(prob, rng.randint(1, 2), F(rng.randint(1, 19), 20), lter_star)
        _assert_bound_keeps_the_answer(request, (trial,), budget=3000)


@pytest.mark.parametrize("lgt_star, lter_star", [(F(1, 20), F(1, 2)), (F(1, 20), F(9, 10)), (F(1, 4), F(1, 4))])
def test_a_lost_initial_state_fails_at_the_root_with_a_termination_bound(lgt_star, lter_star):
    # with LTER* the goal-unreachable cut is off; the goal bound of the
    # lost initial state is 0, so the root visit's whole mass misses the goal
    prob, n = lost_trial_94()
    env = prob.environment
    assert (len(env.states), len(env.actions), len(env.observations), n) == (4, 3, 3, 2)
    assert prob.initial_state in lost_states(prob)
    request = SynthesisRequest(prob, n, lgt_star, lter_star)
    result = pandor_synth(request)
    assert (result.outcome, result.or_steps, result.peak_depth) == ("failure-proved", 1, 0)
    # without the goal bound, the settle fails each closed controller at
    # once, since none has a goal stop: the walk shows the bound's own work
    assert unbounded_synth(request, budget=20_000, walk=True).outcome == "budget-exhausted"
    assert unbounded_synth(request, budget=20_000).outcome == "failure-proved"
