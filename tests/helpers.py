"""Shared test utilities: name-based controller building, random systems,
exhaustive enumeration of canonical bounded controllers (the independent
route used to certify completeness claims), and the slower references the
package's shortcuts are tested against."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from fscsynth.ledger import LambdaVector, LedgerError, SearchLedger, calc_lambda
from fscsynth.model import (
    Controller, Environment, PlanningProblem, STOP, SynthesisRequest, SynthResult,
)
from fscsynth.pandor import DEFAULT_BUDGET, _check_cache, _Measure, _Search
from fscsynth.verifier import FAIL_SINK, GOAL_SINK, UNDEF_SINK, ChainError, CombinedChain


def controller_from_names(env: Environment, num_states: int, edges: dict) -> Controller:
    """edges: {(q, obs_name): (action_name_or_'stop', q2)}"""
    transitions = {}
    for (q, obs), (action, q2) in edges.items():
        a = STOP if action == "stop" else env.action_index(action)
        transitions[(q, env.observation_index(obs))] = (a, q2)
    return Controller(num_states, transitions)


def flip_stop_controller(problem: PlanningProblem) -> Controller:
    env = problem.environment
    return controller_from_names(env, 1, {
        (0, "start"): ("flip", 0),
        (0, "won"): ("stop", 0),
        (0, "lost"): ("stop", 0),
    })


def always_flip_controller(problem: PlanningProblem) -> Controller:
    env = problem.environment
    return controller_from_names(env, 1, {
        (0, "start"): ("flip", 0),
        (0, "won"): ("stop", 0),
    })


def always_a_controller(problem: PlanningProblem) -> Controller:
    env = problem.environment
    return controller_from_names(env, 1, {(0, "x"): ("a", 0)})


def corridor_controller(env: Environment) -> Controller:
    """The two-state controller for the deterministic corridor: sweep right
    until B, then sweep left and stop on A."""
    return controller_from_names(env, 2, {
        (0, "A"): ("right", 0),
        (0, "-"): ("right", 0),
        (0, "B"): ("left", 1),
        (1, "-"): ("left", 1),
        (1, "A"): ("stop", 0),
    })


def clone_ledger(ledger: SearchLedger) -> SearchLedger:
    out = type(ledger)()
    out.restore(ledger.snapshot())
    return out


def cascade_settle(ledger: SearchLedger, k: int) -> None:
    """The dead-index rule applied eagerly, as a cascade: every index from
    ``k`` down to the highest goal/fail slot whose cycle and
    never-terminating mass fill its unit is saturated, from the top down,
    each saturation rescaling the prefix sums above it (O(L) per index)."""
    L = len(ledger)
    if not ledger.acc_noter[L][0]:
        return
    last_terminal = next((j for j in range(L, 0, -1) if ledger.goal[j][0] or ledger.fail[j][0]), 0)
    for j in range(k, last_terminal - 1, -1):
        lam = 1 - Fraction(*ledger.headroom[j])
        noter_after = Fraction(*ledger.acc_noter[L]) - Fraction(*ledger.acc_noter[j])
        if not lam or not noter_after:
            continue
        total = lam + noter_after / Fraction(*ledger.prefix[j + 1])
        if total > 1:
            raise LedgerError(f"cycle+noter mass above 1 at index {j}")
        if total == 1:
            ledger._saturate_at(j)


class CascadeLedger(SearchLedger):
    """Reference for the ledger's lazy dead-index rule: this one applies
    ``cascade_settle`` after every never-terminating and cycle record, so
    no dead index is left unsaturated."""

    __slots__ = ()

    def record_noter(self, p) -> None:
        super().record_noter(p)
        cascade_settle(self, len(self) - 1)

    def record_loop(self, k: int, p_loop) -> None:
        super().record_loop(k, p_loop)
        cascade_settle(self, k)


def stuck_pairs(env: Environment) -> set[tuple[int, int]]:
    """(observation, action) pairs where the action is inapplicable in
    every state with that observation."""
    return {
        (o, a)
        for o in range(len(env.observations))
        for a in range(len(env.actions))
        if not any((s, a) in env.delta for s in range(len(env.states)) if env.obs(s) == o)
    }


class _FullCandidatesSearch(_Search):
    """The search with the candidate list it had before stuck actions were
    collapsed: every action, stuck or not, crossed with every canonical
    successor state."""

    def _candidates(self, s):
        acts = [(a, q2) for a in range(len(self.env.actions)) for q2 in self._successors()]
        if self.problem.is_goal(s):
            return [(STOP, 0)] + acts
        return acts + [(STOP, 0)]


def full_candidates_synth(request: SynthesisRequest, budget=DEFAULT_BUDGET) -> SynthResult:
    """Reference for ``pandor_synth``: the same search over the full
    candidate list."""
    return _FullCandidatesSearch(
        request.problem, request.max_states, request.lgt_star, request.lter_star, budget
    ).run()


def goal_unreachable(problem: PlanningProblem) -> frozenset:
    """States from which no action sequence reaches a goal: for each state,
    a forward search of the support graph."""
    env = problem.environment
    lost = set()
    for start in range(len(env.states)):
        seen, stack = {start}, [start]
        while stack and not seen & problem.goal_states:
            s = stack.pop()
            for (s1, _), dist in env.delta.items():
                if s1 == s:
                    fresh = {s2 for s2, _ in dist} - seen
                    seen |= fresh
                    stack.extend(fresh)
        if not seen & problem.goal_states:
            lost.add(start)
    return frozenset(lost)


def uncut_synth(request: SynthesisRequest, budget=DEFAULT_BUDGET) -> SynthResult:
    """Reference for ``pandor_synth``: the same search with an empty lost
    set, so every history below a lost state is explored."""
    search = _Search(request.problem, request.max_states, request.lgt_star, request.lter_star, budget)
    search.lost = frozenset()
    return search.run()


def _hooked(engine, hook):
    """``engine`` with ``calc_lambda`` run at every evaluation: the result
    is compared with the ledger's cache and handed to ``hook`` with the
    sorted controller transitions, before the engine judges the branch."""

    class Hooked(engine):
        def _evaluate(self):
            lam = calc_lambda(self.ledger)
            _check_cache(self.ledger, lam)
            hook(tuple(sorted(self.controller.items())), lam)
            return super()._evaluate()

    return Hooked


def hooked_synth(request: SynthesisRequest, hook, budget=DEFAULT_BUDGET) -> SynthResult:
    """``pandor_synth`` with ``hook(transitions, lambda vector)`` called at
    every evaluation."""
    return _hooked(_Search, hook)(request.problem, request.max_states, request.lgt_star, request.lter_star, budget).run()


def hooked_measure(problem: PlanningProblem, controller: Controller, hook) -> LambdaVector:
    """``measure`` with ``hook(transitions, lambda vector)`` called at
    every evaluation."""
    controller.check_indices(problem.environment)
    search = _hooked(_Measure, hook)(problem, controller)
    search.run()
    lam = calc_lambda(search.ledger)
    _check_cache(search.ledger, lam)
    return lam


def _support(env: Environment, s: int, a: int) -> tuple[int, ...]:
    """Relational view of delta: possible successors of (s, a)."""
    dist = env.delta.get((s, a))
    if dist is None:
        return ()
    return tuple(s2 for s2, _ in dist)


@dataclass
class _ClassicChoice:
    # agenda and h are copied, not length-marked: pending items below a
    # plain watermark get popped and replaced while the branch runs
    agenda_copy: list
    trail_len: int
    h_copy: list
    max_used: int
    q: int
    s: int
    candidates: list
    idx: int = 0


class _ClassicAndorSearch:
    def __init__(self, problem: PlanningProblem, n: int, budget):
        self.env = problem.environment
        self.goals = problem.goal_states
        self.max_states = n
        self.budget = budget
        self.controller: dict[tuple[int, int], tuple[int, int]] = {}
        self.max_used = 0
        self.trail: list[tuple[str, tuple]] = []
        self.h: list[tuple[int, int]] = []
        self.h_set: set[tuple[int, int]] = set()
        self.memo: set[tuple[int, int]] = set()
        self.choices: list[_ClassicChoice] = []
        self.agenda: list = []
        self.or_steps = 0
        self.peak_depth = 0

    def run(self, initial_states) -> tuple:
        self.agenda.append(("and", 0, tuple(sorted(initial_states)), 0))
        agenda = self.agenda
        while agenda:
            item = agenda.pop()
            tag = item[0]
            if tag == "or":
                _, q, s = item
                self.or_steps += 1
                if self.budget is not None and self.or_steps > self.budget:
                    return ("budget-exhausted", None)
                if not self._or_step(q, s):
                    if not self._backtrack():
                        return ("failure-proved", None)
            elif tag == "and":
                _, q2, succ, j = item
                if j < len(succ):
                    agenda.append(("and", q2, succ, j + 1))
                    agenda.append(("or", q2, succ[j]))
            else:  # node done: close the subtree below (q, s)
                _, q, s = item
                self.h.pop()
                self.h_set.discard((q, s))
                self.memo.add((q, s))
                self.trail.append(("m", (q, s)))
        return ("controller", Controller(self.max_used + 1, dict(self.controller)))

    def _or_step(self, q: int, s: int) -> bool:
        key = (q, self.env.obs(s))
        tr = self.controller.get(key)
        if s in self.goals and (tr is None or tr[0] == STOP):
            if tr is not None:
                return True  # stops here: goal run
            # goal entry: offer stop first, other extensions on backtrack
            return self._open_choice(q, s, [(STOP, 0)] + self._action_candidates(s))
        if (q, s) in self.h_set:
            return False  # repeated combined state: looping history
        if (q, s) in self.memo:
            return True  # subtree already verified for a smaller controller
        if tr is not None:
            return self._advance(q, s, tr)
        candidates = self._action_candidates(s)
        if not candidates:
            return False  # dead end: no applicable action
        return self._open_choice(q, s, candidates)

    def _action_candidates(self, s: int) -> list[tuple[int, int]]:
        hi = min(self.max_used + 1, self.max_states - 1)
        return [
            (a, q2)
            for a in range(len(self.env.actions))
            if _support(self.env, s, a)
            for q2 in range(hi + 1)
        ]

    def _open_choice(self, q: int, s: int, candidates: list) -> bool:
        choice = _ClassicChoice(
            list(self.agenda), len(self.trail), list(self.h), self.max_used, q, s, candidates,
            idx=-1,
        )
        self.choices.append(choice)
        return self._try_next(choice)

    def _try_next(self, cp: _ClassicChoice) -> bool:
        """Commit the next untried candidate of ``cp``; pops it when spent."""
        cp.idx += 1
        while cp.idx < len(cp.candidates):
            if self._commit(cp.q, cp.s, cp.candidates[cp.idx]):
                return True
            # candidate failed on the spot: undo just its transition
            _, key = self.trail.pop()
            del self.controller[key]
            self.max_used = cp.max_used
            cp.idx += 1
        self.choices.pop()
        return False

    def _commit(self, q: int, s: int, cand) -> bool:
        key = (q, self.env.obs(s))
        self.controller[key] = cand
        self.trail.append(("t", key))
        if cand[0] != STOP and cand[1] > self.max_used:
            self.max_used = cand[1]
        if cand[0] == STOP:
            # committing stop at a goal entry closes the branch on the spot
            return True
        return self._advance(q, s, cand)

    def _advance(self, q: int, s: int, tr) -> bool:
        a, q2 = tr
        if a == STOP:
            return s in self.goals  # stop outside the goal set is a failing run
        succ = _support(self.env, s, a)
        if not succ:
            return False  # inapplicable action: the run is stuck, not a goal run
        self.h.append((q, s))
        self.h_set.add((q, s))
        if len(self.h) > self.peak_depth:
            self.peak_depth = len(self.h)
        self.agenda.append(("done", q, s))
        self.agenda.append(("and", q2, succ, 0))
        return True

    def _backtrack(self) -> bool:
        while self.choices:
            cp = self.choices[-1]
            self.agenda[:] = cp.agenda_copy
            for kind, key in reversed(self.trail[cp.trail_len:]):
                if kind == "t":
                    del self.controller[key]
                else:
                    self.memo.discard(key)
            del self.trail[cp.trail_len:]
            self.h[:] = cp.h_copy
            self.h_set = set(self.h)
            self.max_used = cp.max_used
            if self._try_next(cp):
                return True
        return False


def classic_andor_synth(problem: PlanningProblem, n: int, budget=DEFAULT_BUDGET) -> SynthResult:
    """Reference for ``andor_synth``: the baseline with its own agenda loop,
    trail of transitions and memo entries, and a backtrack that restores
    every exhausted choice point on the way to the one that resumes.  It
    counts the OR step that exceeds a budget, so a ``budget-exhausted``
    run reports ``budget + 1`` steps."""
    search = _ClassicAndorSearch(problem, n, budget)
    outcome, controller = search.run({problem.initial_state})
    return SynthResult(outcome, controller, search.or_steps, search.peak_depth)


def random_env(rng: random.Random, n_states: int = 4, partial: bool = False) -> PlanningProblem:
    states = [f"s{i}" for i in range(n_states)]
    actions = [f"a{i}" for i in range(rng.randint(1, 3))]
    observations = [f"o{i}" for i in range(rng.randint(1, 3))]
    omega = {s: observations[rng.randrange(len(observations))] for s in states}
    delta = {}
    for s in states:
        for a in actions:
            if partial and rng.random() < 0.3:
                continue
            k = rng.randint(1, min(3, n_states))
            targets = rng.sample(states, k)
            weights = [rng.randint(1, 4) for _ in range(k)]
            total = sum(weights)
            delta[(s, a)] = {t: Fraction(w, total) for t, w in zip(targets, weights)}
    env = Environment.from_tables(states, actions, observations, omega, delta)
    goals = frozenset(i for i in range(n_states) if rng.random() < 0.4)
    return PlanningProblem(env, rng.randrange(n_states), goals)


def random_total_controller(rng: random.Random, env: Environment, num_states: int = 2) -> Controller:
    transitions = {}
    for q in range(num_states):
        for o in range(len(env.observations)):
            if rng.random() < 0.25:
                transitions[(q, o)] = (STOP, 0)
            else:
                transitions[(q, o)] = (rng.randrange(len(env.actions)), rng.randrange(num_states))
    return Controller(num_states, transitions)


def enumerate_controllers(problem: PlanningProblem, max_states: int):
    """Every canonical controller that is total on its reachable (q, o)
    pairs, for the given state bound.  Canonical numbering: a transition
    may target at most one controller state beyond the highest used one."""
    env = problem.environment
    n_actions = len(env.actions)

    def first_undefined(tr):
        seen = set()
        stack = [(0, problem.initial_state)]
        best_key = None
        max_used = 0
        for (_, _), (a, q2) in tr.items():
            if a != STOP:
                max_used = max(max_used, q2)
        while stack:
            q, s = stack.pop()
            if (q, s) in seen:
                continue
            seen.add((q, s))
            key = (q, env.obs(s))
            t = tr.get(key)
            if t is None:
                if best_key is None or key < best_key:
                    best_key = key
                continue
            a, q2 = t
            if a == STOP:
                continue
            dist = env.dist(s, a)
            if dist is None:
                continue
            for s2, _ in dist:
                stack.append((q2, s2))
        return best_key, max_used

    def rec(tr):
        key, max_used = first_undefined(tr)
        if key is None:
            yield dict(tr)
            return
        hi = min(max_used + 1, max_states - 1)
        candidates = [(STOP, 0)] + [(a, q2) for a in range(n_actions) for q2 in range(hi + 1)]
        for cand in candidates:
            tr[key] = cand
            yield from rec(tr)
            del tr[key]

    for tr in rec({}):
        mx = 0
        for (q, _), (a, q2) in tr.items():
            mx = max(mx, q, q2 if a != STOP else 0)
        yield Controller(mx + 1, tr)


def dense_absorption(chain: CombinedChain) -> tuple[dict, dict, dict]:
    """Reference for ``verifier._solve_absorption``: the same absorption
    probabilities from a dense matrix and Gaussian elimination with a
    pivot search.

    Nodes with no path to any sink form non-terminating recurrent classes
    (or dead ends); they are excluded from the linear system up front,
    which keeps I - P nonsingular on the remaining transient block.
    """
    n = len(chain.nodes)
    # Reverse reachability from the sinks.
    preds = [[] for _ in range(n)]
    seeds = []
    for i, out in enumerate(chain.transitions):
        for target, _ in out:
            if target < 0:
                seeds.append(i)
            else:
                preds[target].append(i)
    can_terminate = [False] * n
    stack = list(set(seeds))
    for i in stack:
        can_terminate[i] = True
    while stack:
        i = stack.pop()
        for j in preds[i]:
            if not can_terminate[j]:
                can_terminate[j] = True
                stack.append(j)

    transient = [i for i in range(n) if can_terminate[i]]
    pos = {i: k for k, i in enumerate(transient)}
    m = len(transient)
    sinks = (GOAL_SINK, FAIL_SINK, UNDEF_SINK)
    if m == 0:
        return ({}, {}, {})

    # (I - P) x = b, solved simultaneously for the three sink targets.
    a = [[Fraction(0)] * m for _ in range(m)]
    b = [[Fraction(0)] * 3 for _ in range(m)]
    for i in transient:
        r = pos[i]
        a[r][r] += 1
        for target, p in chain.transitions[i]:
            if target < 0:
                b[r][sinks.index(target)] += p
            elif can_terminate[target]:
                a[r][pos[target]] -= p
            # mass into non-terminating nodes is simply lost to the sinks
    x = gauss_solve(a, b)
    out = tuple({i: x[pos[i]][k] for i in transient} for k in range(3))
    return out  # type: ignore[return-value]


def gauss_solve(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    """Exact Gaussian elimination with multiple right-hand sides."""
    m = len(a)
    width = len(b[0]) if b else 0
    for col in range(m):
        pivot = None
        for r in range(col, m):
            if a[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            raise ChainError("singular system in absorbing-chain analysis")
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            b[col], b[pivot] = b[pivot], b[col]
        inv = 1 / a[col][col]
        for r in range(col + 1, m):
            f = a[r][col]
            if f == 0:
                continue
            f *= inv
            row, prow = a[r], a[col]
            for c in range(col, m):
                row[c] -= f * prow[c]
            brow, bprow = b[r], b[col]
            for c in range(width):
                brow[c] -= f * bprow[c]
    x = [[Fraction(0)] * width for _ in range(m)]
    for r in range(m - 1, -1, -1):
        for c in range(width):
            acc = b[r][c]
            row = a[r]
            for k in range(r + 1, m):
                if row[k] != 0:
                    acc -= row[k] * x[k][c]
            x[r][c] = acc / row[r]
    return x


def brute_force_measures(
    problem: PlanningProblem, controller: Controller, depth: int
) -> tuple[Fraction, Fraction]:
    """Finite-horizon sandwich bounds on LGT by mass-pushing enumeration.

    Enumerates all histories of up to ``depth`` environment transitions.
    Returns ``(lgt_lower, lgt_upper)`` where the lower bound is the goal
    mass found and the upper bound adds the mass of histories that are
    still running at the horizon.  Independent of the chain solver: this
    is plain enumeration, used to cross-check it.
    """
    if depth < 1:
        return (Fraction(0), Fraction(1))
    env = problem.environment
    goal_mass = Fraction(0)
    live = {(0, problem.initial_state): Fraction(1)}

    def absorb(frontier):
        """One step of every (q, s) in ``frontier``: a goal stop adds to the
        goal mass; a fail stop, an undefined pair and a stuck action can
        never become goal mass and drop; the rest keep (mass, q2, law)."""
        nonlocal goal_mass
        running = []
        for (q, s), mass in frontier.items():
            a, q2 = controller.transitions.get((q, env.omega[s]), (None, None))
            if a == STOP:
                if s in problem.goal_states:
                    goal_mass += mass
            elif a is not None and (s, a) in env.delta:
                running.append((mass, q2, env.delta[(s, a)]))
        return running

    running = absorb(live)
    for _ in range(depth):
        frontier = {}
        for mass, q2, law in running:
            for s2, p in law:
                key = (q2, s2)
                frontier[key] = frontier.get(key, Fraction(0)) + mass * p
        running = absorb(frontier)
    live_mass = sum((mass for mass, _, _ in running), Fraction(0))
    return (goal_mass, goal_mass + live_mass)
