"""Classical bounded AND-OR synthesis over the support relation.

This is the deterministic-outcome baseline: it accepts a controller only
if *every* history from every initial state reaches a goal state with no
repeated combined state, treating the transition function as a bare
relation (probabilities are ignored).  It exists to reproduce the two
failure modes that motivate the probabilistic engine: domains where some
run is unavoidably non-goal, and domains where every controller has a
looping history.

Two adaptations make the returned controllers verifiable under the
stop-based execution semantics used everywhere else in this package:
entering a goal state offers an explicit ``stop`` extension (tried
first), and a defined transition whose action is inapplicable in the
current state fails the branch instead of vacuously succeeding.  The
agenda loop, choice points, canonical numbering of fresh controller
states and chronological backtracking are the probabilistic engine's
``_Backtracker``, so step counts are comparable; only the judgement of a
branch and the explored (q, s)-subtree memo are this engine's own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from fscsynth.model import Environment, ModelError, PlanningProblem, STOP, SynthResult, check_count
from fscsynth.pandor import DEFAULT_BUDGET, _Backtracker


@dataclass(frozen=True)
class GeneralizedProblem:
    """Environment with a set of initial states and a goal set."""

    environment: Environment
    initial_states: frozenset[int]
    goal_states: frozenset[int]

    def __post_init__(self):
        n = len(self.environment.states)
        if not self.initial_states:
            raise ModelError("generalized problem needs at least one initial state")
        if any(not isinstance(s, int) or not 0 <= s < n for s in self.initial_states | self.goal_states):
            raise ModelError("initial/goal set references unknown state")

    @classmethod
    def from_problem(cls, problem: PlanningProblem) -> "GeneralizedProblem":
        return cls(problem.environment, frozenset({problem.initial_state}), problem.goal_states)


class _Search(_Backtracker):
    def __init__(self, gp: GeneralizedProblem, n: int, budget: Optional[int]):
        super().__init__(gp.environment, n, budget, tuple((s, 1) for s in sorted(gp.initial_states)))
        self.goals = gp.goal_states
        # the branch, never holding a state twice: ``_or_step`` fails on a repeat, and a
        # goal-entry choice point opens only on an undefined (q, o), which no branch state has
        self.h: set[tuple[int, int]] = set()
        # (q, s) whose subtree is verified, and the order they were added in
        self.memo: set[tuple[int, int]] = set()
        self.memo_log: list[tuple[int, int]] = []

    def _or_step(self, q: int, s: int, p) -> Optional[str]:
        key = (q, self.env.obs(s))
        tr = self.controller.get(key)
        if s in self.goals and (tr is None or tr[0] == STOP):
            if tr is None:
                # goal entry: offer stop first, other extensions on backtrack
                return self._open(q, s, p, [(STOP, 0)] + self._action_candidates(s))
            return None  # a stop here is a goal run
        if (q, s) in self.h:
            return "fail"  # repeated combined state: looping history
        if (q, s) in self.memo:
            return None  # subtree already verified for a smaller controller
        if tr is not None:
            return self._execute(q, s, p, tr)
        candidates = self._action_candidates(s)
        if not candidates:
            return "fail"  # dead end: no applicable action
        return self._open(q, s, p, candidates)

    def _action_candidates(self, s: int) -> list[tuple[int, int]]:
        return [
            (a, q2)
            for a in range(len(self.env.actions))
            if self.env.dist(s, a) is not None
            for q2 in self._successors()
        ]

    def _execute(self, q: int, s: int, p, tr) -> Optional[str]:
        a, q2 = tr
        if a == STOP:
            return None if s in self.goals else "fail"  # stop outside the goal set fails
        dist = self.env.dist(s, a)
        if dist is None:
            return "fail"  # inapplicable action: the run is stuck, not a goal run
        self.h.add((q, s))
        self._descend(q, s, q2, dist, len(self.h))
        return None

    def _retreat(self, q: int, s: int) -> None:
        self.h.remove((q, s))
        self.memo.add((q, s))
        self.memo_log.append((q, s))

    def _exhausted(self) -> str:
        return "controller"

    def _snapshot(self):
        return (set(self.h), len(self.memo_log))

    def _restore(self, snap) -> None:
        h, n = snap
        self.h = set(h)
        for key in self.memo_log[n:]:
            self.memo.discard(key)
        del self.memo_log[n:]


def andor_synth(
    gp: GeneralizedProblem, n: int, budget: Optional[int] = DEFAULT_BUDGET
) -> SynthResult:
    """Bounded AND-OR search for a strong controller (all runs reach goals).

    Returns ``failure-proved`` when no N-bounded controller has the strong
    property; any returned controller verifies to exact LGT 1 and zero
    non-termination from every initial state.
    """
    check_count("state bound", n, 1)
    return _Search(gp, n, budget).run()
