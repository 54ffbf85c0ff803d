"""Classical bounded AND-OR synthesis over the support relation.

This is the deterministic-outcome baseline: it accepts a controller only
if *every* history reaches a goal state with no repeated combined state,
treating the transition function as a bare relation (probabilities are
ignored).  It exists to reproduce the two failure modes that motivate the
probabilistic engine: domains where some run is unavoidably non-goal, and
domains where every controller has a looping history.

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

from typing import Optional

from fscsynth.model import PlanningProblem, STOP, SynthResult, check_count
from fscsynth.pandor import DEFAULT_BUDGET, _Backtracker


class _Search(_Backtracker):
    def __init__(self, problem: PlanningProblem, n: int, budget: Optional[int]):
        super().__init__(problem, n, budget)
        # the branch, never holding a state twice: ``_or_step`` fails on a repeat, and a
        # goal-entry choice point opens only on an undefined (q, o), which no branch state has
        self.h: set[tuple[int, int]] = set()
        # (q, s) whose subtree is verified, in insertion order (a memo hit returns, so no key repeats)
        self.memo: dict[tuple[int, int], None] = {}

    def _or_step(self, q: int, s: int, p) -> Optional[str]:
        key = (q, self.omega[s])
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
        successors = self._successors()
        return [
            (a, q2)
            for a in range(len(self.env.actions))
            if (s, a) in self.laws
            for q2 in successors
        ]

    def _execute(self, q: int, s: int, p, tr) -> Optional[str]:
        a, q2 = tr
        if a == STOP:
            return None if s in self.goals else "fail"  # stop outside the goal set fails
        law = self.laws.get((s, a))
        if law is None:
            return "fail"  # inapplicable action: the run is stuck, not a goal run
        self.h.add((q, s))
        self._descend(q, s, q2, law, len(self.h))
        return None

    def _retreat(self, q: int, s: int) -> None:
        self.h.remove((q, s))
        self.memo[(q, s)] = None

    def _exhausted(self) -> str:
        return "controller"

    def _snapshot(self):
        return (set(self.h), len(self.memo))

    def _restore(self, snap) -> None:
        h, n = snap
        self.h = set(h)
        while len(self.memo) > n:
            self.memo.popitem()


def andor_synth(problem: PlanningProblem, n: int, budget: Optional[int] = DEFAULT_BUDGET) -> SynthResult:
    """Bounded AND-OR search for a strong controller (all runs reach goals).

    Returns ``failure-proved`` when no N-bounded controller has the strong
    property; any returned controller verifies to exact LGT 1 and zero
    non-termination.
    """
    check_count("state bound", n, 1)
    return _Search(problem, n, budget).run()
