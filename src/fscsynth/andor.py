"""Classical bounded AND-OR synthesis over the support relation.

This is the deterministic-outcome baseline: it accepts a controller only
if *every* history reaches a goal state with no repeated combined state,
treating the transition function as a bare relation (probabilities are
ignored).  It exists to reproduce the two failure modes that motivate the
probabilistic engine: domains where some run is unavoidably non-goal, and
domains where every controller has a looping history.

Two adaptations make the returned controllers verifiable under the
stop-based execution semantics used everywhere else in this package: a
goal state offers an explicit ``stop`` extension (tried first), and a
defined transition whose action is inapplicable in the current state
fails the branch instead of vacuously succeeding.  The agenda loop, the
visit of a (controller state, observation) pair (``_visit``, the one
place a choice point opens), the candidate list, canonical numbering of
fresh controller states and chronological backtracking are the
probabilistic engine's ``_Backtracker``, so step counts are comparable;
only the judgement of a branch, the explored (q, s)-subtree memo and the
candidates it drops from the shared list are this engine's own.  It
drops those it would fail on sight: an action inapplicable at s, and
stop outside the goal set.

``_or_step`` fails a repeated combined state and returns on a memo hit,
then hands the visit to ``_visit``.  A search that gives a goal state
with an undefined or stop pair a branch of its own before those checks
(goal entry), and fails a non-goal state with no applicable action (dead
end), makes the same steps in the same order:

* a pair in ``h`` or in ``memo`` is defined: it was committed before its
  state was extended, and a backtrack trims ``memo`` to its snapshot's
  length, so an undefined pair never meets those two checks;
* a goal stop never enters ``h`` or ``memo``, since a stop does not
  extend the branch, and ``_execute`` returns None for it;
* the filtered list is, element for element and in the same order, the
  applicable actions crossed with the canonical successors, behind stop
  at a goal state: ``offers`` lists every action applicable at some
  state with ``omega[s]``, so every action applicable at s; it is empty
  exactly at a non-goal state with no applicable action, where ``_visit``
  fails.
"""

from __future__ import annotations

from typing import Optional

from fscsynth.model import PlanningProblem, STOP, SynthResult, check_count
from fscsynth.pandor import DEFAULT_BUDGET, _Backtracker


class _Search(_Backtracker):
    def __init__(self, problem: PlanningProblem, n: int, budget: Optional[int]):
        super().__init__(problem, n, budget)
        # the branch, never holding a state twice: ``_or_step`` fails on a repeat, and a
        # choice point opens only on an undefined (q, o), which no branch state has
        self.h: set[tuple[int, int]] = set()
        # (q, s) whose subtree is verified, in insertion order (a memo hit returns, so no key repeats)
        self.memo: dict[tuple[int, int], None] = {}

    def _or_step(self, q: int, s: int, p) -> Optional[str]:
        if (q, s) in self.h:
            return "fail"  # repeated combined state: looping history
        if (q, s) in self.memo:
            return None  # subtree already verified for a smaller controller
        return self._visit(q, s, p)

    def _candidates(self, s: int) -> list[tuple[int, int]]:
        # the shared list without what fails on sight: an action
        # inapplicable at s, and stop outside the goal set
        return [(a, q2) for a, q2 in super()._candidates(s) if (s, a) in self.laws or a == STOP and s in self.goals]

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
