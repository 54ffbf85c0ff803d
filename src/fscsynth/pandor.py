"""Probabilistic AND-OR synthesis of bounded finite-state controllers.

The search simulates the combined system depth-first.  OR steps visit one
combined state: a revisit of the current branch seals a cycle in the
ledger, a stop records terminal mass, an undefined (controller state,
observation) pair opens a choice point over every extension of the
controller.  AND steps walk the outcome distribution of the chosen
action.  After each record the search reads the lower bounds the ledger
keeps up to date as it is mutated: the controller is returned as soon as
the guaranteed goal mass reaches the requested bound, and the branch is
abandoned as soon as the remaining optimistic mass drops below it (both
bounds also cover the optional termination-likelihood requirement).
The search runs on one number type, the ledger's reduced integer pairs:
a step probability becomes a pair where it leaves the environment (the
root enters with ``(1, 1)``), ``LGT*``, ``LTER*`` and the caps derived
from them become pairs once, and bounds are compared by cross-multiplying,
with no ``Fraction`` call outside ``calc_lambda``.
``calc_lambda`` is the reference for those cached bounds: the search
compares it with the cache at each record or fold that leaves the branch
empty (where it costs O(1)).  ``measure`` runs the same engine on a fixed
controller (``_Measure``) and returns ``calc_lambda``'s final vector.

The agenda loop, the choice points and chronological backtracking live
in ``_Backtracker``, which the deterministic baseline in ``andor`` shares;
a choice point's snapshot here is the ledger's alpha structures and
their cached bounds.

A choice point offers every action crossed with the canonically numbered
successor states, but a *stuck* action (one that no state with the
observation at hand has in ``delta``) only once: the first stuck action,
with successor 0.  No answer changes:

* every stuck transition (q, o) -> (a, q2) records its step mass as
  never-terminating, here and at every later state with observation o,
  whatever a and q2 are;
* q2 is never entered through it, so it only raises ``max_used``: a
  controller below a dropped sibling, with that transition replaced by
  (a, 0) and its states renumbered canonically, is a controller below
  (a, 0) with the same ledger records and measures;
* so if the (a, 0) subtree fails, every dropped sibling fails too, and if
  it succeeds, the same controller is found first, since the remaining
  candidates keep their order.

Only the OR-step count shrinks, so a search that ran out of budget on the
full candidate list may now finish.

A search for ``LGT*`` alone also cuts at *lost* states, those from which
no action sequence reaches a goal in the support graph (the Prob0 states
of probabilistic model checking, ``PlanningProblem.lost_states``, found
by backward reachability once per problem).  An OR step that enters one
records its mass as failing mass and neither extends the branch nor
opens a choice point.  No answer changes:

* lost mass is non-goal mass under every completion of the controller,
  whatever other states share its observations: it stops in a non-goal
  state, gets stuck, runs forever or meets an undefined pair;
* a search for ``LGT*`` alone reads only the goal bound and the non-goal
  sum (fail plus never-terminating mass above ``1 - LGT*``), so lost
  mass counts in the prune test at once, where its histories would have
  recorded it as fail or never-terminating mass one by one, and never in
  the goal bound;
* a pair that only lost histories reach stays undefined, and a returned
  controller meets ``LGT*`` however it is completed (its goal bound never
  counted those histories); a failure proof still covers every
  completion, since each pruned branch has non-goal mass above
  ``1 - LGT*`` under all of them.

So the search stays sound and complete, and wherever it and the uncut
search both finish, their outcomes agree.  The OR-step count is not
proved to shrink (a pair first met in a lost state may now be opened
later, at another state, in another candidate order), but it never grew
on any problem tested.  With ``LTER*`` the cut is off: the termination
bound counts fail mass as terminating, but lost mass may run forever,
and it may still stop, so neither the fail nor the never-terminating
slot holds it.  ``measure`` never cuts, so its vectors stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from fscsynth.ledger import (
    _P1, LambdaVector, LedgerError, SearchLedger, _add, _cmp, _sub, calc_lambda, cumulate_alpha,
)
from fscsynth.model import (
    Controller,
    PlanningProblem,
    STOP,
    SynthResult,
    SynthesisRequest,
    check_count,
)

#: Default OR-step budget; exceeding it yields an inconclusive abort,
#: never a proof of absence.
DEFAULT_BUDGET = 10_000_000


@dataclass
class _Choice:
    # agenda contents are copied: the branch pops pending items below any length mark
    agenda_copy: list
    max_used: int
    snap: object
    q: int
    s: int
    p: object
    candidates: list
    idx: int = 0


class _Backtracker:
    """The search machinery both AND-OR engines share.

    The machine is an explicit agenda loop, not recursion, so branch
    length is bounded by memory rather than the interpreter stack.  It has
    two item kinds: ``or`` visits one combined state (``_or_step``), one
    item per outcome of a distribution, pushed in reverse so they pop in
    order; ``retreat`` closes the subtree below one (``_retreat``).  An OR
    step returns None to go on, ``"fail"`` to abandon the branch, or an
    outcome that ends the search; an empty agenda is judged by ``_exhausted``.

    Backtracking is chronological: every choice point copies the agenda and
    takes an engine snapshot (``_snapshot``, copy-on-branch), each committed
    candidate is acted on by ``_execute``, and the search is unwound through
    the choice stack, which holds one controller entry per live choice point
    (a point opens on an undefined pair and its commits write only that
    entry), and the snapshot (``_restore``).  Fresh controller states are
    numbered canonically: a choice point offers only successors up to one
    above the highest state in use.  A commit's verdict is handled like an
    OR step's: ``_backtrack`` returns it, or ``"failure-proved"`` once no
    choice point is left.

    ``_Search`` judges right after each ledger record, never after an extend
    or a fold, and judging there too would change no answer: an extend
    appends copies of ``acc_*[-1]`` and a fold sets ``acc[n] = acc.pop()``,
    so neither moves ``goal0``, ``fail0`` or ``noter0``; every subtree ends
    in a judged record, and a restore brings back the bounds of an earlier
    one (or the zero bounds, where ``0 < LGT* < 1`` gives no verdict); so
    each dropped judgement would return None.
    """

    def __init__(self, problem: PlanningProblem, max_states: int, budget: Optional[int]):
        if budget is not None:
            check_count("budget", budget, 1)
        self.problem = problem
        self.env = problem.environment
        self.max_states = max_states
        self.budget = budget
        self.controller: dict[tuple[int, int], tuple[int, int]] = {}
        self.max_used = 0
        self.choices: list[_Choice] = []
        self.agenda: list = [("or", 0, problem.initial_state, _P1)]
        self.or_steps = 0
        self.peak_depth = 0

    def run(self) -> SynthResult:
        agenda = self.agenda
        while agenda:
            item = agenda.pop()
            if item[0] == "retreat":
                self._retreat(item[1], item[2])
                continue
            if self.or_steps == self.budget:
                verdict = "budget-exhausted"
                break
            self.or_steps += 1
            verdict = self._or_step(item[1], item[2], item[3])
            while verdict == "fail":
                verdict = self._backtrack()
            if verdict is not None:
                break
        else:
            verdict = self._exhausted()
        found = verdict == "controller"
        controller = Controller(self.max_used + 1, dict(self.controller)) if found else None
        return SynthResult(verdict, controller, self.or_steps, self.peak_depth)

    def _successors(self) -> range:
        """Canonically numbered successor states for a fresh transition."""
        return range(min(self.max_used + 1, self.max_states - 1) + 1)

    def _open(self, q: int, s: int, p, candidates: list) -> Optional[str]:
        cp = _Choice(list(self.agenda), self.max_used, self._snapshot(), q, s, p, candidates)
        self.choices.append(cp)
        return self._commit(cp)

    def _commit(self, cp: _Choice) -> Optional[str]:
        cand = cp.candidates[cp.idx]
        self.controller[(cp.q, self.env.obs(cp.s))] = cand
        if cand[0] != STOP and cand[1] > self.max_used:
            self.max_used = cand[1]
        return self._execute(cp.q, cp.s, cp.p, cand)

    def _descend(self, q: int, s: int, q2: int, dist, depth: int) -> None:
        """Walk ``dist`` from (q, s), now at branch ``depth``."""
        if depth > self.peak_depth:
            self.peak_depth = depth
        self.agenda.append(("retreat", q, s))
        self.agenda.extend([("or", q2, s2, p2.as_integer_ratio()) for s2, p2 in reversed(dist)])

    def _backtrack(self) -> Optional[str]:
        # exhausted choice points are dropped unrestored but for their controller
        # entry: the resumed one's restore and commit overwrite all else they set
        choices = self.choices
        while choices and choices[-1].idx + 1 >= len(choices[-1].candidates):
            cp = choices.pop()
            del self.controller[(cp.q, self.env.obs(cp.s))]
        if not choices:
            return "failure-proved"
        cp = choices[-1]
        self.agenda[:] = cp.agenda_copy
        self.max_used = cp.max_used
        self._restore(cp.snap)
        cp.idx += 1
        return self._commit(cp)


class _Search(_Backtracker):
    """One synthesis run; not reusable."""

    def __init__(self, problem: PlanningProblem, max_states: int, lgt_star, lter_star, budget: Optional[int]):
        super().__init__(problem, max_states, budget)
        # the bounds, and the caps the prune test compares explored
        # non-goal mass with, as pairs like the ledger's cached bounds
        self.lgt_star = lgt_star.as_integer_ratio()
        self.lter_star = None if lter_star is None else lter_star.as_integer_ratio()
        self.lgt_cap = _sub(_P1, self.lgt_star)
        self.lter_cap = None if lter_star is None else _sub(_P1, self.lter_star)
        self.ledger = SearchLedger()
        # the goal-unreachable cut serves LGT* alone (module docstring)
        self.lost = problem.lost_states if lter_star is None else frozenset()
        # per observation: (action, applicable at some state) for every
        # action offered at a choice point; only the first stuck one stays
        actions = range(len(self.env.actions))
        live = {(self.env.obs(s), a) for s, a in self.env.delta}
        self.offers = []
        for o in range(len(self.env.observations)):
            first_stuck = next((a for a in actions if (o, a) not in live), None)
            self.offers.append([
                (a, (o, a) in live) for a in actions if (o, a) in live or a == first_stuck
            ])

    def _snapshot(self):
        return self.ledger.snapshot()

    def _restore(self, snap) -> None:
        self.ledger.restore(snap)

    def _retreat(self, q: int, s: int) -> None:
        if not len(cumulate_alpha(self.ledger)):
            _check_cache(self.ledger, calc_lambda(self.ledger))

    def _exhausted(self) -> str:
        # the last record was judged on the final bounds, which sum to one and so give a verdict
        raise LedgerError("exploration exhausted without a termination verdict")

    # -- OR step ----------------------------------------------------------

    def _or_step(self, q: int, s: int, p) -> Optional[str]:
        """Process one combined-state visit."""
        ledger = self.ledger
        if s in self.lost:
            # never on the branch: a lost state is never extended
            ledger.record_fail(p)
            return self._evaluate()
        k = ledger.pos.get((q, s))
        if k is not None:
            # revisit of the current branch: seal the cycle
            p_loop = ledger.loop_mass_to(k, p)
            if _cmp(p_loop, _P1) > 0:
                raise LedgerError("cycle traversal mass above 1")
            if p_loop == _P1:
                ledger.record_noter(p)  # non-decaying cycle never terminates
            else:
                ledger.record_loop(k, p_loop)
            return self._evaluate()
        tr = self.controller.get((q, self.env.obs(s)))
        if tr is not None:
            return self._execute(q, s, p, tr)
        return self._open(q, s, p, self._candidates(s))

    def _candidates(self, s: int) -> list[tuple[int, int]]:
        """Extension choices: every applicable action crossed with
        canonically numbered successor states, the first stuck action once
        with successor 0, plus stop.  Stop is tried first in goal states
        and last elsewhere."""
        acts = [
            (a, q2)
            for a, live in self.offers[self.env.obs(s)]
            for q2 in (self._successors() if live else (0,))
        ]
        if self.problem.is_goal(s):
            return [(STOP, 0)] + acts
        return acts + [(STOP, 0)]

    def _execute(self, q: int, s: int, p, tr) -> Optional[str]:
        """Act on a defined transition from combined state (q, s)."""
        a, q2 = tr
        ledger = self.ledger
        if a == STOP:
            if self.problem.is_goal(s):
                ledger.record_goal(p)
            else:
                ledger.record_fail(p)
            return self._evaluate()
        dist = self.env.dist(s, a)
        if dist is None:
            # inapplicable action: execution is stuck and never terminates
            ledger.record_noter(p)
            return self._evaluate()
        ledger.extend(q, s, p)
        self._descend(q, s, q2, dist, len(ledger))
        return None

    # -- bound evaluation --------------------------------------------------

    def _evaluate(self) -> Optional[str]:
        ledger = self.ledger
        goal0, fail0, noter0 = ledger.acc_goal[-1], ledger.acc_fail[-1], ledger.acc_noter[-1]
        if not len(ledger):
            _check_cache(ledger, calc_lambda(ledger))
        if _cmp(goal0, self.lgt_star) >= 0 and (
            self.lter_star is None or _cmp(_add(goal0, fail0), self.lter_star) >= 0
        ):
            return "controller"
        if _cmp(_add(fail0, noter0), self.lgt_cap) > 0 or (
            self.lter_cap is not None and _cmp(noter0, self.lter_cap) > 0
        ):
            return "fail"
        return None


class _Measure(_Search):
    """A run on a fixed controller to exhaustion: it opens no choice point,
    so mass that reaches an undefined pair stays unexplored (it is neither
    goal, fail nor non-termination), and it judges no branch.  It cuts at
    no lost state, so every reachable history is explored."""

    def __init__(self, problem: PlanningProblem, controller: Controller):
        # the bounds are never read: ``_evaluate`` judges nothing
        super().__init__(problem, controller.num_states, 0, None, None)
        self.controller = dict(controller.transitions)
        self.lost = frozenset()

    def _open(self, q: int, s: int, p, candidates: list) -> None:
        pass

    def _evaluate(self) -> None:
        return None

    def _exhausted(self) -> str:
        return "explored"


def _check_cache(ledger: SearchLedger, lam: LambdaVector) -> None:
    exact = tuple(v.as_integer_ratio() for v in (lam.goal0, lam.fail0, lam.noter0))
    if exact != (ledger.acc_goal[-1], ledger.acc_fail[-1], ledger.acc_noter[-1]):
        raise LedgerError("cached bounds differ from calc_lambda")


def pandor_synth(request: SynthesisRequest, budget: Optional[int] = DEFAULT_BUDGET) -> SynthResult:
    """Search for an N-bounded controller meeting the requested bounds.

    Sound: any returned controller has exact LGT >= lgt_star (and LTER >=
    lter_star when given).  Complete: ``failure-proved`` is only reported
    after the bounded space of canonical controllers is exhausted.  A
    ``budget-exhausted`` outcome is inconclusive.
    """
    return _Search(request.problem, request.max_states, request.lgt_star, request.lter_star, budget).run()


def measure(problem: PlanningProblem, controller: Controller) -> LambdaVector:
    """Run the instrumented engine on a fixed controller to exhaustion.

    Explores every at-most-once-looping history of the system and returns
    ``calc_lambda``'s final vector, once it has been compared with the
    ledger's cached bounds.  For a controller defined on every reachable
    (q, o) pair, goal0/fail0/noter0 sum to one and goal0 equals the exact
    goal-termination likelihood; mass reaching undefined pairs is left out
    of all three bounds.  A transition naming an action or observation the
    environment lacks raises ``ModelError``.
    """
    controller.check_indices(problem.environment)
    search = _Measure(problem, controller)
    search.run()
    lam = calc_lambda(search.ledger)
    _check_cache(search.ledger, lam)
    return lam
