"""Probabilistic AND-OR synthesis of bounded finite-state controllers.

The search simulates the combined system depth-first.  OR steps visit one
combined state: a revisit of the current branch seals a cycle in the
ledger, a stop records terminal mass, an undefined (controller state,
observation) pair opens a choice point over every extension of the
controller.  AND steps walk the outcome distribution of the chosen
action; a self-loop, a step that keeps both the controller state and the
environment state, is summed into that distribution rather than walked
as a revisit (see below).  After each record the search reads the lower
bounds the ledger keeps up to date as it is mutated: the controller is
returned as soon as the guaranteed goal mass reaches the requested
bound, and the branch is abandoned as soon as the remaining optimistic
mass drops below it (both bounds also cover the optional
termination-likelihood requirement).  After each commit that leaves the
branch undecided, a graph pass settles a controller that defines every
pair it reaches (see the end of this docstring).
The search runs on one number type, the ledger's reduced integer pairs:
step laws become pairs once per problem (``PlanningProblem.pair_laws``;
the root enters with ``(1, 1)``), ``LGT*``, ``LTER*`` and the caps derived
from them become pairs once, and bounds are compared by cross-multiplying,
with no ``Fraction`` call outside ``calc_lambda``.
``calc_lambda`` is the reference for those cached bounds: the search
compares it with the cache at each record on the empty branch (where it
costs O(1)); no fold empties it (see ``_exhausted``).  ``measure`` runs
the same engine on a fixed controller (``_Measure``) and returns
``calc_lambda``'s final vector.

The agenda loop, the visit of a pair, the candidate list, the choice
points and chronological backtracking live in ``_Backtracker``, which the
deterministic baseline in ``andor`` shares;
a choice point's snapshot here is the ledger's alpha structures and
their cached bounds.

A choice point offers every action crossed with the canonically numbered
successor states, but a *stuck* action (one that no state with the
observation at hand has in ``delta``) only once: the first stuck action,
with successor 0.  No answer changes:

* every stuck transition (q, o) -> (a, q2) records its step mass as
  never-terminating, here and at every later state with observation o,
  whatever a and q2 are;
* q2 is never entered through it, so it only raises the highest state
  in use: a controller below a dropped sibling, with that transition
  replaced by (a, 0) and its states renumbered canonically, is a
  controller below (a, 0) with the same ledger records and measures;
* so if the (a, 0) subtree fails, every dropped sibling fails too, and if
  it succeeds, the same controller is found first, since the remaining
  candidates keep their order.

Only the OR-step count shrinks, so a search that ran out of budget on the
full candidate list may now finish.

Every search cuts by the goal bound, ``PlanningProblem.goal_bound``:
per state s, a value v(s) >= U(s), the most goal mass any policy of the
fully observable environment reaches from s, certified exactly once
per problem.  A fresh visit of (q, s) with step mass p, one that is not
on the branch, abandons the branch when
fail0 + noter0 + prefix[L] * p * (1 - v(s)) > 1 - ``LGT*``.  No answer
changes:

* the histories through the visit are disjoint from the recorded ones:
  they go on from the frontier by its step into s, a pending outcome
  that no recorded history has taken;
* prefix[L] * p under-counts their mass under every completion: the
  prefix amplifies the branch by its recorded cycles only;
* from (q, s) every completion of the controller acts as some policy of
  the fully observable environment, so at most a share U(s) <= v(s) of
  that mass stops in a goal, and at least 1 - v(s) of it is non-goal;
* with the fail and never-terminating bounds, which are non-goal mass
  under every completion too, the non-goal mass then exceeds
  ``1 - LGT*`` under every completion, so none meets ``LGT*``, whatever
  ``LTER*`` asks.

The search without the cut would walk the subtree below the visit, find
no controller there and backtrack to the same choice point, with the
same snapshot.  So outcomes and controllers stay the same, and OR steps
and peak depth only shrink.  Where v(s0) < ``LGT*``, the root visit
ends the search in one OR step.

Where v(s) = 0, s is *lost*: no action sequence reaches a goal from it
in the support graph (the Prob0 states of probabilistic model checking;
the bound is 0 there and nowhere else).  A search for ``LGT*`` alone
cuts there harder: a visit of a lost state records its mass as failing
mass and neither extends the branch nor opens a choice point.  No
answer changes:

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

So the search stays sound and complete, and wherever it and the search
without this case both finish, their outcomes agree.  The OR-step count
is not proved to shrink (a pair first met in a lost state may now be
opened later, at another state, in another candidate order): it never
grew on any problem tested without the settle below, but with it it can
(16 OR steps against 11 on one random problem of the tests).  With
``LTER*`` the case is off, and
a fresh visit of a lost state meets the cut above, which counts its
whole mass as non-goal: the termination bound counts fail mass as
terminating, but lost mass may run forever, and it may still stop, so
neither the fail nor the never-terminating slot holds it.  ``measure``
neither cuts nor computes the bound, so its vectors stay exact.  The
search reads 1 - v(s) from ``PlanningProblem.goal_gaps``, which holds
only the states below 1, so where every bound is 1 (every hall domain) a
visit makes one lookup in an empty dict.

A transition (q, o) -> (a, q) that keeps the controller state, taken at
a state s whose law lists s itself with probability p_stay, walks that
law's entry in ``PlanningProblem.retry_laws`` instead: the other
outcomes, each divided by 1 - p_stay.  Where p_stay is 1, the step mass
is recorded as never-terminating at once.  The search it replaces walked
the stay outcome as a revisit that sealed a cycle of mass p_stay at
(q, s).  No answer changes:

* k retries at (q, s) carry mass p * p_stay^k * p_other, so the summed
  law gives every later slot the weight the revisit walk reaches through
  ``headroom`` once its cycle is recorded; with a longer cycle through
  the same index, of mass c on the summed law and so (1 - p_stay) * c on
  the original one, the two geometric series multiply to the revisit
  walk's single headroom: (1 - p_stay) * (1 - c) = 1 - p_stay - (1 -
  p_stay) * c;
* so at each record the bounds equal the revisit walk's, or exceed them
  where the stay outcome follows its siblings in ``delta`` order (the
  revisit walk records its cycle only after them), and they stay sound:
  each is still the mass of a set of histories of the committed pairs;
* a prune here is therefore a prune of the revisit walk, at the same
  record or later, since the non-goal (or never-terminating) mass under
  every completion already exceeds its cap; an accept here means that
  every completion of the committed pairs qualifies, so the revisit
  walk, which then prunes nothing below them, accepts later with an
  extension of them.

So outcomes never change and the OR-step count only shrinks: the
revisit's OR step is gone and a verdict may come sooner.  A controller
can be returned earlier, with fewer pairs defined, where the stay
outcome follows its siblings.  ``measure`` sums self-loops too: on a
controller defined on every reachable pair its vector stays exact.

After a commit, from a new choice point or on backtracking, that leaves
the branch undecided, ``_settle`` makes one pass over the combined states
reachable from (0, s0) under the committed pairs, reading the support of
``pair_laws``.  Where it meets an undefined pair, the walk goes on.
Otherwise the controller is *closed*: it defines every pair it reaches,
and the pass judges it as the qualitative graph algorithms of
probabilistic model checking judge a finite Markov chain (Prob0 and
Prob1; Baier & Katoen, *Principles of Model Checking*, 2008, 10.1).
Where no reachable node stops in a goal state, its LGT is 0 and the
branch fails.  Where a backward pass from the goal stops reaches every
reachable node, absorption in a goal stop is certain, so LGT = LTER = 1
and the controller is returned.  Otherwise the walk goes on.  No answer
changes:

* a closed subtree opens no choice point: every pair the walk meets
  below the commit is reachable from (0, s0) under the committed pairs,
  and so defined; the walk runs on this controller alone;
* its bounds are sound for that controller (goal0 <= LGT and fail0 +
  noter0 <= 1 - LGT), and at its last record they sum to one;
* so at LGT = 0, since ``LGT*`` > 0, the walk never accepts and fails at
  the latest at its last record, or earlier by a prune, backtracking to
  the choice point of this commit, as the settle's ``"fail"`` does;
* at LGT = 1 the non-goal mass is 0, so no prune fires (nor the
  goal-bound cut: v(s) >= 1 at every reachable s), and the walk accepts
  at the latest at its last record, since ``LGT*`` and ``LTER*`` are at
  most 1, with this controller.

So wherever the walk finishes, outcomes and controllers stay the same,
while OR steps and peak depth only shrink: the settle skips the walk of
the closed subtree, and a search that ran out of budget in it may now
finish.  The pass costs time linear in the reachable part of the graph
and makes no arithmetic; its backward pass is ``model.reaching``, the
goal bound's own, and it shares no code with the verifier, so the
verifier's re-check of a returned controller stays independent.
``measure`` opens no choice point and so never settles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from fscsynth.ledger import LambdaVector, LedgerError, SearchLedger, calc_lambda, cumulate_alpha
from fscsynth.model import (
    _P1, Controller, PlanningProblem, STOP, SynthResult, SynthesisRequest, _add, _cmp, _mul, _sub, check_count, reaching,
)

#: Default OR-step budget; exceeding it yields an inconclusive abort,
#: never a proof of absence.
DEFAULT_BUDGET = 10_000_000


@dataclass
class _Choice:
    # agenda contents are copied: the branch pops pending items below any length mark
    agenda_copy: list
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
    item per outcome of a step law, pushed in reverse so they pop in
    ``delta`` order; ``retreat`` closes the subtree below one (``_retreat``).
    An OR step returns None to go on, ``"fail"`` to abandon the branch, or
    an outcome that ends the search; an empty agenda is judged by
    ``_exhausted``.  Observations and goals are read off the model's
    tables, bound once as ``omega``, ``goals``, ``laws`` and ``offers``.

    An engine's ``_or_step`` ends in ``_visit``, the one place a choice point
    opens: a defined (controller state, observation) pair is acted on by
    ``_execute``; an undefined one opens a choice point on ``_candidates``,
    the candidate order written once for both engines, and fails the branch
    where that list is empty.

    Backtracking is chronological: every choice point copies the agenda and
    takes an engine snapshot (``_snapshot``, copy-on-branch), each committed
    candidate is acted on by ``_execute``, and the search is unwound through
    the choice stack, which holds one controller entry per live choice point
    (a point opens on an undefined pair and its commits write only that
    entry), and the snapshot (``_restore``).  Fresh controller states are
    numbered canonically: a choice point offers only successors up to one
    above the highest state the controller uses.  A commit's verdict is
    handled like an OR step's: ``_backtrack`` returns it, or
    ``"failure-proved"`` once no choice point is left.

    ``_Search`` judges right after each ledger record, never after an extend
    or a fold, and judging there too would change no answer: an extend
    appends copies of ``acc_*[-1]`` and a fold sets ``acc[n] = acc.pop()``,
    so neither moves ``goal0``, ``fail0`` or ``noter0``; every subtree ends
    in a judged record, and a restore brings back the bounds of an earlier
    one (or the zero bounds, where ``0 < LGT* < 1`` gives no verdict); so
    each dropped judgement would return None.  Its settle after a commit
    judges the committed pairs, not the bounds.
    """

    def __init__(self, problem: PlanningProblem, max_states: int, budget: Optional[int]):
        if budget is not None:
            check_count("budget", budget, 1)
        self.problem = problem
        self.omega = problem.environment.omega
        self.goals = problem.goal_states
        self.laws = problem.pair_laws
        self.offers = problem.offers
        self.max_states = max_states
        self.budget = budget
        self.controller: dict[tuple[int, int], tuple[int, int]] = {}
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
        controller = Controller(self._highest_used() + 1, dict(self.controller)) if found else None
        return SynthResult(verdict, controller, self.or_steps, self.peak_depth)

    def _highest_used(self) -> int:
        """The highest state a live choice point's non-stop transition enters, or 0."""
        highest = 0
        for a, q2 in self.controller.values():
            if q2 > highest and a != STOP:
                highest = q2
        return highest

    def _successors(self) -> range:
        """Canonically numbered successor states for a fresh transition."""
        return range(min(self._highest_used() + 1, self.max_states - 1) + 1)

    def _candidates(self, s: int) -> list[tuple[int, int]]:
        """Extension choices: every applicable action crossed with
        canonically numbered successor states, the first stuck action once
        with successor 0, plus stop.  Stop is tried first in goal states
        and last elsewhere."""
        successors = self._successors()
        acts = [
            (a, q2)
            for a, live in self.offers[self.omega[s]]
            for q2 in (successors if live else (0,))
        ]
        if s in self.goals:
            return [(STOP, 0)] + acts
        return acts + [(STOP, 0)]

    def _visit(self, q: int, s: int, p) -> Optional[str]:
        """Reach the pair (q, omega[s]): act on it where it is defined,
        otherwise open a choice point on ``_candidates(s)``, or fail the
        branch where that list is empty."""
        tr = self.controller.get((q, self.omega[s]))
        if tr is not None:
            return self._execute(q, s, p, tr)
        candidates = self._candidates(s)
        return self._open(q, s, p, candidates) if candidates else "fail"

    def _open(self, q: int, s: int, p, candidates: list) -> Optional[str]:
        cp = _Choice(list(self.agenda), self._snapshot(), q, s, p, candidates)
        self.choices.append(cp)
        return self._commit(cp)

    def _commit(self, cp: _Choice) -> Optional[str]:
        cand = cp.candidates[cp.idx]
        self.controller[(cp.q, self.omega[cp.s])] = cand
        return self._execute(cp.q, cp.s, cp.p, cand)

    def _descend(self, q: int, s: int, q2: int, law, depth: int) -> None:
        """Walk ``law``, a value of ``pair_laws`` or ``retry_laws``, from
        (q, s), now at branch ``depth``."""
        if depth > self.peak_depth:
            self.peak_depth = depth
        self.agenda.append(("retreat", q, s))
        self.agenda.extend([("or", q2, s2, p2) for s2, p2 in reversed(law)])

    def _backtrack(self) -> Optional[str]:
        # exhausted choice points are dropped unrestored but for their controller
        # entry: the resumed one's restore and commit overwrite all else they set
        choices = self.choices
        while choices and choices[-1].idx + 1 >= len(choices[-1].candidates):
            cp = choices.pop()
            del self.controller[(cp.q, self.omega[cp.s])]
        if not choices:
            return "failure-proved"
        cp = choices[-1]
        self.agenda[:] = cp.agenda_copy
        self._restore(cp.snap)
        cp.idx += 1
        return self._commit(cp)


class _Search(_Backtracker):
    """One synthesis run; not reusable."""

    #: whether the search cuts by the goal bound, and at lost states under ``LGT*`` alone
    cuts = True

    def __init__(self, problem: PlanningProblem, max_states: int, lgt_star, lter_star, budget: Optional[int]):
        super().__init__(problem, max_states, budget)
        # the bounds, and the caps the prune test compares explored
        # non-goal mass with, as pairs like the ledger's cached bounds
        self.lgt_star = lgt_star.as_integer_ratio()
        self.lter_star = None if lter_star is None else lter_star.as_integer_ratio()
        self.lgt_cap = _sub(_P1, self.lgt_star)
        self.lter_cap = None if lter_star is None else _sub(_P1, self.lter_star)
        self.ledger = SearchLedger()
        self.retries = problem.retry_laws
        # the cuts (module docstring) read the gap 1 - v(s) of each state
        # below 1; without them no state has one
        self.gaps = problem.goal_gaps if self.cuts else {}

    def _snapshot(self):
        return self.ledger.snapshot()

    def _restore(self, snap) -> None:
        self.ledger.restore(snap)

    def _retreat(self, q: int, s: int) -> None:
        cumulate_alpha(self.ledger)

    def _exhausted(self) -> str:
        # the last record was judged on the final bounds, which sum to one and so give a verdict
        raise LedgerError("exploration exhausted without a termination verdict")

    def _commit(self, cp: _Choice) -> Optional[str]:
        # a commit that leaves the branch undecided may close the controller
        verdict = super()._commit(cp)
        return self._settle() if verdict is None else verdict

    def _settle(self) -> Optional[str]:
        """Judge the committed pairs by the graph of the combined states
        they reach from (0, s0): None where the graph meets an undefined
        pair, ``"fail"`` where it holds no goal stop (LGT = 0),
        ``"controller"`` where every node reaches one (LGT = LTER = 1), and
        None otherwise (module docstring)."""
        controller, omega, goals, laws = self.controller, self.omega, self.goals, self.laws
        root = (0, self.problem.initial_state)
        preds = {root: []}  # every node reached so far, with its predecessors
        stack, stops = [root], []
        while stack:
            node = stack.pop()
            q, s = node
            tr = controller.get((q, omega[s]))
            if tr is None:
                return None
            a, q2 = tr
            if a == STOP:
                if s in goals:
                    stops.append(node)
                continue
            for s2, _ in laws.get((s, a), ()):
                succ = (q2, s2)
                if succ in preds:
                    preds[succ].append(node)
                else:
                    preds[succ] = [node]
                    stack.append(succ)
        if not stops:
            return "fail"
        # backward from the goal stops: does every node reach one?
        return "controller" if len(reaching(stops, preds)) == len(preds) else None

    # -- OR step ----------------------------------------------------------

    def _or_step(self, q: int, s: int, p) -> Optional[str]:
        """Process one combined-state visit."""
        ledger = self.ledger
        gap = self.gaps.get(s)
        if gap == _P1 and self.lter_star is None:
            # v(s) = 0 under LGT* alone: a lost state, never extended, so never on the branch
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
        if gap is not None:
            # at least a share 1 - v(s) of this visit's mass misses the goal
            missed = _mul(_mul(ledger.prefix[-1], p), gap)
            if _cmp(_add(_add(ledger.acc_fail[-1], ledger.acc_noter[-1]), missed), self.lgt_cap) > 0:
                return "fail"
        return self._visit(q, s, p)

    def _execute(self, q: int, s: int, p, tr) -> Optional[str]:
        """Act on a defined transition from combined state (q, s)."""
        a, q2 = tr
        ledger = self.ledger
        if a == STOP:
            if s in self.goals:
                ledger.record_goal(p)
            else:
                ledger.record_fail(p)
            return self._evaluate()
        # a step that keeps the controller state walks its law with the retries summed
        law = (self.retries if q2 == q else self.laws).get((s, a))
        if not law:
            # an inapplicable action is stuck, a law of retries alone
            # retries forever: either way execution never terminates
            ledger.record_noter(p)
            return self._evaluate()
        ledger.extend(q, s, p)
        self._descend(q, s, q2, law, len(ledger))
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
    goal, fail nor non-termination), and it judges no branch.  It makes
    neither cut and never computes the goal bound, so every reachable
    history is explored."""

    cuts = False

    def __init__(self, problem: PlanningProblem, controller: Controller):
        # the bounds are never read: ``_evaluate`` judges nothing
        super().__init__(problem, controller.num_states, 0, None, None)
        self.controller = dict(controller.transitions)

    def _visit(self, q: int, s: int, p) -> Optional[str]:
        # an undefined pair opens nothing, so no candidate list is built for it
        tr = self.controller.get((q, self.omega[s]))
        return None if tr is None else self._execute(q, s, p, tr)

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

    Explores every history of the system that loops at most once, a
    self-loop (a step that keeps both the controller state and the
    environment state) being summed into its step law rather than walked
    as a revisit, and returns ``calc_lambda``'s final vector, once it has
    been compared with the ledger's cached bounds.  For a controller
    defined on every reachable (q, o) pair, goal0/fail0/noter0 sum to one
    and goal0 equals the exact goal-termination likelihood; mass reaching
    undefined pairs is left out of all three bounds.  A transition naming
    an action or observation the environment lacks raises ``ModelError``.
    """
    controller.check_indices(problem.environment)
    search = _Measure(problem, controller)
    search.run()
    lam = calc_lambda(search.ledger)
    _check_cache(search.ledger, lam)
    return lam
