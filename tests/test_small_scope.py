"""Small-scope oracle: every problem of a small scope, searched and checked
against brute force (Jackson's small-scope hypothesis; Andoni, Daniliuc,
Khurshid & Marinov, *Evaluating the "small scope hypothesis"*, 2002).

A scope fixes the number of states and actions and the split
probabilities.  Its problems start at state 0 and range over every
observation map (as a set partition of the states, observations numbered
by first state), every goal set and every transition table whose laws are
each absent, a point mass or a two-way split.  Each problem is searched
for N = 1 and 2 and four requests, and checked both ways against
``helpers.enumerate_controllers`` plus ``exact_measures``: a returned
controller meets its bounds exactly, and ``failure-proved`` comes exactly
where no enumerated controller qualifies.  Scope 2 runs under pytest;
all three run standalone, one line each::

    PYTHONPATH=src python tests/test_small_scope.py [SCOPE ...]
"""

import itertools
import sys
import time
from fractions import Fraction as F

from fscsynth.model import Environment, PlanningProblem, SynthesisRequest
from fscsynth.pandor import pandor_synth
from fscsynth.verifier import exact_measures

from helpers import enumerate_controllers

#: scope -> (states, actions, the first successor's share of each split)
SCOPES = {
    1: (2, 2, (F(1, 2),)),
    2: (3, 1, (F(1, 2),)),
    3: (2, 2, (F(1, 3), F(1, 2), F(2, 3))),
}
#: (LGT*, LTER*) of each search
REQUESTS = ((F(1, 4), None), (F(1, 2), None), (F(3, 4), None), (F(1, 2), F(9, 10)))
BOUNDS = (1, 2)
BUDGET = 100_000


def _partitions(n: int):
    """Every observation map of ``n`` states: restricted growth strings."""
    def grow(prefix):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for o in range(max(prefix, default=-1) + 2):
            yield from grow(prefix + [o])

    return grow([])


def _laws(n_states: int, splits):
    """Every law of a scope: absent (None), a point mass, or a two-way split."""
    one = F(1)
    laws = [None] + [((s2, one),) for s2 in range(n_states)]
    for s2, s3 in itertools.combinations(range(n_states), 2):
        laws += [((s2, p), (s3, one - p)) for p in splits]
    return laws


def problems(scope: int):
    """Every problem of ``scope``."""
    n_states, n_actions, splits = SCOPES[scope]
    states = tuple(f"s{i}" for i in range(n_states))
    actions = tuple(f"a{i}" for i in range(n_actions))
    keys = [(s, a) for s in range(n_states) for a in range(n_actions)]
    tables = [
        {key: law for key, law in zip(keys, choice) if law is not None}
        for choice in itertools.product(_laws(n_states, splits), repeat=len(keys))
    ]
    goal_sets = [frozenset(s for s in range(n_states) if mask >> s & 1) for mask in range(1 << n_states)]
    for omega in _partitions(n_states):
        observations = tuple(f"o{i}" for i in range(max(omega) + 1))
        for delta in tables:
            env = Environment(states, actions, observations, delta, omega)
            for goals in goal_sets:
                yield PlanningProblem(env, 0, goals)


def check(problem: PlanningProblem) -> tuple[int, list]:
    """Search ``problem`` for every bound and request; the number of
    searches, and a description of each that disagrees with brute force."""
    # the N = 1 controllers are the N = 2 ones that use state 0 alone
    vectors = {1: set(), 2: set()}
    for controller in enumerate_controllers(problem, max(BOUNDS)):
        m = exact_measures(problem, controller)
        for n in BOUNDS:
            if controller.num_states <= n:
                vectors[n].add((m.lgt, m.lter))
    searches, mismatches = 0, []
    for n in BOUNDS:
        for lgt_star, lter_star in REQUESTS:
            result = pandor_synth(SynthesisRequest(problem, n, lgt_star, lter_star), budget=BUDGET)
            searches += 1
            exists = any(lgt >= lgt_star and (lter_star is None or lter >= lter_star) for lgt, lter in vectors[n])
            ok = result.outcome == ("controller" if exists else "failure-proved")
            if ok and exists:
                m = exact_measures(problem, result.controller)
                ok = m.lgt >= lgt_star and (lter_star is None or m.lter >= lter_star)
            if not ok:
                mismatches.append((problem, n, lgt_star, lter_star, result.outcome))
    return searches, mismatches


def run_scope(scope: int) -> tuple[int, int, list]:
    """Problems, searches and mismatches of ``scope``."""
    count, searches, mismatches = 0, 0, []
    for problem in problems(scope):
        count += 1
        done, missed = check(problem)
        searches += done
        mismatches += missed
    return count, searches, mismatches


def test_scope_2_agrees_with_brute_force():
    # 3 states, 1 action, splits 1/2: 343 tables, 5 observation maps and
    # 8 goal sets.  The goal-bound cut written with >= in place of > fails
    # 196 of its searches, where scope 1 and the rest of tier-1 pass
    count, searches, mismatches = run_scope(2)
    assert (count, searches) == (13_720, 109_760)
    assert mismatches == []


if __name__ == "__main__":
    failed = False
    for scope in [int(arg) for arg in sys.argv[1:]] or sorted(SCOPES):
        start = time.perf_counter()
        count, searches, mismatches = run_scope(scope)
        failed = failed or bool(mismatches)
        print(
            f"SCOPE {scope} {SCOPES[scope][:2]}: {count} problems, {searches} searches, "
            f"{len(mismatches)} mismatches [{time.perf_counter() - start:.1f}s]"
        )
        for mismatch in mismatches[:5]:
            print("  ", mismatch)
    sys.exit(1 if failed else 0)
