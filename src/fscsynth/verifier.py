"""Exact verification of a (problem, controller) pair.

The combined system ``(controller state, environment state)`` is a finite
Markov chain.  Goal termination likelihood (LGT) and termination
likelihood (LTER) are absorption probabilities of that chain into the
goal-stop and either-stop sinks, computed exactly: by graph passes where
a node can reach one outcome only, by Gaussian elimination on integer rows
elsewhere.  This module is the independent ground truth against
which both search engines are tested, and imports nothing from them.

Cost note: graph passes come first and settle, with no arithmetic, every
node that can reach one outcome only: one backward pass per sink that a
row enters, and one from the leaks (nodes that reach no sink, and rows
that are not stochastic, checked once per distinct tuple of probability
objects).  Such a node reaches its sink with probability 1
(``_solve_absorption``), so on a chain where LGT is 1 at every node, as
on every controller the search's settle returns, nothing is left to
solve.  The elimination then runs only on the nodes left, those
that can reach two outcomes or a leak.  It is sparse and exact: it
stores only nonzero entries and eliminates each row against the finished
rows its nonzeros (and their fill-in) reach, so it costs about m * w^2
integer operations for m rows left whose nonzeros reach w columns back
after fill-in: linear in m on the banded chains of corridor walks, cubic
only on a dense chain.  Rows are scaled to integers by the lcm of their
step denominators and kept small by the gcd of their entries;
``Fraction``s appear only in the results.  ``tests/helpers.py`` keeps
the dense solve, which settles nothing by graph, as the reference it is
tested against.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from fscsynth.model import Controller, PlanningProblem, STOP

#: Sink pseudo-indices used in CombinedChain transition targets.
GOAL_SINK = -1
FAIL_SINK = -2
UNDEF_SINK = -3

_ONE = Fraction(1)
_ZERO = Fraction(0)

# a bit per sink for the sinks a node can reach, and the sink of each lone bit
_BIT = {GOAL_SINK: 1, FAIL_SINK: 2, UNDEF_SINK: 4}
_SURE = {bit: sink for sink, bit in _BIT.items()}
# the (goal, fail, undefined) absorption of a node sure to reach each sink
_UNIT = {GOAL_SINK: (_ONE, _ZERO, _ZERO), FAIL_SINK: (_ZERO, _ONE, _ZERO), UNDEF_SINK: (_ZERO, _ZERO, _ONE)}


class ChainError(ValueError):
    """Structural error while building or solving the combined chain."""


@dataclass(frozen=True)
class CombinedChain:
    """Reachable combined states plus their one-step transition law.

    ``transitions[i]`` lists ``(target, probability)`` pairs where target
    is either another node index or one of the three sink constants.  A
    node executing ``stop`` routes all mass to GOAL_SINK or FAIL_SINK; an
    undefined (q, o) pair routes to UNDEF_SINK; a node whose action is
    inapplicable has no outgoing edges at all (its mass never terminates).
    Node 0 is the initial combined state ``(0, s0)``.
    """

    nodes: tuple[tuple[int, int], ...]
    transitions: tuple[tuple[tuple[int, Fraction], ...], ...]


@dataclass(frozen=True)
class Measures:
    """Exact likelihood measures of a combined system."""

    lgt: Fraction
    lter: Fraction
    nonterm: Fraction
    undefined_mass: Fraction

    @property
    def fail(self) -> Fraction:
        """Mass of terminating histories that end outside the goal set."""
        return self.lter - self.lgt


def build_chain(problem: PlanningProblem, controller: Controller) -> CombinedChain:
    """Explore the combined state space reachable from (0, s0)."""
    env = problem.environment
    omega, law, goals, edge = env.omega, env.delta.get, problem.goal_states, controller.transitions.get
    root = (0, problem.initial_state)
    index = {root: 0}
    nodes = [root]
    transitions = []
    for q, s in nodes:  # breadth-first: nodes grows while it is walked
        tr = edge((q, omega[s]))
        if tr is None:
            transitions.append(((UNDEF_SINK, _ONE),))
            continue
        a, q2 = tr
        if a == STOP:
            transitions.append(((GOAL_SINK if s in goals else FAIL_SINK, _ONE),))
            continue
        out = []
        for s2, p in law((s, a)) or ():
            node = (q2, s2)
            j = index.get(node)
            if j is None:
                j = index[node] = len(nodes)
                nodes.append(node)
            out.append((j, p))
        transitions.append(tuple(out))
    return CombinedChain(tuple(nodes), tuple(transitions))


def _is_stochastic(out) -> bool:
    """Whether a row's probabilities are all positive and sum to 1, on integers."""
    scale = lcm(*[p.denominator for _, p in out])
    scaled = [p.numerator * (scale // p.denominator) for _, p in out]
    return all(v > 0 for v in scaled) and sum(scaled) == scale


def _solve_absorption(chain: CombinedChain) -> tuple[dict, dict, dict]:
    """Absorption probabilities into each sink, per node that can reach one.

    Nodes with no path to any sink form non-terminating recurrent classes
    (or dead ends); they are left out, which keeps I - P nonsingular on
    the remaining transient block.

    Graph passes settle every node that can reach one outcome only, as the
    Prob1 precomputation of probabilistic model checking does (Baier &
    Katoen, *Principles of Model Checking*, 2008, section 10.1).  A *leak*
    is a node that reaches no sink, or one whose row is not stochastic:
    some probability is <= 0 or the row does not sum to 1.  A node that
    can reach sink k, no other sink and no leak is *sure* for k, and it
    reaches k with probability 1.  The nodes it can reach are sure for k
    too, so their rows are stochastic and enter only k and one another.
    From each of these m nodes some path of at most m steps enters k, with
    probability at least p^m > 0 for p the least probability on their rows.
    So the mass not absorbed after t * m steps is at most (1 - p^m)^t,
    which tends to 0, and all of the mass ends in k.  A sure node enters
    the other rows as the constant of its sink's column, and only those
    rows, of the nodes that can reach two outcomes or a leak, are
    eliminated.
    """
    n = len(chain.nodes)
    transitions = chain.transitions
    preds = [[] for _ in range(n)]
    entries = {GOAL_SINK: [], FAIL_SINK: [], UNDEF_SINK: []}  # the nodes whose row enters each sink
    for i, out in enumerate(transitions):
        for target, _ in out:
            if target < 0:
                entries[target].append(i)
            else:
                preds[target].append(i)
    # reach[i] holds a bit per sink node i can reach
    reach = [0] * n
    for sink, stack in entries.items():
        bit = _BIT[sink]
        while stack:
            i = stack.pop()
            if not reach[i] & bit:
                reach[i] |= bit
                stack.extend(preds[i])
    # column[i] is node i's row among those left to solve, its sink's column
    # where it is sure, or None where it cannot terminate; the sinks' own
    # columns end the list, so that column[target] reads any target.  A node
    # that reaches one sink is sure once its row is stochastic, checked once
    # per tuple of probability objects (the chain keeps them alive, so their
    # ids are keys); then the leaks walk back and move every sure node they
    # reach to the rows to solve.  Those are numbered in node order: a sure
    # row is zero off the sure columns, so on a chain that is not a Markov
    # chain a zero pivot still comes exactly where solving every row meets one.
    column: list = [None] * n + [UNDEF_SINK, FAIL_SINK, GOAL_SINK]
    transient, leaks = [], []
    p_goal, p_fail, p_undef = {}, {}, {}
    stochastic: dict[tuple, bool] = {}
    for i, bits in enumerate(reach):
        if not bits:
            leaks.append(i)
            continue
        sink = _SURE.get(bits)
        if sink is not None:
            out = transitions[i]
            key = tuple([id(p) for _, p in out])
            ok = stochastic.get(key)
            if ok is None:
                ok = stochastic[key] = _is_stochastic(out)
            if ok:
                column[i] = sink
                p_goal[i], p_fail[i], p_undef[i] = _UNIT[sink]
                continue
            leaks.append(i)
        transient.append(i)
    while leaks:
        for j in preds[leaks.pop()]:
            c = column[j]
            if c is not None and c < 0:
                column[j] = None
                transient.append(j)
                leaks.append(j)
    transient.sort()
    for r, i in enumerate(transient):
        column[i] = r

    # (I - Q) x - b = 0 for the three sinks at once, by row-wise
    # elimination that touches only stored nonzeros.  A row is an integer
    # dict over (I - Q | -b): node columns are >= 0, the sink constants
    # key -b.  Row r is reduced against the finished rows of its node
    # columns below r, smallest first, as row <- P_c * row - f * U_c over
    # the gcd of its entries; fill-in below r joins the heap as it appears.
    # No pivoting: I - Q on the nodes that can terminate is a nonsingular
    # M-matrix, so its block on the rows left and every leading block of
    # that are too, and each rational pivot is positive; scaling by
    # positive integers keeps each row a positive multiple of the rational
    # one.  Finished row r keeps its pivot P_r and its nonzero columns
    # above r and sinks, U_r.
    upper: list[tuple[int, dict[int, int]]] = []
    for r, i in enumerate(transient):
        out = transitions[i]
        scale = lcm(*[p.denominator for _, p in out])
        row = {r: scale}
        for target, p in out:
            c = column[target]
            if c is not None:  # mass into non-terminating nodes is lost to the sinks
                row[c] = row.get(c, 0) - p.numerator * (scale // p.denominator)
        below = [c for c in row if 0 <= c < r]
        heapq.heapify(below)
        while below:
            c = heapq.heappop(below)
            f = row.pop(c)
            if not f:
                continue
            pc, uc = upper[c]
            if pc != 1:
                row = {col: v * pc for col, v in row.items()}
            for col, v in uc.items():
                if col in row:
                    row[col] -= f * v
                else:
                    row[col] = -f * v
                    if 0 <= col < r:
                        heapq.heappush(below, col)
            g = gcd(*row.values())
            if g > 1:
                row = {col: v // g for col, v in row.items()}
        pivot = row.pop(r)
        if not pivot:
            raise ChainError("singular system in absorbing-chain analysis")
        upper.append((pivot, {col: v for col, v in row.items() if v}))

    # back-substitution, x[r] = -(U_r . x) / P_r with each sink's unit
    # vector at its (negative) index of x: x[r] is a denominator and the
    # goal, fail and undefined numerators, in lowest terms
    x = [(1, 0, 0, 0)] * len(upper) + [(1, 0, 0, 1), (1, 0, 1, 0), (1, 1, 0, 0)]
    for r in range(len(upper) - 1, -1, -1):
        pivot, ur = upper[r]
        den = lcm(*[x[col][0] for col in ur])
        goal = fail = undef = 0
        for col, v in ur.items():
            d, xg, xf, xu = x[col]
            v *= den // d
            goal -= v * xg
            fail -= v * xf
            undef -= v * xu
        den *= pivot
        g = gcd(den, goal, fail, undef)
        x[r] = (den // g, goal // g, fail // g, undef // g)
    values = {xr: [Fraction(v, xr[0]) for v in xr[1:]] for xr in set(x[: len(upper)])}
    for r, i in enumerate(transient):
        p_goal[i], p_fail[i], p_undef[i] = values[x[r]]
    return p_goal, p_fail, p_undef


def exact_measures(problem: PlanningProblem, controller: Controller) -> Measures:
    """Exact LGT, LTER, non-termination and undefined mass of the system.

    Partial controllers are legal inputs: mass hitting an undefined
    (q, o) pair is reported separately in ``undefined_mass`` and a
    soundness verdict should only be drawn when that mass is zero.  A
    transition naming an action or observation the environment lacks
    raises ``ModelError``.
    """
    controller.check_indices(problem.environment)
    chain = build_chain(problem, controller)
    goal, fail, undef = _solve_absorption(chain)
    lgt = goal.get(0, Fraction(0))
    lter = lgt + fail.get(0, Fraction(0))
    undefined_mass = undef.get(0, Fraction(0))
    nonterm = 1 - lter - undefined_mass
    return Measures(lgt, lter, nonterm, undefined_mass)
