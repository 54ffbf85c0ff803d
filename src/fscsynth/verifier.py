"""Exact verification of a (problem, controller) pair.

The combined system ``(controller state, environment state)`` is a finite
Markov chain.  Goal termination likelihood (LGT) and termination
likelihood (LTER) are absorption probabilities of that chain into the
goal-stop and either-stop sinks, computed exactly by Gaussian elimination
on integer rows.  This module is the independent ground truth against
which both search engines are tested, and imports nothing from them.

Cost note: the elimination is sparse and exact.  It stores only nonzero
entries and eliminates each row against the finished rows its nonzeros
(and their fill-in) reach, so it costs about m * w^2 integer operations
for m transient combined states whose rows reach w columns back after
fill-in: linear in m on the banded chains of corridor walks, cubic only
on a dense chain.  Rows are scaled to integers by the lcm of their step
denominators and kept small by the gcd of their entries; ``Fraction``s
appear only in the results.  ``tests/helpers.py`` keeps the dense solve
as the reference it is tested against.
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


def _solve_absorption(chain: CombinedChain) -> tuple[dict, dict, dict]:
    """Absorption probabilities into each sink, per node.

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
    pos = {i: k for k, i in enumerate(transient)} | {s: s for s in (GOAL_SINK, FAIL_SINK, UNDEF_SINK)}

    # (I - Q) x - b = 0 for the three sinks at once, by row-wise
    # elimination that touches only stored nonzeros.  A row is an integer
    # dict over (I - Q | -b): node columns are >= 0, the sink constants
    # key -b.  Row r is reduced against the finished rows of its node
    # columns below r, smallest first, as row <- P_c * row - f * U_c over
    # the gcd of its entries; fill-in below r joins the heap as it appears.
    # No pivoting: I - Q on the nodes that can terminate is a nonsingular
    # M-matrix, so every leading block is too and each rational pivot is
    # positive; scaling by positive integers keeps each row a positive
    # multiple of the rational one.  Finished row r keeps its pivot P_r and
    # its nonzero columns above r and sinks, U_r.
    upper: list[tuple[int, dict[int, int]]] = []
    for r, i in enumerate(transient):
        out = chain.transitions[i]
        scale = lcm(*[p.denominator for _, p in out])
        row = {r: scale}
        for target, p in out:
            c = pos.get(target)
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
    return tuple({i: values[x[r]][k] for r, i in enumerate(transient)} for k in range(3))  # type: ignore[return-value]


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
