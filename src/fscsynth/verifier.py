"""Exact verification of a (problem, controller) pair.

The combined system ``(controller state, environment state)`` is a finite
Markov chain.  Goal termination likelihood (LGT) and termination
likelihood (LTER) are absorption probabilities of that chain into the
goal-stop and either-stop sinks, computed with exact Gaussian elimination
over rationals.  This module is the independent ground truth against
which both search engines are tested.

Cost note: the solve is dense cubic in the number of transient combined
states, which is the right trade at desk scale (up to ~10^4 nodes);
nothing here is sparse or iterative on purpose.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from fscsynth.model import Branch, Controller, PlanningProblem, Stop, Undefined, system_step

#: Sink pseudo-indices used in CombinedChain transition targets.
GOAL_SINK = -1
FAIL_SINK = -2
UNDEF_SINK = -3


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
    """

    nodes: tuple[tuple[int, int], ...]
    transitions: tuple[tuple[tuple[int, Fraction], ...], ...]
    root: int = 0


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
    """Explore the combined state space reachable from (q0, s0)."""
    root = (controller.initial_cstate, problem.initial_state)
    index = {root: 0}
    nodes = [root]
    transitions = []
    i = 0
    while i < len(nodes):
        q, s = nodes[i]
        step = system_step(problem, controller, q, s)
        if isinstance(step, Stop):
            sink = GOAL_SINK if problem.is_goal(s) else FAIL_SINK
            transitions.append(((sink, Fraction(1)),))
        elif isinstance(step, Undefined):
            transitions.append(((UNDEF_SINK, Fraction(1)),))
        elif isinstance(step, Branch):
            out = []
            for s2, p in step.successors:
                node = (step.next_cstate, s2)
                j = index.get(node)
                if j is None:
                    j = len(nodes)
                    index[node] = j
                    nodes.append(node)
                out.append((j, p))
            transitions.append(tuple(out))
        else:
            raise ChainError(f"system step of type {type(step).__name__} at node {i}")
        i += 1
    if not nodes:
        raise ChainError("combined chain has no reachable nodes")
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
    x = _gauss_solve(a, b)
    out = tuple({i: x[pos[i]][k] for i in transient} for k in range(3))
    return out  # type: ignore[return-value]


def _gauss_solve(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
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


def exact_measures(problem: PlanningProblem, controller: Controller) -> Measures:
    """Exact LGT, LTER, non-termination and undefined mass of the system.

    Partial controllers are legal inputs: mass hitting an undefined
    (q, o) pair is reported separately in ``undefined_mass`` and a
    soundness verdict should only be drawn when that mass is zero.
    """
    chain = build_chain(problem, controller)
    goal, fail, undef = _solve_absorption(chain)
    root = chain.root
    lgt = goal.get(root, Fraction(0))
    lter = lgt + fail.get(root, Fraction(0))
    undefined_mass = undef.get(root, Fraction(0))
    nonterm = 1 - lter - undefined_mass
    return Measures(lgt, lter, nonterm, undefined_mass)


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
    goal_mass = Fraction(0)
    live = {(controller.initial_cstate, problem.initial_state): Fraction(1)}

    def absorb(frontier):
        nonlocal goal_mass
        running = {}
        for (q, s), mass in frontier.items():
            step = system_step(problem, controller, q, s)
            if isinstance(step, Stop):
                if problem.is_goal(s):
                    goal_mass += mass
                # fail-stop mass can never become goal mass: drop
            elif isinstance(step, Undefined):
                pass  # same: permanently non-goal
            elif not step.successors:
                pass  # stuck: permanently non-goal
            else:
                running[(q, s)] = (mass, step)
        return running

    running = absorb(live)
    for _ in range(depth):
        frontier = {}
        for (q, s), (mass, step) in running.items():
            for s2, p in step.successors:
                key = (step.next_cstate, s2)
                frontier[key] = frontier.get(key, Fraction(0)) + mass * p
        running = absorb(frontier)
    live_mass = sum((mass for mass, _ in running.values()), Fraction(0))
    return (goal_mass, goal_mass + live_mass)
