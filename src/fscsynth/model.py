"""Core formal objects: environments, problems, controllers.

An environment names its states, actions and observations once and keys
its tables by their dense integer indices; the search layers only ever
touch indices.
Probabilities are exact ``fractions.Fraction`` values so that every
correctness statement in the test suite can be checked with ``==``.

All types here are immutable after construction (the dicts they carry are
never mutated) and safe to share across threads.  Readers index the
tables as they stand (``omega[s]``, ``delta.get((s, a))``, ``s in
goal_states``).  A derived fact cached on first use, such as a
problem's step laws as integer pairs, with or without retries, or its
goal bound, is the same value whichever thread computes it.  An index
must be an ``int`` proper: ``True`` would pass as state or action 1.

The search counts in reduced integer pairs ``(numerator, denominator)``
with a positive denominator, zero as ``(0, 1)``: ``pair_laws`` and
``retry_laws`` hold the step laws as such pairs, and ``_add``, ``_sub``,
``_mul``, ``_div`` and ``_cmp`` do the arithmetic on them, for the
search's ledger too.

``PlanningProblem.goal_bound`` bounds, per state, the goal likelihood of
every controller from there by the fully observable optimum U(s).  Its
values are reduced integer pairs, and they carry their own certificate:
each is 0 at a lost state, one from which no action sequence reaches a
goal, 1, or at least sum P * v under every law of its state, checked on
integers; its zeros are exactly the lost states.  Such a v is a
pre-fixed point of the Bellman operator of maximal goal reachability, so
it bounds U, its least fixed point, from above (Knaster-Tarski).  Floats
only propose the values; a proposal that fails the check is raised to 1.
Nothing builds the bound until a search first reads it.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import ceil, gcd, lcm
from typing import Optional, Union

#: Distinguished terminal action. A controller transition whose action is
#: STOP halts execution; the successor controller state of such an edge is
#: kept as given but ignored.
STOP = -1

#: Name used for STOP in every textual surface (files, DOT, reports).
STOP_NAME = "stop"

ProbLike = Union[Fraction, int, float, str]

#: Python 3.10's ``Fraction`` string grammar on ASCII digits, so that every
#: supported Python reads a number alike (3.11+ also read ``1_0``, 3.12+ ``1 / 2``).
#: Group 1 is the decimal exponent's magnitude without leading zeros.
_RATIONAL = re.compile(r"\s*[-+]?(?=[0-9]|\.[0-9])[0-9]*(?:/[0-9]+|(?:\.[0-9]*)?(?:[eE][-+]?0*([0-9]+))?)\s*")

#: ``PlanningProblem.goal_bound`` raises each float value by at most this
#: much, then certifies the result exactly.
GOAL_BOUND_EPS = 2.0 ** -30
#: The most value-iteration sweeps the bound's float proposal makes.
GOAL_BOUND_SWEEPS = 1000

#: The largest decimal exponent ``as_prob`` reads: ``1e-1000`` has a 3 322-bit
#: denominator, while ``1e-1000000`` would take 0.3 s to build 3.3 M bits.
MAX_EXPONENT = 1000


class ModelError(ValueError):
    """A model object violates one of its construction invariants."""


def as_prob(value: ProbLike) -> Fraction:
    """Coerce ints, strings like ``1/2``, ``0.5`` or ``1e-3``, and floats
    whose binary value is exactly their printed decimal (``0.5``, not
    ``0.1``) to a Fraction; anything else, a bool included, raises
    ModelError.  The package reads every number from outside through here,
    but for a controller file's state count and indices: ASCII digits only."""
    if isinstance(value, Fraction):
        return value
    match = isinstance(value, str) and _RATIONAL.fullmatch(value)
    if match and match[1] and (len(match[1]) > len(str(MAX_EXPONENT)) or int(match[1]) > MAX_EXPONENT):
        raise ModelError(f"expected a rational with a decimal exponent of at most {MAX_EXPONENT}, got {value!r}")
    try:
        if isinstance(value, bool) or isinstance(value, str) and not match:
            raise ValueError(value)
        exact = Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise ModelError(f"expected a rational like 9/10 or 0.9, got {value!r}") from None
    if isinstance(value, float) and exact != Fraction(repr(value)):
        raise ModelError(
            f"float {value!r} is not exactly {value!r} in binary; pass the string {repr(value)!r}"
        )
    return exact


def check_count(name: str, value, low: int) -> None:
    """Raise ModelError unless ``value`` is an int of at least ``low``:
    ``2.5``, ``Fraction(3, 2)``, ``"2"`` or ``True`` would pass a bare
    comparison and fail later inside a search, or run as 1."""
    if not isinstance(value, int) or isinstance(value, bool) or value < low:
        raise ModelError(f"{name} must be an integer of at least {low}, got {value!r}")


def check_bound(name: str, value: ProbLike) -> Fraction:
    """A likelihood bound read by ``as_prob``; ModelError unless it lies
    strictly inside (0, 1)."""
    bound = as_prob(value)
    if not 0 < bound < 1:
        raise ModelError(f"{name} must lie strictly inside (0, 1)")
    return bound


def reaching(targets, preds: Mapping) -> set:
    """``targets`` and every node with a path to one of them, in the graph
    whose edges ``preds`` maps backward: node -> its predecessors.  A node
    without a key has none."""
    reached = set(targets)
    stack = list(reached)
    while stack:
        for node in preds.get(stack.pop(), ()):
            if node not in reached:
                reached.add(node)
                stack.append(node)
    return reached


#: Zero and one as pairs.
_P0 = (0, 1)
_P1 = (1, 1)


def _add(a, b):
    """``a + b`` on reduced pairs; where one of them is zero, the other."""
    an, ad = a
    bn, bd = b
    if not an:
        return b
    if not bn:
        return a
    n = an * bd + bn * ad
    d = ad * bd
    g = gcd(n, d)
    return (n // g, d // g)


def _sub(a, b):
    """``a - b`` on reduced pairs."""
    return _add(a, (-b[0], b[1]))


def _mul(a, b):
    """``a * b`` on reduced pairs: cancelling each numerator against the
    other denominator leaves the product reduced, and zero ``(0, 1)``."""
    an, ad = a
    bn, bd = b
    g1 = gcd(an, bd)
    g2 = gcd(bn, ad)
    return ((an // g1) * (bn // g2), (ad // g2) * (bd // g1))


def _div(a, b):
    """``a / b`` on reduced pairs."""
    bn, bd = b
    if not bn:
        raise ZeroDivisionError("division of a pair by zero")
    return _mul(a, (bd, bn) if bn > 0 else (-bd, -bn))


def _cmp(a, b) -> int:
    """An int with the sign of ``a - b`` (denominators are positive)."""
    return a[0] * b[1] - b[0] * a[1]


def _propose(laws_at: list, rest: list, x: list) -> list:
    """``goal_bound``'s float proposal: Gauss-Seidel value iteration from
    below on the states ``rest``, in place on ``x``, until a sweep moves
    nothing or after ``GOAL_BOUND_SWEEPS`` sweeps."""
    floats = {s: [[(s2, pn / pd) for s2, (pn, pd) in law] for law in laws_at[s]] for s in rest}
    for sweep in range(GOAL_BOUND_SWEEPS):
        moved = False
        # alternate directions, so that values cross a chain in two sweeps
        for s in reversed(rest) if sweep % 2 else rest:
            best = max(sum([p * x[s2] for s2, p in law]) for law in floats[s])
            if best > x[s]:
                x[s], moved = best, True
        if not moved:
            break
    return x


@dataclass(frozen=True)
class Environment:
    """Finite stochastic environment.

    ``delta`` is a *partial* map: a missing ``(state, action)`` key means
    the action is inapplicable in that state.  ``omega`` is total: every
    state has exactly one observation, and distinct states may share one
    (that is the reason finite-state controllers are needed at all).

    The constructor checks every invariant.  A text is checked once, by
    ``domains.parse_env``, which then builds through ``_checked``.
    """

    states: tuple[str, ...]
    actions: tuple[str, ...]
    observations: tuple[str, ...]
    #: (state index, action index) -> ((successor index, probability), ...)
    delta: Mapping[tuple[int, int], tuple[tuple[int, Fraction], ...]]
    #: state index -> observation index
    omega: tuple[int, ...]

    def __post_init__(self):
        n_s, n_a, n_o = len(self.states), len(self.actions), len(self.observations)
        if n_s == 0 or n_o == 0:
            raise ModelError("environment needs at least one state and one observation")
        for name in (*self.states, *self.actions, *self.observations):
            # the text formats split on whitespace and cut comments at '#'
            if not isinstance(name, str) or name.split() != [name] or "#" in name:
                raise ModelError(f"identifier {name!r} must be a non-empty string without whitespace or '#'")
        if len(set(self.states)) != n_s or len(set(self.actions)) != n_a or len(set(self.observations)) != n_o:
            raise ModelError("duplicate identifier in state/action/observation sets")
        if STOP_NAME in self.actions:
            raise ModelError(f"action name {STOP_NAME!r} is reserved for the stop action")
        if len(self.omega) != n_s:
            raise ModelError("omega must be defined for every state")
        for o in self.omega:
            if type(o) is not int or not 0 <= o < n_o:
                raise ModelError(f"omega references unknown observation index {o!r}")
        if not isinstance(self.delta, Mapping):
            raise ModelError(f"delta {self.delta!r} is not a mapping from (state, action) pairs to laws")
        # many (state, action) pairs share one law, and its Fraction objects
        # with it: check and sum each distinct tuple of them once, keyed by
        # their ids.  Each keyed tuple is kept, so no id is reused meanwhile.
        summed = {}
        last_law = [-1] * n_s  # state -> the last law that listed it as a successor
        for law, (key, dist) in enumerate(self.delta.items()):
            try:
                s, a = key
            except (TypeError, ValueError):
                raise ModelError(f"delta key {key!r} is not a (state, action) pair") from None
            if not (type(s) is int and type(a) is int) or not 0 <= s < n_s or not 0 <= a < n_a:
                raise ModelError(f"delta references unknown state/action ({s!r}, {a!r})")
            # the law is read three times below, so a one-shot iterator is no law
            if not isinstance(dist, (tuple, list)):
                raise ModelError(f"delta({s},{a}) law {dist!r} is not a tuple or list of (successor, probability) pairs")
            ids = []
            for entry in dist:
                try:
                    s2, p = entry
                except (TypeError, ValueError):
                    raise ModelError(f"delta({s},{a}) entry {entry!r} is not a (successor, probability) pair") from None
                if type(s2) is not int or not 0 <= s2 < n_s:
                    raise ModelError(f"delta({s},{a}) references unknown successor {s2!r}")
                if last_law[s2] == law:
                    raise ModelError(f"delta({s},{a}) lists successor {s2} twice")
                last_law[s2] = law
                # an int or bool would pass every check below and reach the search as is
                if not isinstance(p, Fraction):
                    raise ModelError(f"delta({s},{a}) has a probability that is not rational as a Fraction: {p!r}")
                ids.append(id(p))
            ids = tuple(ids)
            if ids not in summed:
                for _, p in dist:
                    if p <= 0:
                        raise ModelError(f"delta({s},{a}) has non-positive probability {p}")
                total = sum((p for _, p in dist), Fraction(0))
                if total != 1:
                    raise ModelError(f"delta({s},{a}) sums to {total}, not 1")
                summed[ids] = tuple([p for _, p in dist])

    @classmethod
    def _checked(cls, states, actions, observations, delta, omega) -> "Environment":
        """Build without ``__post_init__``.  The caller must have checked:
        there is a state; identifiers are whitespace-split tokens without
        ``#``, distinct within each kind, and no action is named ``stop``;
        ``omega`` is total and in range; ``delta`` keys and successors are in
        range, and no law lists a successor twice; every probability is a
        positive ``Fraction``, and each law sums to exactly 1."""
        env = object.__new__(cls)
        for name, value in zip(cls.__dataclass_fields__, (states, actions, observations, delta, omega)):
            object.__setattr__(env, name, value)
        return env

    # -- index helpers -------------------------------------------------

    def action_index(self, name: str) -> int:
        return self.actions.index(name)

    def observation_index(self, name: str) -> int:
        return self.observations.index(name)


@dataclass(frozen=True)
class PlanningProblem:
    environment: Environment
    initial_state: int
    goal_states: frozenset[int]

    def __post_init__(self):
        n = len(self.environment.states)
        if type(self.initial_state) is not int or not 0 <= self.initial_state < n:
            raise ModelError("initial state outside the state set")
        if any(type(g) is not int or not 0 <= g < n for g in self.goal_states):
            raise ModelError("goal set references unknown state")

    @cached_property
    def goal_bound(self) -> tuple:
        """Per state s, a reduced pair v(s) >= U(s), the most goal mass any
        policy of the fully observable environment reaches from s, and so
        the most any controller does.  One fixed point of graph passes
        gives lost states 0 (Prob0, its first round) and states that some
        policy takes to a goal with probability 1 (Prob1E) 1.  Value
        iteration from below proposes floats for the rest, each raised by
        at most ``GOAL_BOUND_EPS``, so each is at least 2^-31.  Then one
        exact pass checks v(s) >= sum P * v for every law at every such
        state, raises each state that fails to 1 and runs again.  Any v
        that passes bounds U (Knaster-Tarski), so float error only loosens
        the bound."""
        laws_at: list[list] = [[] for _ in self.environment.states]
        for (s, _), law in self.pair_laws.items():
            laws_at[s].append(law)
        # Prob1E: shrink the state set to the states that reach a goal by
        # laws whose every successor stays in the set, until none leaves.
        # The first round keeps every law: what it reaches is the non-lost set
        sure, live = set(range(len(laws_at))), None
        while True:
            preds: dict[int, list[int]] = {}
            for s in sure:
                for law in laws_at[s]:
                    if all(s2 in sure for s2, _ in law):
                        for s2, _ in law:
                            preds.setdefault(s2, []).append(s)
            reach = reaching(self.goal_states, preds)
            live = reach if live is None else live
            if reach == sure:
                break
            sure = reach
        rest = [s for s in range(len(laws_at)) if s in live and s not in sure]
        # v(s) = num[s] / 2^40: rounding x + EPS / 2 up to that grid adds
        # less than 2^-40, so each value stays within EPS of its float
        scale = 1 << 40
        num = [scale if s in sure else 0 for s in range(len(laws_at))]
        if rest:
            x = _propose(laws_at, rest, [n / scale for n in num])
            for s in rest:
                # clamped to [0, 1], so that stopping, worth 0, passes too
                num[s] = min(scale, max(0, ceil((x[s] + GOAL_BOUND_EPS / 2) * scale)))
            checks = {
                s: [(lcm(*[pd for _, (_, pd) in law]), law) for law in laws_at[s]] for s in rest
            }
            raised = True
            while raised:
                raised = False
                for s in rest:
                    if num[s] < scale and any(
                        sum([pn * (den // pd) * num[s2] for s2, (pn, pd) in law]) > num[s] * den
                        for den, law in checks[s]
                    ):
                        num[s], raised = scale, True
        return tuple([(n // gcd(n, scale), scale // gcd(n, scale)) for n in num])

    @cached_property
    def goal_gaps(self) -> dict:
        """``goal_bound`` as the share of mass that misses a goal: for each
        state s with v(s) < 1, and no other, 1 - v(s) as a reduced pair."""
        return {s: _sub(_P1, v) for s, v in enumerate(self.goal_bound) if v != _P1}

    @cached_property
    def pair_laws(self) -> dict:
        """Each step law as ``(s2, (numerator, denominator))`` pairs, in ``delta`` order."""
        delta = self.environment.delta
        return {key: tuple([(s2, p.as_integer_ratio()) for s2, p in law]) for key, law in delta.items()}

    @cached_property
    def retry_laws(self) -> dict:
        """``pair_laws`` as a search walks them where the controller state
        stays: a law that lists its own state s loses that entry and has
        every other probability divided by 1 - p_stay, so that every retry
        at s is summed, or becomes ``()`` where p_stay is 1; any other law
        is kept as it is."""
        retries = {}
        for (s, a), law in self.pair_laws.items():
            stay = next((p for s2, p in law if s2 == s), None)
            if stay is not None:
                rest = _sub(_P1, stay)
                law = tuple([(s2, _div(p, rest)) for s2, p in law if s2 != s])
            retries[(s, a)] = law
        return retries

    @cached_property
    def offers(self) -> tuple:
        """Per observation, in index order, the actions a choice point
        offers: those applicable at some state with that observation.  A
        *stuck* action, applicable at none of them, is left out, since
        ``stop`` dominates it (``pandor``'s module docstring)."""
        env = self.environment
        applicable = {(env.omega[s], a) for s, a in self.pair_laws}
        actions = range(len(env.actions))
        return tuple([tuple([a for a in actions if (o, a) in applicable]) for o in range(len(env.observations))])


@dataclass(frozen=True)
class Controller:
    """Mealy-style finite-state controller with a partial joint map.

    ``transitions[(q, o)] = (a, q2)`` reads: in controller state ``q``,
    upon observation ``o``, do ``a`` and switch to ``q2``.  ``a == STOP``
    terminates execution and ``q2`` is ignored.  Execution starts in
    controller state 0.  Labeling and transition function share one
    domain by construction.
    """

    num_states: int
    transitions: Mapping[tuple[int, int], tuple[int, int]]

    def __post_init__(self):
        check_count("controller num_states", self.num_states, 1)
        if not isinstance(self.transitions, Mapping):
            raise ModelError(f"controller transitions {self.transitions!r} is not a mapping from (q, o) to (a, q2)")
        for key, value in self.transitions.items():
            try:
                (q, o), (a, q2) = key, value
            except (TypeError, ValueError):
                raise ModelError(f"controller transition {key!r} -> {value!r} is not a (q, o) -> (a, q2) pair") from None
            if not all(type(i) is int for i in (q, o, a, q2)):
                raise ModelError(f"controller transition ({q!r},{o!r}) -> ({a!r},{q2!r}) has a non-integer index")
            if not 0 <= q < self.num_states or not 0 <= q2 < self.num_states:
                raise ModelError(f"controller transition ({q},{o}) uses out-of-range state")
            if a != STOP and a < 0:
                raise ModelError(f"controller transition ({q},{o}) has invalid action {a}")

    def check_indices(self, env: Environment) -> None:
        """Raise ModelError if a transition names an observation or an
        action that ``env`` does not have: an unknown observation never
        matches and an unknown action has no successor law, so either would
        pass silently as undefined or never-terminating mass."""
        n_a, n_o = len(env.actions), len(env.observations)
        for (q, o), (a, q2) in self.transitions.items():
            if not 0 <= o < n_o:
                raise ModelError(
                    f"controller transition ({q},{o}) -> ({a},{q2}) uses observation index {o}; "
                    f"the environment has {n_o} observations"
                )
            if a != STOP and a >= n_a:
                raise ModelError(
                    f"controller transition ({q},{o}) -> ({a},{q2}) uses action index {a}; "
                    f"the environment has {n_a} actions"
                )


@dataclass(frozen=True)
class SynthesisRequest:
    """What to synthesize: problem, state bound, and likelihood bounds.

    ``lter_star`` is optional; when present the engine solves the
    two-bound problem (LGT and LTER simultaneously).  The two bounds are
    independent: neither must dominate the other.
    """

    problem: PlanningProblem
    max_states: int
    lgt_star: Fraction
    lter_star: Optional[Fraction] = None

    def __post_init__(self):
        object.__setattr__(self, "lgt_star", as_prob(self.lgt_star))
        if self.lter_star is not None:
            object.__setattr__(self, "lter_star", as_prob(self.lter_star))
        check_count("max_states", self.max_states, 1)
        check_bound("lgt_star", self.lgt_star)
        if self.lter_star is not None:
            check_bound("lter_star", self.lter_star)


@dataclass(frozen=True)
class SynthResult:
    """Outcome of a synthesis run.

    ``outcome`` is one of ``controller`` (success), ``failure-proved``
    (exhaustive search rejected every bounded controller), or
    ``budget-exhausted`` (inconclusive: the node budget ran out).
    """

    outcome: str
    controller: Optional[Controller]
    or_steps: int
    peak_depth: int
