"""Core formal objects: environments, problems, controllers.

Identifiers (states, actions, observations) are interned to dense integer
indices at construction time; the search layers only ever touch indices.
Probabilities are exact ``fractions.Fraction`` values so that every
correctness statement in the test suite can be checked with ``==``.

All types here are immutable after construction (the dicts they carry are
never mutated) and safe to share across threads.  A derived fact cached
on first use, such as ``PlanningProblem.lost_states`` or its step laws as
integer pairs, is the same value whichever thread computes it.  An index
must be an ``int`` proper: ``True`` would pass as state or action 1.
"""

from __future__ import annotations

import re
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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

#: The largest decimal exponent ``as_prob`` reads: ``1e-1000`` has a 3 322-bit
#: denominator, while ``1e-1000000`` would take 0.3 s to build 3.3 M bits.
MAX_EXPONENT = 1000


class ModelError(ValueError):
    """A model object violates one of its construction invariants."""


def as_prob(value: ProbLike) -> Fraction:
    """Coerce ints, strings like ``1/2``, ``0.5`` or ``1e-3``, and floats
    whose binary value is exactly their printed decimal (``0.5``, not
    ``0.1``) to a Fraction; anything else, a bool included, raises
    ModelError.  The package reads every number from outside through here."""
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

    def state_index(self, name: str) -> int:
        return self.states.index(name)

    def action_index(self, name: str) -> int:
        return self.actions.index(name)

    def observation_index(self, name: str) -> int:
        return self.observations.index(name)

    def obs(self, s: int) -> int:
        """Observation index of state ``s``."""
        return self.omega[s]

    def dist(self, s: int, a: int):
        """Successor distribution of applicable ``(s, a)``, else None."""
        return self.delta.get((s, a))

    @classmethod
    def from_tables(
        cls,
        states: Sequence[str],
        actions: Sequence[str],
        observations: Sequence[str],
        omega: Mapping[str, str],
        delta: Mapping[tuple[str, str], Mapping[str, ProbLike]],
    ) -> "Environment":
        """Build from name-keyed tables; mainly used by domains and tests."""
        states = tuple(states)
        actions = tuple(actions)
        observations = tuple(observations)
        try:
            s_idx = {name: i for i, name in enumerate(states)}
            a_idx = {name: i for i, name in enumerate(actions)}
            o_idx = {name: i for i, name in enumerate(observations)}
        except TypeError:
            # the identifier check in __post_init__ runs after this lookup
            raise ModelError("identifiers must be strings, not unhashable values") from None
        try:
            omega_t = tuple(o_idx[omega[name]] for name in states)
        except KeyError as exc:
            raise ModelError(f"omega references unknown identifier {exc}") from exc
        delta_t = {}
        for (s, a), dist in delta.items():
            if s not in s_idx or a not in a_idx:
                raise ModelError(f"delta references unknown identifier ({s!r}, {a!r})")
            entries = []
            for s2, p in dist.items():
                if s2 not in s_idx:
                    raise ModelError(f"delta({s},{a}) references unknown state {s2!r}")
                entries.append((s_idx[s2], as_prob(p)))
            delta_t[(s_idx[s], a_idx[a])] = tuple(entries)
        return cls(states, actions, observations, delta_t, omega_t)


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

    def is_goal(self, s: int) -> bool:
        return s in self.goal_states

    @cached_property
    def lost_states(self) -> frozenset[int]:
        """States with no path to a goal in the support graph under any
        action (the Prob0 states of probabilistic model checking): one
        backward pass over the transition table, made once per problem."""
        env = self.environment
        preds: list[list[int]] = [[] for _ in env.states]
        for (s, _), dist in env.delta.items():
            for s2, _ in dist:
                preds[s2].append(s)
        reaches = [False] * len(env.states)
        stack = list(self.goal_states)
        for s in stack:
            reaches[s] = True
        while stack:
            for s in preds[stack.pop()]:
                if not reaches[s]:
                    reaches[s] = True
                    stack.append(s)
        return frozenset(s for s, r in enumerate(reaches) if not r)

    @cached_property
    def pair_laws(self) -> dict:
        """Each step law as ``(s2, (numerator, denominator))`` pairs, last
        successor first, as the search pushes them onto its agenda."""
        delta = self.environment.delta
        return {key: tuple([(s2, p.as_integer_ratio()) for s2, p in reversed(law)]) for key, law in delta.items()}

    @cached_property
    def offers(self) -> tuple:
        """Per observation, ``(action, applicable at some state)`` for every
        action a choice point offers: only the first stuck one stays."""
        env = self.environment
        actions = range(len(env.actions))
        live = {(env.obs(s), a) for s, a in self.pair_laws}
        offers = []
        for o in range(len(env.observations)):
            first_stuck = next((a for a in actions if (o, a) not in live), None)
            offers.append(tuple([(a, (o, a) in live) for a in actions if (o, a) in live or a == first_stuck]))
        return tuple(offers)


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
        if not 0 < self.lgt_star < 1:
            raise ModelError("lgt_star must lie strictly inside (0, 1)")
        if self.lter_star is not None and not 0 < self.lter_star < 1:
            raise ModelError("lter_star must lie strictly inside (0, 1)")


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
