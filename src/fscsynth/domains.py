"""Built-in benchmark domains and the textual environment/controller formats.

Domains come in two groups: three small regression environments (a
one-shot coin flip, a decaying retry loop, and a three-state cycle whose
loops conspire to never terminate) and the corridor family (hall walks in
one and two dimensions, optionally with noisy movement, plus the bridge
walk where every optimal controller has goal likelihood strictly below
one).

Probabilities in the text format are exact: ``1/2`` and ``0.5`` both
parse to the same rational.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, Mapping, Optional

from fscsynth.model import (
    Controller,
    Environment,
    ModelError,
    PlanningProblem,
    STOP,
    STOP_NAME,
    as_prob,
)


class DomainError(ValueError):
    """Unknown domain name or out-of-range parameter."""


class ParseError(ValueError):
    """Parse failure with line/column location (0 means end of input)."""

    def __init__(self, line: int, col: int, message: str):
        self.line = line
        self.col = col
        self.message = message
        super().__init__(f"line {line}, col {col}: {message}")


# ---------------------------------------------------------------------------
# builders


def _coin_flip() -> PlanningProblem:
    env = Environment.from_tables(
        states=("s0", "goal", "nogoal"),
        actions=("flip",),
        observations=("start", "won", "lost"),
        omega={"s0": "start", "goal": "won", "nogoal": "lost"},
        delta={("s0", "flip"): {"goal": Fraction(1, 2), "nogoal": Fraction(1, 2)}},
    )
    return PlanningProblem(env, env.state_index("s0"), frozenset({env.state_index("goal")}))


def _decay_loop() -> PlanningProblem:
    env = Environment.from_tables(
        states=("s0", "goal"),
        actions=("no-op", "flip"),
        observations=("start", "won"),
        omega={"s0": "start", "goal": "won"},
        delta={
            ("s0", "no-op"): {"s0": Fraction(1)},
            ("s0", "flip"): {"s0": Fraction(1, 2), "goal": Fraction(1, 2)},
        },
    )
    return PlanningProblem(env, env.state_index("s0"), frozenset({env.state_index("goal")}))


def _three_state() -> PlanningProblem:
    env = Environment.from_tables(
        states=("s0", "s1", "s2"),
        actions=("a",),
        observations=("x",),
        omega={"s0": "x", "s1": "x", "s2": "x"},
        delta={
            ("s0", "a"): {"s1": Fraction(1)},
            ("s1", "a"): {"s2": Fraction(1)},
            ("s2", "a"): {"s0": Fraction(1, 2), "s1": Fraction(1, 2)},
        },
    )
    return PlanningProblem(env, env.state_index("s0"), frozenset())


def _hall_cell(c: int, seen: int) -> str:
    return f"c{c}v" if seen else f"c{c}"


def _hall_a_1d(n: int, p: Optional[Fraction]) -> PlanningProblem:
    """Corridor of n cells: start at A (cell 0), visit B (last cell), return.

    The environment state carries a visited-B bit invisible to the
    observation function.  Deterministic variant: moving against a wall
    is inapplicable.  Noisy variant (p given): a move succeeds with
    probability p and leaves the state unchanged otherwise; moving
    against a wall always leaves it unchanged.
    """
    states = [_hall_cell(c, seen) for seen in (0, 1) for c in range(n)]
    omega = {}
    for seen in (0, 1):
        for c in range(n):
            name = _hall_cell(c, seen)
            omega[name] = "A" if c == 0 else ("B" if c == n - 1 else "-")
    delta = {}
    stay = None if p is None else 1 - p
    for seen in (0, 1):
        for c in range(n):
            src = _hall_cell(c, seen)
            for action, c2 in (("right", c + 1), ("left", c - 1)):
                if 0 <= c2 < n:
                    tgt = _hall_cell(c2, seen or int(c2 == n - 1))
                    if p is None:
                        delta[(src, action)] = {tgt: Fraction(1)}
                    else:
                        delta[(src, action)] = {src: stay, tgt: p}
                elif p is not None:
                    delta[(src, action)] = {src: Fraction(1)}
    env = Environment.from_tables(states, ("right", "left"), ("A", "B", "-"), omega, delta)
    return PlanningProblem(
        env, env.state_index(_hall_cell(0, 0)), frozenset({env.state_index(_hall_cell(0, 1))})
    )


def _bridgewalk(n: int, p_fall: Fraction) -> PlanningProblem:
    """Walk n slippery segments; each step falls off with probability
    p_fall into a dead end.  Optimal controllers have LGT (1-p_fall)^n."""
    states = [f"b{i}" for i in range(n + 1)] + ["fallen"]
    omega = {"b0": "start", f"b{n}": "end", "fallen": "fallen"}
    for i in range(1, n):
        omega[f"b{i}"] = "mid"
    delta = {}
    step = 1 - p_fall
    for i in range(n):
        delta[(f"b{i}", "walk")] = {f"b{i + 1}": step, "fallen": p_fall}
    env = Environment.from_tables(
        states, ("walk",), ("start", "mid", "end", "fallen"), omega, delta
    )
    return PlanningProblem(env, env.state_index("b0"), frozenset({env.state_index(f"b{n}")}))


def _hall_a_2d(n: int, p: Optional[Fraction]) -> PlanningProblem:
    """Perimeter corridor of an n x n hall: tour all four corners and
    return to the start corner.  The state tracks the set of corners
    visited; corner cells other than the start share one observation.
    This 2-D layout is a documented approximation of the cited corridor
    family (only its 1-D variant has a published figure)."""
    per = 4 * (n - 1)
    corners = {k * (n - 1): k for k in range(4)}

    def name(pos: int, mask: int) -> str:
        return f"p{pos}m{mask}"

    states = [name(pos, mask) for pos in range(per) for mask in range(16)]
    omega = {}
    for pos in range(per):
        obs = "A" if pos == 0 else ("C" if pos in corners else "-")
        for mask in range(16):
            omega[name(pos, mask)] = obs
    delta = {}
    stay = None if p is None else 1 - p
    for pos in range(per):
        for mask in range(16):
            src = name(pos, mask)
            for action, step in (("cw", 1), ("ccw", -1)):
                pos2 = (pos + step) % per
                mask2 = mask | (1 << corners[pos2]) if pos2 in corners else mask
                tgt = name(pos2, mask2)
                if p is None:
                    delta[(src, action)] = {tgt: Fraction(1)}
                else:
                    delta[(src, action)] = {src: stay, tgt: p}
    env = Environment.from_tables(states, ("cw", "ccw"), ("A", "C", "-"), omega, delta)
    return PlanningProblem(env, env.state_index(name(0, 1)), frozenset({env.state_index(name(0, 15))}))


def _read_param(name: str, value) -> Fraction:
    try:
        return as_prob(value)
    except ModelError as exc:
        raise DomainError(f"parameter {name}: {exc}") from None


def _check_int(name: str, value, low: int) -> int:
    n = _read_param(name, value)
    if n.denominator != 1 or n < low:
        raise DomainError(f"parameter {name} must be an integer >= {low}, got {value!r}")
    return int(n)


def _check_prob(name: str, value) -> Fraction:
    p = _read_param(name, value)
    if not 0 < p < 1:
        raise DomainError(f"parameter {name} must lie strictly inside (0, 1), got {value!r}")
    return p


#: name -> builder; a builder's keyword parameters are the domain's
_BUILDERS: dict[str, Callable[..., PlanningProblem]] = {
    "coin-flip": _coin_flip,
    "decay-loop": _decay_loop,
    "three-state": _three_state,
    "hall-a-1d": lambda n=5: _hall_a_1d(_check_int("n", n, 2), None),
    "noisy-hall-a-1d": lambda n=4, p=Fraction(1, 2): _hall_a_1d(_check_int("n", n, 2), _check_prob("p", p)),
    "hall-a-2d": lambda n=3: _hall_a_2d(_check_int("n", n, 2), None),
    "noisy-hall-a-2d": lambda n=3, p=Fraction(1, 2): _hall_a_2d(_check_int("n", n, 2), _check_prob("p", p)),
    "bridgewalk": lambda n=5, p_fall=Fraction(1, 10): _bridgewalk(
        _check_int("n", n, 1), _check_prob("p_fall", p_fall)
    ),
}


def domain_names() -> tuple[str, ...]:
    return tuple(_BUILDERS)


def build(name: str, params: Optional[Mapping[str, object]] = None) -> PlanningProblem:
    """Instantiate a built-in domain; unknown names/parameters raise."""
    if name not in _BUILDERS:
        raise DomainError(f"unknown domain {name!r} (available: {', '.join(sorted(_BUILDERS))})")
    builder = _BUILDERS[name]
    params = dict(params or {})
    for key in params:
        if key not in builder.__code__.co_varnames[:builder.__code__.co_argcount]:
            raise DomainError(f"domain {name!r} takes no parameter {key!r}")
    return builder(**params)


# ---------------------------------------------------------------------------
# environment text format


def _error(lineno: int, line: str, index: int, message: str) -> ParseError:
    """A ParseError located at the index-th token of a line.

    Columns are only worked out here: the parsers tokenise with
    ``str.split``, which finds the same tokens as ``\\S+``."""
    code = line.split("#", 1)[0]
    col = [m.start() + 1 for m in re.finditer(r"\S+", code)][index]
    return ParseError(lineno, col, message)


def _probability(tok: str, lineno: int, line: str, index: int) -> Fraction:
    try:
        p = as_prob(tok)
    except ModelError:
        raise _error(lineno, line, index, f"invalid probability {tok!r}") from None
    if p <= 0:
        raise _error(lineno, line, index, f"probability must be positive, got {tok}")
    return p


def parse_env(text: str) -> PlanningProblem:
    """Parse the line-oriented environment format.

    Grammar (one declaration per line, ``#`` starts a comment)::

        states <id>+
        actions <id>+
        observations <id>+
        observe <state> <obs>        # one per state
        init <state>
        goal <state>*
        trans <state> <action> (<prob> <state>)+   # probs sum to 1

    A line costs a dict lookup per token, and ``lookup`` and ``_error`` run
    only to report its first fault.  Each distinct probability token is
    converted and checked once, and each distinct tuple of them summed once.
    A text is checked once, here: every invariant ``Environment`` checks is
    checked above, so the environment is built by ``Environment._checked``.
    """
    states: dict[str, int] = {}
    actions: dict[str, int] = {}
    observations: dict[str, int] = {}
    omega: dict[int, int] = {}
    delta: dict[tuple[int, int], tuple] = {}
    init: Optional[int] = None
    goals: set[int] = set()
    probs: dict[str, Fraction] = {}
    summed: set[tuple[str, ...]] = set()
    listed_on: dict[int, int] = {}  # state -> the last line that listed it as a successor

    def declare(table, toks, lineno, line, kind):
        for index in range(1, len(toks)):
            tok = toks[index]
            if tok in table:
                raise _error(lineno, line, index, f"duplicate {kind} {tok!r}")
            table[tok] = len(table)

    def lookup(table, toks, index, lineno, line, kind):
        found = table.get(toks[index])
        if found is None:
            raise _error(lineno, line, index, f"dangling identifier: unknown {kind} {toks[index]!r}")
        return found

    probs_get, states_get, listed_on_get = probs.get, states.get, listed_on.get  # the per-token lookups
    for lineno, line in enumerate(text.splitlines(), start=1):
        toks = line.split("#", 1)[0].split() if "#" in line else line.split()
        if not toks:
            continue
        head = toks[0]
        if head == "trans":
            n = len(toks)
            if n < 5 or n % 2 == 0:
                raise _error(lineno, line, 0, "trans takes <state> <action> (<prob> <state>)+")
            s = states_get(toks[1])
            a = actions.get(toks[2])
            if s is None or a is None:
                lookup(states, toks, 1, lineno, line, "state")
                lookup(actions, toks, 2, lineno, line, "action")
            sa = (s, a)
            if sa in delta:
                raise _error(lineno, line, 1, f"transition ({toks[1]}, {toks[2]}) declared twice")
            entries = []
            for i in range(3, n, 2):
                p = probs_get(toks[i])
                if p is None:
                    p = probs[toks[i]] = _probability(toks[i], lineno, line, i)
                s2 = states_get(toks[i + 1])
                if s2 is None:
                    lookup(states, toks, i + 1, lineno, line, "state")
                if listed_on_get(s2) == lineno:
                    raise _error(lineno, line, i + 1, f"successor {toks[i + 1]!r} listed twice")
                listed_on[s2] = lineno
                entries.append((s2, p))
            key = tuple(toks[3::2])
            if key not in summed:
                total = sum((p for _, p in entries), Fraction(0))
                if total != 1:
                    raise _error(lineno, line, 0, f"probabilities sum to {total}, not 1")
                summed.add(key)
            delta[sa] = tuple(entries)
        elif head == "observe":
            if len(toks) != 3:
                raise _error(lineno, line, 0, "observe takes exactly <state> <obs>")
            s = states_get(toks[1])
            o = observations.get(toks[2])
            if s is None or o is None:
                lookup(states, toks, 1, lineno, line, "state")
                lookup(observations, toks, 2, lineno, line, "observation")
            if s in omega:
                raise _error(lineno, line, 1, f"state {toks[1]!r} observed twice")
            omega[s] = o
        elif head == "states":
            declare(states, toks, lineno, line, "state")
        elif head == "actions":
            if STOP_NAME in toks[1:]:
                raise _error(lineno, line, toks.index(STOP_NAME, 1), f"{STOP_NAME!r} cannot name an action")
            declare(actions, toks, lineno, line, "action")
        elif head == "observations":
            declare(observations, toks, lineno, line, "observation")
        elif head == "init":
            if len(toks) != 2:
                raise _error(lineno, line, 0, "init takes exactly one state")
            if init is not None:
                raise _error(lineno, line, 0, "init declared twice")
            init = lookup(states, toks, 1, lineno, line, "state")
        elif head == "goal":
            for index in range(1, len(toks)):
                goals.add(lookup(states, toks, index, lineno, line, "state"))
        else:
            raise _error(lineno, line, 0, f"unknown declaration {head!r}")

    if len(omega) < len(states):
        s = next(s for s, i in states.items() if i not in omega)
        raise ParseError(0, 0, f"state {s!r} has no observation")
    if init is None:
        raise ParseError(0, 0, "missing init declaration")
    env = Environment._checked(
        tuple(states),
        tuple(actions),
        tuple(observations),
        delta,
        tuple([omega[i] for i in range(len(states))]),
    )
    return PlanningProblem(env, init, frozenset(goals))


def serialize_env(problem: PlanningProblem) -> str:
    """Canonical text for a problem; reparsing yields an equal problem."""
    env = problem.environment
    lines = [
        "states " + " ".join(env.states),
        "actions " + " ".join(env.actions),
        "observations " + " ".join(env.observations),
    ]
    for i, name in enumerate(env.states):
        lines.append(f"observe {name} {env.observations[env.omega[i]]}")
    lines.append(f"init {env.states[problem.initial_state]}")
    if problem.goal_states:
        lines.append("goal " + " ".join(env.states[g] for g in sorted(problem.goal_states)))
    for (s, a) in sorted(env.delta):
        parts = [f"trans {env.states[s]} {env.actions[a]}"]
        for s2, p in env.delta[(s, a)]:
            parts.append(f"{p} {env.states[s2]}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# controller text format


def _is_index(tok: str) -> bool:
    """ASCII digits only: ``str.isdigit`` also accepts ``"²"``, which
    ``int`` rejects."""
    return tok.isascii() and tok.isdigit()


def parse_controller(text: str, env: Environment) -> Controller:
    """Parse ``states N / start 0 / edge <q> <obs> <action|stop> <q'>``."""
    num_states: Optional[int] = None
    transitions: dict[tuple[int, int], tuple[int, int]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        toks = line.split("#", 1)[0].split() if "#" in line else line.split()
        if not toks:
            continue
        head = toks[0]
        if head == "states":
            if len(toks) != 2 or not _is_index(toks[1]):
                raise _error(lineno, line, 0, "states takes one integer")
            if num_states is not None:
                raise _error(lineno, line, 0, "states declared twice")
            num_states = int(toks[1])
        elif head == "start":
            if len(toks) != 2 or toks[1] != "0":
                raise _error(lineno, line, 0, "start state must be 0")
        elif head == "edge":
            if len(toks) != 5:
                raise _error(lineno, line, 0, "edge takes <q> <obs> <action|stop> <q'>")
            _, qtok, otok, atok, q2tok = toks
            if not _is_index(qtok) or not _is_index(q2tok):
                raise _error(lineno, line, 1, "controller states are integers")
            q, q2 = int(qtok), int(q2tok)
            if otok not in env.observations:
                raise _error(lineno, line, 2, f"dangling identifier: unknown observation {otok!r}")
            o = env.observation_index(otok)
            if atok == STOP_NAME:
                a = STOP
            elif atok in env.actions:
                a = env.action_index(atok)
            else:
                raise _error(lineno, line, 3, f"dangling identifier: unknown action {atok!r}")
            if (q, o) in transitions:
                raise _error(lineno, line, 1, f"edge ({q}, {otok}) declared twice")
            transitions[(q, o)] = (a, q2)
        else:
            raise _error(lineno, line, 0, f"unknown declaration {head!r}")
    if num_states is None:
        raise ParseError(0, 0, "missing states declaration")
    try:
        return Controller(num_states, transitions)
    except ModelError as exc:
        raise ParseError(0, 0, str(exc))


def serialize_controller(controller: Controller, env: Environment) -> str:
    lines = [f"states {controller.num_states}", "start 0"]
    for (q, o), (a, q2) in sorted(controller.transitions.items()):
        action = STOP_NAME if a == STOP else env.actions[a]
        lines.append(f"edge {q} {env.observations[o]} {action} {q2}")
    return "\n".join(lines) + "\n"
