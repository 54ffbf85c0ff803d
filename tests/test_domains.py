import random
from fractions import Fraction as F

import pytest

from fscsynth.domains import (
    DomainError,
    ParseError,
    build,
    domain_names,
    parse_controller,
    parse_env,
    serialize_controller,
    serialize_env,
)
from fscsynth.model import Controller, Environment, STOP
from fscsynth.verifier import exact_measures

from helpers import controller_from_names, corridor_controller, enumerate_controllers, random_env


def test_coin_flip_shape():
    prob = build("coin-flip")
    env = prob.environment
    assert len(env.states) == 3
    assert env.actions == ("flip",)
    best = max(exact_measures(prob, c).lgt for c in enumerate_controllers(prob, 1))
    assert best == F(1, 2)


def test_decay_loop_has_both_loop_kinds():
    env = build("decay-loop").environment
    s0 = env.state_index("s0")
    assert dict(env.dist(s0, env.action_index("no-op"))) == {s0: F(1)}
    flip = dict(env.dist(s0, env.action_index("flip")))
    assert flip == {s0: F(1, 2), env.state_index("goal"): F(1, 2)}


def test_three_state_is_unobservable_with_empty_goal_set():
    prob = build("three-state")
    assert prob.goal_states == frozenset()
    assert len(set(prob.environment.omega)) == 1


def test_corridor_layout():
    prob = build("hall-a-1d", {"n": 5})
    env = prob.environment
    fresh_obs = [env.observations[env.obs(env.state_index(f"c{i}"))] for i in range(5)]
    assert fresh_obs == ["A", "-", "-", "-", "B"]
    # three middle cells between the lettered ends
    assert fresh_obs.count("-") == 3
    # boundary moves are inapplicable in the deterministic corridor
    assert env.dist(env.state_index("c0"), env.action_index("left")) is None
    assert env.dist(env.state_index("c4v"), env.action_index("right")) is None


def test_noisy_corridor_moves_succeed_half_the_time():
    prob = build("noisy-hall-a-1d", {"n": 4})
    env = prob.environment
    c1 = env.state_index("c1")
    dist = dict(env.dist(c1, env.action_index("right")))
    assert dist == {c1: F(1, 2), env.state_index("c2"): F(1, 2)}
    # moving against the wall never changes the state
    c0 = env.state_index("c0")
    assert dict(env.dist(c0, env.action_index("left"))) == {c0: F(1)}


def test_bridgewalk_structure_and_optimum():
    prob = build("bridgewalk", {"n": 3, "p_fall": F(1, 10)})
    env = prob.environment
    dist = dict(env.dist(env.state_index("b0"), env.action_index("walk")))
    assert dist == {env.state_index("b1"): F(9, 10), env.state_index("fallen"): F(1, 10)}
    walker = controller_from_names(env, 1, {
        (0, "start"): ("walk", 0), (0, "mid"): ("walk", 0), (0, "end"): ("stop", 0),
    })
    assert exact_measures(prob, walker).lgt == F(9, 10) ** 3
    assert env.dist(env.state_index("fallen"), env.action_index("walk")) is None


def test_perimeter_hall_shape():
    prob = build("hall-a-2d", {"n": 3})
    env = prob.environment
    assert env.actions == ("cw", "ccw")
    assert env.states[prob.initial_state] == "p0m1"
    assert {env.states[g] for g in prob.goal_states} == {"p0m15"}
    # the ring makes every move applicable everywhere
    for s in range(len(env.states)):
        assert all((s, a) in env.delta for a in (0, 1))


@pytest.mark.parametrize("name", sorted(domain_names()))
def test_all_domains_build_with_defaults(name):
    prob = build(name, {})
    assert prob.environment.states


@pytest.mark.parametrize(
    "name,grid",
    [
        ("hall-a-1d", [{"n": n} for n in range(2, 7)]),
        ("noisy-hall-a-1d", [{"n": n, "p": p} for n in (2, 3, 4) for p in (F(1, 4), F(1, 2), F(9, 10))]),
        ("bridgewalk", [{"n": n, "p_fall": F(1, 10)} for n in range(1, 7)]),
        ("hall-a-2d", [{"n": n} for n in (2, 3, 4)]),
    ],
)
def test_parameter_grids_validate(name, grid):
    for params in grid:
        build(name, params)  # Environment invariants checked on construction


def test_parameter_validation_errors():
    with pytest.raises(DomainError):
        build("nope")
    with pytest.raises(DomainError):
        build("hall-a-1d", {"n": 1})
    with pytest.raises(DomainError):
        build("noisy-hall-a-1d", {"p": F(0)})
    with pytest.raises(DomainError):
        build("noisy-hall-a-1d", {"p": F(1)})
    with pytest.raises(DomainError):
        build("bridgewalk", {"p_fall": "7/5"})
    with pytest.raises(DomainError):
        build("coin-flip", {"n": 3})
    with pytest.raises(DomainError):
        build("hall-a-1d", {"n": "x"})
    with pytest.raises(DomainError):
        build("noisy-hall-a-1d", {"p": 0.1})  # not exactly 1/10 in binary
    with pytest.raises(DomainError):
        build("noisy-hall-a-1d", {"p": "abc"})
    with pytest.raises(DomainError, match="rational"):
        build("bridgewalk", {"n": True})  # a bool is no number: it would build n = 1


@pytest.mark.parametrize("name, key", [
    ("bridgewalk", "n"),
    ("hall-a-1d", "n"),
    ("hall-a-2d", "n"),
    ("noisy-hall-a-1d", "n"),
    ("noisy-hall-a-2d", "n"),
])
def test_integer_parameters_reject_non_integral_values(name, key):
    with pytest.raises(DomainError, match="integer"):
        build(name, {key: F(5, 2)})  # int() would truncate it to 2


def test_domain_spec_builds():
    prob = build("bridgewalk", {"n": 2, "p_fall": F(1, 4)})
    assert len(prob.environment.states) == 4


COIN_FLIP_TEXT = """\
# one coin flip, then the game is over
states s0 goal nogoal
actions flip
observations start won lost
observe s0 start
observe goal won
observe nogoal lost
init s0
goal goal
trans s0 flip 1/2 goal 1/2 nogoal
"""


def test_parse_env_matches_builder():
    assert parse_env(COIN_FLIP_TEXT) == build("coin-flip")


def test_decimal_probabilities_are_exact():
    text = COIN_FLIP_TEXT.replace("1/2 goal 1/2 nogoal", "0.5 goal 0.5 nogoal")
    assert parse_env(text) == build("coin-flip")


@pytest.mark.parametrize("name, params", [pytest.param(name, {}, id=name) for name in sorted(domain_names())] + [
    # benchmark-sized texts: thousands of trans and observe lines
    pytest.param("noisy-hall-a-2d", {"n": 12, "p": F(37, 101)}, id="noisy-hall-a-2d-n12"),
    pytest.param("noisy-hall-a-1d", {"n": 120, "p": F(2, 5)}, id="noisy-hall-a-1d-n120"),
    pytest.param("bridgewalk", {"n": 60, "p_fall": F(23, 71)}, id="bridgewalk-n60"),
])
def test_serialize_round_trip(name, params):
    prob = build(name, params)
    text = serialize_env(prob)
    again = parse_env(text)
    assert again == prob
    assert serialize_env(again) == text


def test_probability_sum_error():
    bad = COIN_FLIP_TEXT.replace("1/2 goal 1/2 nogoal", "1/2 goal 2/5 nogoal")
    with pytest.raises(ParseError) as err:
        parse_env(bad)
    assert "sum" in str(err.value)
    assert err.value.line == 10


def test_dangling_identifier_error():
    bad = COIN_FLIP_TEXT.replace("observe s0 start", "observe s9 start")
    with pytest.raises(ParseError) as err:
        parse_env(bad)
    assert "dangling identifier" in str(err.value)
    assert err.value.line == 5 and err.value.col == 9


TWO_FLIPS_TEXT = """\
states s0 s1 goal
actions flip
observations x won
observe s0 x
observe s1 x
observe goal won
init s0
goal goal
trans s0 flip 1/2 s1 1/2 goal
trans s1 flip 1/2 s0 1/2 gaol
"""


@pytest.mark.parametrize("text,line,col,message", [
    (COIN_FLIP_TEXT.replace("1/2 nogoal", "1/x nogoal"), 10, 24, "invalid probability '1/x'"),
    # Python 3.11+ would read it as 10/10
    (COIN_FLIP_TEXT.replace("1/2 nogoal", "1_0/1_0 nogoal"), 10, 24, "invalid probability '1_0/1_0'"),
    (COIN_FLIP_TEXT.replace("1/2 goal 1/2", "0 goal 1"), 10, 15, "probability must be positive, got 0"),
    (COIN_FLIP_TEXT.replace("1/2 goal 1/2", "-1/2 goal 3/2"), 10, 15, "probability must be positive, got -1/2"),
    (COIN_FLIP_TEXT.replace("1/2 nogoal", "2/5 nogoal"), 10, 1, "probabilities sum to 9/10, not 1"),
    # the line's probability tuple was checked on line 9: the successor still is
    (TWO_FLIPS_TEXT, 10, 26, "dangling identifier: unknown state 'gaol'"),
    (
        COIN_FLIP_TEXT.replace(
            "trans s0 flip 1/2 goal 1/2 nogoal", "\ttrans s0\tflip 1/2 goal\t1/2 nogal  # was: 1/3 nogoal"
        ),
        10, 29, "dangling identifier: unknown state 'nogal'",
    ),
    (COIN_FLIP_TEXT.replace("states s0 goal nogoal", "states s0 goal s0"), 2, 16, "duplicate state 's0'"),
    (COIN_FLIP_TEXT + "trans s0 flip 1/2\n", 11, 1, "trans takes <state> <action> (<prob> <state>)+"),
    (COIN_FLIP_TEXT + "trans s0 flip 1 goal 1\n", 11, 1, "trans takes <state> <action> (<prob> <state>)+"),
    (COIN_FLIP_TEXT + "trans s0 flip 1 goal\n", 11, 7, "transition (s0, flip) declared twice"),
    (COIN_FLIP_TEXT.replace("1/2 nogoal", "1/2 goal"), 10, 28, "successor 'goal' listed twice"),
    # the first fault of a line wins: a repeated successor before a bad probability ...
    (COIN_FLIP_TEXT.replace("1/2 goal 1/2 nogoal", "1/4 goal 1/4 goal 1/x nogoal"), 10, 28, "successor 'goal' listed twice"),
    # ... and a dangling successor before a repeated one
    (COIN_FLIP_TEXT.replace("1/2 goal 1/2 nogoal", "1/2 gaol 1/4 goal 1/4 goal"), 10, 19, "dangling identifier: unknown state 'gaol'"),
    (COIN_FLIP_TEXT.replace("1/2 goal 1/2 nogoal", "1/2 gaol 1/2 gaol"), 10, 19, "dangling identifier: unknown state 'gaol'"),
    (COIN_FLIP_TEXT.replace("observe s0 start", "observe s0 strat"), 5, 12, "dangling identifier: unknown observation 'strat'"),
    (COIN_FLIP_TEXT.replace("observe s0 start", "observe s9 strat"), 5, 9, "dangling identifier: unknown state 's9'"),
    (COIN_FLIP_TEXT.replace("trans s0 flip", "trans s0 flop"), 10, 10, "dangling identifier: unknown action 'flop'"),
    (COIN_FLIP_TEXT.replace("trans s0 flip", "trans s9 flop"), 10, 7, "dangling identifier: unknown state 's9'"),
    # above the cap, 1e-1000000 took 0.3 s to read
    (COIN_FLIP_TEXT.replace("1/2 nogoal", "1e-1001 nogoal"), 10, 24, "invalid probability '1e-1001'"),
    (COIN_FLIP_TEXT.replace("observe goal won", "observe goal"), 6, 1, "observe takes exactly <state> <obs>"),
    (COIN_FLIP_TEXT.replace("init s0", "init s0 goal"), 8, 1, "init takes exactly one state"),
    (COIN_FLIP_TEXT + "init goal\n", 11, 1, "init declared twice"),
    (COIN_FLIP_TEXT.replace("observe nogoal lost\n", ""), 0, 0, "state 'nogoal' has no observation"),
    # a controller file would read this action back as the stop action
    (COIN_FLIP_TEXT.replace("actions flip", "actions flip stop"), 3, 14, "'stop' cannot name an action"),
])
def test_parse_error_position(text, line, col, message):
    with pytest.raises(ParseError) as err:
        parse_env(text)
    assert (err.value.line, err.value.col, err.value.message) == (line, col, message)


# tokens a mutation may put into a text besides the text's own: faults the
# parser must catch, and declarations that start a new line's meaning
_MUTANT_TOKENS = (
    "stop", "0", "-1/2", "1/0", "2", "1e-1001", "0.5", "1_0", "1/3", "#",
    "states", "actions", "observations", "observe", "init", "goal", "trans",
)


def _mutate(rng: random.Random, text: str) -> str:
    """Replace, insert or delete one token, or repeat one line."""
    lines = [line.split() for line in text.splitlines()]
    vocabulary = sorted({tok for toks in lines for tok in toks}) + list(_MUTANT_TOKENS)
    toks = lines[rng.randrange(len(lines))]
    kind = rng.randrange(4)
    if kind == 0 and toks:
        toks[rng.randrange(len(toks))] = rng.choice(vocabulary)
    elif kind == 1:
        toks.insert(rng.randrange(len(toks) + 1), rng.choice(vocabulary))
    elif kind == 2 and toks:
        del toks[rng.randrange(len(toks))]
    else:
        lines.insert(rng.randrange(len(lines) + 1), list(toks))
    return "\n".join(" ".join(toks) for toks in lines) + "\n"


def test_parse_env_accepts_only_what_the_environment_constructor_accepts():
    # parse_env builds its Environment without the constructor's checks, so
    # every text it accepts must pass them when rebuilt through the public
    # constructor; anything else must raise ParseError and nothing but it
    rng = random.Random(23)
    texts = [serialize_env(build(name)) for name in domain_names()]
    texts += [serialize_env(random_env(rng, rng.randint(1, 6), partial=True)) for _ in range(200)]
    inputs = texts + [_mutate(rng, rng.choice(texts)) for _ in range(20_000)]
    accepted = 0
    for text in inputs:
        try:
            env = parse_env(text).environment
        except ParseError:
            continue
        accepted += 1
        assert Environment(env.states, env.actions, env.observations, env.delta, env.omega) == env
    assert len(texts) <= accepted < len(inputs)


def test_unknown_directive_and_bad_probability():
    with pytest.raises(ParseError):
        parse_env(COIN_FLIP_TEXT + "frobnicate s0\n")
    with pytest.raises(ParseError):
        parse_env(COIN_FLIP_TEXT.replace("1/2 goal", "q goal"))
    with pytest.raises(ParseError):
        parse_env(COIN_FLIP_TEXT.replace("init s0\n", ""))
    with pytest.raises(ParseError):
        parse_env(COIN_FLIP_TEXT + "observe s0 won\n")


def test_controller_round_trip():
    prob = build("hall-a-1d", {"n": 5})
    ctrl = corridor_controller(prob.environment)
    text = serialize_controller(ctrl, prob.environment)
    again = parse_controller(text, prob.environment)
    assert again == ctrl
    assert serialize_controller(again, prob.environment) == text


def test_controller_parse_errors():
    env = build("hall-a-1d", {"n": 3}).environment
    with pytest.raises(ParseError):
        parse_controller("start 0\nedge 0 A right 0\n", env)  # missing states
    with pytest.raises(ParseError):
        parse_controller("states 1\nstart 0\nedge 0 Z right 0\n", env)
    with pytest.raises(ParseError):
        parse_controller("states 1\nstart 0\nedge 0 A teleport 0\n", env)
    with pytest.raises(ParseError):
        parse_controller("states 1\nstart 1\n", env)
    with pytest.raises(ParseError):
        parse_controller("states 1\nstart 0\nedge 0 A right 3\n", env)
    with pytest.raises(ParseError, match="edge takes"):
        parse_controller("states 1\nstart 0\nedge 0 A right\n", env)
    with pytest.raises(ParseError, match="declared twice"):
        parse_controller("states 1\nstart 0\nedge 0 A right 0\nedge 0 A left 0\n", env)
    with pytest.raises(ParseError, match="unknown declaration 'initial'"):
        parse_controller("states 1\ninitial 0\n", env)
    with pytest.raises(ParseError, match="states declared twice") as err:
        parse_controller("states 1\nstart 0\nstates 2\n", env)
    assert (err.value.line, err.value.col) == (3, 1)
    # blank and comment-only lines are skipped
    assert parse_controller("states 1\n\n   \n# no edges yet\nstart 0\n", env) == Controller(1, {})


@pytest.mark.parametrize("text,line,col,message", [
    ("states \u00b2\nstart 0\n", 1, 1, "states takes one integer"),
    ("states 1\nstart 0\nedge \u00b2 A right 0\n", 3, 6, "controller states are integers"),
    ("states 1\nstart 0\nedge 0 A right \u0663\n", 3, 6, "controller states are integers"),
])
def test_controller_states_are_ascii_digits(text, line, col, message):
    # str.isdigit() holds for "²" (which int() rejects) and for "٣"
    env = build("hall-a-1d", {"n": 3}).environment
    with pytest.raises(ParseError) as err:
        parse_controller(text, env)
    assert (err.value.line, err.value.col, err.value.message) == (line, col, message)
