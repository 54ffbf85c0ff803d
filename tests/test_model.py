import random
from collections.abc import Mapping
from fractions import Fraction as F
from math import gcd

import pytest

from fscsynth.model import (
    Controller,
    Environment,
    MAX_EXPONENT,
    ModelError,
    PlanningProblem,
    SynthesisRequest,
    as_prob,
)
from fscsynth.domains import build, domain_names
from fscsynth.verifier import FAIL_SINK, GOAL_SINK, UNDEF_SINK, build_chain

from helpers import controller_from_names, flip_stop_controller, from_tables, random_env, random_total_controller, stuck_pairs


@pytest.fixture
def coin():
    return build("coin-flip")


def _row_of(chain, node):
    return chain.transitions[chain.nodes.index(node)]


def test_chain_row_branch(coin):
    env = coin.environment
    ctrl = controller_from_names(env, 1, {(0, "start"): ("flip", 0)})
    chain = build_chain(coin, ctrl)
    assert {chain.nodes[j]: p for j, p in chain.transitions[0]} == {
        (0, env.states.index("goal")): F(1, 2),
        (0, env.states.index("nogoal")): F(1, 2),
    }


def test_chain_row_undefined(coin):
    chain = build_chain(coin, Controller(1, {}))
    assert chain.nodes == ((0, coin.initial_state),)
    assert chain.transitions == (((UNDEF_SINK, 1),),)


def test_chain_row_stop(coin):
    env = coin.environment
    chain = build_chain(coin, flip_stop_controller(coin))
    assert _row_of(chain, (0, env.states.index("goal"))) == ((GOAL_SINK, 1),)
    assert _row_of(chain, (0, env.states.index("nogoal"))) == ((FAIL_SINK, 1),)


def test_chain_row_stuck_action_is_empty(coin):
    # flip is not applicable in the terminal states
    env = coin.environment
    ctrl = controller_from_names(env, 1, {(0, "start"): ("flip", 0), (0, "won"): ("flip", 0)})
    assert _row_of(build_chain(coin, ctrl), (0, env.states.index("goal"))) == ()


def test_chain_rows_positive_and_normalized():
    rng = random.Random(7)
    for _ in range(50):
        prob = random_env(rng, partial=True)
        ctrl = random_total_controller(rng, prob.environment)
        chain = build_chain(prob, ctrl)
        assert chain == build_chain(prob, ctrl)  # a pure function of its inputs
        for out in chain.transitions:
            if out:  # an empty row is a stuck action
                assert all(p > 0 for _, p in out)
                assert sum(p for _, p in out) == 1


def test_environment_rejects_bad_distribution():
    with pytest.raises(ModelError):
        from_tables(
            ("s0", "s1"), ("a",), ("o",),
            {"s0": "o", "s1": "o"},
            {("s0", "a"): {"s1": F(1, 2)}},  # sums to 1/2
        )


def test_environment_rejects_unknown_identifiers():
    with pytest.raises(ModelError):
        from_tables(("s0",), ("a",), ("o",), {"s0": "nope"}, {})
    with pytest.raises(ModelError):
        from_tables(("s0",), ("a",), ("o",), {"s0": "o"}, {("s0", "b"): {"s0": 1}})
    with pytest.raises(ModelError, match="unknown state 's9'"):
        from_tables(("s0",), ("a",), ("o",), {"s0": "o"}, {("s0", "a"): {"s9": 1}})


@pytest.mark.parametrize("states, actions", [
    (("s0", "a b"), ("a",)),  # ``observe a b o`` would not parse back
    (("s0", ""), ("a",)),
    (("s0", "s#1"), ("a",)),  # the text formats cut a comment at '#'
    (("s0", "s1"), (" a",)),
    (("s0", "s1"), ("a", "stop")),  # a controller file would read it back as the stop action
    (("s0", 1), ("a",)),
    (("a b", "g"), ("x",)),  # built directly, it was serialised as ``observe a b o``
])
def test_environment_rejects_names_the_text_formats_cannot_carry(states, actions):
    with pytest.raises(ModelError):
        from_tables(states, actions, ("o",), {s: "o" for s in states}, {})
    with pytest.raises(ModelError):
        Environment(states, actions, ("o",), {(0, 0): ((0, F(1)),)}, (0,) * len(states))


def test_from_tables_rejects_an_unhashable_identifier():
    with pytest.raises(ModelError):
        from_tables(("s0",), ("a", ["b"]), ("o",), {"s0": "o"}, {})


@pytest.mark.parametrize("states, observations, delta, omega", [
    ((), ("o",), {}, ()),  # no states
    (("s0", "s1"), ("o",), {}, (0,)),  # omega of the wrong length
    (("s0",), ("o",), {}, (1,)),  # unknown observation index
    (("s0",), ("o",), {(1, 0): ((0, F(1)),)}, (0,)),  # unknown state
    (("s0",), ("o",), {(0, 1): ((0, F(1)),)}, (0,)),  # unknown action
    (("s0",), ("o",), {(0, 0): ((1, F(1)),)}, (0,)),  # unknown successor
    (("s0", "s1"), ("o",), {(0, 0): ((1, F(1, 2)), (1, F(1, 2)))}, (0, 0)),  # successor listed twice
])
def test_environment_rejects_bad_indices(states, observations, delta, omega):
    with pytest.raises(ModelError):
        Environment(states, ("a",), observations, delta, omega)


@pytest.mark.parametrize("delta, omega", [
    ({(0, 0): ((1, F(1)),)}, ("0", 0)),  # observation given as a string
    ({(0, 0): ((1, F(1)),)}, (0.0, 0)),  # observation given as a float
    ({(0.5, 0): ((1, F(1)),)}, (0, 0)),  # a state that matches no index
    ({(0, 0.0): ((1, F(1)),)}, (0, 0)),  # an action equal to 0 but not an int
    ({(0, 0): ((1.0, F(1)),)}, (0, 0)),  # successor 1.0 would index a list later
    # a bool is an int: True would pass as index 1 and False as 0
    ({(True, 0): ((1, F(1)),)}, (0, 0)),
    ({(0, False): ((1, F(1)),)}, (0, 0)),
    ({(0, 0): ((True, F(1)),)}, (0, 0)),
    ({(0, 0): ((1, F(1)),)}, (0, False)),
])
def test_environment_rejects_non_integer_indices(delta, omega):
    with pytest.raises(ModelError):
        Environment(("a", "g"), ("x",), ("o",), delta, omega)


@pytest.mark.parametrize("delta", [
    {0: ((0, F(1)),)},  # a key that is not a (state, action) pair
    {(0, 0, 1): ((0, F(1)),)},
    {(0, 0): (0,)},  # a law entry that is not a (successor, probability) pair
    {(0, 0): ((0, F(1), 3),)},
    {(0, 0): 5},  # a law that is not iterable
    [((0, 0), ((0, F(1)),))],  # pairs rather than a mapping
    {(0, 0): ((0, F(1)) for _ in range(1))},  # one-shot iterators: the law is read three times
    {(0, 0): iter([(0, F(1))])},
])
def test_environment_rejects_malformed_delta_shapes(delta):
    with pytest.raises(ModelError, match="not a"):
        Environment(("a",), ("x",), ("o",), delta, (0,))


def test_environment_rejects_duplicates_and_nonpositive_probs():
    with pytest.raises(ModelError):
        from_tables(("s0", "s0"), ("a",), ("o",), {"s0": "o"}, {})
    with pytest.raises(ModelError):
        from_tables(
            ("s0", "s1"), ("a",), ("o",), {"s0": "o", "s1": "o"},
            {("s0", "a"): {"s0": F(3, 2), "s1": F(-1, 2)}},
        )


def test_controller_validation():
    with pytest.raises(ModelError):
        Controller(0, {})
    with pytest.raises(ModelError):
        Controller(1, {(0, 0): (0, 5)})  # successor state out of range
    with pytest.raises(ModelError):
        Controller(2, {(3, 0): (0, 0)})  # source state out of range
    with pytest.raises(ModelError):
        Controller(1, {(0, 0): (-5, 0)})  # negative action other than STOP
    with pytest.raises(ModelError, match="integer"):
        Controller(1.5, {})
    with pytest.raises(ModelError, match="integer"):
        Controller(True, {})  # a bool is an int, but no count


@pytest.mark.parametrize("transitions", [
    {(0.5, 0): (0, 1)},  # would match no pair and pass as undefined mass
    {(0, 0.0): (0, 1)},
    {(0, 0): (F(0), 1)},
    {(0, 0): (0, 1.0)},
    {(True, 0): (0, 1)},  # a bool is an int, but no index
    {(0, False): (0, 1)},
    {(0, 0): (True, 1)},
    {(0, 0): (0, True)},
    {(0, False): (True, True)},
])
def test_controller_rejects_non_integer_indices(transitions):
    with pytest.raises(ModelError, match="non-integer"):
        Controller(2, transitions)


@pytest.mark.parametrize("transitions", [
    {0: (0, 0)},  # a key that is not a (q, o) pair
    {(0, 0, 1): (0, 0)},
    {(0, 0): 0},  # a value that is not an (a, q2) pair
    {(0, 0): (0, 0, 1)},
    [((0, 0), (0, 0))],  # pairs rather than a mapping
])
def test_controller_rejects_malformed_transition_shapes(transitions):
    with pytest.raises(ModelError, match="not a"):
        Controller(1, transitions)


def test_planning_problem_validation(coin):
    env = coin.environment
    PlanningProblem(env, 0, frozenset({1}))
    bad = (
        (0.0, frozenset()), (3, frozenset()), (-1, frozenset()), (0, frozenset({3})), (0, frozenset({1.0})),
        (True, frozenset()), (0, frozenset({False})),  # a bool is an int, but no state
    )
    for initial, goals in bad:
        with pytest.raises(ModelError):
            PlanningProblem(env, initial, goals)


def test_synthesis_request_validation(coin):
    SynthesisRequest(coin, 1, F(1, 2))
    SynthesisRequest(coin, 1, F(1, 2), F(1, 4))  # lter below lgt is allowed
    SynthesisRequest(coin, 1, "0.3", "9/10")
    with pytest.raises(ModelError):
        SynthesisRequest(coin, 0, F(1, 2))
    with pytest.raises(ModelError):
        SynthesisRequest(coin, 1, F(0))
    with pytest.raises(ModelError):
        SynthesisRequest(coin, 1, F(1))
    with pytest.raises(ModelError):
        SynthesisRequest(coin, 1, F(1, 2), F(1))
    for max_states in (2.5, F(3, 2), "2"):
        with pytest.raises(ModelError, match="integer"):
            SynthesisRequest(coin, max_states, F(1, 2))


def _one_step_env(dist):
    return from_tables(
        ("s0", "s1", "s2"), ("a",), ("o",), {"s0": "o", "s1": "o", "s2": "o"}, {("s0", "a"): dist}
    )


def test_environment_rejects_a_sum_just_below_one():
    with pytest.raises(ModelError):
        _one_step_env({"s1": F(1, 2), "s2": F(1, 2) - F(1, 10**10)})


def test_environment_rejects_float_probabilities():
    # the exact sum check is shared between laws, keyed by the ids of their Fractions
    with pytest.raises(ModelError, match="not rational"):
        Environment(("s0", "s1"), ("a",), ("o",), {(0, 0): ((0, 0.5), (1, 0.5))}, (0, 0))


@pytest.mark.parametrize("p", [1, True])
def test_environment_rejects_int_and_bool_probabilities(p):
    # both sum to 1 exactly, so only the type check stops them reaching the search as given
    with pytest.raises(ModelError, match="not rational"):
        Environment(("a", "g"), ("x",), ("o", "p"), {(0, 0): ((1, p),)}, (0, 1))


def test_as_prob_rejects_inexact_floats():
    with pytest.raises(ModelError, match="pass the string '0.1'"):
        as_prob(0.1)
    with pytest.raises(ModelError):
        _one_step_env({"s1": 0.1, "s2": "9/10"})


# Python 3.11+ reads "1_0" and 3.12+ reads "1 / 2"; "\u0661/\u0662" has no ASCII digit;
# a decimal exponent above MAX_EXPONENT would build a huge number (1e-1000000: 0.3 s, 3.3 M bits)
@pytest.mark.parametrize("value", [
    "bogus", "1/0", None, float("inf"), True, "1_0/1_0", "1 / 2", "\u0661/\u0662",
    "1e-1001", "1E+1001", "1e-0001001", "0.5e-99999999", pytest.param("1e-" + "9" * 5000, id="1e-(5000 nines)"),
])
def test_unreadable_numbers_raise_model_error(coin, value):
    with pytest.raises(ModelError, match="rational"):
        as_prob(value)
    with pytest.raises(ModelError, match="rational"):
        SynthesisRequest(coin, 1, value)
    with pytest.raises(ModelError, match="rational"):
        _one_step_env({"s1": value})


@pytest.mark.parametrize("value,exact", [
    ("0.1", F(1, 10)), (0.5, F(1, 2)), (F(1, 10), F(1, 10)), (1, 1),
    # strings every supported Python reads alike
    ("0.9", F(9, 10)), ("9/10", F(9, 10)), ("1e-3", F(1, 1000)), (" 1/2 ", F(1, 2)), ("+1/2", F(1, 2)),
    (".5", F(1, 2)), ("1.", 1),
    # exponents up to MAX_EXPONENT, leading zeros not counted
    ("1e-1000", F(1, 10**MAX_EXPONENT)), ("1e-0001000", F(1, 10**1000)), ("1E+0", 1),
])
def test_as_prob_accepts_exact_inputs(value, exact):
    assert as_prob(value) == exact
    env = _one_step_env({"s1": 0.5, "s2": "0.5"})
    assert env.delta.get((0, 0)) == ((1, F(1, 2)), (2, F(1, 2)))


@pytest.mark.parametrize("law", [
    ((0, F(0)), (1, F(1))),
    ((0, F(3, 2)), (1, F(-1, 2))),
])
def test_environment_rejects_non_positive_probabilities_given_directly(law):
    # positivity is checked once per distinct law, next to its sum
    with pytest.raises(ModelError, match="non-positive probability"):
        Environment(("s0", "s1"), ("a",), ("o",), {(0, 0): law, (1, 0): law}, (0, 0))


# The law check is keyed by the ids of a law's Fractions, so these pin what
# an id key must not let through.

def test_a_law_extending_a_checked_law_is_still_checked():
    half = F(1, 2)
    law = ((1, half), (2, half))
    longer = law + ((0, F(1, 4)),)  # the same Fraction objects, plus one
    with pytest.raises(ModelError, match=r"delta\(1,0\) sums to 5/4, not 1"):
        Environment(("s0", "s1", "s2"), ("a",), ("o",), {(0, 0): law, (1, 0): longer}, (0, 0, 0))


class _FreshLaws(Mapping):
    """A lazy delta that builds a new law, with new Fractions, on every lookup."""

    def __init__(self, laws):
        self.laws = laws

    def __getitem__(self, key):
        return tuple([(s2, F(*p)) for s2, p in self.laws[key]])

    def __iter__(self):
        return iter(self.laws)

    def __len__(self):
        return len(self.laws)


@pytest.mark.parametrize("position", range(1, 25))
def test_a_fresh_law_cannot_inherit_a_checked_id(position):
    # The law at `position` sums to 9/10.  Without a reference kept to every
    # checked law, its Fractions may reuse the ids of a freed one that summed
    # to 1; at which position that happens depends on the Python version.
    good, bad = ((1, (1, 2)), (2, (1, 2))), ((1, (1, 2)), (2, (2, 5)))
    laws = {(k % 8, k // 8): good for k in range(position)}
    laws[(position % 8, position // 8)] = bad
    with pytest.raises(ModelError, match="sums to 9/10"):
        Environment(tuple("abcdefgh"), ("w", "x", "y", "z"), ("o",), _FreshLaws(laws), (0,) * 8)


def test_equal_but_distinct_fractions_pass():
    first, second = ((0, F(1, 3)), (1, F(2, 3))), ((0, F(1, 3)), (1, F(2, 3)))
    assert first[0][1] is not second[0][1] and first == second
    env = Environment(("s0", "s1"), ("a", "b"), ("o",), {(0, 0): first, (0, 1): second, (1, 0): first}, (0, 0))
    assert env.delta.get((0, 1)) is second and env.delta.get((0, 0)) == env.delta.get((0, 1))


def _offers_per_search(env):
    """The offer lists from the ``Fraction`` tables: per observation, in
    index order, every action some state with that observation has in
    ``delta``, and no stuck one."""
    return [
        [a for a in range(len(env.actions)) if any((s, a) in env.delta for s, o in enumerate(env.omega) if o == obs)]
        for obs in range(len(env.observations))
    ]


def _retry_laws(env):
    """The laws a search walks where the controller state stays, from the
    ``Fraction`` laws: a law that lists its own state keeps the other
    entries, divided by the chance of leaving."""
    retries = {}
    for (s, a), law in env.delta.items():
        leave = 1 - dict(law).get(s, 0)
        retries[(s, a)] = tuple((s2, (p / leave).as_integer_ratio()) for s2, p in law if s2 != s)
    return retries


def _table_problems():
    """Every catalogue domain, larger instances of two, and random problems
    with partial transition tables."""
    problems = [build(name) for name in domain_names()]
    problems += [build("noisy-hall-a-2d", {"n": 4}), build("bridgewalk", {"n": 8, "p_fall": "37/101"})]
    rng = random.Random(4711)
    problems += [random_env(rng, n_states=rng.randint(3, 6), partial=True) for _ in range(60)]
    return problems


def test_step_laws_and_offers_are_built_once_per_problem():
    problems = _table_problems()
    # the cases include partial tables, and observations with a stuck action
    assert any(len(p.pair_laws) < len(p.environment.states) * len(p.environment.actions) for p in problems)
    assert any(stuck_pairs(p.environment) for p in problems)
    for problem in problems:
        env = problem.environment
        laws = problem.pair_laws
        assert laws.keys() == env.delta.keys()
        for key, law in env.delta.items():
            assert laws[key] == tuple((s2, p.as_integer_ratio()) for s2, p in law)
            for _, (num, den) in laws[key]:
                assert type(num) is int and type(den) is int and den > 0 and gcd(num, den) == 1
        assert [list(offer) for offer in problem.offers] == _offers_per_search(env)
        assert problem.retry_laws == _retry_laws(env)
        for law in problem.retry_laws.values():
            for _, (num, den) in law:
                assert type(num) is int and type(den) is int and den > 0 and gcd(num, den) == 1
        # cached: a second access, as by a repeat search, converts nothing
        assert problem.pair_laws is laws
        assert problem.offers is problem.offers
        assert problem.retry_laws is problem.retry_laws
    # the cases include a law that only stays, and laws that stay and move
    retries = [law for p in problems for key, law in p.retry_laws.items() if law != p.pair_laws[key]]
    assert () in retries and any(retries)
