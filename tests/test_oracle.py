import heapq
import itertools
import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from fscsynth.domains import build, domain_names
from fscsynth.model import Controller, ModelError, PlanningProblem, STOP
from fscsynth.pandor import measure
from fscsynth.verifier import (
    GOAL_SINK,
    ChainError,
    CombinedChain,
    Measures,
    _solve_absorption,
    build_chain,
    exact_measures,
)

from helpers import (
    always_a_controller,
    always_flip_controller,
    brute_force_measures,
    controller_from_names,
    corridor_controller,
    dense_absorption,
    enumerate_controllers,
    flip_stop_controller,
    r300_script,
    random_env,
    random_total_controller,
)


def test_coin_flip_once_then_stop():
    prob = build("coin-flip")
    m = exact_measures(prob, flip_stop_controller(prob))
    assert m.lgt == F(1, 2)
    assert m.lter == 1
    assert m.nonterm == 0 and m.undefined_mass == 0


def test_decay_loop_always_flip_sums_geometric_series():
    prob = build("decay-loop")
    m = exact_measures(prob, always_flip_controller(prob))
    assert m.lgt == 1 and m.lter == 1


def test_three_state_never_terminates():
    prob = build("three-state")
    m = exact_measures(prob, always_a_controller(prob))
    assert m.lgt == 0 and m.lter == 0 and m.nonterm == 1 and m.undefined_mass == 0


def test_corridor_controller_is_exact():
    prob = build("hall-a-1d", {"n": 5})
    m = exact_measures(prob, corridor_controller(prob.environment))
    assert m.lgt == 1 and m.nonterm == 0


def test_partial_controller_reports_undefined_mass():
    prob = build("coin-flip")
    env = prob.environment
    ctrl = controller_from_names(env, 1, {(0, "start"): ("flip", 0), (0, "won"): ("stop", 0)})
    m = exact_measures(prob, ctrl)
    assert m.lgt == F(1, 2)
    assert m.undefined_mass == F(1, 2)
    assert m.lter == F(1, 2) and m.nonterm == 0


def test_stuck_action_mass_counts_as_nontermination():
    prob = build("coin-flip")
    env = prob.environment
    # flip is inapplicable in both terminal states: those runs are stuck
    ctrl = controller_from_names(env, 1, {
        (0, "start"): ("flip", 0), (0, "won"): ("stop", 0), (0, "lost"): ("flip", 0),
    })
    m = exact_measures(prob, ctrl)
    assert m.lgt == F(1, 2) and m.lter == F(1, 2)
    assert m.nonterm == F(1, 2) and m.undefined_mass == 0


def test_brute_force_decay_depth_three():
    prob = build("decay-loop")
    lo, hi = brute_force_measures(prob, always_flip_controller(prob), 3)
    assert lo == F(7, 8)
    assert hi == 1


def test_brute_force_coin_depth_one_is_tight():
    prob = build("coin-flip")
    assert brute_force_measures(prob, flip_stop_controller(prob), 1) == (F(1, 2), F(1, 2))


def test_brute_force_depth_zero_knows_nothing():
    prob = build("coin-flip")
    assert brute_force_measures(prob, flip_stop_controller(prob), 0) == (F(0), F(1))


def _noisy_corridor(n, p):
    """The 1-D noisy hall with its sweep-right-then-left controller: a
    failed move stays put, so the turn at B repeats; LGT 1."""
    prob = build("noisy-hall-a-1d", {"n": n, "p": p})
    return prob, controller_from_names(prob.environment, 2, {
        (0, "A"): ("right", 0), (0, "-"): ("right", 0), (0, "B"): ("left", 1),
        (1, "-"): ("left", 1), (1, "B"): ("left", 1), (1, "A"): ("stop", 0),
    })


def _walk_to_the_end(prob):
    """Walk the bridge and stop at its end; a fallen run is left undefined."""
    return controller_from_names(prob.environment, 1, {
        (0, "start"): ("walk", 0), (0, "mid"): ("walk", 0), (0, "end"): ("stop", 0),
    })


def _reference_controllers():
    yield build("coin-flip"), flip_stop_controller(build("coin-flip"))
    yield build("decay-loop"), always_flip_controller(build("decay-loop"))
    yield build("three-state"), always_a_controller(build("three-state"))
    hall = build("hall-a-1d", {"n": 4})
    yield hall, corridor_controller(hall.environment)
    yield _noisy_corridor(3, F(1, 2))
    bridge = build("bridgewalk", {"n": 3})
    yield bridge, _walk_to_the_end(bridge)


@pytest.mark.parametrize("prob,ctrl", list(_reference_controllers()))
def test_sandwich_property(prob, ctrl):
    exact = exact_measures(prob, ctrl).lgt
    prev_width = None
    for depth in range(1, 13):
        lo, hi = brute_force_measures(prob, ctrl, depth)
        assert lo <= exact <= hi
        width = hi - lo
        if prev_width is not None:
            assert width <= prev_width
        prev_width = width


def test_full_controllers_satisfy_termination_identity():
    rng = random.Random(42)
    for _ in range(60):
        prob = random_env(rng)
        ctrl = random_total_controller(rng, prob.environment)
        m = exact_measures(prob, ctrl)
        assert m.undefined_mass == 0
        assert m.lgt + m.fail == m.lter == 1 - m.nonterm
        assert 0 <= m.lgt <= m.lter <= 1


def test_goal_set_of_everything_forces_lgt_equal_lter():
    rng = random.Random(11)
    for _ in range(30):
        prob = random_env(rng, partial=True)
        every = PlanningProblem(
            prob.environment, prob.initial_state,
            frozenset(range(len(prob.environment.states))),
        )
        ctrl = random_total_controller(rng, prob.environment)
        m = exact_measures(every, ctrl)
        assert m.lgt == m.lter


def test_chain_structure():
    prob = build("coin-flip")
    chain = build_chain(prob, flip_stop_controller(prob))
    assert chain.nodes[0] == (0, prob.initial_state)
    # non-sink rows are stochastic
    for out in chain.transitions:
        assert sum(p for _, p in out) == 1
    # reachable set only: one branching node and two stop nodes
    assert len(chain.nodes) == 3


def test_exact_equals_brute_force_limit():
    # on an acyclic system deep enumeration pins the value exactly
    prob = build("bridgewalk", {"n": 3})
    ctrl = _walk_to_the_end(prob)
    lo, hi = brute_force_measures(prob, ctrl, 12)
    m = exact_measures(prob, ctrl)
    assert lo == hi == m.lgt == F(729, 1000)


@pytest.fixture
def fill_in(monkeypatch):
    """Columns the sparse solve pushes on its heap: fill-in below the diagonal."""
    pushed = []
    push = heapq.heappush

    def counting(heap, col):
        pushed.append(col)
        push(heap, col)

    monkeypatch.setattr(heapq, "heappush", counting)
    return pushed


@pytest.fixture
def eliminated(monkeypatch):
    """Rows the sparse solve eliminates: it heapifies the columns below the
    diagonal of each once."""
    rows = []
    heapify = heapq.heapify

    def counting(heap):
        rows.append(len(heap))
        heapify(heap)

    monkeypatch.setattr(heapq, "heapify", counting)
    return rows


#: the answers (goal, fail, undefined) of a node sure to reach one sink
_SURE_ANSWERS = {(1, 0, 0): "sure goal", (0, 1, 0): "sure fail", (0, 0, 1): "sure undefined"}


def test_sparse_solve_equals_dense_reference(fill_in, eliminated):
    rng = random.Random(2024)
    seen = set()
    for _ in range(150):
        prob = random_env(rng, rng.randint(2, 6), partial=rng.random() < 0.5)
        ctrl = random_total_controller(rng, prob.environment, rng.randint(1, 3))
        if rng.random() < 0.5:
            kept = {k: v for k, v in ctrl.transitions.items() if rng.random() < 0.7}
            ctrl = Controller(ctrl.num_states, kept)
        chain = build_chain(prob, ctrl)
        eliminated.clear()
        goal, fail, undef = _solve_absorption(chain)
        assert (goal, fail, undef) == dense_absorption(chain)
        if any(undef.values()):
            seen.add("undefined pair")
        if not all(chain.transitions):
            seen.add("dead end")
        if len(goal) < len(chain.nodes):
            seen.add("non-terminating node")
        # on a chain of positive stochastic rows a node's answer is a unit
        # vector exactly when it reaches one sink and nothing else: those
        # the graph passes settle, and the rows of all others are eliminated
        answers = [(goal[i], fail[i], undef[i]) for i in goal]
        solved = [a for a in answers if a not in _SURE_ANSWERS]
        assert len(eliminated) == len(solved)
        seen.update(_SURE_ANSWERS[a] for a in answers if a in _SURE_ANSWERS)
        if solved:
            seen.add("solved node")
    assert seen == {
        "undefined pair", "dead end", "non-terminating node",
        "sure goal", "sure fail", "sure undefined", "solved node",
    }
    assert fill_in


def _bouncing_2d_hall_chain(n):
    prob = build("noisy-hall-a-2d", {"n": n, "p": F(1, 3)})
    # bounce between the corners either side of A: the chain runs both ways
    ctrl = controller_from_names(prob.environment, 2, {
        (0, "A"): ("cw", 0), (0, "-"): ("cw", 0), (0, "C"): ("ccw", 1),
        (1, "-"): ("ccw", 1), (1, "C"): ("cw", 0), (1, "A"): ("stop", 0),
    })
    return build_chain(prob, ctrl)


@pytest.mark.parametrize("n", [3, 4])
def test_sparse_solve_with_fill_in_on_a_2d_hall(n, fill_in):
    chain = _bouncing_2d_hall_chain(n)
    assert _solve_absorption(chain) == dense_absorption(chain)
    assert fill_in


def _chain(*rows):
    """A chain of the given rows, which need not be a Markov chain."""
    return CombinedChain(tuple((0, i) for i in range(len(rows))), rows)


@pytest.mark.parametrize("chain,goal0,solved", [
    # half of the mass goes nowhere: the goal is reached with 1/2, not 1
    (_chain(((GOAL_SINK, F(1, 2)),)), F(1, 2), 1),
    # the row sums to 1, but one of its probabilities is 0
    (_chain(((GOAL_SINK, F(1)), (1, F(0))), ((GOAL_SINK, F(1)),)), 1, 1),
    # node 0 reaches the goal and no other sink, but also node 1's leaky row
    (_chain(((1, F(1)),), ((1, F(1, 3)), (GOAL_SINK, F(1, 3)))), F(1, 2), 2),
], ids=["substochastic", "zero-probability-edge", "reaches-a-leak"])
def test_a_row_that_is_not_stochastic_is_solved(chain, goal0, solved, eliminated):
    goal, fail, undef = _solve_absorption(chain)
    assert (goal, fail, undef) == dense_absorption(chain)
    assert goal[0] == goal0
    assert len(eliminated) == solved


def _tour(n, p):
    """The 2-D noisy hall with a clockwise tour that counts corners; LGT 1.
    State 0 waits to leave A, states 1-4 walk a side after 0-3 corners and
    states 5-7 wait to leave corners 1-3 (a failed move repeats C)."""
    prob = build("noisy-hall-a-2d", {"n": n, "p": p})
    edges = {(0, "A"): ("cw", 0), (0, "-"): ("cw", 1), (4, "A"): ("stop", 0)}
    for k in range(4):
        edges[(1 + k, "-")] = ("cw", 1 + k)
    for k in range(3):
        edges[(1 + k, "C")] = ("cw", 5 + k)
        edges[(5 + k, "C")] = ("cw", 5 + k)
        edges[(5 + k, "-")] = ("cw", 2 + k)
    return prob, controller_from_names(prob.environment, 8, edges)


@pytest.mark.parametrize("prob,ctrl", [
    _noisy_corridor(40, F(91, 101)),
    _tour(12, F(7, 73)),
], ids=["corridor", "tour"])
def test_lgt_one_certificates_eliminate_no_row(prob, ctrl, eliminated):
    # every node reaches the goal and nothing else, so the graph passes
    # settle all of them and no arithmetic is left to do
    m = exact_measures(prob, ctrl)
    assert m.lgt == m.lter == 1 and m.undefined_mass == 0
    assert len(build_chain(prob, ctrl).nodes) > 40
    assert eliminated == []


def _r300_cases():
    """(problem, controller) for each controller in ``tests/data/r300.jsonl``,
    the problem rebuilt with ``scripts/r300.py``'s draws from its seed."""
    draw = r300_script()["problem"]
    for line in (Path(__file__).parent / "data" / "r300.jsonl").read_text().splitlines():
        row = json.loads(line)
        if row["controller"] is None:
            continue
        transitions = {tuple(key): tuple(value) for key, value in row["controller"]}
        yield draw(random.Random(row["seed"])), Controller(row["num_states"], transitions)


def test_sparse_solve_equals_dense_reference_on_r300_controllers():
    cases = list(_r300_cases())
    assert len(cases) == 237
    for problem, ctrl in cases:
        chain = build_chain(problem, ctrl)
        assert _solve_absorption(chain) == dense_absorption(chain)
        assert exact_measures(problem, ctrl).lgt >= F(1, 2)


def test_long_bridgewalk_with_a_large_coprime_denominator():
    prob = build("bridgewalk", {"n": 120, "p_fall": F(37, 101)})
    m = exact_measures(prob, _walk_to_the_end(prob))
    assert m.lgt == m.lter == F(64, 101) ** 120
    assert m.undefined_mass == 1 - m.lgt and m.nonterm == 0


def test_long_noisy_corridor_with_a_large_coprime_denominator():
    prob, ctrl = _noisy_corridor(200, F(91, 101))
    assert len(build_chain(prob, ctrl).nodes) >= 400
    m = exact_measures(prob, ctrl)
    assert m.lgt == m.lter == 1
    assert m.undefined_mass == 0 and m.nonterm == 0


_ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__",
)


@pytest.fixture
def fraction_arithmetic(monkeypatch):
    """Names of the Fraction arithmetic operators called from now on."""
    calls = []
    for name in _ARITHMETIC:
        def counting(*args, _op=getattr(F, name), _name=name):
            calls.append(_name)
            return _op(*args)

        monkeypatch.setattr(F, name, counting)
    return calls


@pytest.mark.parametrize("chain", [
    build_chain(*_noisy_corridor(12, F(91, 101))),
    _bouncing_2d_hall_chain(4),
], ids=["corridor", "2d-hall-fill-in"])
def test_sparse_solve_makes_no_fraction_arithmetic(chain, fraction_arithmetic):
    # the elimination and the back-substitution run on integers; a Fraction
    # is only built for each result
    solved = _solve_absorption(chain)
    assert fraction_arithmetic == []
    # the count sees the rational arithmetic of the dense reference
    assert dense_absorption(chain) == solved
    assert fraction_arithmetic


def test_zero_pivot_raises_chain_error():
    # not a Markov chain: the node keeps all of its mass and leaks more to the goal
    chain = CombinedChain(((0, 0),), (((0, F(1)), (GOAL_SINK, F(1, 2))),))
    with pytest.raises(ChainError, match="singular"):
        _solve_absorption(chain)


def test_out_of_range_action_is_rejected():
    prob = build("coin-flip")  # one action
    ctrl = Controller(1, {(0, 0): (7, 0)})
    for check in (exact_measures, measure):
        with pytest.raises(ModelError, match=r"\(0,0\) -> \(7,0\) uses action index 7"):
            check(prob, ctrl)


def test_out_of_range_observation_is_rejected():
    prob = build("coin-flip")  # three observations
    ctrl = Controller(1, {(0, 9): (0, 0)})
    for check in (exact_measures, measure):
        with pytest.raises(ModelError, match=r"\(0,9\) -> \(0,0\) uses observation index 9"):
            check(prob, ctrl)
