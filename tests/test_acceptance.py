"""Acceptance battery: the eight release gates for this package.

Every check is exact (rational arithmetic, zero tolerance) unless the
criterion itself states a runtime budget or a count.  Each criterion
prints one ``ACCEPTANCE n (...): PASS`` line.  Run under pytest or
standalone::

    python tests/test_acceptance.py
"""

import random
import sys
import time
from fractions import Fraction as F

import pytest

from fscsynth.andor import andor_synth
from fscsynth.domains import build, domain_names
from fscsynth.ledger import LedgerError, SearchLedger, calc_lambda, cumulate_alpha
from fscsynth.model import STOP, SynthesisRequest
from fscsynth.pandor import measure, pandor_synth
from fscsynth.verifier import exact_measures

from helpers import (
    always_a_controller,
    always_flip_controller,
    brute_force_measures,
    clone_ledger,
    controller_from_names,
    corridor_controller,
    enumerate_controllers,
    flip_stop_controller,
    random_env,
    random_total_controller,
)

GRID_DOMAINS = [
    ("coin-flip", {}),
    ("decay-loop", {}),
    ("three-state", {}),
    ("hall-a-1d", {"n": 3}),
    ("hall-a-1d", {"n": 4}),
    ("hall-a-1d", {"n": 5}),
    ("noisy-hall-a-1d", {"n": 3}),
    ("noisy-hall-a-1d", {"n": 4}),
    ("bridgewalk", {"n": 3, "p_fall": F(1, 10)}),
    ("bridgewalk", {"n": 5, "p_fall": F(1, 10)}),
]

LGT_GRID = [F(i, 10) for i in range(1, 10)]

CRITERIA = []


def criterion(number, label):
    def register(fn):
        CRITERIA.append((number, label, fn))
        return fn

    return register


@criterion(1, "soundness: every synthesized controller meets its bound exactly")
def check_soundness():
    start = time.perf_counter()
    returned = 0
    for name, params in GRID_DOMAINS:
        problem = build(name, params)
        for n in (1, 2):
            for star in LGT_GRID:
                result = pandor_synth(SynthesisRequest(problem, n, star))
                assert result.outcome in ("controller", "failure-proved")
                if result.outcome == "controller":
                    m = exact_measures(problem, result.controller)
                    assert m.lgt >= star, (name, params, n, star, m.lgt)
                    returned += 1
    elapsed = time.perf_counter() - start
    assert returned > 50
    assert elapsed < 300, f"soundness suite took {elapsed:.1f}s"


@criterion(2, "completeness: success whenever any bounded controller qualifies")
def check_completeness():
    start = time.perf_counter()
    for name, params in GRID_DOMAINS:
        problem = build(name, params)
        for n in (1, 2):
            best = F(0)
            for ctrl in enumerate_controllers(problem, n):
                best = max(best, exact_measures(problem, ctrl).lgt)
            for star in LGT_GRID:
                result = pandor_synth(SynthesisRequest(problem, n, star))
                exists = best >= star
                assert (result.outcome == "controller") == exists, (
                    name, params, n, star, best, result.outcome,
                )
    elapsed = time.perf_counter() - start
    assert elapsed < 600, f"completeness suite took {elapsed:.1f}s"


@criterion(3, "baseline failure modes and their probabilistic repairs")
def check_baseline_regressions():
    coin = build("coin-flip")
    decay = build("decay-loop")
    for problem in (coin, decay):
        for n in (1, 2, 3):
            result = andor_synth(problem, n)
            assert result.outcome == "failure-proved"
    fixed = pandor_synth(SynthesisRequest(coin, 2, F(2, 5)))
    assert fixed.outcome == "controller"
    assert exact_measures(coin, fixed.controller).lgt == F(1, 2)
    fixed = pandor_synth(SynthesisRequest(decay, 2, F(99, 100)))
    assert fixed.outcome == "controller"
    assert exact_measures(decay, fixed.controller).lgt == 1


@criterion(4, "conspiring decaying cycles are proved non-terminating")
def check_cycle_combination():
    problem = build("three-state")
    result = pandor_synth(SynthesisRequest(problem, 1, F(1, 2), lter_star=F(1, 10)))
    assert result.outcome == "failure-proved", result.outcome
    forced = always_a_controller(problem)
    assert exact_measures(problem, forced).nonterm == 1


@criterion(5, "noisy corridor needs and gets the far-end retry edge")
def check_noisy_corridor():
    problem = build("noisy-hall-a-1d", {"n": 4})
    result = pandor_synth(SynthesisRequest(problem, 2, F(99, 100)))
    assert result.outcome == "controller"
    env = problem.environment
    edge = result.controller.transitions.get((1, env.observation_index("B")))
    assert edge == (env.action_index("left"), 1), edge
    assert exact_measures(problem, result.controller).lgt == 1


@criterion(6, "deterministic equivalence of the two engines")
def check_deterministic_equivalence():
    problem = build("hall-a-1d", {"n": 5})
    near_one = F(10**9 - 1, 10**9)
    rp = pandor_synth(SynthesisRequest(problem, 2, near_one))
    ra = andor_synth(problem, 2)
    assert rp.outcome == "controller" and ra.outcome == "controller"
    assert exact_measures(problem, rp.controller).lgt == 1
    assert exact_measures(problem, ra.controller).lgt == 1
    hi, lo = max(rp.or_steps, ra.or_steps), min(rp.or_steps, ra.or_steps)
    assert hi <= 2 * lo, (rp.or_steps, ra.or_steps)


def _random_feasible_ledger(rng):
    probs = [(1, 1), (1, 2), (1, 3), (2, 3), (1, 4), (3, 4)]
    masses = [(0, 1)] * 4 + [(1, 16), (1, 8), (3, 16), (1, 4), (1, 2)]
    while True:
        length = rng.randint(1, 4)
        led = SearchLedger()
        for k in range(length):
            led.extend(0, k, (1, 1) if k == 0 else rng.choice(probs))
        for k in range(length + 1):
            led.goal[k] = rng.choice(masses)
            led.fail[k] = rng.choice(masses)
            led.noter[k] = rng.choice(masses)
        for k in range(length):
            for m in range(k, length + 1):
                led.loop[k][m] = rng.choice(masses)
        try:
            calc_lambda(clone_ledger(led))
        except LedgerError:
            continue
        return led


@criterion(7, "ledger algebra: fold invariance, bounds, exhaustion identity")
def check_ledger_algebra():
    rng = random.Random(90125)
    for _ in range(1000):
        led = _random_feasible_ledger(rng)
        calc_lambda(led)  # settle saturation mutations
        before = calc_lambda(led)
        for vec in (before.goal, before.fail, before.noter, before.loop):
            assert all(0 <= v <= 1 for v in vec)
        keep = len(led)
        cumulate_alpha(led)
        after = calc_lambda(led)
        assert after.goal[:keep] == before.goal[:keep]
        assert after.fail[:keep] == before.fail[:keep]
        assert after.noter[:keep] == before.noter[:keep]
        assert after.loop[:keep - 1] == before.loop[:keep - 1]
    for _ in range(50):
        problem = random_env(rng, n_states=4)
        ctrl = random_total_controller(rng, problem.environment)
        lam = measure(problem, ctrl)
        m = exact_measures(problem, ctrl)
        assert lam.goal0 + lam.fail0 + lam.noter0 == 1
        assert lam.goal0 == m.lgt
        assert lam.fail0 == m.fail and lam.noter0 == m.nonterm


def _reference_controller(name, problem):
    env = problem.environment
    if name == "coin-flip":
        return flip_stop_controller(problem)
    if name == "decay-loop":
        return always_flip_controller(problem)
    if name == "three-state":
        return always_a_controller(problem)
    if name == "bridgewalk":
        return controller_from_names(env, 1, {
            (0, "start"): ("walk", 0), (0, "mid"): ("walk", 0), (0, "end"): ("stop", 0),
        })
    if name in ("hall-a-1d", "noisy-hall-a-1d"):
        ctrl = corridor_controller(env)
        transitions = dict(ctrl.transitions)
        transitions[(1, env.observation_index("B"))] = (env.action_index("left"), 1)
        return type(ctrl)(2, transitions)
    # perimeter halls: circle clockwise once, stop back at the start corner
    return controller_from_names(env, 2, {
        (0, "A"): ("cw", 1),
        (1, "-"): ("cw", 1), (1, "C"): ("cw", 1), (1, "A"): ("stop", 0),
    })


@criterion(8, "finite-horizon enumeration brackets the exact solver")
def check_oracle_cross_check():
    for name in domain_names():
        problem = build(name, {})
        ctrl = _reference_controller(name, problem)
        exact = exact_measures(problem, ctrl).lgt
        prev_width = None
        for depth in range(1, 13):
            lo, hi = brute_force_measures(problem, ctrl, depth)
            assert lo <= exact <= hi, (name, depth)
            width = hi - lo
            if prev_width is not None:
                assert width <= prev_width, (name, depth)
            prev_width = width


@pytest.mark.parametrize(
    "number,label,fn", CRITERIA, ids=[f"criterion-{n}" for n, _, _ in CRITERIA]
)
def test_acceptance(number, label, fn):
    start = time.perf_counter()
    fn()
    print(f"ACCEPTANCE {number} ({label}): PASS [{time.perf_counter() - start:.1f}s]")


if __name__ == "__main__":
    failures = 0
    for number, label, fn in CRITERIA:
        start = time.perf_counter()
        try:
            fn()
        except AssertionError as exc:
            failures += 1
            print(f"ACCEPTANCE {number} ({label}): FAIL {exc}")
        else:
            print(f"ACCEPTANCE {number} ({label}): PASS [{time.perf_counter() - start:.1f}s]")
    sys.exit(1 if failures else 0)
