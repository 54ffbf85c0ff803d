"""Seeded requests, their set-up, the timed verdict and the oracle.

A workload seed fixes the whole request list.  Every seed gets the same
sizes and the same probability bins; the seed only picks the values
inside each bin and the run order.  That keeps the cost of a pass the
same from seed to seed while still varying the exact rationals the
search works on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from fscsynth import domains, pandor, verifier
from fscsynth.model import STOP, Controller, PlanningProblem, SynthesisRequest

#: OR-step cap per search; hitting it is a failed request.  The largest
#: request here needs under 6 000 steps.
BUDGET = 200_000

SMALL, LARGE = "small", "large"
LOW, HIGH = "low", "high"

# Probability pools: small denominators (1/2, 1/10, ...) and large coprime
# ones (37/101, 7/73, ...).  Inside one (denominator, magnitude) bin every
# value gives the same OR-step count, so the seed changes the arithmetic
# but not the size of the search.
BRIDGE_P_FALL = {
    (SMALL, LOW): ("1/10", "1/20"),
    (LARGE, LOW): ("7/73", "5/61", "9/97"),
    (SMALL, HIGH): ("1/2", "3/10", "2/5"),
    (LARGE, HIGH): ("37/101", "29/89", "31/97", "23/71"),
}
HALL_P = {
    (SMALL, LOW): ("1/2", "2/5", "3/10"),
    (LARGE, LOW): ("37/101", "36/73", "44/97"),
    (SMALL, HIGH): ("9/10",),
    (LARGE, HIGH): ("91/101", "66/73", "64/71"),
}
LGT_STARS = (Fraction(9, 10), Fraction(99, 100))
#: bounds for instances whose best N-bounded LGT is 0
POSITIVE_LGT_STARS = (Fraction(1, 2), Fraction(1, 10), Fraction(37, 101), Fraction(7, 73))


@dataclass(frozen=True)
class Request:
    """One generated request.

    ``max_states`` is None for a certificate check.  ``best_lgt`` is the
    closed-form answer: the best LGT of any ``max_states``-bounded
    controller for a search, the exact LGT of the certificate otherwise.
    """

    rid: int
    domain: str
    params: tuple
    max_states: Optional[int]
    lgt_star: Optional[Fraction]
    best_lgt: Fraction


@dataclass
class Prepared:
    """A request with everything set-up makes for it."""

    request: Request
    problem: PlanningProblem
    synth: Optional[SynthesisRequest] = None
    env_text: Optional[str] = None
    controller_text: Optional[str] = None


# ---------------------------------------------------------------------------
# request generation


def _pick(rng, pools, den, mag) -> Fraction:
    return Fraction(rng.choice(pools[den, mag]))


# Each workload is a fixed catalogue of (size, probability bin) slots;
# the seed picks the rational inside each bin, LGT* where it does not
# change the search, and the run order.  Verdict times span two orders of
# magnitude, so p50 and p90 are only steady from seed to seed when the
# catalogue is fixed and each quantile falls inside a block of requests
# of one cost class.  The comments give the block that holds each
# quantile.  A block mixes denominator classes in a fixed proportion.


def _bridge(rng, n, N, den, mag) -> tuple:
    # LGT* sits just above the optimum, so the search must be exhaustive
    p_fall = _pick(rng, BRIDGE_P_FALL, den, mag)
    best = (1 - p_fall) ** n
    return ("bridgewalk", {"n": n, "p_fall": p_fall}, N, best * Fraction(1001, 1000), best)


def _prove(rng) -> list[tuple]:
    # 11 requests: p50 is the 6th cheapest, p90 the 10th
    out = [
        _bridge(rng, n, N, den, mag)
        for n, N, den, mag in (
            (4, 3, SMALL, LOW),
            # p50: the middle of these (986 OR steps each)
            (5, 3, SMALL, LOW), (5, 3, LARGE, LOW), (5, 3, SMALL, LOW),
            (6, 3, LARGE, LOW),
            # p90: the middle of these
            (4, 4, LARGE, LOW), (4, 4, LARGE, LOW), (4, 4, LARGE, LOW),
        )
    ]
    # a minority of quick proofs: the saturation rule (no goal state) and
    # a tour that no one-state controller can finish
    for N in (3, 4):
        out.append(("three-state", {}, N, rng.choice(POSITIVE_LGT_STARS), Fraction(0)))
    p = _pick(rng, HALL_P, LARGE, LOW)
    out.append(("noisy-hall-a-2d", {"n": 3, "p": p}, 1, rng.choice(POSITIVE_LGT_STARS), Fraction(0)))
    return out


def _find(rng) -> list[tuple]:
    # two-state controllers with LGT 1 exist on both halls; with a low p
    # the 2-D hall's search size does not depend on LGT*, nor does the
    # corridor's on p or LGT*
    out = []
    for n, den, mag, lgt_star in (
        # p50: n=3, low p (335 OR steps)
        (3, SMALL, LOW, None), (3, LARGE, LOW, None), (3, SMALL, LOW, None),
        # p90: between the longest corridor and these two
        (3, LARGE, HIGH, LGT_STARS[1]),  # 481 OR steps
        (4, LARGE, LOW, None),  # 517 OR steps
    ):
        p = _pick(rng, HALL_P, den, mag)
        lgt_star = lgt_star or rng.choice(LGT_STARS)
        out.append(("noisy-hall-a-2d", {"n": n, "p": p}, 2, lgt_star, Fraction(1)))
    for n, den in ((12, SMALL), (20, LARGE), (28, SMALL), (36, LARGE)):
        p = _pick(rng, HALL_P, den, rng.choice((LOW, HIGH)))
        out.append(("noisy-hall-a-1d", {"n": n, "p": p}, 2, rng.choice(LGT_STARS), Fraction(1)))
    return out


def _certify(rng) -> list[tuple]:
    out = []
    # p50: the tours with n=28
    for n, den, mag in (
        (12, SMALL, LOW), (20, LARGE, HIGH),
        (28, SMALL, LOW), (28, LARGE, LOW), (28, SMALL, HIGH), (28, LARGE, HIGH), (28, LARGE, LOW),
        (38, SMALL, HIGH),
    ):
        out.append(("noisy-hall-a-2d", {"n": n, "p": _pick(rng, HALL_P, den, mag)}, None, None, Fraction(1)))
    # p90: between the two longest corridors
    for n, den, mag in ((120, SMALL, LOW), (240, LARGE, HIGH), (300, SMALL, HIGH), (350, LARGE, LOW), (400, SMALL, LOW)):
        out.append(("noisy-hall-a-1d", {"n": n, "p": _pick(rng, HALL_P, den, mag)}, None, None, Fraction(1)))
    for n, den, mag in ((60, SMALL, LOW), (120, LARGE, HIGH)):
        p_fall = _pick(rng, BRIDGE_P_FALL, den, mag)
        out.append(("bridgewalk", {"n": n, "p_fall": p_fall}, None, None, (1 - p_fall) ** n))
    return out


_FAMILIES = {"prove": _prove, "find": _find, "certify": _certify}
WORKLOADS = tuple(_FAMILIES)


def generate(workload: str, seed: int) -> list[Request]:
    """The request list of one workload seed, in run order."""
    rng = random.Random(f"{workload}:{seed}")
    rows = _FAMILIES[workload](rng)
    rng.shuffle(rows)
    return [
        Request(rid, domain, tuple(sorted(params.items())), max_states, lgt_star, best)
        for rid, (domain, params, max_states, lgt_star, best) in enumerate(rows)
    ]


# ---------------------------------------------------------------------------
# certificates: hand-built controllers whose LGT has a closed form


def _edges(env, num_states: int, edges: dict) -> Controller:
    transitions = {}
    for (q, obs), (action, q2) in edges.items():
        a = STOP if action == "stop" else env.action_index(action)
        transitions[(q, env.observation_index(obs))] = (a, q2)
    return Controller(num_states, transitions)


def tour_controller(env) -> Controller:
    """Clockwise tour of the 2-D hall, counting corners; LGT 1.

    State 0 waits to leave A, states 1-4 walk a side after 0-3 corners,
    states 5-7 wait to leave corner 1-3 (a failed move repeats C)."""
    edges = {(0, "A"): ("cw", 0), (0, "-"): ("cw", 1), (4, "A"): ("stop", 0)}
    for k in range(4):
        edges[(1 + k, "-")] = ("cw", 1 + k)
    for k in range(3):
        edges[(1 + k, "C")] = ("cw", 5 + k)
        edges[(5 + k, "C")] = ("cw", 5 + k)
        edges[(5 + k, "-")] = ("cw", 2 + k)
    return _edges(env, 8, edges)


def corridor_controller(env) -> Controller:
    """Right until B, left until A, stop; LGT 1."""
    return _edges(env, 2, {
        (0, "A"): ("right", 0), (0, "-"): ("right", 0), (0, "B"): ("left", 1),
        (1, "B"): ("left", 1), (1, "-"): ("left", 1), (1, "A"): ("stop", 0),
    })


def bridge_controller(env) -> Controller:
    """Walk to the end and stop; LGT (1 - p_fall)^n."""
    return _edges(env, 1, {
        (0, "start"): ("walk", 0), (0, "mid"): ("walk", 0),
        (0, "end"): ("stop", 0), (0, "fallen"): ("stop", 0),
    })


_CERTIFICATES = {
    "noisy-hall-a-2d": tour_controller,
    "noisy-hall-a-1d": corridor_controller,
    "bridgewalk": bridge_controller,
}


def prepare(requests) -> list[Prepared]:
    """Build each request's problem and write its texts."""
    items = []
    for request in requests:
        problem = domains.build(request.domain, dict(request.params))
        item = Prepared(request, problem)
        if request.max_states is None:
            env = problem.environment
            item.env_text = domains.serialize_env(problem)
            item.controller_text = domains.serialize_controller(_CERTIFICATES[request.domain](env), env)
        else:
            item.synth = SynthesisRequest(problem, request.max_states, request.lgt_star)
        items.append(item)
    return items


# ---------------------------------------------------------------------------
# the timed verdict and its oracle


def verdict(item: Prepared):
    """What a user waits for; returns ``(outcome, measures or None)``.

    A search runs as ``fscsynth synth`` does: the controller it returns is
    serialised and checked with ``exact_measures``.  A certificate is
    parsed from text and solved exactly.  Module attributes are looked
    up at call time so that a tracer can wrap them.
    """
    if item.synth is not None:
        result = pandor.pandor_synth(item.synth, budget=BUDGET)
        if result.controller is None:
            return result.outcome, None
        domains.serialize_controller(result.controller, item.problem.environment)
        return result.outcome, verifier.exact_measures(item.problem, result.controller)
    problem = domains.parse_env(item.env_text)
    controller = domains.parse_controller(item.controller_text, problem.environment)
    return "certified", verifier.exact_measures(problem, controller)


def check(request: Request, outcome: str, measures) -> Optional[str]:
    """Why a verdict is wrong, or None when it is right."""
    if request.max_states is None:
        if measures.undefined_mass != 0:
            return f"certificate leaves undefined mass {measures.undefined_mass}"
        if measures.lgt != request.best_lgt:
            return f"certificate LGT {measures.lgt}, closed form {request.best_lgt}"
        return None
    expected = "controller" if request.best_lgt >= request.lgt_star else "failure-proved"
    if outcome != expected:
        return f"outcome {outcome}, expected {expected}"
    if outcome == "controller":
        if measures.undefined_mass != 0:
            return f"controller leaves undefined mass {measures.undefined_mass}"
        if measures.lgt < request.lgt_star:
            return f"controller LGT {measures.lgt} below LGT* {request.lgt_star}"
    return None
