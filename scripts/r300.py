#!/usr/bin/env python3
"""Print the R300 table: 300 seeded random POMDP searches, one JSON line each.

Each seed builds a problem with ``tests/helpers.random_env`` (4-6 states,
partial transition tables for about half the seeds), picks a controller
bound N of 2 or 3 and asks ``pandor_synth`` for ``LGT*`` 1/2 with a
60 000 OR-step budget.  A line holds the seed, the outcome, the OR steps,
the peak depth, the controller's transitions, sorted, and its number of
states (both null when no controller is returned).  The output is
deterministic; ``tests/data/r300.jsonl`` pins it.

Given seeds, it prints their lines alone, and ``--budget`` replaces the
60 000-step budget: ``tests/data/r300_long.jsonl`` pins seeds 10 and 120
at 1 000 000 OR steps, the longest backtracking searches of the table.

Usage: PYTHONPATH=src:tests python3 scripts/r300.py [--budget N] [SEED ...]
"""

import argparse
import json
import random
from fractions import Fraction

from fscsynth.model import SynthesisRequest
from fscsynth.pandor import pandor_synth

from helpers import random_env

SEEDS = 300
BUDGET = 60_000


def problem(rng: random.Random):
    """The seed's problem, drawn first from its ``rng``."""
    size = rng.randint(4, 6)
    return random_env(rng, n_states=size, partial=rng.random() < 0.5)


def request(seed: int) -> SynthesisRequest:
    """The seed's request: its problem, then its bound N, drawn from one ``rng``."""
    rng = random.Random(seed)
    prob = problem(rng)
    return SynthesisRequest(prob, rng.choice((2, 3)), Fraction(1, 2))


def row(seed: int, budget: int = BUDGET) -> dict:
    """The table line of ``seed``, as a dict."""
    result = pandor_synth(request(seed), budget=budget)
    controller = result.controller
    return {
        "seed": seed,
        "outcome": result.outcome,
        "or_steps": result.or_steps,
        "peak_depth": result.peak_depth,
        "controller": sorted(controller.transitions.items()) if controller else None,
        "num_states": controller.num_states if controller else None,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description="Print R300 table lines.")
    parser.add_argument("--budget", type=int, default=BUDGET, help="OR-step budget per search")
    parser.add_argument("seeds", type=int, nargs="*", help=f"seeds to run (default: 0-{SEEDS - 1})")
    args = parser.parse_args()
    for seed in args.seeds or range(SEEDS):
        print(json.dumps(row(seed, args.budget)), flush=True)


if __name__ == "__main__":
    main()
