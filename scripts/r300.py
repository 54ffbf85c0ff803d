#!/usr/bin/env python3
"""Print the R300 table: 300 seeded random POMDP searches, one JSON line each.

Each seed builds a problem with ``tests/helpers.random_env`` (4-6 states,
partial transition tables for about half the seeds), picks a controller
bound N of 2 or 3 and asks ``pandor_synth`` for ``LGT*`` 1/2 with a
60 000 OR-step budget.  A line holds the seed, the outcome, the OR steps,
the peak depth and the controller's transitions, sorted.  The output is
deterministic; ``tests/data/r300.jsonl`` pins it.

Usage: PYTHONPATH=src:tests python3 scripts/r300.py
"""

import json
import random
from fractions import Fraction

from fscsynth.model import SynthesisRequest
from fscsynth.pandor import pandor_synth

from helpers import random_env

SEEDS = 300
BUDGET = 60_000


def main() -> None:
    for seed in range(SEEDS):
        rng = random.Random(seed)
        size = rng.randint(4, 6)
        problem = random_env(rng, n_states=size, partial=rng.random() < 0.5)
        bound = rng.choice((2, 3))
        result = pandor_synth(SynthesisRequest(problem, bound, Fraction(1, 2)), budget=BUDGET)
        transitions = sorted(result.controller.transitions.items()) if result.controller else None
        print(json.dumps({
            "seed": seed,
            "outcome": result.outcome,
            "or_steps": result.or_steps,
            "peak_depth": result.peak_depth,
            "controller": transitions,
        }), flush=True)


if __name__ == "__main__":
    main()
