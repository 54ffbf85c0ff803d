"""Bounded finite-state controller synthesis for stochastic planning problems.

The package has three independent routes to the same quantities, which is
what makes it testable:

* ``pandor`` -- a probabilistic AND-OR search that synthesizes controllers
  with guaranteed lower bounds on goal termination (LGT) and termination
  (LTER) likelihood, maintaining sound lower bounds during the search;
* ``andor`` -- the classical bounded AND-OR search baseline that only
  accepts controllers whose every run reaches the goal;
* ``verifier`` -- an exact absorbing-Markov-chain analysis of a fixed
  (problem, controller) pair, used as the ground truth everywhere.

All probability arithmetic is done in exact rationals.
"""

from fscsynth.model import (
    Controller,
    Environment,
    ModelError,
    PlanningProblem,
    STOP,
    SynthesisRequest,
    SynthResult,
)
from fscsynth.verifier import Measures, exact_measures
from fscsynth.ledger import LambdaVector, LedgerError, SearchLedger, calc_lambda, cumulate_alpha
from fscsynth.pandor import measure, pandor_synth
from fscsynth.andor import andor_synth
from fscsynth.domains import DomainError, ParseError, build, parse_controller, parse_env, serialize_controller, serialize_env

__all__ = [
    "Controller",
    "DomainError",
    "Environment",
    "LambdaVector",
    "LedgerError",
    "Measures",
    "ModelError",
    "ParseError",
    "PlanningProblem",
    "STOP",
    "SearchLedger",
    "SynthResult",
    "SynthesisRequest",
    "andor_synth",
    "build",
    "calc_lambda",
    "cumulate_alpha",
    "exact_measures",
    "measure",
    "pandor_synth",
    "parse_controller",
    "parse_env",
    "serialize_controller",
    "serialize_env",
]
