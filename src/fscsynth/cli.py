"""Command-line front-end: synthesis, verification and DOT export.

Exit codes are a stable contract:

* 0  -- synthesized a controller (or the command simply succeeded)
* 2  -- exhaustive search proved no bounded controller meets the bounds;
  under --algo andor it only proves that no bounded controller reaches
  a goal on every run (a controller meeting --lgt-star may still exist)
* 3  -- node budget exhausted (inconclusive)
* 64 -- flag/parameter validation error
* 65 -- input file parse error
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from typing import Optional

from fscsynth.andor import GeneralizedProblem, andor_synth
from fscsynth.domains import (
    DomainError,
    ParseError,
    build,
    domain_names,
    parse_controller,
    parse_env,
    serialize_controller,
)
from fscsynth.model import Controller, ModelError, PlanningProblem, STOP, STOP_NAME, SynthesisRequest, SynthResult
from fscsynth.pandor import DEFAULT_BUDGET, pandor_synth
from fscsynth.verifier import Measures, exact_measures

EXIT_OK = 0
EXIT_NO_CONTROLLER = 2
EXIT_BUDGET = 3
EXIT_USAGE = 64
EXIT_DATA = 65

_OUTCOME_EXIT = {
    "controller": EXIT_OK,
    "failure-proved": EXIT_NO_CONTROLLER,
    "budget-exhausted": EXIT_BUDGET,
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _fmt(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator} ~ {float(x):.12f}"


def _parse_params(entries) -> dict:
    params = {}
    for entry in entries or []:
        name, eq, value = entry.partition("=")
        if not eq or name in params:
            raise _UsageError(f"--param expects name=value with distinct names, got {entry!r}")
        params[name] = value
    return params


def _read_text(path: str) -> str:
    """An input file's text; a byte that is not UTF-8 is a parse error.
    The parsers split lines with ``str.splitlines``, so no newline
    translation is needed."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lines = (data[:exc.start].decode("utf-8") + "?").splitlines()
        raise ParseError(len(lines), len(lines[-1]), f"byte 0x{data[exc.start]:02x} is not UTF-8")


def _load_problem(args) -> PlanningProblem:
    if getattr(args, "env", None):
        if getattr(args, "domain", None):
            raise _UsageError("give either --env or --domain, not both")
        return parse_env(_read_text(args.env))
    if not getattr(args, "domain", None):
        raise _UsageError("one of --env or --domain is required")
    return build(args.domain, _parse_params(getattr(args, "param", None)))


def _load_controller(args, problem: PlanningProblem) -> Controller:
    return parse_controller(_read_text(args.controller), problem.environment)


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args) -> int:
    if args.algo == "andor" and args.lter_star is not None:
        raise _UsageError("--lter-star needs --algo pandor: andor ignores likelihood bounds")
    problem = _load_problem(args)
    try:
        request = SynthesisRequest(problem, args.max_states, args.lgt_star, args.lter_star)
    except ModelError as exc:
        raise _UsageError(str(exc))

    start = time.perf_counter()
    if args.algo == "andor":
        # the baseline solves the strong problem; likelihood bounds are ignored
        result = andor_synth(GeneralizedProblem.from_problem(problem), args.max_states, budget=args.budget)
    else:
        result = pandor_synth(request, budget=args.budget)
    wall = time.perf_counter() - start

    text = measures = None
    if result.controller is not None:
        text = serialize_controller(result.controller, problem.environment)
        measures = exact_measures(problem, result.controller)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        if args.dot:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(controller_to_dot(result.controller, problem.environment))

    if args.json:
        print(json.dumps(_report_json(result, args.algo, wall, text, measures), indent=2))
    else:
        _print_report(result, args.algo, wall, text, measures)
    return _OUTCOME_EXIT[result.outcome]


def _ratio(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _report_json(
    result: SynthResult, algo: str, wall: float, text: Optional[str], measures: Optional[Measures]
) -> dict:
    """The synthesis report as JSON; the controller text and the measure
    fields (lgt/lter/nonterm/undefined_mass) are set exactly when the
    outcome is ``controller``, and null otherwise."""
    out = {
        "outcome": result.outcome,
        "algo": algo,
        "or_steps": result.or_steps,
        "peak_depth": result.peak_depth,
        "wall_time_s": wall,
        "controller": text,
    }
    for name in ("lgt", "lter", "nonterm", "undefined_mass"):
        x = getattr(measures, name, None)
        out[name] = None if x is None else _ratio(x)
        out[f"{name}_decimal"] = None if x is None else float(x)
    return out


def _print_measures(m: Measures) -> None:
    for label, x in (("lgt", m.lgt), ("lter", m.lter), ("nonterm", m.nonterm), ("undefined-mass", m.undefined_mass)):
        print(f"{label}: {_fmt(x)}")


def _print_report(
    result: SynthResult, algo: str, wall: float, text: Optional[str], measures: Optional[Measures]
) -> None:
    print(f"outcome: {result.outcome}")
    print(f"algo: {algo}")
    print(f"or-steps: {result.or_steps}")
    print(f"peak-depth: {result.peak_depth}")
    print(f"wall-time-s: {wall:.3f}")
    if measures is not None:
        _print_measures(measures)
    if text is not None:
        print("controller:")
        print(text, end="")


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    problem = _load_problem(args)
    controller = _load_controller(args, problem)
    _print_measures(exact_measures(problem, controller))
    return EXIT_OK


# ---------------------------------------------------------------------------
# DOT export


def controller_to_dot(controller: Controller, env) -> str:
    """Graphviz text with parallel transitions merged into one edge.

    Edges carry ``observation : action`` labels; edges that include a
    stop transition are dashed.  Node and edge order is deterministic.
    """
    grouped: dict[tuple[int, int], list] = {}
    for (q, o), (a, q2) in sorted(controller.transitions.items()):
        grouped.setdefault((q, q2), []).append((o, a))
    lines = ["digraph controller {", "  rankdir=LR;", '  __start [shape=point];']
    for q in range(controller.num_states):
        lines.append(f'  q{q} [shape=circle, label="q{q}"];')
    lines.append("  __start -> q0;")
    for (q, q2), labels in sorted(grouped.items()):
        parts = []
        dashed = False
        for o, a in labels:
            name = STOP_NAME if a == STOP else env.actions[a]
            dashed = dashed or a == STOP
            # an identifier may hold a backslash or a quote: escape both for DOT
            parts.append(f"{env.observations[o]} : {name}".replace("\\", "\\\\").replace('"', '\\"'))
        style = ", style=dashed" if dashed else ""
        label = "\\n".join(parts)
        lines.append(f'  q{q} -> q{q2} [label="{label}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_export_dot(args) -> int:
    problem = _load_problem(args)
    controller = _load_controller(args, problem)
    text = controller_to_dot(controller, problem.environment)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring


def _add_problem_flags(sub):
    sub.add_argument("--env", help="environment file")
    sub.add_argument("--domain", choices=sorted(domain_names()), help="built-in domain name")
    sub.add_argument("--param", action="append", metavar="K=V", help="domain parameter, repeatable")


def build_parser() -> _Parser:
    parser = _Parser(prog="fscsynth", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    synth = subs.add_parser("synth", help="synthesize a controller")
    _add_problem_flags(synth)
    synth.add_argument("--max-states", type=int, required=True, metavar="N")
    synth.add_argument("--lgt-star", required=True, metavar="Q", help="minimum goal-termination likelihood")
    synth.add_argument("--lter-star", metavar="Q", help="minimum termination likelihood (pandor only)")
    synth.add_argument("--algo", choices=["pandor", "andor"], default="pandor")
    synth.add_argument("--budget", type=int, default=DEFAULT_BUDGET, metavar="STEPS")
    synth.add_argument("--out", metavar="FILE", help="write the controller here")
    synth.add_argument("--dot", metavar="FILE", help="write a DOT rendering here")
    synth.add_argument("--json", action="store_true", help="machine-readable report")
    synth.set_defaults(func=cmd_synth)

    verify = subs.add_parser("verify", help="exact measures of a controller")
    _add_problem_flags(verify)
    verify.add_argument("--controller", required=True, metavar="FILE")
    verify.set_defaults(func=cmd_verify)

    dot = subs.add_parser("export-dot", help="render a controller as Graphviz DOT")
    _add_problem_flags(dot)
    dot.add_argument("--controller", required=True, metavar="FILE")
    dot.add_argument("--out", metavar="FILE")
    dot.set_defaults(func=cmd_export_dot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "budget", 1) < 1:
            raise _UsageError(f"--budget must be a positive integer, got {args.budget}")
        return args.func(args)
    except (_UsageError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ModelError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
