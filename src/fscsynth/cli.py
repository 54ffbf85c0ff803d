"""Command-line front-end: synthesis, verification and DOT export.

Exit codes are a stable contract:

* 0  -- synthesized a controller (or the command simply succeeded)
* 2  -- exhaustive search proved no bounded controller meets the bounds;
  under --algo andor it only proves that no bounded controller reaches
  a goal on every run (a controller meeting --lgt-star may still exist).
  verify given --lgt-star or --lter-star: the controller leaves mass at
  an undefined pair or misses a bound
* 3  -- node budget exhausted (inconclusive)
* 64 -- flag/parameter validation error
* 65 -- file error: an input file does not parse or cannot be read, or
  an output file cannot be written (synth prints its report first)
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

from fscsynth.andor import andor_synth
from fscsynth.domains import (
    DomainError,
    ParseError,
    build,
    domain_names,
    parse_controller,
    parse_env,
    read_int,
    serialize_controller,
)
from fscsynth.model import Controller, ModelError, PlanningProblem, STOP, STOP_NAME, SynthesisRequest, check_bound
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


def _parse_params(entries) -> dict:
    params = {}
    for entry in entries or []:
        name, eq, value = entry.partition("=")
        if not eq or name in params:
            raise _UsageError(f"--param expects name=value with distinct names, got {entry!r}")
        params[name] = value
    return params


def _read_text(path: str) -> str:
    """An input file's text without a leading byte-order mark; a byte that
    is not UTF-8 is a parse error.  The parsers split lines with
    ``str.splitlines``, so no newline translation is needed."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # exc.start indexes exc.object, the bytes after the mark
        lines = (exc.object[:exc.start].decode("utf-8") + "?").splitlines()
        raise ParseError(len(lines), len(lines[-1]), f"byte 0x{exc.object[exc.start]:02x} is not UTF-8")


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load_problem(args) -> PlanningProblem:
    if args.env:
        if args.domain:
            raise _UsageError("give either --env or --domain, not both")
        if args.param:
            raise _UsageError("--param needs --domain: an environment file takes no parameters")
        return parse_env(_read_text(args.env))
    if not args.domain:
        raise _UsageError("one of --env or --domain is required")
    return build(args.domain, _parse_params(args.param))


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args) -> int:
    if args.algo == "andor" and args.lter_star is not None:
        raise _UsageError("--lter-star needs --algo pandor: andor ignores likelihood bounds")
    problem = _load_problem(args)
    budget = read_int("--budget", args.budget, 1)
    max_states = read_int("--max-states", args.max_states, 1)
    try:
        request = SynthesisRequest(problem, max_states, args.lgt_star, args.lter_star)
    except ModelError as exc:
        raise _UsageError(str(exc))

    start = time.perf_counter()
    if args.algo == "andor":
        # the baseline solves the strong problem; likelihood bounds are ignored
        result = andor_synth(problem, max_states, budget=budget)
    else:
        result = pandor_synth(request, budget=budget)
    wall = time.perf_counter() - start

    text = measures = None
    if result.controller is not None:
        text = serialize_controller(result.controller, problem.environment)
        measures = exact_measures(problem, result.controller)

    # the controller text and the measures are set exactly when the outcome is ``controller``
    report = {
        "outcome": result.outcome,
        "algo": args.algo,
        "or_steps": result.or_steps,
        "peak_depth": result.peak_depth,
        "wall_time_s": wall,
        "controller": text,
        **_measure_fields(measures),
    }
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        _print_report(report)
    # after the report, so that a file that cannot be written loses no result
    if text is not None and args.out:
        _write(args.out, text)
    if text is not None and args.dot:
        _write(args.dot, controller_to_dot(result.controller, problem.environment))
    return _OUTCOME_EXIT[result.outcome]


_MEASURES = ("lgt", "lter", "nonterm", "undefined_mass")


def _measure_fields(m: Optional[Measures]) -> dict:
    """Each exact measure as a ratio string and as a float; all null without a controller."""
    fields = {}
    for name in _MEASURES:
        x = getattr(m, name, None)
        fields[name] = None if x is None else f"{x.numerator}/{x.denominator}"
        fields[f"{name}_decimal"] = None if x is None else float(x)
    return fields


def _print_report(report: dict) -> None:
    """The text form of a report: a ``key: value`` line per field with
    dashes for underscores, a measure as its ratio and 12 decimals, null
    fields left out and the controller text last."""
    for key, value in report.items():
        if value is None or key == "controller" or key.endswith("_decimal"):
            continue
        if key == "wall_time_s":
            value = f"{value:.3f}"
        elif key in _MEASURES:
            value = f"{value} ~ {report[key + '_decimal']:.12f}"
        print(f"{key.replace('_', '-')}: {value}")
    if report.get("controller") is not None:
        print("controller:")
        print(report["controller"], end="")


# ---------------------------------------------------------------------------
# verify


def _bound(name: str, value: Optional[str]):
    """A likelihood flag of verify, read as synth reads its bounds; None where it is not given."""
    if value is None:
        return None
    try:
        return check_bound(name, value)
    except ModelError as exc:
        raise _UsageError(str(exc))


def cmd_verify(args) -> int:
    problem = _load_problem(args)
    lgt_star, lter_star = _bound("lgt_star", args.lgt_star), _bound("lter_star", args.lter_star)
    controller = parse_controller(_read_text(args.controller), problem.environment)
    m = exact_measures(problem, controller)
    _print_report(_measure_fields(m))
    if lgt_star is None and lter_star is None:
        return EXIT_OK
    # a pass needs every run judged: no mass may reach an undefined pair
    met = m.undefined_mass == 0 and m.lgt >= (lgt_star or 0) and m.lter >= (lter_star or 0)
    return EXIT_OK if met else EXIT_NO_CONTROLLER


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
    controller = parse_controller(_read_text(args.controller), problem.environment)
    text = controller_to_dot(controller, problem.environment)
    if args.out:
        _write(args.out, text)
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
    synth.add_argument("--max-states", required=True, metavar="N")
    synth.add_argument("--lgt-star", required=True, metavar="Q", help="minimum goal-termination likelihood")
    synth.add_argument("--lter-star", metavar="Q", help="minimum termination likelihood (pandor only)")
    synth.add_argument("--algo", choices=["pandor", "andor"], default="pandor")
    synth.add_argument("--budget", default=DEFAULT_BUDGET, metavar="STEPS")
    synth.add_argument("--out", metavar="FILE", help="write the controller here")
    synth.add_argument("--dot", metavar="FILE", help="write a DOT rendering here")
    synth.add_argument("--json", action="store_true", help="machine-readable report")
    synth.set_defaults(func=cmd_synth)

    verify = subs.add_parser("verify", help="exact measures of a controller")
    _add_problem_flags(verify)
    verify.add_argument("--controller", required=True, metavar="FILE")
    verify.add_argument("--lgt-star", metavar="Q", help="exit 0 only at this goal-termination likelihood or more")
    verify.add_argument("--lter-star", metavar="Q", help="exit 0 only at this termination likelihood or more")
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
