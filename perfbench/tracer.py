"""Span tracing installed from outside the package.

``Tracer.installed()`` replaces the names the package's callers look up
at call time (module globals and class attributes) with timing wrappers
and puts the originals back on exit, so nothing under ``src/`` changes.
Each call becomes one span ``[name, start, end, parent, request id]``;
spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import json
import time
from array import array
from collections import Counter, defaultdict

from fscsynth import domains, ledger, pandor, verifier

NAME, START, END, PARENT = range(4)  # a span's fifth field is its request id


def _chain_nodes(tracer, args, chain):
    tracer.counts["verifier.chain_nodes"] += len(chain.nodes)


def _parse_env_lines(tracer, args, problem):
    tracer.counts["domains.parse_env.lines"] += args[0].count("\n")


def _synth_result(tracer, args, result):
    tracer.counts["pandor.or_steps"] += result.or_steps
    tracer.peak_depth = max(tracer.peak_depth, result.peak_depth)


# (owner, attribute, span name, result hook) for every traced name.
# ``calc_lambda`` is wrapped twice: ``pandor`` calls it after explored
# outcomes, ``ledger.cumulate_alpha`` calls it inside every fold.
TARGETS = [
    (pandor, "pandor_synth", "pandor.synth", _synth_result),
    (pandor, "calc_lambda", "ledger.calc_lambda", None),
    (pandor, "cumulate_alpha", "ledger.cumulate_alpha", None),
    (ledger, "calc_lambda", "ledger.calc_lambda", None),
    (ledger.SearchLedger, "snapshot", "ledger.snapshot", None),
    (ledger.SearchLedger, "restore", "ledger.restore", None),
    (verifier, "exact_measures", "verifier.exact_measures", None),
    (verifier, "build_chain", "verifier.build_chain", _chain_nodes),
    (domains, "build", "domains.build", None),
    (domains, "parse_env", "domains.parse_env", _parse_env_lines),
    (domains, "parse_controller", "domains.parse_controller", None),
    (domains, "serialize_controller", "domains.serialize_controller", None),
]


class Tracer:
    """In-memory span recorder for one single-threaded run.

    Spans live in flat typed arrays rather than one object each, so that
    recording them does not feed the cyclic garbage collector."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.codes: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.rid_of = array("i")
        self.stack: list[int] = []
        self.rid = -1
        self.counts: Counter = Counter()
        self.peak_depth = 0

    def wrap(self, name, fn, on_result=None):
        if name not in self.codes:
            self.codes[name] = len(self.names)
            self.names.append(name)
        code = self.codes[name]
        names, starts, ends, parents, rids = self.name, self.start, self.end, self.parent, self.rid_of
        stack, clock = self.stack, self.clock

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(code)
            parents.append(stack[-1] if stack else -1)
            rids.append(self.rid)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every name in ``TARGETS`` for a wrapper; restore on exit."""
        saved = []
        try:
            for owner, attr, name, on_result in TARGETS:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, on_result))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @property
    def spans(self) -> list[tuple]:
        """``(name, start, end, parent index, request id)`` per span."""
        return [
            (self.names[c], s, e, p, r)
            for c, s, e, p, r in zip(self.name, self.start, self.end, self.parent, self.rid_of)
        ]

    def write(self, path, meta) -> None:
        """Write the metadata line, then one JSON array per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(meta, sort_keys=True) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its direct children cover.

    Spans come from one thread, so children of one parent never overlap.
    """
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def aggregate(spans) -> dict:
    """Per span name: ``calls``, ``total_s`` and ``self_s``."""
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for span, own in zip(spans, self_times(spans)):
        row = out[span[NAME]]
        row["calls"] += 1
        row["total_s"] += span[END] - span[START]
        row["self_s"] += own
    return dict(out)
