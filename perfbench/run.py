"""fscsynth benchmark: one closed-loop client, one process, no threads.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload prove --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures the
per-layer metrics, alternating each request untraced and traced.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md beside this
file for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def _load_package():
    """Import fscsynth from this checkout's ``src`` and nowhere else."""
    if not (SRC / "fscsynth" / "__init__.py").is_file():
        raise SystemExit(f"error: no fscsynth sources at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import fscsynth

    if SRC not in Path(fscsynth.__file__).resolve().parents:
        raise SystemExit(f"error: fscsynth was imported from {fscsynth.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# run metadata


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD of the checkout, read from ``.git`` directly; None without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "fscsynth").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


def main(argv=None) -> int:
    _load_package()
    sys.path.insert(0, str(HERE))
    import measure

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=measure.workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    meta = metadata(args)
    print("meta " + json.dumps(meta, sort_keys=True), flush=True)

    items, setup_times, setup_refs = measure.setup(args.workload, args.seed)
    if args.trace:
        setup_tracer = measure.traced_setup(args.workload, args.seed)
        plain, traced, failures, tracers = measure.run_traced(items, args.seconds)
        attempted = sum(map(len, plain)) + sum(map(len, traced))
        metrics = measure.per_layer(setup_tracer, tracers, plain, traced)
    else:
        passes, refs, failures = measure.run_plain(items, args.seconds)
        attempted = sum(len(times) for times in passes)
        metrics = measure.end_to_end(setup_times, setup_refs, passes, refs, failures)

    for rid, error in failures[:20]:
        print(f"FAILED request {rid}: {error}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"meta": meta, "result": result, "setup_s": setup_times, "setup_reference_s": setup_refs}
    if not args.trace:
        record["verdict_s"] = passes
        record["reference_s"] = refs
    stem.with_suffix(".json").write_text(json.dumps(record) + "\n")
    if args.trace:
        # the first pass is the one the counters come from
        tracers[0].write(f"{stem}.spans.jsonl", meta)

    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:>16.6g} {unit}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
