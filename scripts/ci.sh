#!/usr/bin/env bash
# The repository's checks, in the order the tier-1 workflow runs them; each
# stops the script on failure.  Run from anywhere, offline, with pytest and
# hypothesis installed:
#
#   bash scripts/ci.sh
#
# About 130-160 s in all on a 2-vCPU Xeon VM (CPython 3.11.7; 141 s
# measured with 518 tier-1 tests): 55-70 s for tier-1 (59 s in that run,
# among them the small-scope oracle's scope 2, about 25 s, the R300
# comparisons with the walk, the revisit walk and the settle's pass from
# scratch, and the goal-bound tests), 1 s for the standalone acceptance
# battery, 18 s for the six smoke runs (2.4-3.8 s each, the three untraced
# ones under -O), 4 s for R300, 4 s for its seeds 10 and 120 at 10^6 OR
# steps (about 2.5 s and 1.2 s), 45-55 s for the small-scope scopes 1 and
# 3 (about 6 s and 41-48 s), 0.2 s for the -O andor example and 0.4 s for the
# two -O verify runs; longer while other work shares the VM.
set -euo pipefail
cd "$(dirname "$0")/.."

# tier-1. A deprecated API used inside the package fails the run. The filter
# goes in as an ini option: there its module field is a regex matched at the
# start of the module name, while -W anchors it to the name "fscsynth" alone
# and would let a warning raised in fscsynth.pandor pass
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python3 -m pytest -q --continue-on-collection-errors \
  -o "filterwarnings=error::DeprecationWarning:fscsynth"

# the package's size: fewer lines for the same behaviour is a design aim.
# Deleting a comment is no reduction, so the lines that hold code, outside
# docstrings and comments, are printed next to the raw count. Neither gates
code=$(python3 - src/fscsynth/*.py <<'EOF'
import ast, io, sys, tokenize
skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
total = 0
for path in sys.argv[1:]:
    text = open(path, encoding="utf-8").read()
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in skip:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            lines.difference_update(range(node.lineno, node.end_lineno + 1))
    total += len(lines)
print(total)
EOF
)
echo "src/fscsynth/*.py: $(cat src/fscsynth/*.py | wc -l) lines, $code outside docstrings and comments"

# the acceptance battery as README runs it, through its own __main__ runner,
# which exits 1 on a failed criterion. Not under -O: the criteria are asserts
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python3 tests/test_acceptance.py

# perfbench smoke run: two short benchmark runs per workload, each checked
# for correct verdicts and no failed request. --trace 1 wraps every name the
# tracer patches, so a renamed one fails here rather than in a benchmark; its
# work counters are pinned: a constant-factor change leaves them equal, and a
# change to the search updates them and says why. The untraced run goes under
# -O: certify checks a parsed environment by parse_env alone, find searches
# the noisy halls domains.build writes as index tables and re-checks each
# controller exactly, and prove's proofs rest on the goal bound's exact
# check, so none of these checks may rest on assert statements
# (tests/test_source.py keeps them out of perfbench's modules as well).
# prove: the goal bound ends each of the eight bridgewalk requests at its
# root visit (LGT* is 1.001 U(s0) there), so 15 OR steps are left of 1 147:
# one per bridgewalk and three-state request and 5 for the 2-D hall, whose
# closed controllers the settle judges without walking them (35 OR steps and
# peak depth 14 walked). find: the settle returns each controller once it
# is closed with LGT 1, where the walk took 1 668 OR steps and 896 folds
declare -A counters=(
  [prove]='{"pandor.or_steps": 15, "ledger.calc_lambda.calls": 3, "ledger.cumulate_alpha.calls": 0,
    "ledger.snapshot.calls": 5, "ledger.restore.calls": 10, "pandor.peak_depth.max": 3,
    "verifier.exact_measures.calls": 0}'
  [find]='{"pandor.or_steps": 389, "ledger.calc_lambda.calls": 0, "ledger.cumulate_alpha.calls": 88,
    "ledger.snapshot.calls": 54, "ledger.restore.calls": 38, "pandor.peak_depth.max": 71,
    "verifier.exact_measures.calls": 9, "verifier.chain_nodes": 329}'
  [certify]='{"pandor.or_steps": 0, "verifier.exact_measures.calls": 15, "verifier.chain_nodes": 3876,
    "domains.parse_env.lines": 47683}'
)
for w in prove find certify; do
  for t in 0 1; do
    want='{}' py=(python3 -O)
    if [ "$t" = 1 ]; then want=${counters[$w]} py=(python3); fi
    last=$("${py[@]}" perfbench/run.py --workload "$w" --seed 1 --seconds 1 --trace "$t" | tail -n 1)
    python3 -c 'import json, sys; r = json.loads(sys.argv[1]); want = json.loads(sys.argv[2]); got = {k: r["metrics"][k]["value"] for k in want}; print(sys.argv[3], got); sys.exit(not (r["correct"] is True and r["failed"] == 0 and got == want))' "$last" "$want" "$w-trace$t${py[1]:-}"
  done
done

# R300: 300 seeded random searches; outcome, OR steps, peak depth, controller
# and its num_states must match the committed table exactly. tier-1 replays
# the 286 seeds of at most 2 000 OR steps; this diffs all 300 under -O: the
# package must behave the same without assert statements
diff <(PYTHONPATH=src:tests python3 -O scripts/r300.py) tests/data/r300.jsonl
echo "R300 table: identical"

# R300 seeds 10 and 120 at a budget of 10^6: the longest backtracking
# searches of the table, 224 651 and 86 292 OR steps to a controller, and
# so the longest runs of the choice points' snapshots and restores; their
# outcome, OR steps, peak depth and controller must match under -O
diff <(PYTHONPATH=src:tests python3 -O scripts/r300.py --budget 1000000 10 120) tests/data/r300_long.jsonl
echo "R300 seeds 10 and 120 at 10^6 OR steps: identical"

# the small-scope oracle's other two scopes, every problem of 2 states and
# 2 actions with splits 1/2 (scope 1), then 1/3, 1/2 and 2/3 (scope 3),
# against brute force, through its own __main__ runner, which exits 1 on a
# mismatch; tier-1 runs scope 2. Under -O: the checks are no asserts
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python3 -O tests/test_small_scope.py 1 3

# README's andor example under -O: no other check runs an andor search
# without assert statements
out=$(PYTHONPATH=src python3 -O -m fscsynth.cli synth --domain hall-a-1d --param n=5 --max-states 2 \
  --lgt-star 0.99 --algo andor --json)
python3 -c 'import json, sys; r = json.loads(sys.argv[1]); got = (r["outcome"], r["or_steps"], r["peak_depth"], r["lgt"], r["lter"]); print("andor-O", got); sys.exit(got != ("controller", 19, 8, "1/1", "1/1"))' "$out"

# README's verify example under -O: the coin-flip controller that stops on
# either outcome has LGT exactly 1/2 and no undefined mass, so the bound 1/2
# passes (exit 0) and 0.51 fails (exit 2) on the exact comparison alone
ctrl=$(mktemp)
trap 'rm -f "$ctrl"' EXIT
printf 'states 1\nstart 0\nedge 0 start flip 0\nedge 0 won stop 0\nedge 0 lost stop 0\n' > "$ctrl"
for bound in 1/2:0 0.51:2; do
  code=0
  PYTHONPATH=src python3 -O -m fscsynth.cli verify --domain coin-flip --controller "$ctrl" \
    --lgt-star "${bound%:*}" > /dev/null || code=$?
  echo "verify-O --lgt-star ${bound%:*}: exit $code"
  [ "$code" = "${bound#*:}" ]
done

# nothing else runs the example script, and it imports the CLI's DOT export
out=$(PYTHONPATH=src python3 scripts/show_noisy_corridor.py)
echo "$out"
grep -qF "retry edge on B after the turn: present" <<< "$out"
