import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import fscsynth
from fscsynth.cli import build_parser, main
from fscsynth.domains import build, serialize_controller, serialize_env
from fscsynth.model import SynthesisRequest
from fscsynth.pandor import pandor_synth
from fscsynth.verifier import exact_measures
from fscsynth.domains import parse_controller

from helpers import (
    always_a_controller, always_flip_controller, controller_from_names, corridor_controller, flip_stop_controller,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_synth_reachable_bound_exits_zero(capsys):
    code, out, _ = run(capsys, "synth", "--domain", "coin-flip", "--max-states", "2", "--lgt-star", "0.4")
    assert code == 0
    assert "outcome: controller" in out
    assert "lgt: 1/2 ~ 0.500000000000" in out


def test_synth_unreachable_bound_exits_two(capsys):
    code, out, _ = run(capsys, "synth", "--domain", "coin-flip", "--max-states", "2", "--lgt-star", "0.6")
    assert code == 2
    assert "outcome: failure-proved" in out
    assert "lgt:" not in out  # oracle fields only when a controller exists


def test_synth_budget_exits_three(capsys):
    code, out, _ = run(
        capsys, "synth", "--domain", "noisy-hall-a-1d", "--param", "n=4",
        "--max-states", "2", "--lgt-star", "0.99", "--budget", "5",
    )
    assert code == 3
    assert "outcome: budget-exhausted" in out


def test_synth_budget_one_reports_one_or_step(capsys):
    code, out, _ = run(
        capsys, "synth", "--domain", "noisy-hall-a-1d", "--param", "n=4",
        "--max-states", "2", "--lgt-star", "0.99", "--budget", "1",
    )
    assert code == 3
    assert "or-steps: 1\n" in out


def test_bench_subcommand_is_gone(capsys):
    code, out, err = run(capsys, "bench")
    assert code == 64 and not out and "bench" in err


def test_synth_corridor_with_baseline_algo(capsys):
    code, out, _ = run(
        capsys, "synth", "--domain", "hall-a-1d", "--param", "n=5",
        "--max-states", "2", "--lgt-star", "0.99", "--algo", "andor",
    )
    assert code == 0
    assert "lgt: 1/1" in out


def test_baseline_algo_rejects_a_termination_bound(capsys):
    # andor ignores likelihood bounds, so the bound used to be dropped silently
    code, out, err = run(
        capsys, "synth", "--domain", "coin-flip", "--max-states", "2", "--lgt-star", "0.4",
        "--lter-star", "0.9", "--algo", "andor",
    )
    assert code == 64 and not out and "--lter-star" in err


def test_baseline_exit_two_only_refutes_a_goal_on_every_run(capsys):
    # andor proves that no 2-state controller always reaches the goal;
    # pandor finds one with LGT 1/2 >= 0.4 for the same flags
    argv = ("synth", "--domain", "coin-flip", "--max-states", "2", "--lgt-star", "0.4")
    assert run(capsys, *argv, "--algo", "andor")[0] == 2
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "lgt: 1/2" in out
    help_text = " ".join(build_parser().format_help().split())
    assert "under --algo andor it only proves that no bounded controller reaches a goal on every run" in help_text


def test_synth_json_schema(capsys):
    code, out, _ = run(
        capsys, "synth", "--domain", "coin-flip", "--max-states", "2",
        "--lgt-star", "0.4", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {
        "outcome", "algo", "or_steps", "peak_depth", "wall_time_s", "controller",
        "lgt", "lgt_decimal", "lter", "lter_decimal", "nonterm", "nonterm_decimal",
        "undefined_mass", "undefined_mass_decimal",
    }
    assert payload["outcome"] == "controller"
    assert payload["lgt"] == "1/2" and payload["lgt_decimal"] == 0.5
    assert payload["controller"].startswith("states ")


def test_synth_json_failure_has_null_oracle_fields(capsys):
    code, out, _ = run(
        capsys, "synth", "--domain", "coin-flip", "--max-states", "2",
        "--lgt-star", "0.6", "--json",
    )
    assert code == 2
    payload = json.loads(out)
    assert payload["controller"] is None and payload["lgt"] is None


def test_synth_writes_out_and_dot_files(tmp_path, capsys):
    out_file = tmp_path / "controller.fsc"
    dot_file = tmp_path / "controller.dot"
    code, _, _ = run(
        capsys, "synth", "--domain", "hall-a-1d", "--param", "n=5",
        "--max-states", "2", "--lgt-star", "0.999999999",
        "--out", str(out_file), "--dot", str(dot_file),
    )
    assert code == 0
    prob = build("hall-a-1d", {"n": 5})
    ctrl = parse_controller(out_file.read_text(), prob.environment)
    assert exact_measures(prob, ctrl).lgt == 1
    assert "digraph controller" in dot_file.read_text()


def test_end_to_end_soundness_of_exit_zero(tmp_path, capsys):
    # verify(synth(...)) never dips below the requested bound on exit 0
    out_file = tmp_path / "c.fsc"
    for domain, star in [("coin-flip", "0.4"), ("decay-loop", "0.9"), ("bridgewalk", "0.5")]:
        code, _, _ = run(
            capsys, "synth", "--domain", domain, "--max-states", "2",
            "--lgt-star", star, "--out", str(out_file),
        )
        assert code == 0
        prob = build(domain)
        ctrl = parse_controller(out_file.read_text(), prob.environment)
        assert exact_measures(prob, ctrl).lgt >= F(star)


def test_verify_decay_loop(tmp_path, capsys):
    prob = build("decay-loop")
    env_file = tmp_path / "decay.env"
    ctrl_file = tmp_path / "flip.fsc"
    env_file.write_text(serialize_env(prob))
    ctrl_file.write_text(serialize_controller(always_flip_controller(prob), prob.environment))
    code, out, _ = run(capsys, "verify", "--env", str(env_file), "--controller", str(ctrl_file))
    assert code == 0
    assert "lgt: 1/1 ~ 1.000000000000" in out


def test_verify_three_state_nonterm(tmp_path, capsys):
    prob = build("three-state")
    ctrl_file = tmp_path / "a.fsc"
    ctrl_file.write_text(serialize_controller(always_a_controller(prob), prob.environment))
    code, out, _ = run(capsys, "verify", "--domain", "three-state", "--controller", str(ctrl_file))
    assert code == 0
    assert "nonterm: 1/1 ~ 1.000000000000" in out


def test_verify_coin_flip_half(tmp_path, capsys):
    prob = build("coin-flip")
    ctrl_file = tmp_path / "c.fsc"
    ctrl_file.write_text(serialize_controller(flip_stop_controller(prob), prob.environment))
    code, out, _ = run(capsys, "verify", "--domain", "coin-flip", "--controller", str(ctrl_file))
    assert code == 0
    assert "lgt: 1/2 ~ 0.500000000000" in out


def test_export_dot_corridor(tmp_path, capsys):
    prob = build("hall-a-1d", {"n": 5})
    ctrl_file = tmp_path / "c.fsc"
    ctrl_file.write_text(serialize_controller(corridor_controller(prob.environment), prob.environment))
    code, out, _ = run(
        capsys, "export-dot", "--domain", "hall-a-1d", "--param", "n=5",
        "--controller", str(ctrl_file),
    )
    assert code == 0
    assert out.count("shape=circle") == 2
    edges = [line for line in out.splitlines() if "label=" in line and "->" in line]
    assert len(edges) == 4  # parallel transitions share one drawn edge
    assert any("stop" in e and "style=dashed" in e for e in edges)
    dot_file = tmp_path / "c.dot"
    code, again, _ = run(
        capsys, "export-dot", "--domain", "hall-a-1d", "--param", "n=5",
        "--controller", str(ctrl_file), "--out", str(dot_file),
    )
    assert code == 0 and not again and dot_file.read_text(encoding="utf-8") == out


def test_export_dot_empty_controller(tmp_path, capsys):
    ctrl_file = tmp_path / "empty.fsc"
    ctrl_file.write_text("states 1\nstart 0\n")
    code, out, _ = run(capsys, "export-dot", "--domain", "coin-flip", "--controller", str(ctrl_file))
    assert code == 0
    assert out.count("shape=circle") == 1
    assert "__start -> q0;" in out


def test_export_dot_noisy_retry_edge(tmp_path, capsys):
    from fscsynth.model import SynthesisRequest
    from fscsynth.pandor import pandor_synth

    prob = build("noisy-hall-a-1d", {"n": 4})
    result = pandor_synth(SynthesisRequest(prob, 2, F(99, 100)))
    ctrl_file = tmp_path / "noisy.fsc"
    ctrl_file.write_text(serialize_controller(result.controller, prob.environment))
    code, out, _ = run(
        capsys, "export-dot", "--domain", "noisy-hall-a-1d", "--param", "n=4",
        "--controller", str(ctrl_file),
    )
    assert code == 0
    q1_self = [line for line in out.splitlines() if "q1 -> q1" in line]
    assert q1_self and "B : left" in q1_self[0]


def test_export_dot_escapes_quotes_and_backslashes(tmp_path, capsys):
    from fscsynth.model import Controller, Environment, PlanningProblem

    env = Environment(("s", "t"), ("go\\",), ('o"1', "won"), {(0, 0): ((1, F(1)),)}, (0, 1))
    prob = PlanningProblem(env, 0, frozenset({1}))
    env_file, ctrl_file = tmp_path / "q.env", tmp_path / "q.fsc"
    env_file.write_text(serialize_env(prob))
    ctrl_file.write_text(serialize_controller(Controller(1, {(0, 0): (0, 0), (0, 1): (-1, 0)}), env))
    code, out, _ = run(capsys, "export-dot", "--env", str(env_file), "--controller", str(ctrl_file))
    assert code == 0
    assert '  q0 -> q0 [label="o\\"1 : go\\\\\\nwon : stop", style=dashed];' in out.splitlines()


def _verify(tmp_path, capsys, domain, ctrl, *flags):
    ctrl_file = tmp_path / "c.fsc"
    ctrl_file.write_text(serialize_controller(ctrl, build(domain).environment))
    return run(capsys, "verify", "--domain", domain, "--controller", str(ctrl_file), *flags)


@pytest.mark.parametrize("flags, code", [
    (["--lgt-star", "1/2"], 0),  # LGT is exactly 1/2
    (["--lgt-star", "0.5", "--lter-star", "0.999"], 0),
    (["--lgt-star", "0.51"], 2),
    (["--lgt-star", "0.51", "--lter-star", "0.999"], 2),
], ids=["met", "both-met", "missed", "lgt-missed"])
def test_verify_checks_the_bounds_it_is_given(tmp_path, capsys, flags, code):
    ctrl = flip_stop_controller(build("coin-flip"))
    plain = _verify(tmp_path, capsys, "coin-flip", ctrl)
    assert plain[0] == 0
    # the report is the same with the flags; only the exit code tells
    assert _verify(tmp_path, capsys, "coin-flip", ctrl, *flags) == (code, plain[1], "")


def test_verify_misses_a_termination_bound(tmp_path, capsys):
    ctrl = always_a_controller(build("three-state"))  # LTER 0
    code, out, _ = _verify(tmp_path, capsys, "three-state", ctrl, "--lter-star", "1/1000")
    assert code == 2 and "lter: 0/1" in out


def test_verify_fails_a_partial_controller_that_meets_its_bound(tmp_path, capsys):
    prob = build("coin-flip")
    ctrl = controller_from_names(prob.environment, 1, {(0, "start"): ("flip", 0), (0, "won"): ("stop", 0)})
    # LGT 1/2 meets 0.4, but half of the mass reaches an undefined pair
    code, out, _ = _verify(tmp_path, capsys, "coin-flip", ctrl, "--lgt-star", "0.4")
    assert code == 2 and "lgt: 1/2" in out and "undefined-mass: 1/2" in out
    assert _verify(tmp_path, capsys, "coin-flip", ctrl)[0] == 0


@pytest.mark.parametrize("flags, message", [
    (["--lgt-star", "1"], "lgt_star must lie strictly inside (0, 1)"),
    (["--lgt-star", "0"], "lgt_star must lie strictly inside (0, 1)"),
    (["--lgt-star", "0.5", "--lter-star", "bogus"], "expected a rational like 9/10 or 0.9, got 'bogus'"),
    (["--lter-star", "1e-1001"], "decimal exponent of at most 1000"),
], ids=["one", "zero", "not-a-rational", "long-exponent"])
def test_verify_bad_bound_exits_64(tmp_path, capsys, flags, message):
    code, out, err = _verify(tmp_path, capsys, "coin-flip", flip_stop_controller(build("coin-flip")), *flags)
    assert code == 64 and not out and message in err


def test_usage_errors_exit_64(capsys):
    code, _, err = run(capsys, "synth", "--domain", "coin-flip", "--max-states", "2", "--lgt-star", "bogus")
    assert code == 64 and "rational" in err
    code, _, err = run(capsys, "synth", "--domain", "coin-flip", "--max-states", "2", "--lgt-star", "1/0")
    assert code == 64 and "rational" in err
    # Python 3.12+ reads it as 1/2
    code, _, err = run(capsys, "synth", "--domain", "coin-flip", "--max-states", "2", "--lgt-star", "1 / 2")
    assert code == 64 and "rational" in err
    code, _, err = run(capsys, "synth", "--domain", "coin-flip", "--max-states", "2", "--lgt-star", "0.4", "--lter-star", "")
    assert code == 64 and "rational" in err
    code, _, _ = run(capsys, "synth", "--domain", "nope", "--max-states", "2", "--lgt-star", "0.4")
    assert code == 64
    code, _, _ = run(capsys, "synth", "--domain", "coin-flip", "--max-states", "2", "--lgt-star", "0.4", "--param", "n=9")
    assert code == 64
    code, _, _ = run(capsys, "synth", "--max-states", "2", "--lgt-star", "0.4")
    assert code == 64
    code, _, _ = run(capsys, "synth", "--domain", "coin-flip", "--max-states", "0", "--lgt-star", "0.4")
    assert code == 64
    code, _, err = run(capsys, "synth", "--domain", "hall-a-1d", "--param", "n", "--max-states", "2", "--lgt-star", "0.4")
    assert code == 64 and "name=value" in err
    code, _, err = run(capsys, "synth", "--env", "x.env", "--domain", "coin-flip", "--max-states", "2", "--lgt-star", "0.4")
    assert code == 64 and "not both" in err


def test_repeated_param_exits_64(capsys):
    # keeping the last value would search n=9 and prove failure where n=3 has a controller
    code, out, err = run(capsys, "synth", "--domain", "bridgewalk", "--param", "n=3", "--param", "n=9",
                         "--max-states", "1", "--lgt-star", "0.5")
    assert code == 64 and not out and "distinct names, got 'n=9'" in err
    code, _, _ = run(capsys, "synth", "--domain", "bridgewalk", "--param", "n=3", "--max-states", "1", "--lgt-star", "0.5")
    assert code == 0


@pytest.mark.parametrize("n", ["5/2", "2.5"])
def test_non_integral_integer_param_exits_64(capsys, n):
    # int() would truncate it to 2 and run the search on the wrong domain
    code, _, err = run(capsys, "synth", "--domain", "hall-a-1d", "--param", f"n={n}",
                       "--max-states", "2", "--lgt-star", "0.4")
    assert code == 64 and "integer" in err



@pytest.mark.parametrize("command", ["synth", "verify"])
def test_param_without_domain_exits_64(tmp_path, capsys, command):
    # an environment file takes no parameters: n=5 used to be dropped silently
    prob = build("coin-flip")
    env_file, ctrl_file = tmp_path / "cf.env", tmp_path / "cf.fsc"
    env_file.write_text(serialize_env(prob))
    ctrl_file.write_text(serialize_controller(flip_stop_controller(prob), prob.environment))
    tail = {"synth": ["--max-states", "2", "--lgt-star", "0.4"], "verify": ["--controller", str(ctrl_file)]}[command]
    code, out, err = run(capsys, command, "--env", str(env_file), "--param", "n=5", *tail)
    assert code == 64 and not out and "--param needs --domain" in err
    assert run(capsys, command, "--env", str(env_file), *tail)[0] == 0


@pytest.mark.parametrize("flag, value", [
    ("--max-states", "1_0"), ("--max-states", "\u0663"), ("--max-states", "5/2"), ("--budget", "1_000"), ("--budget", ""),
])
def test_count_flags_read_numbers_as_param_n_does(capsys, flag, value):
    # argparse's int read 1_0 as 10 and the Arabic-Indic three as 3
    flags = {"--max-states": "2", "--budget": "1000", flag: value}
    argv = [tok for pair in flags.items() for tok in pair]
    code, out, err = run(capsys, "synth", "--domain", "coin-flip", "--lgt-star", "0.4", *argv)
    assert code == 64 and not out and f"{flag} must be an integer of at least 1, got {value!r}" in err


@pytest.mark.parametrize("max_states", ["2", "5"])
def test_count_flags_search_as_before(capsys, max_states):
    code, out, _ = run(capsys, "synth", "--domain", "coin-flip", "--max-states", max_states,
                       "--lgt-star", "0.4", "--budget", "1000", "--json")
    expected = pandor_synth(SynthesisRequest(build("coin-flip"), int(max_states), F(2, 5)), 1000)
    assert code == 0 and json.loads(out)["or_steps"] == expected.or_steps

def test_parse_errors_exit_65(tmp_path, capsys):
    env_file = tmp_path / "bad.env"
    env_file.write_text("states s0\nactions a\nobservations o\nobserve s0 o\ninit s0\ntrans s0 a 1/2 s0\n")
    code, _, err = run(capsys, "synth", "--env", str(env_file), "--max-states", "1", "--lgt-star", "0.4")
    assert code == 65 and "sum" in err
    ctrl_file = tmp_path / "bad.fsc"
    ctrl_file.write_text("states 1\nstart 0\nedge 0 nope flip 0\n")
    code, _, _ = run(capsys, "verify", "--domain", "coin-flip", "--controller", str(ctrl_file))
    assert code == 65
    code, out, _ = run(capsys, "synth", "--env", str(tmp_path / "missing.env"), "--max-states", "1", "--lgt-star", "0.4")
    assert code == 65 and not out


def test_an_output_file_that_cannot_be_written_exits_65(tmp_path, capsys):
    # export-dot finds this after parsing, and has printed nothing
    missing = tmp_path / "missing" / "c.out"
    ctrl_file = tmp_path / "c.fsc"
    ctrl_file.write_text("states 1\nstart 0\n")
    code, out, err = run(capsys, "export-dot", "--domain", "coin-flip", "--controller", str(ctrl_file),
                         "--out", str(missing))
    assert code == 65 and not out and "No such file or directory" in err


_COIN_FLIP_SYNTH = ("synth", "--domain", "coin-flip", "--max-states", "1", "--lgt-star", "0.4")


def _masked(out: str) -> str:
    """A report's stdout with its wall time, the one field that varies between runs, masked."""
    masked = re.sub(r"^wall-time-s: \d+\.\d{3}$", "wall-time-s: *", out, flags=re.M)
    return re.sub(r'^  "wall_time_s": [0-9.e-]+,$', '  "wall_time_s": *,', masked, flags=re.M)


@pytest.mark.parametrize("fmt", [(), ("--json",)])
def test_synth_prints_its_report_before_a_bad_out_fails(tmp_path, capsys, fmt):
    # the search finishes before the file is opened: its result is not lost
    _, expected, _ = run(capsys, *_COIN_FLIP_SYNTH, *fmt)
    code, out, err = run(capsys, *_COIN_FLIP_SYNTH, *fmt, "--out", str(tmp_path / "missing" / "c.fsc"))
    assert code == 65 and "No such file or directory" in err
    assert "controller" in out and _masked(out) == _masked(expected)


def test_synth_writes_a_good_out_before_a_bad_dot_fails(tmp_path, capsys):
    out_file = tmp_path / "c.fsc"
    code, out, err = run(capsys, *_COIN_FLIP_SYNTH, "--out", str(out_file),
                         "--dot", str(tmp_path / "missing" / "c.dot"))
    assert code == 65 and "No such file or directory" in err
    assert out.startswith("outcome: controller\n")
    assert out.endswith("controller:\n" + out_file.read_text(encoding="utf-8"))


def test_decimal_exponents_above_the_cap_exit_64_or_65(tmp_path, capsys):
    # 1e-1000000 used to build a 3.3 M-bit denominator that every bound comparison then multiplied
    env_file = tmp_path / "tiny.env"
    text = "states s0 g\nactions a\nobservations o won\nobserve s0 o\nobserve g won\ninit s0\ngoal g\ntrans s0 a {} g 1 s0\n"
    env_file.write_text(text.format("1e-1001"))
    code, out, err = run(capsys, "synth", "--env", str(env_file), "--max-states", "1", "--lgt-star", "0.4")
    assert code == 65 and not out and "line 8, col 12: invalid probability '1e-1001'" in err
    code, out, err = run(capsys, "synth", "--domain", "coin-flip", "--max-states", "1", "--lgt-star", "1e-1000000")
    assert code == 64 and not out and "decimal exponent of at most 1000" in err
    code, out, err = run(capsys, "synth", "--domain", "bridgewalk", "--param", "p_fall=1e-1001",
                         "--max-states", "1", "--lgt-star", "0.4")
    assert code == 64 and not out and "decimal exponent of at most 1000" in err
    # small exponents still read exactly; retrying a 1e-3 chance reaches the goal surely
    env_file.write_text(text.replace("1 s0", "999/1000 s0").format("1e-3"))
    code, _, _ = run(capsys, "synth", "--env", str(env_file), "--max-states", "1", "--lgt-star", "1e-3")
    assert code == 0


@pytest.mark.parametrize("text", ["states \u00b2\nstart 0\n", "states 1\nstart 0\nedge \u00b2 start flip 0\n"])
def test_non_ascii_controller_state_exits_65(tmp_path, capsys, text):
    # "\u00b2".isdigit() holds but int() rejects it; this used to be a traceback
    ctrl_file = tmp_path / "bad.fsc"
    ctrl_file.write_text(text, encoding="utf-8")
    code, _, err = run(capsys, "verify", "--domain", "coin-flip", "--controller", str(ctrl_file))
    assert code == 65 and "line" in err


@pytest.mark.parametrize("domain, param, max_states, lgt_star, outcome", [
    ("noisy-hall-a-2d", "n=3", "2", "0.9", "controller"),
    ("bridgewalk", "n=4", "3", "0.7", "failure-proved"),
])
def test_synth_float_mode_matches_exact_mode(capsys, domain, param, max_states, lgt_star, outcome):
    # search arithmetic is always exact: there is no --float flag any more
    argv = ["synth", "--domain", domain, "--param", param, "--max-states", max_states,
            "--lgt-star", lgt_star, "--json"]
    code, out, _ = run(capsys, *argv)
    assert json.loads(out)["outcome"] == outcome
    assert code == {"controller": 0, "failure-proved": 2}[outcome]
    fcode, _, _ = run(capsys, *argv, "--float")
    assert fcode == 64


@pytest.mark.parametrize("lgt_star, code", [("0.7", 2), ("0.6", 0)])
def test_synth_is_the_same_under_python_O(lgt_star, code):
    # no control flow may depend on assert, which -O strips
    argv = ["-m", "fscsynth.cli", "synth", "--domain", "bridgewalk", "--param", "n=4",
            "--max-states", "3", "--lgt-star", lgt_star, "--json"]
    env = dict(os.environ, PYTHONPATH=str(Path(fscsynth.__file__).parents[1]))
    reports = []
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, *argv], env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == code, proc.stderr
        payload = json.loads(proc.stdout)
        reports.append((payload["outcome"], payload["or_steps"], payload["controller"]))
    assert reports[0] == reports[1]
    assert reports[0][0] == ("failure-proved" if code else "controller")


@pytest.mark.parametrize("flag", ["--env", "--controller"])
def test_non_utf8_input_file_exits_65(tmp_path, capsys, flag):
    # this used to be a UnicodeDecodeError traceback
    prob = build("coin-flip")
    env_file = tmp_path / "coin.env"
    env_file.write_text(serialize_env(prob), encoding="utf-8")
    ctrl_file = tmp_path / "flip.fsc"
    ctrl_file.write_text(serialize_controller(flip_stop_controller(prob), prob.environment), encoding="utf-8")
    bad = env_file if flag == "--env" else ctrl_file
    bad.write_bytes(bad.read_bytes() + b"# caf\xff\n")
    line = bad.read_bytes().count(b"\n")
    code, out, err = run(capsys, "verify", "--env", str(env_file), "--controller", str(ctrl_file))
    assert code == 65 and not out
    assert err.startswith(f"parse error: line {line}, col 6:") and "0xff" in err


@pytest.mark.parametrize("flag", ["--env", "--controller"])
def test_a_byte_order_mark_is_read_once(tmp_path, capsys, flag):
    # a leading EF BB BF used to make the first declaration '\ufeffstates'
    prob = build("coin-flip")
    env_file, ctrl_file = tmp_path / "coin.env", tmp_path / "flip.fsc"
    env_file.write_text(serialize_env(prob), encoding="utf-8")
    ctrl_file.write_text(serialize_controller(flip_stop_controller(prob), prob.environment), encoding="utf-8")
    argv = ("verify", "--env", str(env_file), "--controller", str(ctrl_file))
    plain = run(capsys, *argv)
    marked = env_file if flag == "--env" else ctrl_file
    text = marked.read_bytes()
    marked.write_bytes(b"\xef\xbb\xbf" + text)
    assert run(capsys, *argv) == plain and plain[0] == 0
    # the mark strips once: a second one is text, and the column of a bad byte skips the mark
    marked.write_bytes(b"\xef\xbb\xbf\xef\xbb\xbf" + text)
    code, out, err = run(capsys, *argv)
    assert code == 65 and not out and "line 1, col 1:" in err and r"\ufeff" in err
    marked.write_bytes(b"\xef\xbb\xbf# caf\xff\n" + text)
    code, out, err = run(capsys, *argv)
    assert code == 65 and not out and err.startswith("parse error: line 1, col 6:") and "0xff" in err


def test_input_files_keep_universal_newlines(tmp_path, capsys):
    prob = build("coin-flip")
    env_file = tmp_path / "coin.env"
    env_file.write_bytes(serialize_env(prob).replace("\n", "\r\n").encode("utf-8"))
    ctrl_file = tmp_path / "flip.fsc"
    ctrl_file.write_bytes(serialize_controller(flip_stop_controller(prob), prob.environment).replace("\n", "\r").encode())
    code, out, _ = run(capsys, "verify", "--env", str(env_file), "--controller", str(ctrl_file))
    assert code == 0 and "lgt: 1/2" in out


@pytest.mark.parametrize("argv", [
    ["synth", "--domain", "coin-flip", "--max-states", "2", "--lgt-star", "0.4", "--algo", "pandor"],
    ["synth", "--domain", "coin-flip", "--max-states", "2", "--lgt-star", "0.4", "--algo", "andor"],
])
@pytest.mark.parametrize("budget", ["-1", "0", "ten"])
def test_budget_below_one_exits_64(capsys, argv, budget):
    # --budget -1 used to run one OR step and report budget-exhausted
    code, out, err = run(capsys, *argv, "--budget", budget)
    assert code == 64 and not out and "--budget" in err


_COIN_FLIP = ["--domain", "coin-flip", "--max-states", "2"]
# no one-state controller walks the corridor and back; every state's goal
# bound is 1, so the proof is a search, not one OR step at the root, though
# the settle fails each closed controller without walking it (3 OR steps, 6
# walked)
_CORRIDOR_N1 = ["--domain", "hall-a-1d", "--param", "n=3", "--max-states", "1"]
_COIN_FLIP_CONTROLLER = "states 1\nstart 0\nedge 0 start flip 0\nedge 0 won stop 0\n"
_MEASURE_LINES = """\
lgt: 1/2 ~ 0.500000000000
lter: {lter} ~ {lter_decimal}
nonterm: 0/1 ~ 0.000000000000
undefined-mass: {undef} ~ {undef_decimal}
"""
_NULL_MEASURES = """\
  "lgt": null,
  "lgt_decimal": null,
  "lter": null,
  "lter_decimal": null,
  "nonterm": null,
  "nonterm_decimal": null,
  "undefined_mass": null,
  "undefined_mass_decimal": null
}
"""


@pytest.mark.parametrize("argv, code, expected", [
    (["synth", *_COIN_FLIP, "--lgt-star", "0.4"], 0,
     "outcome: controller\nalgo: pandor\nor-steps: 2\npeak-depth: 1\nwall-time-s: *\n"
     + _MEASURE_LINES.format(lter="1/2", lter_decimal="0.500000000000", undef="1/2", undef_decimal="0.500000000000")
     + "controller:\n" + _COIN_FLIP_CONTROLLER),
    (["synth", *_CORRIDOR_N1, "--lgt-star", "0.99"], 2,
     "outcome: failure-proved\nalgo: pandor\nor-steps: 3\npeak-depth: 3\nwall-time-s: *\n"),
    (["synth", "--domain", "noisy-hall-a-1d", "--param", "n=4", "--max-states", "2", "--lgt-star", "0.99",
      "--budget", "5"], 3,
     "outcome: budget-exhausted\nalgo: pandor\nor-steps: 5\npeak-depth: 5\nwall-time-s: *\n"),
    (["synth", *_COIN_FLIP, "--lgt-star", "0.4", "--json"], 0, """\
{
  "outcome": "controller",
  "algo": "pandor",
  "or_steps": 2,
  "peak_depth": 1,
  "wall_time_s": *,
  "controller": "states 1\\nstart 0\\nedge 0 start flip 0\\nedge 0 won stop 0\\n",
  "lgt": "1/2",
  "lgt_decimal": 0.5,
  "lter": "1/2",
  "lter_decimal": 0.5,
  "nonterm": "0/1",
  "nonterm_decimal": 0.0,
  "undefined_mass": "1/2",
  "undefined_mass_decimal": 0.5
}
"""),
    (["synth", *_CORRIDOR_N1, "--lgt-star", "0.99", "--json"], 2, """\
{
  "outcome": "failure-proved",
  "algo": "pandor",
  "or_steps": 3,
  "peak_depth": 3,
  "wall_time_s": *,
  "controller": null,
""" + _NULL_MEASURES),
    (["synth", "--domain", "hall-a-1d", "--param", "n=3", "--max-states", "2", "--lgt-star", "0.99",
      "--algo", "andor", "--json"], 0, """\
{
  "outcome": "controller",
  "algo": "andor",
  "or_steps": 15,
  "peak_depth": 6,
  "wall_time_s": *,
  "controller": "states 2\\nstart 0\\nedge 0 A right 0\\nedge 0 B left 1\\nedge 0 - right 0\\nedge 1 A stop 0\\nedge 1 - left 1\\n",
  "lgt": "1/1",
  "lgt_decimal": 1.0,
  "lter": "1/1",
  "lter_decimal": 1.0,
  "nonterm": "0/1",
  "nonterm_decimal": 0.0,
  "undefined_mass": "0/1",
  "undefined_mass_decimal": 0.0
}
"""),
    (["verify", "--domain", "coin-flip", "--controller", "{coin}"], 0,
     _MEASURE_LINES.format(lter="1/1", lter_decimal="1.000000000000", undef="0/1", undef_decimal="0.000000000000")),
    (["export-dot", "--domain", "hall-a-1d", "--param", "n=5", "--controller", "{hall}"], 0, """\
digraph controller {
  rankdir=LR;
  __start [shape=point];
  q0 [shape=circle, label="q0"];
  q1 [shape=circle, label="q1"];
  __start -> q0;
  q0 -> q0 [label="A : right\\n- : right"];
  q0 -> q1 [label="B : left"];
  q1 -> q0 [label="A : stop", style=dashed];
  q1 -> q1 [label="- : left"];
}
"""),
])
def test_whole_stdout_is_pinned(tmp_path, capsys, argv, code, expected):
    # every line of each report, in order; only the wall time varies between runs
    coin, hall = build("coin-flip"), build("hall-a-1d", {"n": 5})
    files = {"coin": tmp_path / "coin.fsc", "hall": tmp_path / "hall.fsc"}
    files["coin"].write_text(serialize_controller(flip_stop_controller(coin), coin.environment))
    files["hall"].write_text(serialize_controller(corridor_controller(hall.environment), hall.environment))
    got_code, out, err = run(capsys, *(arg.format(**files) for arg in argv))
    assert (got_code, _masked(out), err) == (code, expected, "")


_README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_block(section: str) -> str:
    """The first fenced block under README's ``## section`` heading, without
    its fences and language tag."""
    body = _README.read_text(encoding="utf-8").split(f"\n## {section}\n", 1)[1]
    return body.split("```", 2)[1].split("\n", 1)[1]


def test_readme_command_block_runs_as_written(tmp_path, monkeypatch, capsys):
    # in order, in an empty directory holding the "File formats" environment
    # as my.env: each controller file goes to the domain that wrote it
    monkeypatch.chdir(tmp_path)
    (tmp_path / "my.env").write_text(_readme_block("File formats"), encoding="utf-8")
    codes = []
    for line in _readme_block("Command line").splitlines():
        program, *argv = shlex.split(line)
        assert program == "fscsynth"
        codes.append(main(argv))
    err = capsys.readouterr().err
    assert codes == [0, 0, 2, 0, 0, 2, 0], err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["c.dot", "c.fsc", "hall.fsc", "my.env"]
    assert (tmp_path / "c.dot").read_text(encoding="utf-8").startswith("digraph controller {")


def test_readme_library_snippet_prints_the_lgt_in_its_comment(capsys):
    code = _readme_block("Library use")
    exec(compile(code, str(_README), "exec"), {})
    lgt = re.search(r"# lgt = (\d+/\d+)$", code, re.M).group(1)
    assert f"lgt={F(lgt)!r}" in capsys.readouterr().out
