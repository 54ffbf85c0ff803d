import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import fscsynth
from fscsynth.cli import build_parser, main
from fscsynth.domains import build, serialize_controller, serialize_env
from fscsynth.verifier import exact_measures
from fscsynth.domains import parse_controller

from helpers import always_a_controller, always_flip_controller, corridor_controller, flip_stop_controller


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
