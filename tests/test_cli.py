import json
import pathlib
import subprocess
import sys
import time

import pytest

CORPUS = pathlib.Path(__file__).parent / "corpus"


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "ptso_verify.cli", *args],
                          capture_output=True, text=True, timeout=600)
    return proc


def prog(name):
    return str(CORPUS / f"{name}.ptso")


def test_parse_ok():
    r = run_cli("parse", prog("race_flag"))
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["schema"] == "ptso-verify/1"
    assert doc["analysis"] == "parse"
    assert len(doc["processes"]) == 2


def test_parse_error_exit_2(tmp_path):
    bad = tmp_path / "bad.ptso"
    bad.write_text("vars x\nproc P weight 1\nregs a\n0: nonsense here\n")
    r = run_cli("parse", str(bad))
    assert r.returncode == 2
    assert "error" in r.stderr


def test_branch_into_another_process_exit_2(tmp_path):
    bad = tmp_path / "cross.ptso"
    bad.write_text("domain 2\nvars x\nproc P weight 1\nregs a\nP0: a := 1\nP1: if a then Q2\n"
                   "P2: term\nproc Q weight 1\nregs b\nQ0: b := 1\nQ1: if b then Q0\nQ2: term\n")
    r = run_cli("simulate", str(bad), "--label", "Q2")
    assert r.returncode == 2 and not r.stdout
    assert "label 'P1': `if` target 'Q2' belongs to process 'Q', not 'P'" in r.stderr


def test_missing_file_exit_2():
    assert run_cli("parse", "no_such_file.ptso").returncode == 2


def test_qual_true_exit_0():
    r = run_cli("qual-reach", prog("once_then_term"), "--label", "WIN")
    assert r.returncode == 0
    assert json.loads(r.stdout)["verdict"] is True


def test_qual_reach_writer_reader_exit_0():
    # the looping writer/reader pair: the reader almost surely reads a 1
    r = run_cli("qual-reach", prog("writer_reader"), "--label", "WIN")
    assert r.returncode == 0
    assert json.loads(r.stdout)["verdict"] is True


def test_qual_false_exit_1():
    r = run_cli("qual-reach", prog("race_flag"), "--label", "W1")
    assert r.returncode == 1
    doc = json.loads(r.stdout)
    assert doc["verdict"] is False and "witness" in doc


def test_never_reach():
    r = run_cli("never-reach", prog("dead_label"), "--label", "DEAD")
    assert r.returncode == 0 and json.loads(r.stdout)["verdict"] is True


def test_quant_reach_json():
    r = run_cli("quant-reach", prog("race_flag"), "--label", "W1", "--epsilon", "1/100")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["value"] == "5/16" and doc["epsilon"] == "1/100"
    assert doc["value_float"] == 0.3125


def test_quant_rep_reach():
    r = run_cli("quant-rep-reach", prog("two_sccs"), "--label", "A1", "--epsilon", "0.01")
    assert r.returncode == 0
    assert json.loads(r.stdout)["value"] == "5/16"


def test_simulate_reproducible():
    args = ("simulate", prog("race_flag"), "--label", "W1",
            "--runs", "3000", "--horizon", "100", "--seed", "7")
    a, b = run_cli(*args), run_cli(*args)
    assert a.returncode == 0
    assert a.stdout == b.stdout
    doc = json.loads(a.stdout)
    assert doc["runs"] == 3000 and 0 < doc["fraction"] < 1


def test_simulate_negative_horizon_exit_2():
    base = ("simulate", prog("race_flag"), "--label", "W1", "--runs", "10")
    r = run_cli(*base, "--horizon", "-5")
    assert r.returncode == 2 and not r.stdout
    assert "horizon must be >= 0" in r.stderr
    r0 = run_cli(*base, "--horizon", "0")
    assert r0.returncode == 0, r0.stderr
    doc = json.loads(r0.stdout)
    assert doc["horizon"] == 0 and doc["hits"] == 0 and doc["censored"] == 10


def test_strict_unknown_exit_3():
    r = run_cli("never-reach", prog("loop_all"), "--label", "PT",
                "--strict", "--bound", "2")
    assert r.returncode == 3
    assert "unknown" in r.stderr


def test_strict_quant_reach_unknown_exit_3():
    # init cannot reach PT and its cone is pruned: banking its mass as
    # "cannot reach" rests on the bound, so strict mode answers Unknown
    args = ("quant-reach", prog("loop_all"), "--label", "PT")
    r = run_cli(*args, "--strict")
    assert r.returncode == 3 and r.stdout == ""
    assert "unknown" in r.stderr
    lax = run_cli(*args)
    assert lax.returncode == 0
    doc = json.loads(lax.stdout)
    assert (doc["value"], doc["neg"], doc["oracle_pruned"]) == ("0/1", "1/1", True)


def test_cost_budget_exit_4(tmp_path):
    costs = tmp_path / "c.json"
    costs.write_text(json.dumps({"P0": 1, "P1": 1, "P2": 1, "Q0": 1, "Q1": 1,
                                 "Q2": 1, "LO": 1, "L2": 1, "HI": 5, "GOAL": 1}))
    r = run_cli("cost", prog("race_costs"), "--label", "GOAL",
                "--costs", str(costs), "--max-layers", "300")
    assert r.returncode == 4
    doc = json.loads(r.stdout)
    assert doc["aborted"] is True
    assert doc["cost_apprx"] == "499/64"
    assert doc["live_frontier_mass"] == "0/1"


def test_cost_costs_file_unreadable_exit_2(tmp_path):
    # a missing file and a directory: a usage error, not a false verdict
    for costs in (tmp_path / "missing.json", tmp_path):
        r = run_cli("cost", prog("race_flag"), "--label", "W1", "--costs", str(costs))
        assert r.returncode == 2, r.stderr
        assert r.stderr.startswith("error: ") and str(costs) in r.stderr
        assert r.stdout == ""


def test_cost_deterministic_program(tmp_path):
    src = tmp_path / "det.ptso"
    src.write_text("domain 2\nvars x\nproc P weight 1\nregs a\n"
                   "S0: a := 1\nS1: a := a + a\nS2: a := 0\nGOAL: term\n")
    r = run_cli("cost", str(src), "--label", "GOAL", "--epsilon", "1/10")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert 2.9 <= doc["value_float"] <= 3.0


def test_eagerness_json():
    r = run_cli("eagerness", prog("race_flag"), "--label", "W1")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["q_star"] == "2/3" and doc["beta"] == 150
    assert doc["n_threshold"] >= 300


def test_init_flag(tmp_path):
    # start qual-reach from a configuration that already contains the label
    init = tmp_path / "init.json"
    init.write_text(json.dumps({
        "labels": {"P": "P2", "Q": "W1"},
        "regs": {"w": 1, "one": 1, "a": 1, "z": 0},
        "bufs": {}, "mem": {"x": 1},
    }))
    r = run_cli("qual-reach", prog("race_flag"), "--label", "W1", "--init", str(init))
    assert r.returncode == 0 and json.loads(r.stdout)["verdict"] is True


def test_unknown_label_exit_2():
    assert run_cli("qual-reach", prog("race_flag"), "--label", "ZZZ").returncode == 2


def test_iterative_bound_flag():
    r = run_cli("never-reach", prog("dead_label"), "--label", "DEAD",
                "--bound", "2", "--bound-max", "16")
    assert r.returncode == 0 and json.loads(r.stdout)["verdict"] is True


@pytest.mark.parametrize("bound_max", ["0", "1"])
def test_bound_max_below_bound_exit_2(bound_max):
    r = run_cli("never-reach", prog("dead_label"), "--label", "DEAD",
                "--bound", "2", "--bound-max", bound_max)
    assert r.returncode == 2 and "bound <= bound_max" in r.stderr


@pytest.mark.parametrize("argv", [
    ("simulate", prog("race_flag"), "--label", "W1", "--runs", "10", "--strict"),
    ("simulate", prog("race_flag"), "--label", "W1", "--runs", "10", "--bound-max", "64"),
    ("parse", prog("race_flag"), "--bound", "3"),
    # only never-reach deepens
    ("qual-reach", prog("race_flag"), "--label", "W1", "--bound-max", "12"),
    ("cost", prog("race_flag"), "--label", "W1", "--bound-max", "4"),
    # parse reads no start configuration
    ("parse", prog("race_flag"), "--init", "init.json"),
])
def test_oracle_flags_only_where_an_oracle_is_built(argv):
    r = run_cli(*argv)
    assert r.returncode == 2 and "unrecognized arguments" in r.stderr


ONCE_COSTS = {"P0": 1, "WIN": 1, "P2": 1}


@pytest.mark.parametrize("doc,message", [
    (list(ONCE_COSTS), "must be a JSON object"),
    (5, "must be a JSON object"),
    (None, "must be a JSON object"),
    ({**ONCE_COSTS, "P0": True}, "cost of label 'P0' must be a positive integer, got True"),
    ({**ONCE_COSTS, "NOPE": 2}, "unknown labels: ['NOPE']"),
    ({"P0": 1, "WIN": 1}, "misses labels: ['P2']"),
    ({**ONCE_COSTS, "P2": 0}, "must be a positive integer"),
])
def test_costs_malformed_exit_2(tmp_path, doc, message):
    costs = tmp_path / "c.json"
    costs.write_text(json.dumps(doc))
    r = run_cli("cost", prog("once_then_term"), "--label", "P2", "--costs", str(costs))
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error: ") and message in r.stderr
    assert r.stdout == "" and "Traceback" not in r.stderr


@pytest.mark.parametrize("argv,message", [
    (("quant-reach", prog("race_flag"), "--label", "W1", "--max-iterations", "-3"),
     "max_iterations must be >= 0"),
    (("quant-rep-reach", prog("two_sccs"), "--label", "A1", "--max-iterations", "-1"),
     "max_iterations must be >= 0"),
    (("cost", prog("race_flag"), "--label", "W1", "--max-layers", "-1"),
     "max_layers and max_frontier must be >= 0"),
    (("cost", prog("race_flag"), "--label", "W1", "--max-frontier", "-1"),
     "max_layers and max_frontier must be >= 0"),
])
def test_negative_budget_exit_2(argv, message):
    r = run_cli(*argv)
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error: ") and message in r.stderr
    assert r.stdout == "" and "Traceback" not in r.stderr


@pytest.mark.parametrize("command", ["eagerness", "cost"])
def test_unreachable_label_named_exit_2(command):
    # nothing is pruned, so the No is unconditional
    r = run_cli(command, prog("dead_label"), "--label", "DEAD")
    assert r.returncode == 2, r.stderr
    assert r.stderr == "error: label 'DEAD' is not reachable from the start configuration\n"
    assert r.stdout == ""


@pytest.mark.parametrize("command", ["eagerness", "cost"])
def test_beta_too_large_exit_2(command):
    # the D-run rate ratio is 1 to float precision, so no threshold search
    # can start; at --beta 10**9 it still answers
    r = run_cli(command, prog("race_costs"), "--label", "GOAL", "--beta", str(10**12))
    assert r.returncode == 2, r.stderr
    assert r.stderr == (f"error: beta={10**12} is too large: the certificate's rates are "
                        "within float precision of each other; use a smaller beta\n")
    assert r.stdout == ""


@pytest.mark.parametrize("argv,bound", [
    (["cost", prog("loop_all"), "--label", "PT", "--bound", "1", "--max-layers", "60"], 1),
    (["eagerness", prog("writer_reader"), "--label", "L3", "--bound", "3"], 3),
])
def test_pruned_unreachable_label_names_the_bound(argv, bound):
    r = run_cli(*argv)
    assert r.returncode == 2, r.stderr
    assert r.stderr == (f"error: label {argv[3]!r} is not reachable from the start "
                        f"configuration within bound {bound} (exploration pruned; "
                        "rerun with a larger --bound)\n")
    assert r.stdout == ""


PRUNED_8 = " within bound 8 (exploration pruned; rerun with a larger --bound)"


@pytest.mark.parametrize("argv,summary", [
    (["never-reach", prog("loop_all"), "--label", "QT"], "never_qual_reach(QT) = True" + PRUNED_8),
    (["quant-reach", prog("loop_all"), "--label", "PT"],
     "quant_reach(PT) in [0.000000, 0.010000] after 1 layers" + PRUNED_8),
    (["qual-reach", prog("race_flag"), "--label", "W1"], "qual_reach(W1) = False"),
    (["quant-reach", prog("race_flag"), "--label", "W1", "--epsilon", "1/2"], None),
], ids=["never-reach-pruned", "quant-reach-pruned", "qual-reach", "quant-reach"])
def test_verdict_resting_on_the_bound_says_so_on_stderr(argv, summary):
    # a pruned exploration stamps the stderr summary with the bound; an
    # unpruned one does not, and stdout carries no stamp either way
    r = run_cli(*argv)
    assert r.returncode in (0, 1), r.stderr
    doc = json.loads(r.stdout)
    if summary is not None:
        assert r.stderr == summary + "\n"
    if summary is None or PRUNED_8 not in summary:
        assert "within bound" not in r.stderr
        assert doc.get("oracle_pruned") in (None, False)
    assert "within bound" not in r.stdout


def test_epsilon_zero_denominator_exit_2():
    for command in ("quant-reach", "cost"):
        r = run_cli(command, prog("race_flag"), "--label", "W1", "--epsilon", "1/0")
        assert r.returncode == 2, r.stderr
        assert r.stderr.startswith("error: ") and "zero denominator" in r.stderr
        assert r.stdout == "" and "Traceback" not in r.stderr


@pytest.mark.parametrize("command", ["quant-reach", "cost"])
def test_epsilon_with_huge_exponent_exit_2(command):
    # 10**999999999 as a denominator would take minutes to build; the
    # exponent alone shows it is past the int-to-str digit limit
    start = time.perf_counter()
    r = run_cli(command, prog("race_flag"), "--label", "W1", "--epsilon", "1e-999999999")
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error: ") and "digits as num/den" in r.stderr
    assert r.stdout == "" and "Traceback" not in r.stderr
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("command", ["quant-reach", "quant-rep-reach"])
@pytest.mark.parametrize("epsilon", ["1", "2"])
def test_vacuous_epsilon_exit_2(command, epsilon):
    # a bracket of width 1 or more says nothing about a probability
    r = run_cli(command, prog("race_flag"), "--label", "W1", "--epsilon", epsilon)
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error: ") and "between 0 and 1" in r.stderr
    assert r.stdout == "" and "Traceback" not in r.stderr


def test_cost_accepts_epsilon_above_1():
    # cost's epsilon is in cost units, not a probability
    r = run_cli("cost", prog("once_then_term"), "--label", "P2", "--epsilon", "2")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["epsilon"] == "2/1"


RACE_FLAG_INIT = {"labels": {"P": "P2", "Q": "W1"},
                  "regs": {"w": 1, "one": 1, "a": 1, "z": 0},
                  "bufs": {}, "mem": {"x": 1}}


@pytest.mark.parametrize("doc,message", [
    ({k: v for k, v in RACE_FLAG_INIT.items() if k != "labels"}, "'labels'"),
    ({**RACE_FLAG_INIT, "labels": {"P": "P2"}}, "no label for process 'Q'"),
    ([RACE_FLAG_INIT], "must be a JSON object"),
    ({**RACE_FLAG_INIT, "regs": {"nope": 1}}, "unknown register 'nope'"),
    ({**RACE_FLAG_INIT, "mem": {"nope": 1}}, "unknown variable 'nope'"),
    ({**RACE_FLAG_INIT, "bufs": {"Z": [["x", 1]]}}, "unknown process 'Z'"),
    ({**RACE_FLAG_INIT, "regs": {"w": True}}, "value True outside domain"),
])
def test_init_malformed_exit_2(tmp_path, doc, message):
    init = tmp_path / "init.json"
    init.write_text(json.dumps(doc))
    r = run_cli("qual-reach", prog("race_flag"), "--label", "W1", "--init", str(init))
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error: ") and message in r.stderr
    assert r.stdout == "" and "Traceback" not in r.stderr
