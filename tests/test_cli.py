import json
import pathlib
import subprocess
import sys

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
