"""Package-wide invariants: checks hold under `python -O`, which strips
`assert` statements (the package raises explicitly instead); only `reach`
decides whether a reachability answer is Unknown; only `reach` builds step
rows, so every analysis reads its one row cache; only `semantics` and
`reach` take the update step, and `markov` imports nothing from
`semantics`, so exploration and rows share one step; only `semantics` and
`reach` take process steps, and `montecarlo` reads its oracle's public
tables only, so Monte Carlo samples that step too; only `reach` runs backward
searches and the over-bound cone rule, so every analysis asks `can_reach`;
every analysis rejects an unknown target label."""

import ast
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import load_corpus
from ptso_verify import cost, eagerness, lang, montecarlo, qualitative, quantitative, semantics

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

DOCTORED_COUNTS = """
from ptso_verify import lang, reach, semantics

original = semantics.update_successors

def doctored(shift):
    # move one word count off the first successor store: to nowhere (the row
    # no longer sums to its denominator) or onto the second (a zero weight)
    def update_successors(prog, store):
        row, total = original(prog, store)
        row = {succ: list(entry) for succ, entry in row.items()}
        first, second = list(row)[:2]
        row[first][0] -= 1
        row[second][0] += shift
        return row, total
    return update_successors

prog = lang.parse_program("domain 2\\nvars x\\nproc P weight 1\\nregs a\\nA0: x := a\\nA1: term\\n")
for shift in (0, 1):
    semantics.update_successors = doctored(shift)
    oracle = reach.ReachOracle(prog)
    try:
        oracle.row(oracle.intern(semantics.initial_config(prog)))
    except ValueError as exc:
        print("raised:", exc)
    else:
        print("accepted")
"""


def test_step_distribution_checks_survive_optimize():
    out = subprocess.run([sys.executable, "-O", "-c", DOCTORED_COUNTS],
                         capture_output=True, text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": str(SRC)})
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["raised: distribution does not sum to 1",
                                       "raised: distribution has nonpositive mass"]


DOCTORED_ADVANCE = """
from fractions import Fraction
from ptso_verify import cost, lang, quantitative, semantics

original = quantitative.advance

def advance(den, banked, expand):
    # drop one frontier entry, and its mass with it
    den, banked, frontier = original(den, banked, expand)
    frontier.pop(next(iter(frontier), None), None)
    return den, banked, frontier

quantitative.advance = advance
# P loops for ever and Q's one write reaches DONE: the first layer already
# loses mass, and each analysis must stop there, not when its frontier empties.
prog = lang.parse_program("domain 2\\nvars x\\nproc P weight 1\\nregs a\\nA0: a := 1\\n"
                          "A1: if a then A0\\nA2: term\\nproc Q weight 1\\nregs b\\nB0: x := b\\nDONE: term\\n")
init = semantics.initial_config(prog)
for run in (lambda: quantitative.quant_reach(prog, init, "DONE", Fraction(1, 10)),
            lambda: cost.expected_avg_cost(prog, init, "DONE", cost.CostFunction.uniform(prog),
                                           Fraction(1, 10))):
    try:
        run()
    except AssertionError as exc:
        print("raised:", exc)
    else:
        print("accepted")
"""


def test_mass_conservation_checks_survive_optimize():
    out = subprocess.run([sys.executable, "-O", "-c", DOCTORED_ADVANCE],
                         capture_output=True, text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": str(SRC)})
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["raised: quant_reach: mass not conserved at layer 1",
                                       "raised: expected_avg_cost: mass not conserved at layer 1"]


def test_no_assert_statements_in_package():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((SRC / "ptso_verify").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def _name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def test_unknown_answers_decided_in_reach_only():
    found = []
    for path in sorted((SRC / "ptso_verify").glob("*.py")):
        if path.name == "reach.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            made = ((isinstance(node, ast.Call) and _name(node.func) == "OracleUnknownError")
                    or (isinstance(node, ast.Raise) and _name(node.exc) == "OracleUnknownError"))
            strict = (isinstance(node, ast.Attribute) and node.attr == "strict"
                      and _name(node.value) == "config")
            if made or strict:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_step_distributions_built_in_reach_only():
    # rows are built, and viewed as Fractions, by the oracle alone
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((SRC / "ptso_verify").glob("*.py"))
             if path.name != "reach.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and _name(node.func) in ("step_row", "step_distribution")]
    assert found == []


def test_update_step_taken_in_semantics_and_reach_only():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((SRC / "ptso_verify").glob("*.py"))
             if path.name not in ("semantics.py", "reach.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and _name(node.func) == "update_successors"]
    markov = ast.parse((SRC / "ptso_verify" / "markov.py").read_text())
    found += [f"markov.py:{node.lineno}" for node in ast.walk(markov)
              if isinstance(node, (ast.Import, ast.ImportFrom))
              and any(name.endswith("semantics") for name in
                      [getattr(node, "module", None) or "", *(a.name for a in node.names)])]
    assert found == []


def test_process_step_taken_in_semantics_and_reach_only():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((SRC / "ptso_verify").glob("*.py"))
             if path.name not in ("semantics.py", "reach.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and _name(node.func) in ("process_step", "enabled_indices")]
    sampler = ast.parse((SRC / "ptso_verify" / "montecarlo.py").read_text())
    found += [f"montecarlo.py:{node.lineno}" for node in ast.walk(sampler)
              if isinstance(node, ast.Attribute) and node.attr.startswith("_")
              and _name(node.value) == "oracle"]
    assert found == []


def test_can_reach_decided_in_reach_only():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((SRC / "ptso_verify").glob("*.py"))
             if path.name != "reach.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and _name(node.func) in ("cone_roots", "preds")]
    assert found == []


UNKNOWN_LABEL_ANALYSES = {
    "qual_reach": lambda p, c: qualitative.qual_reach(p, c, "NOPE"),
    "qual_rep_reach": lambda p, c: qualitative.qual_rep_reach(p, c, "NOPE"),
    "never_qual_reach": lambda p, c: qualitative.never_qual_reach(p, c, "NOPE"),
    "never_qual_rep_reach": lambda p, c: qualitative.never_qual_rep_reach(p, c, "NOPE"),
    "quant_reach": lambda p, c: quantitative.quant_reach(p, c, "NOPE", Fraction(1, 100)),
    "quant_rep_reach": lambda p, c: quantitative.quant_rep_reach(p, c, "NOPE", Fraction(1, 100)),
    "expected_avg_cost": lambda p, c: cost.expected_avg_cost(
        p, c, "NOPE", cost.CostFunction.uniform(p), Fraction(1, 10)),
    "compute_eagerness": lambda p, c: eagerness.compute_eagerness(p, "NOPE", source=c),
    "estimate_reach": lambda p, c: montecarlo.estimate_reach(p, c, "NOPE", 10, 10, 0),
    "estimate_cond_cost": lambda p, c: montecarlo.estimate_cond_cost(
        p, c, "NOPE", cost.CostFunction.uniform(p), 10, 10, 0),
}


@pytest.mark.parametrize("analysis", sorted(UNKNOWN_LABEL_ANALYSES))
def test_unknown_label_rejected_by_every_analysis(analysis):
    p = load_corpus("race_flag")
    with pytest.raises(lang.ProgramError, match="unknown label 'NOPE'"):
        UNKNOWN_LABEL_ANALYSES[analysis](p, semantics.initial_config(p))
