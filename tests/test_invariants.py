"""Invariant checks must hold under `python -O`, which strips `assert`
statements: the package raises explicitly instead."""

import ast
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

HALF_MASS_POLICY = """
from fractions import Fraction
from ptso_verify import lang, markov, semantics

class HalfMass(markov.Policy):
    def update_distribution(self, prog, c):
        return {succ: q / 2 for succ, q in super().update_distribution(prog, c).items()}

prog = lang.parse_program("domain 2\\nvars x\\nproc P weight 1\\nregs a\\nA0: x := a\\nA1: term\\n")
try:
    markov.step_distribution(prog, semantics.initial_config(prog), HalfMass())
except ValueError as exc:
    print("raised:", exc)
else:
    print("accepted")
"""


def test_step_distribution_checks_survive_optimize():
    out = subprocess.run([sys.executable, "-O", "-c", HALF_MASS_POLICY],
                         capture_output=True, text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": str(SRC)})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "raised: distribution does not sum to 1"


def test_no_assert_statements_in_package():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((SRC / "ptso_verify").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
