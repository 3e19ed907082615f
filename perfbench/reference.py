"""Reference answers and the correctness gate.

Exact probabilities and conditional expected costs come from the
independent chain solver in `tests/exhaustive.py` (full chain enumeration
plus Gaussian elimination), which shares no algorithm with the frontier
analyses under test. It runs in the benchmark's parent process, outside
the timed region. Verdicts on the corpus programs are hand-derived; the
eagerness threshold is a golden value.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

# Wilson interval half-width in standard deviations for Monte Carlo checks;
# a correct sampler falls outside it with probability about 2e-9.
MC_Z = 6.0


def frac(text):
    """Exact value of a "num/den" string. Certified error terms run to
    hundreds of thousands of digits, so callers lift Python's limit on
    int-string conversion first (`sys.set_int_max_str_digits(0)`)."""
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den or 1))


def wilson(hits, n, z=MC_Z):
    phat = hits / n
    denom = 1 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return center - half, center + half


def needed(queries):
    """{(program, label)} whose exact reach probability or cost the checks use."""
    keys = set()
    for q in queries:
        check = q["check"]
        if "program" in check:
            keys.add((check["kind"] == "cost", check["program"], check["label"]))
    return keys


def solve(queries, root, cache_dir, code_digest):
    """Exact references {"program label": {"p": ..., "e": ...}}, as strings,
    for program paths relative to `root`. Each answer is cached in
    `cache_dir` under a key of the program text, the label and
    `code_digest`, which must cover the solver and the package it imports."""
    import exhaustive
    from ptso_verify import lang, semantics

    out = {}
    for is_cost, path, label in sorted(needed(queries)):
        text = (root / path).read_text(encoding="utf-8")
        key = hashlib.sha256(f"{code_digest}\0{is_cost}\0{label}\0{text}".encode()).hexdigest()
        cached = cache_dir / f"{key}.json"
        if cached.exists():
            value = json.loads(cached.read_text())
        else:
            prog = lang.parse_program(text)
            init = semantics.initial_config(prog)
            if is_cost:
                unit = {lbl: 1 for lbl in prog.labels()}
                p, e = exhaustive.conditional_expected_cost(prog, init, label, unit)
                value = {"p": str(p), "e": str(e)}
            else:
                value = {"p": str(exhaustive.reach_probability(prog, init, label))}
            cache_dir.mkdir(parents=True, exist_ok=True)
            cached.write_text(json.dumps(value))
        out.setdefault(f"{path} {label}", {}).update(value)
    return out


def check(query, code, stdout, refs):
    """None when the output of `query` is correct, else the reason it is not."""
    try:
        return _check(query["check"], code, stdout, refs)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed output: {exc!r}"


def _check(spec, code, stdout, refs):
    kind = spec["kind"]
    if code not in (0, 1, 4):
        return f"exit code {code}"
    doc = json.loads(stdout)
    ref = refs.get(f"{spec.get('program')} {spec.get('label')}", {})

    if kind in ("verdict", "verdict_exact"):
        if kind == "verdict":
            expect = spec["expect"]
        else:
            p = frac(ref["p"])
            expect = p == 1 if spec["holds_iff"] == "p == 1" else p == 0
        if doc.get("verdict") is not expect or code != (0 if expect else 1):
            return f"verdict {doc.get('verdict')} (exit {code}), expected {expect}"
        return None

    if code == 1:
        return "exit 1 on a non-qualitative query"

    if kind == "quant":
        if code != 0:
            return f"exit {code}"
        p, v, eps = frac(ref["p"]), frac(doc["value"]), frac(doc["epsilon"])
        if not v <= p <= v + eps:
            return f"[{v}, {v} + {eps}] misses the exact {p}"
        return None

    if kind == "eagerness":
        if code != 0 or doc.get("n_threshold") != spec["n_threshold"]:
            return f"n_threshold {doc.get('n_threshold')}, golden {spec['n_threshold']}"
        return None

    if kind == "cost":
        p, e = frac(ref["p"]), frac(ref["e"])
        if "expect" in spec and e != frac(spec["expect"]):
            return f"exact solver gives {e}, hand-derived {spec['expect']}"
        value = frac(doc["value"])
        if code == 4:
            if not doc.get("aborted"):
                return "exit 4 without an aborted partial result"
            if not (frac(doc["prob_apprx"]) <= p and value <= e):
                return f"partial result exceeds the exact P={p} or E={e}"
            return None
        eps = frac(doc["epsilon"])
        upper = doc.get("value_upper")
        if not value <= e <= value + eps or (upper is not None and e > frac(upper)):
            return f"bracket [{float(value)}, +{eps}) misses the exact {e}"
        return None

    if code != 0:
        return f"exit {code}"
    hits, runs = doc["hits"], doc["runs"]
    if kind == "mc_at_least":
        if Fraction(hits, runs) < frac(spec["fraction"]):
            return f"{hits}/{runs} below {spec['fraction']}"
        return None
    if kind == "mc_zero":
        return None if hits == 0 else f"{hits} hits on an unreachable label"
    if kind == "mc_exact":
        lo, hi = wilson(hits, runs)
        p = float(frac(ref["p"]))
        return None if lo <= p <= hi else f"{hits}/{runs} inconsistent with exact {p}"
    raise KeyError(f"unknown check kind {kind!r}")
