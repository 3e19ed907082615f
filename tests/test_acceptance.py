"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured runtime. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import json
import math
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import exhaustive
from conftest import load_corpus, make_config
from ptso_verify import (cost as cost_mod, eagerness, montecarlo,
                         qualitative, quantitative, reach, semantics)
from ptso_verify.errors import BudgetExceededError

F = Fraction
CORPUS_DIR = pathlib.Path(__file__).parent / "corpus"
ALL_CORPUS = sorted(p.stem for p in CORPUS_DIR.glob("*.ptso"))

RACE_COST_TABLE = {"P0": 1, "P1": 1, "P2": 1, "Q0": 1, "Q1": 1, "Q2": 1,
                   "LO": 1, "L2": 1, "HI": 5, "GOAL": 1}


def report(num, detail, t0):
    print(f"\nACCEPTANCE {num} PASS ({time.time() - t0:.1f}s): {detail}")


def test_criterion_1_constants_regression():
    """gamma = 2*sqrt(2)/3 and srun_rate(150) = 0.986 +- 0.0005; < 1 s."""
    t0 = time.time()
    lo, hi = eagerness.gamma_bounds()
    assert hi - lo <= F(1, 10**12)
    assert lo ** 2 <= F(8, 9) <= hi ** 2              # brackets 2*sqrt(2)/3
    assert abs(float(lo) - 0.9428090415820634) < 1e-12
    slo, shi = eagerness.srun_rate(150)
    assert slo <= shi < 1
    assert abs(float(slo) - 0.986) <= 0.0005
    assert abs(float(shi) - 0.986) <= 0.0005
    assert time.time() - t0 < 1.0
    report(1, f"gamma in [{float(lo):.13f},{float(hi):.13f}], "
              f"srun_rate(150) in [{float(slo):.6f},{float(shi):.6f}]", t0)


SIZE6_SHAPES = [(1, 1, 1, 1, 1, 1), (2, 1, 1, 1, 1, 0), (2, 2, 1, 1, 0, 0),
                (2, 2, 2, 0, 0, 0), (3, 1, 1, 1, 0, 0), (3, 2, 1, 0, 0, 0),
                (3, 3, 0, 0, 0, 0), (4, 1, 1, 0, 0, 0), (4, 2, 0, 0, 0, 0),
                (5, 1, 0, 0, 0, 0), (6, 0, 0, 0, 0, 0)]
SIZE6_SHORT_COUNTS = [7, 6, 5, 4, 5, 4, 3, 4, 3, 3, 2]
SIZE5_SHAPES = [(1, 1, 1, 1, 1), (2, 1, 1, 1, 0), (2, 2, 1, 0, 0),
                (3, 1, 1, 0, 0), (3, 2, 0, 0, 0), (4, 1, 0, 0, 0),
                (5, 0, 0, 0, 0)]


def _corpus_size5_configs(limit_per_program=400):
    out = []
    for name in ("writer_reader", "loop_all"):
        prog = load_corpus(name)
        oracle = reach.ReachOracle(prog)
        ex = oracle.explore(oracle.intern(semantics.initial_config(prog)))
        found = sorted(c for c in map(oracle.configs.__getitem__, ex.nodes)
                       if semantics.size(c) == 5)
        out.append((prog, found[:limit_per_program]))
    return out


def test_criterion_2_left_biasedness_enumeration():
    """Short-update-word counts match the known per-shape values; corpus size-5
    configurations step to size <= 4 with probability >= 2/3; < 10 s."""
    t0 = time.time()
    shorts = []
    for shape in SIZE6_SHAPES:
        by_len = semantics.update_word_counts_by_length(shape)
        short = by_len.get(0, 0) + by_len.get(1, 0)
        shorts.append(short)
        assert 2 * short < sum(by_len.values())   # long words outnumber short
    assert shorts == SIZE6_SHORT_COUNTS
    for shape in SIZE5_SHAPES:
        by_len = semantics.update_word_counts_by_length(shape)
        assert 2 * by_len.get(0, 0) < sum(by_len.values())
    checked = 0
    for prog, configs in _corpus_size5_configs():
        assert configs, "corpus produced no size-5 configurations"
        step = reach.ReachOracle(prog).distribution
        for c in configs:
            dist = step(c)
            small = sum(p for cc, p in dist.items() if semantics.size(cc) <= 4)
            assert small >= F(2, 3), c
            checked += 1
    assert time.time() - t0 < 10.0
    report(2, f"size-6 short counts {shorts}; {checked} corpus size-5 configs "
              f"all have P(size<=4) >= 2/3 exactly", t0)


def test_criterion_3_row_stochasticity_depth6():
    """Exact row sums of 1 for every configuration within BFS depth 6 of
    every corpus program; < 30 s."""
    t0 = time.time()
    total = 0
    for name in ALL_CORPUS:
        prog = load_corpus(name)
        step = reach.ReachOracle(prog).distribution
        seen = {semantics.initial_config(prog)}
        frontier = list(seen)
        for _ in range(6):
            nxt = []
            for c in frontier:
                dist = step(c)
                assert sum(dist.values()) == 1, (name, c)
                total += 1
                for succ in dist:
                    if succ not in seen:
                        seen.add(succ)
                        nxt.append(succ)
            frontier = nxt
    assert time.time() - t0 < 30.0
    report(3, f"{total} configurations across {len(ALL_CORPUS)} programs, "
              f"all rows sum to exactly 1", t0)


def _brute_first_passage(p, q, n):
    total = F(0)
    for steps in itertools.product((1, -1), repeat=n):
        pos = 1
        hit_at = None
        for i, s in enumerate(steps):
            pos += s
            if pos == 0:
                hit_at = i + 1
                break
        if hit_at == n:
            ups = steps[:hit_at].count(1)
            total += p ** ups * q ** (hit_at - ups)
    return total


def test_criterion_4_gambler_oracle_equivalence():
    """first_passage equals brute-force enumeration for n <= 15 over three
    (p, q) pairs; the tail bound dominates the exact tail for n <= 30; < 10 s."""
    t0 = time.time()
    pairs = [(F(1, 2), F(1, 2)), (F(1, 3), F(2, 3)), (F(1, 4), F(3, 4))]
    for p, q in pairs:
        g = eagerness.GamblerParams(p, q)
        for n in range(1, 16):
            assert eagerness.gambler_first_passage(g, n) == _brute_first_passage(p, q, n)
        tail = F(1)
        for n in range(2, 31):
            tail = 1 - sum(eagerness.gambler_first_passage(g, k) for k in range(1, n))
            assert tail <= eagerness.gambler_tail_bound(g, n)[1], (p, q, n)
    assert time.time() - t0 < 10.0
    report(4, "first passage exact for n<=15 on 3 parameter pairs; "
              "tail bound dominates for n<=30", t0)


def test_criterion_5_writer_reader_qualitative_and_mc():
    """writer_reader: qual_reach(WIN) true; 1e5 runs, horizon 500, hit
    fraction >= 0.999; < 2 min."""
    t0 = time.time()
    prog = load_corpus("writer_reader")
    init = semantics.initial_config(prog)
    res = qualitative.qual_reach(prog, init, "WIN")
    assert res.verdict
    est = montecarlo.estimate_reach(prog, init, "WIN", 100_000, 500, 7)
    assert est.fraction >= 0.999
    assert time.time() - t0 < 120.0
    report(5, f"qual_reach(WIN)=true; MC fraction {est.fraction:.5f} "
              f"({est.hits}/{est.runs}, censored {est.censored})", t0)


QUANT_CASES = [("race_flag", "W1"), ("race_retry", "WIN"),
               ("race_costs", "HI"), ("race_cas", "AW"), ("two_sccs", "A1")]


def test_criterion_6_quantitative_sandwich():
    """quant_reach with eps=1/100 brackets the exhaustive-solver probability
    on the hand-built race programs (exact rational comparison); < 5 min."""
    t0 = time.time()
    eps = F(1, 100)
    details = []
    for name, label in QUANT_CASES:
        prog = load_corpus(name)
        init = semantics.initial_config(prog)
        exact = exhaustive.reach_probability(prog, init, label)
        res = quantitative.quant_reach(prog, init, label, eps)
        assert res.value <= exact <= res.value + eps, (name, label)
        details.append(f"{name}:{label} p={float(exact):.4f}")
    assert time.time() - t0 < 300.0
    report(6, "; ".join(details), t0)


def test_criterion_7_repeated_reachability_sandwich():
    """quant_rep_reach within eps of the exhaustive SCC-entry probability on
    the two-terminal-SCC race; < 5 min."""
    t0 = time.time()
    eps = F(1, 100)
    prog = load_corpus("two_sccs")
    init = semantics.initial_config(prog)
    # entering the A loop = reaching A1; once entered, A1 recurs forever
    exact = exhaustive.reach_probability(prog, init, "A1")
    res = quantitative.quant_rep_reach(prog, init, "A1", eps)
    assert res.value <= exact <= res.value + eps
    # and a label visited at most once has repeated-reachability 0
    flag = load_corpus("race_flag")
    res0 = quantitative.quant_rep_reach(flag, semantics.initial_config(flag), "W1", eps)
    assert res0.value == 0 and res0.neg == 1
    assert time.time() - t0 < 300.0
    report(7, f"two_sccs:A1 exact={exact}={float(exact):.4f}, "
              f"value={float(res.value):.4f}; race_flag:W1 rep-prob 0", t0)


def test_criterion_8_expected_cost():
    """Deterministic 3-instruction unit-cost program lands in [3-eps, 3];
    the branch-cost race program exceeds its layer budget and the
    partial-bounds abort carries the exact conditional expectation; < 10 min."""
    t0 = time.time()
    from ptso_verify import lang
    det_prog = lang.parse_program(
        "domain 2\nvars x\nproc P weight 1\nregs a\n"
        "S0: a := 1\nS1: a := a + a\nS2: a := 0\nGOAL: term\n")
    init = semantics.initial_config(det_prog)
    eps = F(1, 10)
    res = cost_mod.expected_avg_cost(det_prog, init, "GOAL",
                                     cost_mod.CostFunction.uniform(det_prog), eps)
    assert 3 - eps <= res.value <= 3
    assert not res.aborted

    race = load_corpus("race_costs")
    rinit = semantics.initial_config(race)
    cf = cost_mod.CostFunction.validate(race, RACE_COST_TABLE)
    eager = eagerness.compute_eagerness(race, "GOAL", source=rinit)
    assert eager.n_threshold > 400      # the budget guard must fire
    with pytest.raises(BudgetExceededError) as exc:
        cost_mod.expected_avg_cost(race, rinit, "GOAL", cf, F(1, 100),
                                   eager=eager, max_layers=400)
    part = exc.value.partial
    assert part.aborted and part.live_frontier_mass == 0
    p_exact, cond = exhaustive.conditional_expected_cost(race, rinit, "GOAL", cf)
    assert part.prob_apprx == p_exact
    assert part.cost_apprx / part.prob_apprx == cond
    assert part.value <= cond
    assert time.time() - t0 < 600.0
    report(8, f"deterministic v={float(res.value):.4f} (n={res.n}); race abort at "
              f"n={part.n} with exact conditional {cond}={float(cond):.4f}", t0)


def test_criterion_9_attractor_empiricism():
    """Over 1e4 sampled runs: >= 99% revisit a plain configuration within 200
    steps, and the mean one-step size change sampled at size >= 5
    configurations is <= -1/4 + 3 sigma; < 2 min."""
    t0 = time.time()
    revisit_runs = 0
    revisits = 0
    for name in ("writer_reader", "loop_all"):
        prog = load_corpus(name)
        init = semantics.initial_config(prog)
        sampler = montecarlo.RunSampler(prog)
        start = sampler.intern(init)
        for idx in range(5000):
            rng = random.Random((13 << 64) + idx)
            cid = start
            for _ in range(200):
                _, _, cid = sampler.step(cid, rng)
                if semantics.is_plain(sampler.configs[cid]):
                    revisits += 1
                    break
            revisit_runs += 1
    frac = revisits / revisit_runs
    assert revisit_runs == 10_000
    assert frac >= 0.99

    # drift samples: runs of the writer_reader chain started at a size-6
    # configuration so that size >= 5 states are actually visited
    prog = load_corpus("writer_reader")
    heavy = make_config(prog, labels={"L": "L2", "R": "R3"},
                        regs={"lv": 1, "rv": 2, "one": 1},
                        bufs={"L": [("x", 1)] * 4, "R": [("x", 2)] * 2})
    assert semantics.size(heavy) == 6
    sampler = montecarlo.RunSampler(prog)
    start = sampler.intern(heavy)
    drops = []
    for idx in range(10_000):
        rng = random.Random((17 << 64) + idx)
        cid = start
        for _ in range(25):
            before = semantics.size(sampler.configs[cid])
            _, _, cid = sampler.step(cid, rng)
            if before >= 5:
                drops.append(semantics.size(sampler.configs[cid]) - before)
    n = len(drops)
    mean = sum(drops) / n
    var = sum((d - mean) ** 2 for d in drops) / (n - 1)
    sigma = math.sqrt(var / n)
    assert mean <= -0.25 + 3 * sigma
    assert time.time() - t0 < 120.0
    report(9, f"plain revisit fraction {frac:.4f} (10k runs); size>=5 drift "
              f"mean {mean:.3f} over {n} samples (bound {-0.25 + 3 * sigma:.3f})", t0)


CLI_CASES = [
    ("parse", "race_flag", []),
    ("qual-reach", "once_then_term", ["--label", "WIN"]),
    ("qual-rep-reach", "once_then_term", ["--label", "WIN"]),
    ("never-reach", "dead_label", ["--label", "DEAD"]),
    ("never-rep-reach", "once_then_term", ["--label", "WIN"]),
    ("quant-reach", "race_flag", ["--label", "W1", "--epsilon", "1/100"]),
    ("quant-rep-reach", "two_sccs", ["--label", "A1", "--epsilon", "1/100"]),
    ("cost", "race_costs", ["--label", "GOAL", "--max-layers", "350"]),
    ("simulate", "race_flag", ["--label", "W1", "--runs", "2000",
                               "--horizon", "100", "--seed", "7"]),
    ("eagerness", "race_flag", ["--label", "W1"]),
]


def test_criterion_10_cli_determinism():
    """Every CLI subcommand, invoked twice with fixed seeds, produces
    byte-identical JSON on stdout."""
    t0 = time.time()
    for sub, name, extra in CLI_CASES:
        args = [sys.executable, "-m", "ptso_verify.cli", sub,
                str(CORPUS_DIR / f"{name}.ptso"), *extra]
        a = subprocess.run(args, capture_output=True, timeout=600)
        b = subprocess.run(args, capture_output=True, timeout=600)
        assert a.stdout == b.stdout, sub
        assert a.stdout.strip(), sub
        json.loads(a.stdout)
    report(10, f"{len(CLI_CASES)} subcommands byte-identical across reruns", t0)
