import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import exhaustive
from conftest import corpus_names, load_corpus, make_config
from letter_sampler import LetterSampler
from ptso_verify import lang, markov, montecarlo, semantics
from ptso_verify.cost import CostFunction
from ptso_verify.montecarlo import (RunSampler, estimate_cond_cost, estimate_reach,
                                    sample_run, sample_step, wilson_interval)

F = Fraction

DET = """
domain 2
vars x
proc P weight 1
regs a
S0: a := 1
S1: a := a + a
S2: a := 0
GOAL: term
"""

NO_WRITE = """
domain 2
vars x
proc P weight 1
regs a
N0: a := 1
N1: a := 0
N2: term
"""


def test_sample_step_disabled():
    p = load_corpus("race_flag")
    done = make_config(p, labels={"P": "P2", "Q": "J"}, bufs={"P": [("x", 1)]})
    rng = random.Random(0)
    choice, sched, succ = sample_step(p, done, rng)
    assert choice is None
    # buffer eventually drains through update steps alone
    for _ in range(50):
        _, _, done = sample_step(p, done, rng)
    assert semantics.is_plain(done)


def test_sample_step_plain_nonwriting_schedule_empty():
    p = lang.parse_program(NO_WRITE)
    c = semantics.initial_config(p)
    rng = random.Random(1)
    for _ in range(3):
        choice, sched, c = sample_step(p, c, rng)
        assert sched == ()  # nothing buffered, nothing to pop


def test_sample_step_frequencies_match_weights():
    p = lang.parse_program("""
domain 2
vars x
proc A weight 1
regs a
A0: x := a
A1: if a then A0
A2: term
proc B weight 3
regs b
B0: x := b
B1: if b then B0
B2: term
""")
    c = semantics.initial_config(p)
    sampler = RunSampler(p)
    rng = random.Random(42)
    n = 100_000
    hits = 0
    for _ in range(n):
        pi, _, _ = sampler.step(c, rng)
        hits += pi == 0
    p_expect = 0.25
    sigma = math.sqrt(p_expect * (1 - p_expect) / n)
    assert abs(hits / n - p_expect) <= 3 * sigma


def test_schedule_distribution_uniform():
    # empirical word frequencies from caps (1,1) with no process enabled:
    # words e, P, Q, PQ, QP each 1/5
    p = load_corpus("race_flag")
    c = make_config(p, labels={"P": "P2", "Q": "J"},
                    bufs={"P": [("x", 1)], "Q": [("x", 0)]})
    sampler = RunSampler(p)
    rng = random.Random(9)
    n = 50_000
    counts = {}
    for _ in range(n):
        pi, word, _ = sampler.step(c, rng)
        assert pi is None
        counts[word] = counts.get(word, 0) + 1
    assert set(counts) == {(), (0,), (1,), (0, 1), (1, 0)}
    sigma = math.sqrt(0.2 * 0.8 / n)
    for w, k in counts.items():
        assert abs(k / n - 0.2) <= 4 * sigma, (w, k / n)


def test_sample_run_replays_and_is_deterministic():
    p = load_corpus("race_flag")
    init = semantics.initial_config(p)
    cf = CostFunction.uniform(p)
    a = sample_run(p, init, seed=123, horizon=40, label="W1", cost=cf)
    b = sample_run(p, init, seed=123, horizon=40, label="W1", cost=cf)
    assert a == b
    c = init
    for name, sched, succ in a.steps:
        assert markov.step_distribution(p, c).get(succ, 0) > 0
        if name is None:
            assert semantics.enabled_indices(p, c) == []
            mid = c
        else:
            assert p.proc_index(name) in semantics.enabled_indices(p, c)
            mid = semantics.process_step(p, c, name)
        assert semantics.apply_schedule(p, mid, sched) == succ
        c = succ
    if a.first_hit is not None:
        assert "W1" in a.steps[a.first_hit - 1][2].labels


def test_estimate_reach_trivial():
    p = load_corpus("race_flag")
    init = semantics.initial_config(p)
    assert estimate_reach(p, init, "P0", 50, 10, 0).fraction == 1.0
    p2 = load_corpus("dead_label")
    est = estimate_reach(p2, semantics.initial_config(p2), "DEAD", 50, 50, 0)
    assert est.fraction == 0.0 and est.censored == 50


def test_estimate_reach_race_matches_solver():
    p = load_corpus("race_flag")
    init = semantics.initial_config(p)
    exact = float(exhaustive.reach_probability(p, init, "W1"))
    est = estimate_reach(p, init, "W1", 20_000, 200, 5)
    lo, hi = est.interval
    assert lo <= exact <= hi
    assert est.hits + est.censored == est.runs


def test_estimate_cond_cost_deterministic():
    p = lang.parse_program(DET)
    init = semantics.initial_config(p)
    est = estimate_cond_cost(p, init, "GOAL", CostFunction.uniform(p), 200, 50, 1)
    assert est.mean == 3.0
    start = make_config(p, labels={"P": "GOAL"})
    est0 = estimate_cond_cost(p, start, "GOAL", CostFunction.uniform(p), 20, 10, 1)
    assert est0.mean == 0.0


def test_estimate_cond_cost_race_interval():
    p = load_corpus("race_costs")
    init = semantics.initial_config(p)
    cf = CostFunction.validate(p, {"P0": 1, "P1": 1, "P2": 1, "Q0": 1, "Q1": 1,
                                   "Q2": 1, "LO": 1, "L2": 1, "HI": 5, "GOAL": 1})
    _, exact = exhaustive.conditional_expected_cost(p, init, "GOAL", cf)
    est = estimate_cond_cost(p, init, "GOAL", cf, 20_000, 200, 11)
    lo, hi = est.interval
    assert lo <= float(exact) <= hi


def test_estimate_cond_cost_no_hits():
    p = load_corpus("dead_label")
    with pytest.raises(ValueError, match="no sampled run"):
        estimate_cond_cost(p, semantics.initial_config(p), "DEAD",
                           CostFunction.uniform(p), 10, 20, 0)


def test_wilson_interval():
    lo, hi = wilson_interval(50, 100)
    assert 0.4 < lo < 0.5 < hi < 0.6
    assert wilson_interval(0, 0) == (0.0, 1.0)
    lo1, hi1 = wilson_interval(100, 100)
    assert hi1 > 0.999 and lo1 > 0.95


def test_seed_streams_independent_of_order():
    p = load_corpus("race_flag")
    init = semantics.initial_config(p)
    # per-run streams derive from (seed, index): computing run 7 alone gives
    # the same sample as computing it inside a batch
    alone = sample_run(p, init, (5 << 64) + 7, 30, label="W1")
    batch = [sample_run(p, init, (5 << 64) + i, 30, label="W1") for i in range(10)]
    assert batch[7] == alone


def _heavy_writer_reader(prog):
    # acceptance criterion 9's size-6 drift start
    return make_config(prog, labels={"L": "L2", "R": "R3"},
                       regs={"lv": 1, "rv": 2, "one": 1},
                       bufs={"L": [("x", 1)] * 4, "R": [("x", 2)] * 2})


STARTS = [(name, semantics.initial_config) for name in corpus_names()]
STARTS.append(("writer_reader", _heavy_writer_reader))


@pytest.mark.parametrize("name,start", STARTS, ids=[n for n, _ in STARTS[:-1]] + ["heavy"])
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**64))
def test_step_tables_match_letter_sampler(name, start, seed):
    # the tables draw the same randrange sequence as the letter-by-letter
    # reference, so both walks agree step for step and leave the same rng state
    p = load_corpus(name)
    tables, ref = RunSampler(p), LetterSampler(p)
    rng_t, rng_r = random.Random(seed), random.Random(seed)
    c_t = c_r = start(p)
    for i in range(200):
        got_t, got_r = tables.step(c_t, rng_t), ref.step(c_r, rng_r)
        assert got_t == got_r, (name, seed, i)
        assert rng_t.getstate() == rng_r.getstate(), (name, seed, i)
        c_t, c_r = got_t[2], got_r[2]


def test_step_tables_refill_past_limit(monkeypatch):
    monkeypatch.setattr(montecarlo, "TABLE_LIMIT", 8)
    p = load_corpus("writer_reader")
    tables, ref = RunSampler(p), LetterSampler(p)
    rng_t, rng_r = random.Random(5), random.Random(5)
    c = _heavy_writer_reader(p)
    for _ in range(300):
        got = tables.step(c, rng_t)
        assert got == ref.step(c, rng_r)
        assert len(tables._configs) < 16     # 77 configurations without the refill
        c = got[2]
    assert rng_t.getstate() == rng_r.getstate()


class _FullHorizonSampler(LetterSampler):
    """The reference step without the absorbing stop: every run walks the
    whole horizon."""

    def absorbing(self, c):
        return False


@pytest.mark.parametrize("name,label", [("race_retry", "WIN"), ("race_flag", "W1")])
def test_absorbing_stop_keeps_estimates(monkeypatch, name, label):
    p = load_corpus(name)
    init = semantics.initial_config(p)
    cf = CostFunction.uniform(p)
    runs, horizon = 150, 200
    calls = [0]
    table_step = RunSampler.step

    def counted(self, c, rng):
        calls[0] += 1
        return table_step(self, c, rng)

    with monkeypatch.context() as m:
        m.setattr(RunSampler, "step", counted)
        reach = estimate_reach(p, init, label, runs, horizon, 4)
        reach_calls = calls[0]
        cost = estimate_cond_cost(p, init, label, cf, runs, horizon, 4)
    with monkeypatch.context() as m:
        m.setattr(montecarlo, "RunSampler", _FullHorizonSampler)
        assert reach == estimate_reach(p, init, label, runs, horizon, 4)
        assert cost == estimate_cond_cost(p, init, label, cf, runs, horizon, 4)
    assert 0 < reach.hits < runs
    if name == "race_retry":
        assert reach_calls < runs * horizon
        assert calls[0] - reach_calls < runs * horizon


def test_sample_run_records_every_step_from_absorbing_start():
    p = load_corpus("race_flag")
    done = make_config(p, labels={"P": "P2", "Q": "J"})
    sampler = RunSampler(p)
    assert sampler.absorbing(done)
    assert not sampler.absorbing(semantics.initial_config(p))
    assert not sampler.absorbing(make_config(p, labels={"P": "P2", "Q": "J"},
                                             bufs={"P": [("x", 1)]}))
    run = sample_run(p, done, seed=3, horizon=40, label="W1", sampler=sampler)
    assert run.steps == [(None, (), done)] * 40
    assert run.first_hit is None
