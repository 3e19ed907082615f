import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import exhaustive
from conftest import corpus_names, load_corpus, make_config
from letter_sampler import LetterSampler
from ptso_verify import lang, montecarlo, reach, semantics
from ptso_verify.cost import CostFunction
from ptso_verify.montecarlo import (CondCostEstimate, ReachEstimate, RunSampler,
                                    estimate_cond_cost, estimate_reach, sample_run,
                                    wilson_interval)

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


def named_step(p, sampler, cid, rng):
    """sampler.step(cid, rng) with the process and the update word named."""
    pi, word, succ = sampler.step(cid, rng)
    return (None if pi is None else p.processes[pi].name,
            tuple(p.processes[w].name for w in word), succ)


def test_sample_step_disabled():
    p = load_corpus("race_flag")
    sampler = RunSampler(p)
    done = sampler.intern(make_config(p, labels={"P": "P2", "Q": "J"},
                                      bufs={"P": [("x", 1)]}))
    rng = random.Random(0)
    choice, sched, succ = named_step(p, sampler, done, rng)
    assert choice is None
    # buffer eventually drains through update steps alone
    for _ in range(50):
        _, _, done = named_step(p, sampler, done, rng)
    assert semantics.is_plain(sampler.configs[done])


def test_sample_step_plain_nonwriting_schedule_empty():
    p = lang.parse_program(NO_WRITE)
    sampler = RunSampler(p)
    cid = sampler.intern(semantics.initial_config(p))
    rng = random.Random(1)
    for _ in range(3):
        choice, sched, cid = named_step(p, sampler, cid, rng)
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
    sampler = RunSampler(p)
    cid = sampler.intern(semantics.initial_config(p))
    rng = random.Random(42)
    n = 100_000
    hits = 0
    for _ in range(n):
        pi, _, _ = sampler.step(cid, rng)
        hits += pi == 0
    p_expect = 0.25
    sigma = math.sqrt(p_expect * (1 - p_expect) / n)
    assert abs(hits / n - p_expect) <= 3 * sigma


def test_schedule_distribution_uniform():
    # empirical word frequencies from caps (1,1) with no process enabled:
    # words e, P, Q, PQ, QP each 1/5
    p = load_corpus("race_flag")
    sampler = RunSampler(p)
    cid = sampler.intern(make_config(p, labels={"P": "P2", "Q": "J"},
                                     bufs={"P": [("x", 1)], "Q": [("x", 0)]}))
    rng = random.Random(9)
    n = 50_000
    counts = {}
    for _ in range(n):
        pi, word, _ = sampler.step(cid, rng)
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
    oracle = reach.ReachOracle(p)
    c = init
    for name, sched, succ in a.steps:
        assert oracle.distribution(c).get(succ, 0) > 0
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


def test_estimates_render_as_strict_json():
    # one hitting run leaves the cost interval unbounded: its ends render as
    # null, so no document needs JSON's non-standard Infinity
    p = load_corpus("race_costs")
    init = semantics.initial_config(p)
    cf = CostFunction.uniform(p)
    one = estimate_cond_cost(p, init, "HI", cf, runs=4, horizon=50, seed=3)
    assert one.hitting_runs == 1 and one.to_json()["normal95"] == [None, None]
    many = estimate_cond_cost(p, init, "HI", cf, runs=200, horizon=50, seed=3)
    assert many.to_json()["normal95"] == list(many.interval)
    for est in (one, many, estimate_reach(p, init, "HI", 4, 50, 3)):
        json.dumps(est.to_json(), allow_nan=False)


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
    c = start(p)
    cid = tables.intern(c)
    for i in range(200):
        pi, word, cid = tables.step(cid, rng_t)
        got = ref.step(c, rng_r)
        assert (pi, word, tables.configs[cid]) == got, (name, seed, i)
        assert rng_t.getstate() == rng_r.getstate(), (name, seed, i)
        c = got[2]


def test_step_tables_refill_past_limit(monkeypatch):
    monkeypatch.setattr(montecarlo, "TABLE_LIMIT", 8)
    p = load_corpus("writer_reader")
    tables, ref = RunSampler(p), LetterSampler(p)
    rng_t, rng_r = random.Random(5), random.Random(5)
    c = _heavy_writer_reader(p)
    cid = tables.intern(c)
    for _ in range(300):
        if len(tables.configs) >= montecarlo.TABLE_LIMIT:
            cid = tables.refill(cid)
            assert tables.configs == [c]
            # the refill starts a fresh oracle: its shared tables hold c alone
            oracle = tables.oracle
            assert tables.configs is oracle.configs
            assert (len(oracle._locals), len(oracle._stores)) == (1, 1)
        pi, word, cid = tables.step(cid, rng_t)
        got = ref.step(c, rng_r)
        assert (pi, word, tables.configs[cid]) == got
        assert len(tables.configs) < 16     # 77 configurations without the refill
        c = got[2]
    assert rng_t.getstate() == rng_r.getstate()


def test_step_tables_refill_keeps_estimates(monkeypatch):
    # the estimators and sample_run refill between two steps; with a limit
    # of 8 they drop their tables many times and answer the same
    p = load_corpus("writer_reader")
    init = _heavy_writer_reader(p)
    cf = CostFunction.uniform(p)

    def answers():
        return (estimate_reach(p, init, "WIN", 40, 60, 2),
                estimate_cond_cost(p, init, "WIN", cf, 40, 60, 2),
                sample_run(p, init, 7, 60, label="WIN", cost=cf))

    want = answers()
    refills = [0]
    refill = RunSampler.refill

    def counted(self, cid):
        refills[0] += 1
        return refill(self, cid)

    monkeypatch.setattr(RunSampler, "refill", counted)
    monkeypatch.setattr(montecarlo, "TABLE_LIMIT", 8)
    assert answers() == want
    assert refills[0] > 40
    assert 0 < want[0].hits < 40


DRAW_TOTALS = sorted({1, 2} | {n for k in range(2, 201) for n in (2**k - 1, 2**k, 2**k + 1)})


def _step_draw_matches_randrange(n, seed):
    """Run the step kernel over a process-choice table of total n whose
    thresholds single out the value randrange(n) gives, and check that the
    kernel drew that value and left the rng where randrange(n) leaves it."""
    p = lang.parse_program(NO_WRITE)
    sampler = RunSampler(p)
    cid = sampler.intern(semantics.initial_config(p))    # empty buffers: W = 1
    ref = random.Random(seed)
    want = ref.randrange(n)
    ref.randrange(1)            # the stop draw at the empty buffers
    # thresholds (want, want + 1, n): only a draw equal to want picks index 1
    sampler._choices[cid] = ([0, 1, 2], [want, want + 1, n], n, n.bit_length(), [cid] * 3)
    rng = random.Random(seed)
    assert sampler.step(cid, rng) == (1, (), cid), (n, seed)
    assert rng.getstate() == ref.getstate(), (n, seed)


def test_step_draw_equals_randrange_at_edge_totals():
    for n in DRAW_TOTALS:
        for seed in range(3):
            _step_draw_matches_randrange(n, seed)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(min_value=1, max_value=2**300), seed=st.integers(min_value=0))
def test_step_draw_equals_randrange(n, seed):
    _step_draw_matches_randrange(n, seed)


def test_letter_totals_pass_64_bits_on_heavy_buffers():
    # the letter draws of heavy buffers take more than one 64-bit word, and
    # still match the reference and its rng state
    p = load_corpus("writer_reader")
    heavy = make_config(p, labels={"L": "L2", "R": "R3"}, regs={"lv": 1, "rv": 2, "one": 1},
                        bufs={"L": [("x", 1)] * 40, "R": [("x", 2)] * 40})
    sampler, ref = RunSampler(p), LetterSampler(p)
    assert sampler.total_words([40, 40]).bit_length() > 64
    for seed in range(20):
        rng_t, rng_r = random.Random(seed), random.Random(seed)
        pi, word, succ = sampler.step(sampler.intern(heavy), rng_t)
        assert (pi, word, sampler.configs[succ]) == ref.step(heavy, rng_r)
        assert rng_t.getstate() == rng_r.getstate()


def _full_horizon_estimates(p, init, label, cost, runs, horizon, seed):
    """estimate_reach and estimate_cond_cost recomputed over the
    letter-by-letter reference: every run walks the whole horizon, with no
    absorbing or dead stop, and its first hit is read off the walk. The cost
    estimate is None when no run hits."""
    ref = LetterSampler(p)
    samples = []
    for idx in range(runs):
        rng = random.Random((seed << 64) + idx)
        c, acc = init, 0
        hit = 0 if label in init.labels else None
        for _ in range(horizon):
            pi, _, succ = ref.step(c, rng)
            if hit is None:
                if pi is not None:
                    acc += cost[c.labels[pi]]
                if label in succ.labels:
                    hit = acc
            c = succ
        if hit is not None:
            samples.append(hit)
    hits = len(samples)
    reach = ReachEstimate(hits / runs, wilson_interval(hits, runs), hits, runs, horizon,
                          runs - hits, seed)
    if not hits:
        return reach, None
    mean = sum(samples) / hits
    half = 1.96 * math.sqrt(sum((s - mean) ** 2 for s in samples) / (hits - 1) / hits)
    return reach, CondCostEstimate(mean, (mean - half, mean + half), hits, runs, horizon, seed)


# The last start is an --init start whose buffer holds the only 1 that Q's
# read of x can see: the may-value sets must be seeded from the buffers.
@pytest.mark.parametrize("name,label,start", [
    ("race_retry", "WIN", None), ("race_flag", "W1", None), ("loop_all", "PT", None),
    ("dead_label", "DEAD", None),
    ("race_flag", "W1", {"labels": {"P": "P2", "Q": "Q0"}, "bufs": {"P": [("x", 1)]}})],
    ids=["race_retry-WIN", "race_flag-W1", "loop_all-PT", "dead_label-DEAD",
         "race_flag-W1-buffered"])
def test_absorbing_stop_keeps_estimates(monkeypatch, name, label, start):
    """The runs that end early, at an absorbing or a dead configuration,
    leave both estimates as the full-horizon walk gives them."""
    p = load_corpus(name)
    init = make_config(p, **start) if start else semantics.initial_config(p)
    cf = CostFunction.uniform(p)
    runs, horizon = 150, 200
    calls = [0]
    table_step = RunSampler.step

    def counted(self, cid, rng):
        calls[0] += 1
        return table_step(self, cid, rng)

    want_reach, want_cost = _full_horizon_estimates(p, init, label, cf, runs, horizon, 4)
    with monkeypatch.context() as m:
        m.setattr(RunSampler, "step", counted)
        reach = estimate_reach(p, init, label, runs, horizon, 4)
        reach_calls = calls[0]
        if want_cost is None:
            with pytest.raises(ValueError, match="no sampled run"):
                estimate_cond_cost(p, init, label, cf, runs, horizon, 4)
        else:
            assert estimate_cond_cost(p, init, label, cf, runs, horizon, 4) == want_cost
    assert reach == want_reach
    if name in ("loop_all", "dead_label"):
        assert reach.hits == 0 and calls[0] == 0
    else:
        assert 0 < reach.hits < runs
    if name == "race_retry":
        assert reach_calls < runs * horizon
        assert calls[0] - reach_calls < runs * horizon


def test_sample_run_records_every_step_from_absorbing_start():
    p = load_corpus("race_flag")
    done = make_config(p, labels={"P": "P2", "Q": "J"})
    sampler = RunSampler(p)
    assert sampler.absorbing(sampler.intern(done))
    assert not sampler.absorbing(sampler.intern(semantics.initial_config(p)))
    assert not sampler.absorbing(sampler.intern(make_config(
        p, labels={"P": "P2", "Q": "J"}, bufs={"P": [("x", 1)]})))
    run = sample_run(p, done, seed=3, horizon=40, label="W1")
    assert run.steps == [(None, (), done)] * 40
    assert run.first_hit is None


def test_sample_run_rejects_negative_horizon():
    p = load_corpus("race_flag")
    init = semantics.initial_config(p)
    with pytest.raises(ValueError, match="horizon must be >= 0"):
        sample_run(p, init, 1, -5, label="W1")
    assert sample_run(p, init, 1, 0, label="W1").steps == []
