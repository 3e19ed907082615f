from fractions import Fraction

import pytest

import exhaustive
from conftest import load_corpus, make_config
from ptso_verify import cost as cost_mod
from ptso_verify import eagerness, lang, reach, semantics
from ptso_verify.cost import CostFunction, expected_avg_cost
from ptso_verify.errors import BudgetExceededError

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

RACE_COSTS = {"P0": 1, "P1": 1, "P2": 1, "Q0": 1, "Q1": 1, "Q2": 1,
              "LO": 1, "L2": 1, "HI": 5, "GOAL": 1}


@pytest.fixture(scope="module")
def det():
    p = lang.parse_program(DET)
    return p, semantics.initial_config(p), reach.ReachOracle(p)


def test_cost_function_validation():
    p = lang.parse_program(DET)
    with pytest.raises(ValueError, match="misses"):
        CostFunction.validate(p, {"S0": 1})
    with pytest.raises(ValueError, match="positive"):
        CostFunction.validate(p, {lbl: 0 for lbl in p.labels()})
    cf = CostFunction.by_kind(p)
    assert cf["S0"] == cost_mod.DEFAULT_KIND_COSTS["assign"]
    assert cf["GOAL"] == cost_mod.DEFAULT_KIND_COSTS["term"]
    assert CostFunction.uniform(p).max_cost == 1
    # every statement kind, the goto of a removed label included
    p = lang.parse_program(
        "domain 4\nvars x\nproc P weight 1\nregs a b\n"
        "W: x := a\nR: a := x\nA: b := 1\nC: b := CAS(x, a, b)\nI: if b then W\nT: term\n")
    p = lang.remove_label(p, "A")       # A becomes a goto
    table = {"write": 3, "read": 5, "assign": 7, "cas": 11, "if": 13, "term": 17, "goto": 19}
    cf = CostFunction.by_kind(p, table)
    fresh = (set(p.labels()) - {"W", "R", "A", "C", "I", "T"}).pop()
    assert cf.costs == {"W": 3, "R": 5, "A": 19, "C": 11, "I": 13, "T": 17, fresh: 17}
    p = lang.parse_program("vars x\nproc P weight 1\nregs a\nA: a := a + a\nE: a := a == a\n"
                           "S: a := a\nT: term\n")
    assert set(CostFunction.by_kind(p, table).costs.values()) == {7, 17}


def test_deterministic_three_steps(det):
    p, init, oracle = det
    res = expected_avg_cost(p, init, "GOAL", CostFunction.uniform(p), F(1, 10), oracle)
    assert F(29, 10) <= res.value <= 3
    assert res.value_upper >= 3
    assert not res.aborted
    assert res.n >= res.n_threshold >= 300
    assert res.prob_apprx == 1 and res.cost_apprx == 3


def test_label_at_init(det):
    p, init, oracle = det
    start = make_config(p, labels={"P": "GOAL"})
    res = expected_avg_cost(p, start, "GOAL", CostFunction.uniform(p), F(1, 10), oracle)
    assert res.value == 0 and res.cost_apprx == 0 and res.prob_apprx == 1


def test_race_costs_budget_abort_is_exact():
    p = load_corpus("race_costs")
    init = semantics.initial_config(p)
    oracle = reach.ReachOracle(p)
    cf = CostFunction.validate(p, RACE_COSTS)
    eager = eagerness.compute_eagerness(p, "GOAL", oracle, source=init)
    assert eager.n_threshold > 500  # forces the budget guard
    with pytest.raises(BudgetExceededError) as exc:
        expected_avg_cost(p, init, "GOAL", cf, F(1, 100), oracle,
                          eager=eager, max_layers=400)
    part = exc.value.partial
    assert part.aborted and part.n == 400
    assert part.live_frontier_mass == 0
    p_exact, cond = exhaustive.conditional_expected_cost(p, init, "GOAL", cf)
    assert part.prob_apprx == p_exact == 1
    assert part.cost_apprx / part.prob_apprx == cond
    # the certified lower end is still a valid lower bound
    assert part.value <= cond


BLOCKED_CAS = """
domain 2
vars x
proc P weight 1
regs one ok
P0: one := 1
P1: x := one
P2: ok := CAS(x, one, one)
GOAL: term
"""


def test_disabled_step_costs_zero():
    # at P2 with x := 1 still buffered the CAS is disabled, so no process is
    # enabled and the step is an update step alone: it moves no label and
    # costs 0, however often it leaves the write in the buffer
    p = lang.parse_program(BLOCKED_CAS)
    init = semantics.initial_config(p)
    cf = CostFunction.uniform(p)
    blocked = make_config(p, labels={"P": "P2"}, regs={"one": 1}, bufs={"P": [("x", 1)]})
    assert semantics.enabled_indices(p, blocked) == []
    assert exhaustive.conditional_expected_cost(p, init, "GOAL", cf) == (1, 3)
    with pytest.raises(BudgetExceededError) as exc:
        expected_avg_cost(p, init, "GOAL", cf, F(1, 10), reach.ReachOracle(p), max_layers=40)
    part = exc.value.partial
    assert part.aborted
    assert part.cost_apprx / part.prob_apprx == 3


def test_race_costs_conditional_below_one():
    # target HI is reached only on winning paths: conditional denominator < 1
    p = load_corpus("race_costs")
    init = semantics.initial_config(p)
    oracle = reach.ReachOracle(p)
    cf = CostFunction.validate(p, RACE_COSTS)
    with pytest.raises(BudgetExceededError) as exc:
        expected_avg_cost(p, init, "HI", cf, F(1, 100), oracle, max_layers=300)
    part = exc.value.partial
    assert part.live_frontier_mass == 0
    p_exact, cond = exhaustive.conditional_expected_cost(p, init, "HI", cf)
    assert 0 < p_exact < 1
    assert part.prob_apprx == p_exact
    assert part.cost_apprx / part.prob_apprx == cond


def test_invariants_exact_prefix_sums():
    # loop invariants: after i layers CostApprx and ProbApprx equal the
    # exact sums over runs first hitting the target within i steps, computed
    # here by independent path enumeration over the step distributions.
    p = load_corpus("race_flag")
    init = semantics.initial_config(p)
    oracle = reach.ReachOracle(p)
    cf = CostFunction.validate(p, {lbl: 2 for lbl in p.labels()})
    label = "W1"

    def enumerate_prefix(i_max):
        cost_sum = [F(0)] * (i_max + 1)
        prob_sum = [F(0)] * (i_max + 1)
        paths = [(init, F(1), 0)]
        for i in range(1, i_max + 1):
            nxt = []
            for c, pr, acc in paths:
                for succ, q in oracle.distribution(c).items():
                    moved = [k for k, (a, b) in enumerate(zip(c.labels, succ.labels)) if a != b]
                    step_c = cf[c.labels[moved[0]]] if moved else 0
                    entry = (succ, pr * q, acc + step_c)
                    if label in succ.labels:
                        cost_sum[i] += entry[1] * entry[2]
                        prob_sum[i] += entry[1]
                    else:
                        nxt.append(entry)
            paths = nxt
        # prefix sums: first hit at step <= i
        for i in range(1, i_max + 1):
            cost_sum[i] += cost_sum[i - 1]
            prob_sum[i] += prob_sum[i - 1]
        return cost_sum, prob_sum

    cost_sum, prob_sum = enumerate_prefix(8)
    for i in (2, 4, 8):
        with pytest.raises(BudgetExceededError) as exc:
            expected_avg_cost(p, init, label, cf, F(1, 10**9), oracle, max_layers=i)
        part = exc.value.partial
        assert part.cost_apprx == cost_sum[i]
        assert part.prob_apprx == prob_sum[i]
        # closed-form error terms (invariants 5 and 6)
        eager = eagerness.compute_eagerness(p, label, oracle, source=init)
        alpha = eager.alpha
        assert part.c_error == cf.max_cost * alpha ** i / (1 - alpha) ** 2
        assert part.p_error == alpha ** i / (1 - alpha)


def test_frontier_budget_abort():
    p = load_corpus("race_retry")
    init = semantics.initial_config(p)
    with pytest.raises(BudgetExceededError, match="frontier"):
        expected_avg_cost(p, init, "WIN", CostFunction.uniform(p), F(1, 100),
                          max_frontier=2, max_layers=50)


def test_negative_budget_rejected():
    # a negative budget used to run one layer and exit through the budget
    p = load_corpus("race_retry")
    init = semantics.initial_config(p)
    for budget in ({"max_layers": -1}, {"max_frontier": -1}):
        with pytest.raises(ValueError, match="must be >= 0"):
            expected_avg_cost(p, init, "WIN", CostFunction.uniform(p), F(1, 100), **budget)


def test_termination_bounds_vs_solver(det):
    # at termination (n >= n~): CostApprx <= E <= CostApprx + CError and
    # ProbApprx <= P(reach) <= ProbApprx + PError, with E and P(reach) from
    # the exhaustive solver
    p, init, oracle = det
    cf = CostFunction.uniform(p)
    res = expected_avg_cost(p, init, "GOAL", cf, F(1, 10), oracle)
    p_exact, cond = exhaustive.conditional_expected_cost(p, init, "GOAL", cf)
    e_exact = cond * p_exact   # unconditional expected cost of hitting runs
    assert res.cost_apprx <= e_exact <= res.cost_apprx + res.c_error
    assert res.prob_apprx <= p_exact <= res.prob_apprx + res.p_error
    assert res.value <= cond < res.value + res.epsilon


def test_error_terms_decay(det):
    p, init, oracle = det
    res = expected_avg_cost(p, init, "GOAL", CostFunction.uniform(p), F(1, 10), oracle)
    eager = eagerness.compute_eagerness(p, "GOAL", oracle, source=init)
    alpha = eager.alpha
    assert res.c_error == 1 * alpha ** res.n / (1 - alpha) ** 2
    assert res.p_error == alpha ** res.n / (1 - alpha)
    assert res.c_error < F(1, 10)


@pytest.mark.parametrize("epsilon", [F(1, 10), F(1, 1000), F(1, 10**9)])
def test_threshold_search_matches_exact_predicate(det, monkeypatch, epsilon):
    # the stop test and the empty-frontier threshold search decide alpha**m
    # on a certified interval; the exact power gives the same layer and terms
    p, init, oracle = det
    cf = CostFunction.uniform(p)
    fast = expected_avg_cost(p, init, "GOAL", cf, epsilon, oracle)
    # cost and nth_root_bounds pass a ladder of their base
    monkeypatch.setattr(eagerness, "pow_decide", lambda ladder, n, pred: pred(ladder.x ** n))
    exact = expected_avg_cost(p, init, "GOAL", cf, epsilon, oracle)
    assert (fast.n, fast.c_error, fast.p_error) == (exact.n, exact.c_error, exact.p_error)
    assert fast.n > fast.n_threshold
    assert fast.to_json() == exact.to_json()


def test_unreachable_label_rejected():
    p = load_corpus("dead_label")
    init = semantics.initial_config(p)
    with pytest.raises(ValueError, match="unreachable"):
        expected_avg_cost(p, init, "DEAD", CostFunction.uniform(p), F(1, 10))


def test_nonplain_init_rejected(det):
    p, init, oracle = det
    c = make_config(p, bufs={"P": [("x", 1)]})
    with pytest.raises(ValueError, match="plain"):
        expected_avg_cost(p, c, "GOAL", CostFunction.uniform(p), F(1, 10), oracle)


def test_result_json(det):
    p, init, oracle = det
    res = expected_avg_cost(p, init, "GOAL", CostFunction.uniform(p), F(1, 10), oracle)
    doc = res.to_json()
    assert doc["analysis"] == "expected_avg_cost"
    assert doc["aborted"] is False
    assert doc["n_threshold"] == res.n_threshold
    assert 2.9 <= doc["value_float"] <= 3.0
