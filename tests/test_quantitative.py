from fractions import Fraction

import pytest

import exhaustive
from conftest import load_corpus
from ptso_verify import quantitative, semantics
from ptso_verify.errors import BudgetExceededError

F = Fraction
EPS = F(1, 100)


def test_label_in_init_one_iteration():
    p = load_corpus("race_flag")
    init = semantics.initial_config(p)
    res = quantitative.quant_reach(p, init, "P0", EPS)
    assert res.value == 1 and res.neg == 0 and res.iterations == 1


def test_unreachable_is_zero():
    p = load_corpus("dead_label")
    init = semantics.initial_config(p)
    res = quantitative.quant_reach(p, init, "DEAD", EPS)
    assert res.value == 0 and res.neg == 1 and res.iterations == 1


@pytest.mark.parametrize("name,label", [
    ("race_flag", "W1"),
    ("race_retry", "WIN"),
    ("race_costs", "HI"),
    ("race_cas", "AW"),
    ("two_sccs", "A1"),
])
def test_quant_reach_sandwich(name, label):
    p = load_corpus(name)
    init = semantics.initial_config(p)
    exact = exhaustive.reach_probability(p, init, label)
    res = quantitative.quant_reach(p, init, label, EPS)
    assert res.value <= exact <= res.value + EPS
    assert res.value + res.neg >= 1 - EPS
    assert res.frontier_mass_remaining == 1 - res.value - res.neg


def test_quant_reach_invariants_fine_epsilon():
    p = load_corpus("race_flag")
    init = semantics.initial_config(p)
    exact = exhaustive.reach_probability(p, init, "W1")
    eps = F(1, 10**6)
    res = quantitative.quant_reach(p, init, "W1", eps)
    assert res.value <= exact <= res.value + eps
    # this chain is finite and absorbing, so the bounds become exact
    assert res.value == exact


def test_quant_rep_reach_two_sccs():
    p = load_corpus("two_sccs")
    init = semantics.initial_config(p)
    exact = exhaustive.reach_probability(p, init, "A1")  # reaching A1 = settling in the A loop
    res = quantitative.quant_rep_reach(p, init, "A1", EPS)
    assert res.value <= exact <= res.value + EPS


def test_quant_rep_reach_certain():
    p = load_corpus("loop_all")
    init = semantics.initial_config(p)
    res = quantitative.quant_rep_reach(p, init, "P1", EPS)
    assert res.value >= 1 - EPS


def test_quant_rep_reach_unreachable():
    p = load_corpus("two_sccs")
    init = semantics.initial_config(p)
    res = quantitative.quant_rep_reach(p, init, "QT", EPS)
    assert res.value == 0 and res.neg == 1


def test_quant_rep_reach_visited_once_is_zero():
    # W1 is visited with positive probability but never repeatedly
    p = load_corpus("race_flag")
    init = semantics.initial_config(p)
    res = quantitative.quant_rep_reach(p, init, "W1", EPS)
    assert res.value == 0 and res.neg == 1


def test_budget_guard_partial():
    p = load_corpus("race_retry")
    init = semantics.initial_config(p)
    with pytest.raises(BudgetExceededError) as exc:
        quantitative.quant_reach(p, init, "WIN", F(1, 10**9), max_iterations=3)
    partial = exc.value.partial
    assert partial.iterations == 3
    assert partial.value + partial.neg + partial.frontier_mass_remaining == 1
    exact = exhaustive.reach_probability(p, init, "WIN")
    assert partial.value <= exact <= 1 - partial.neg


def test_epsilon_validation():
    p = load_corpus("race_flag")
    with pytest.raises(ValueError):
        quantitative.quant_reach(p, semantics.initial_config(p), "W1", F(0))


def test_result_json():
    p = load_corpus("race_flag")
    res = quantitative.quant_reach(p, semantics.initial_config(p), "W1", EPS)
    doc = res.to_json()
    assert doc["value"] == "5/16" and doc["value_float"] == 0.3125
    assert doc["epsilon"] == "1/100"
    assert "max_config_size_seen" in doc and "iterations" in doc


def test_monotone_accumulators():
    # PosApprx/NegApprx are nondecreasing across runs with growing budgets
    p = load_corpus("race_retry")
    init = semantics.initial_config(p)
    prev_pos, prev_neg = F(0), F(0)
    for iters in (1, 2, 4, 8):
        try:
            res = quantitative.quant_reach(p, init, "WIN", F(1, 10**9),
                                           max_iterations=iters)
        except BudgetExceededError as e:
            res = e.partial
        assert res.value >= prev_pos and res.neg >= prev_neg
        assert res.value + res.neg <= 1
        prev_pos, prev_neg = res.value, res.neg


@pytest.mark.parametrize("fn", [quantitative.quant_reach, quantitative.quant_rep_reach])
def test_negative_max_iterations_rejected(fn):
    # it used to report "no convergence within -3 iterations"
    p = load_corpus("race_flag")
    with pytest.raises(ValueError, match="max_iterations must be >= 0"):
        fn(p, semantics.initial_config(p), "W1", EPS, max_iterations=-3)
    with pytest.raises(BudgetExceededError) as err:
        fn(p, semantics.initial_config(p), "W1", EPS, max_iterations=0)
    assert err.value.partial.iterations == 0
