"""Differential checks on generated programs: the frontier analyses and the
Monte Carlo sampler against the independent exact solver in `exhaustive`.

Each check runs on two generators: `test_lang.programs()`, whose CAS, `+`
and backward jumps reach most of the analyses' code but whose probabilities
are almost always 0 or 1, and `test_lang.racy_programs()` queried at its
`branch_labels`, where 0 < P(reach) < 1 for about a quarter of the kept
queries. The repeated-reachability checks also run on
`racy_programs(loops=True)`, whose reads choose between a loop and `term`,
so that P(label infinitely often) is strictly between 0 and 1 too.

A drawn program is kept when its full chain from the start configuration has
at most MAX_STATES states and none of them holds more than the drawn bound of
buffered writes, so the bounded exploration prunes nothing and every answer
is exact for the whole chain. That filter reads the input only, never an
answer.
"""

from fractions import Fraction

from hypothesis import HealthCheck, assume, event, given, settings, strategies as st

import exhaustive
from test_lang import branch_labels, programs, racy_programs
from ptso_verify import (cost, eagerness, montecarlo, qualitative, quantitative, reach,
                         semantics)
from ptso_verify.errors import BudgetExceededError

MAX_STATES = 1_500
EPS = Fraction(1, 100)
COST_FRONTIER = 3_000
MC_RUNS, MC_HORIZON = 300, 25
SETTINGS = settings(max_examples=200, deadline=None,
                    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
RACE_SETTINGS = settings(SETTINGS, max_examples=50)    # a race's chain is larger


@st.composite
def finite_queries(draw, racy=False, loops=False):
    """(program, start, label, oracle at a bound that prunes nothing, the
    full chain as exhaustive.build_chain gives it); with `racy`, the program
    is a racy_programs(loops) race and the label one of its branch_labels."""
    prog = draw(racy_programs(loops) if racy else programs())
    bound = draw(st.integers(1, 4))
    init = semantics.initial_config(prog)
    assume(_finite_within(prog, init, bound))
    label = draw(st.sampled_from(branch_labels(prog) if racy else sorted(prog.labels())))
    chain = exhaustive.build_chain(prog, init, MAX_STATES)
    return prog, init, label, reach.ReachOracle(prog, reach.OracleConfig(bound=bound)), chain


def _finite_within(prog, init, bound):
    """Does the chain from init have at most MAX_STATES states, none of them
    over `bound`? A plain breadth-first search that stops at the first
    configuration over either limit, so a rejected program costs little."""
    seen = {init}
    layer = [init]
    kept = {}
    while layer:
        nxt = []
        for c in layer:
            for succ in exhaustive.successors(prog, c, kept):
                if succ not in seen:
                    if semantics.size(succ) > bound or len(seen) == MAX_STATES:
                        return False
                    seen.add(succ)
                    nxt.append(succ)
        layer = nxt
    return True


@SETTINGS
@given(finite_queries())
def test_quant_reach_bracket_holds_exact_probability(query):
    prog, init, label, oracle, chain = query
    p = exhaustive.reach_probability(prog, init, label, chain=chain)
    res = quantitative.quant_reach(prog, init, label, EPS, oracle)
    assert not res.pruned
    assert res.value <= p <= res.value + EPS


@SETTINGS
@given(finite_queries())
def test_quant_rep_reach_bracket_holds_exact_probability(query):
    prog, init, label, oracle, chain = query
    p = exhaustive.repeated_reach_probability(prog, init, label, chain=chain)
    res = quantitative.quant_rep_reach(prog, init, label, EPS, oracle)
    assert not res.pruned
    assert res.value <= p <= res.value + EPS


@SETTINGS
@given(finite_queries())
def test_qualitative_verdicts_match_exact_probabilities(query):
    """Almost-sure is P == 1 and almost-never is P == 0, for reaching the
    label and for reaching it infinitely often."""
    prog, init, label, oracle, chain = query
    p = exhaustive.reach_probability(prog, init, label, chain=chain)
    rep = exhaustive.repeated_reach_probability(prog, init, label, chain=chain)
    event(f"P(reach) {'0' if p == 0 else '1' if p == 1 else 'in (0, 1)'}; "
          f"P(inf. often) {'0' if rep == 0 else '1' if rep == 1 else 'in (0, 1)'}")
    assert qualitative.qual_reach(prog, init, label, oracle).verdict == (p == 1)
    assert qualitative.never_qual_reach(prog, init, label, oracle).verdict == (p == 0)
    assert qualitative.qual_rep_reach(prog, init, label, oracle).verdict == (rep == 1)
    assert qualitative.never_qual_rep_reach(prog, init, label, oracle).verdict == (rep == 0)


@SETTINGS
@given(finite_queries(), st.data())
def test_cost_bracket_holds_exact_conditional_cost(query, data):
    prog, init, label, oracle, chain = query
    costs = cost.CostFunction.validate(
        prog, {lbl: data.draw(st.integers(1, 3)) for lbl in sorted(prog.labels())})
    p = exhaustive.reach_probability(prog, init, label, chain=chain)
    if p == 0:
        assert not oracle.can_reach(oracle.intern(init), label)
        return
    eager = eagerness.compute_eagerness(prog, label, oracle, source=init)
    if eager.n_threshold > cost.DEFAULT_MAX_LAYERS:
        event("cost exit 4 certain")
        return      # the loop cannot stop before layer n~: the budget ends it
    try:
        res = cost.expected_avg_cost(prog, init, label, costs, EPS, oracle, eager=eager,
                                     max_frontier=COST_FRONTIER)
    except BudgetExceededError:
        event("cost budget exceeded")
        return      # exit 4: the partial bounds are not a certified bracket
    event("cost decided")
    _, want = exhaustive.conditional_expected_cost(prog, init, label, costs, chain=chain)
    assert res.value <= want < res.value + EPS
    assert res.value_upper is None or want <= res.value_upper


@SETTINGS
@given(finite_queries(), st.data())
def test_simulate_hits_match_exact_bounded_probability(query, data):
    """The sampled hits within H steps against the exact probability P_H of
    meeting the label within H steps: none when P_H = 0, every run when
    P_H = 1, and otherwise P_H inside the z = 5 Wilson interval (a false
    alarm has probability below 1e-6 per example). The label is drawn
    again, away from the start's labels, which every run meets at step 0."""
    prog, init, _, _, chain = query
    label = data.draw(st.sampled_from(sorted(prog.labels() - set(init.labels))))
    horizon = data.draw(st.integers(1, MC_HORIZON))
    seed = data.draw(st.integers(0, 2**32))
    p = exhaustive.reach_within(prog, init, label, horizon, chain=chain)
    est = montecarlo.estimate_reach(prog, init, label, MC_RUNS, horizon, seed)
    event(f"P_H {'0' if p == 0 else '1' if p == 1 else 'in (0, 1)'}")
    if p == 0:
        assert est.hits == 0
    elif p == 1:
        assert est.hits == MC_RUNS
    else:
        lo, hi = montecarlo.wilson_interval(est.hits, MC_RUNS, z=5)
        assert lo <= p <= hi, (est.hits, float(p))


def _on_races(test, *more, loops=False):
    """`test`'s check, run on finite_queries(racy=True, loops=loops) (and
    `more`)."""
    return RACE_SETTINGS(given(finite_queries(racy=True, loops=loops), *more)(
        test.hypothesis.inner_test))


test_quant_reach_bracket_on_races = _on_races(test_quant_reach_bracket_holds_exact_probability)
test_quant_rep_reach_bracket_on_races = _on_races(
    test_quant_rep_reach_bracket_holds_exact_probability)
test_qualitative_verdicts_on_races = _on_races(
    test_qualitative_verdicts_match_exact_probabilities)
test_cost_bracket_on_races = _on_races(test_cost_bracket_holds_exact_conditional_cost, st.data())
test_simulate_hits_on_races = _on_races(test_simulate_hits_match_exact_bounded_probability,
                                        st.data())
test_quant_rep_reach_bracket_on_looping_races = _on_races(
    test_quant_rep_reach_bracket_holds_exact_probability, loops=True)
test_qualitative_verdicts_on_looping_races = _on_races(
    test_qualitative_verdicts_match_exact_probabilities, loops=True)
