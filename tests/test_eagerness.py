import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import load_corpus
from ptso_verify import lang, markov, reach, semantics
from ptso_verify.eagerness import (GamblerParams, compute_eagerness, compute_mu,
                                   gambler_first_passage, gambler_tail_bound,
                                   gamma_bounds, iv_pow, least_n, nth_root_bounds, pow_decide,
                                   round_down, round_up, sqrt_bounds, srun_rate)

F = Fraction

HALF = GamblerParams(F(1, 2), F(1, 2))
THIRD = GamblerParams(F(1, 3), F(2, 3))
QUARTER = GamblerParams(F(1, 4), F(3, 4))


def brute_first_passage(g, n):
    """Oracle: enumerate all +-1 step sequences of length n from position 1
    and add up those that hit 0 exactly at step n."""
    total = F(0)
    for steps in itertools.product((1, -1), repeat=n):
        pos = 1
        ok = True
        for i, s in enumerate(steps):
            pos += s
            if pos == 0:
                ok = i == n - 1
                break
        else:
            ok = False
        if ok:
            ups = steps[: i + 1].count(1)
            downs = i + 1 - ups
            total += g.p ** ups * g.q ** downs
    return total


@pytest.mark.parametrize("g", [HALF, THIRD, QUARTER])
@pytest.mark.parametrize("n", list(range(1, 12)))
def test_first_passage_matches_brute_force(g, n):
    assert gambler_first_passage(g, n) == brute_first_passage(g, n)


def test_first_passage_examples():
    assert gambler_first_passage(HALF, 3) == F(1, 8)
    assert gambler_first_passage(HALF, 2) == 0
    assert gambler_first_passage(THIRD, 2) == 0
    assert gambler_first_passage(HALF, 1) == F(1, 2)
    with pytest.raises(ValueError):
        gambler_first_passage(HALF, 0)


def test_first_passage_sums():
    for g in (HALF, THIRD):
        acc = F(0)
        for n in range(1, 1001):
            acc += gambler_first_passage(g, n)
            assert acc <= 1
        assert float(acc) > 0.97  # tends to 1 when p <= q


def exact_tail(g, n):
    """mu(1 |= first hit of 0 at step >= n) = 1 - sum_{k<n} first_passage(k)."""
    return 1 - sum(gambler_first_passage(g, k) for k in range(1, n))


def test_tail_bound_examples():
    lo, hi = gambler_tail_bound(THIRD, 2)
    assert lo <= hi
    assert abs(float(hi) - 1.003) < 0.002
    assert exact_tail(THIRD, 2) == F(1, 3) <= hi
    lo4, hi4 = gambler_tail_bound(HALF, 4)
    assert abs(float(hi4) - 0.846) < 0.002
    assert exact_tail(HALF, 4) == F(3, 8) <= hi4
    with pytest.raises(ValueError):
        gambler_tail_bound(HALF, 1)


def test_tail_bound_dominates_exact():
    for g in (HALF, THIRD, QUARTER):
        for n in range(2, 31):
            assert exact_tail(g, n) <= gambler_tail_bound(g, n)[1]


def test_tail_bound_geometric_decrease():
    # (4pq)^(n//2) factor shrinks whenever 4pq < 1
    vals = [gambler_tail_bound(THIRD, n)[1] for n in (2, 10, 40, 120)]
    assert vals == sorted(vals, reverse=True)
    assert vals[-1] < vals[0] / 100


def test_gamma_constant():
    lo, hi = gamma_bounds()
    assert hi - lo <= F(1, 10**12)
    # the interval certifies 2*sqrt(2)/3: squaring back brackets 8/9
    assert lo ** 2 <= F(8, 9) <= hi ** 2
    assert abs(float(lo) - 0.9428090415820634) < 1e-12


def test_srun_rate_150():
    lo, hi = srun_rate(150)
    assert hi < 1
    assert abs(float((lo + hi) / 2) - 0.986) <= 0.0005


def test_srun_rate_beta2_useless():
    lo, hi = srun_rate(2)
    assert lo > 1


def test_srun_rate_monotone_to_gamma():
    his = [srun_rate(b)[1] for b in (2, 5, 20, 150, 1000)]
    assert his == sorted(his, reverse=True)
    g_lo, g_hi = gamma_bounds()
    assert srun_rate(5000)[0] > g_lo
    assert float(srun_rate(5000)[1]) < 0.95


def test_sqrt_bounds_certified():
    for x in (F(2), F(3, 7), F(10**12), F(1, 10**9)):
        lo, hi = sqrt_bounds(x)
        assert lo * lo <= x <= hi * hi
        assert lo <= hi


@settings(max_examples=60)
@given(st.integers(1, 10**6), st.integers(1, 10**6), st.integers(1, 400))
def test_nth_root_bounds_certified(a, b, n):
    y = F(a, b)
    lo, hi = nth_root_bounds(y, n)
    assert lo ** n <= y <= hi ** n
    assert 0 < lo <= hi


def test_rounding_brackets():
    x = F(355, 113)
    assert round_down(x) <= x <= round_up(x)
    assert round_down(x, 8) <= x <= round_up(x, 8)
    tiny = F(1, 10**50)
    assert 0 < round_down(tiny) <= tiny <= round_up(tiny)


def test_iv_pow_contains_exact():
    lo, hi = F(2, 3), F(2, 3)
    for n in (0, 1, 7, 100, 12345):
        plo, phi = iv_pow(lo, hi, n)
        assert plo <= F(2, 3) ** n <= phi


def _decide(x, n, pred):
    """pow_decide(x, n, pred), and whether it fell back to the exact power
    (pred is then asked a third time)."""
    calls = []
    got = pow_decide(x, n, lambda p: calls.append(p) or pred(p))
    return got, len(calls) == 3


@settings(max_examples=80, deadline=None)
@given(st.integers(2**20, 2**40), st.integers(1, 2**40), st.integers(7, 600),
       st.sampled_from([-1, 0, 1]))
@example(a=2**20, b=1, n=7, delta=0)
def test_pow_decide_sign_at_ties_and_neighbours(a, b, n, delta):
    # y is x**n itself or one unit from it in its last place at 128+ bits,
    # inside iv_pow's interval, so the exact power decides
    x = F(a, b)
    exact = x ** n
    assume(exact.numerator.bit_length() >= 128)
    y = F(exact.numerator + delta, exact.denominator)
    above, above_exact = _decide(x, n, lambda p: p > y)
    below, below_exact = _decide(x, n, lambda p: p < y)
    assert above - below == (exact > y) - (exact < y)
    if delta == 0:
        # a point interval is the exact power itself (x a power of two, as
        # in a=2**20, b=1); any other interval straddles the tie
        lo, hi = iv_pow(x, x, n)
        assert lo == hi == exact or (above_exact and below_exact)


def test_pow_decide_neighbours_fall_back_to_exact():
    x, n = F(3, 5), 200
    exact = x ** n
    for delta in (-1, 0, 1):
        y = F(exact.numerator + delta, exact.denominator)
        for pred, want in ((lambda p: p <= y, delta >= 0), (lambda p: p >= y, delta <= 0)):
            assert _decide(x, n, pred) == (want, True)


def test_pow_decide_far_from_threshold_skips_exact_power():
    # (2/3)**81600 has 130k-bit terms; the interval alone decides
    x, n = F(2, 3), 81600
    assert _decide(x, n, lambda p: p < F(1, 2)) == (True, False)
    assert _decide(x, n, lambda p: p < F(1, 2**200000)) == (False, False)


def test_least_n():
    assert least_n(lambda n: n >= 37) == 37
    assert least_n(lambda n: n >= 5, n_min=10) == 10
    assert least_n(lambda n: n >= 1000, hint=900) == 1000


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


def test_compute_mu_deterministic():
    p = lang.parse_program(DET)
    mu, per = compute_mu(p, "GOAL")
    assert mu == 1
    assert all(v == 1 for v in per.values())


def test_compute_mu_race_matches_witness_replay():
    p = load_corpus("race_flag")
    oracle = reach.ReachOracle(p)
    init = semantics.initial_config(p)
    mu, per = compute_mu(p, "W1", oracle, init)
    assert 0 < mu <= 1
    # every recorded value is a genuine path probability: positive and the
    # product of one-step probabilities of some path, hence <= 1
    for c, v in per.items():
        assert 0 < v <= 1
        assert "W1" not in c.labels
    assert mu == min(per.values())


def test_compute_mu_unreachable_label():
    p = load_corpus("dead_label")
    with pytest.raises(ValueError, match="not reachable"):
        compute_mu(p, "DEAD")


def test_compute_eagerness_deterministic():
    p = lang.parse_program(DET)
    eager = compute_eagerness(p, "GOAL")
    assert eager.q_star == F(2, 3) and eager.p_star == F(1, 3)
    assert eager.beta == 150
    assert eager.mu == 1
    assert eager.alpha_d == F(1, 2)
    assert eager.n_d == 150 * len(eager.a_set)
    assert eager.n_threshold >= 300


def test_compute_eagerness_sandwich_inequalities():
    p = load_corpus("race_costs")
    eager = compute_eagerness(p, "GOAL")
    assert eager.alpha_s[1] < 1
    assert 0 < eager.mu < 1
    base_hi = nth_root_bounds(1 - eager.mu, eager.beta * len(eager.a_set))[1]
    assert base_hi < eager.alpha_d < 1
    assert max(eager.alpha_s[1], eager.alpha_d) < eager.alpha_hat < eager.alpha < 1
    assert eager.n_threshold >= max(eager.n_d, 300, eager.n_hat)
    # the threshold inequalities certify at the returned n
    ra = eager.alpha / eager.alpha_hat
    assert iv_pow(ra, ra, eager.n_threshold)[0] >= 1 / (1 - eager.alpha_hat)
    rs = eager.alpha_s[1] / eager.alpha_hat
    rd = eager.alpha_d / eager.alpha_hat
    assert iv_pow(rs, rs, eager.n_hat)[1] + iv_pow(rd, rd, eager.n_hat)[1] <= 1


def test_compute_eagerness_beta_too_small():
    p = lang.parse_program(DET)
    with pytest.raises(ValueError, match="larger beta"):
        compute_eagerness(p, "GOAL", beta=2)


def test_compute_eagerness_rejects_custom_policy():
    p = lang.parse_program(DET)
    oracle = reach.ReachOracle(p, policy=markov.Policy())
    with pytest.raises(ValueError, match="default"):
        compute_eagerness(p, "GOAL", oracle)


def test_eagerness_json():
    p = lang.parse_program(DET)
    eager = compute_eagerness(p, "GOAL")
    doc = eager.to_json()
    assert doc["q_star"] == "2/3" and doc["beta"] == 150
    assert doc["gamma"][0] != doc["gamma"][1]
    assert doc["n_threshold"] == eager.n_threshold


def test_empirical_eagerness_decay():
    # statistical check of the certificate: the sampled frequency of runs
    # whose first hit happens at step >= n stays below alpha^n for n >= n~.
    # n~ is far beyond any sampled horizon here, so check the stronger
    # statement that no sampled run is anywhere near the threshold.
    from ptso_verify import montecarlo
    p = load_corpus("race_costs")
    eager = compute_eagerness(p, "GOAL")
    init = semantics.initial_config(p)
    worst = 0
    for idx in range(2000):
        run = montecarlo.sample_run(p, init, (99 << 64) + idx, 200, label="GOAL")
        if run.first_hit is not None:
            worst = max(worst, run.first_hit)
    assert worst < eager.n_threshold
    assert float(eager.alpha) ** eager.n_threshold < 1e-3
