import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import witness_reference
from conftest import corpus_names, load_corpus
from ptso_verify import lang, reach, semantics
from ptso_verify.eagerness import (GamblerParams, PowLadder, compute_eagerness, compute_mu,
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


def fraction_iv_pow(lo, hi, n):
    """Reference: [lo, hi]^n by square-and-multiply on Fractions, each
    product rounded outward by round_down / round_up."""
    if not (0 <= lo <= hi and n >= 0):
        raise ValueError("iv_pow needs 0 <= lo <= hi and n >= 0")
    rlo, rhi = F(1), F(1)
    blo, bhi = lo, hi
    while n:
        if n & 1:
            rlo = round_down(rlo * blo)
            rhi = round_up(rhi * bhi)
        n >>= 1
        if n:
            blo = round_down(blo * blo)
            bhi = round_up(bhi * bhi)
    return rlo, rhi


RATIONALS = st.fractions(min_value=0, max_value=2, max_denominator=10**30)
# within 2**-30 of 1, so the reference's exact squares stay small at n ~ 1e9
NEAR_ONE = st.integers(-2**20, 2**20).map(lambda k: 1 + F(k, 2**50))


@st.composite
def pow_cases(draw):
    """(lo, hi, n): a point or proper interval, lo = 0 among them, of
    rationals in [0, 2] with n <= 3,000 or of bases near 1 with n <= 1e9;
    n = 0, 1, 2 drawn often. A small base with a huge n is never drawn: the
    reference would need a 2**n-bit denominator."""
    near = draw(st.booleans())
    a, b = sorted(draw(st.lists(NEAR_ONE if near else RATIONALS, min_size=2, max_size=2)))
    lo = draw(st.sampled_from([a, b, F(0)]))
    hi = max(lo, b)
    n = draw(st.one_of(st.sampled_from([0, 1, 2]),
                       st.integers(0, 10**9 if near else 3000)))
    return lo, hi, n


@settings(max_examples=300, deadline=None)
@given(pow_cases())
@example((F(0), F(0), 5))
@example((F(1), F(1), 10**9))
@example((F(0), F(1, 3), 0))
def test_pow_ladder_equals_fraction_iv_pow(case):
    lo, hi, n = case
    want = fraction_iv_pow(lo, hi, n)
    assert iv_pow(lo, hi, n) == PowLadder(lo, hi).pow(n) == want
    assert all(type(x) is F for x in want)


def test_pow_ladder_zero_bound_stays_small():
    # a zero bound's rungs stay (0, 0): an exponent that doubled with every
    # squaring would make pow(n) build a 2**(129 * n)-sized denominator
    assert iv_pow(F(0), F(1), 2**62) == (0, 1)
    assert PowLadder(F(0), F(0)).pow(10**9) == (0, 0)


@settings(max_examples=40, deadline=None)
@given(st.tuples(RATIONALS, RATIONALS).map(sorted),
       st.lists(st.integers(0, 3000), min_size=1, max_size=12))
def test_pow_ladder_reused_across_exponents(bounds, ns):
    # one ladder, asked for n descending and then ascending, gives what a
    # fresh ladder gives for each n
    lo, hi = bounds
    ladder = PowLadder(lo, hi)
    order = sorted(ns, reverse=True) + sorted(ns)
    assert [ladder.pow(n) for n in order] == [PowLadder(lo, hi).pow(n) for n in order]


def test_pow_ladder_rejects_bad_input():
    for lo, hi, n in ((F(1, 2), F(1, 3), 1), (F(-1), F(1), 1), (F(1), F(2), -1)):
        with pytest.raises(ValueError):
            iv_pow(lo, hi, n)
    with pytest.raises(ValueError, match="point base"):
        pow_decide(PowLadder(F(1, 3), F(1, 2)), 3, lambda p: p < 1)


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
    mu, per, _ = compute_mu(p, "GOAL")
    assert mu == 1
    assert all(v == 1 for v in per.values())


def test_compute_mu_race_matches_witness_replay():
    p = load_corpus("race_flag")
    oracle = reach.ReachOracle(p)
    init = semantics.initial_config(p)
    mu, per, _ = compute_mu(p, "W1", oracle, init)
    assert 0 < mu <= 1
    # every recorded value is a genuine path probability: positive and the
    # product of one-step probabilities of some path, hence <= 1
    for i, v in per.items():
        assert 0 < v <= 1
        assert "W1" not in oracle.configs[i].labels
    assert mu == min(per.values())


@pytest.mark.parametrize("name", corpus_names())
def test_compute_mu_matches_config_ordered_witness_bfs(name):
    # every label of every corpus program from the initial configuration at
    # bounds 1 to 4, and writer_reader's WIN at the default bound 8: the same
    # (mu, per, A) and, for every member, the same witness path
    p = load_corpus(name)
    init = semantics.initial_config(p)
    cases = [(label, reach.OracleConfig(bound=b)) for b in (1, 2, 3, 4) for label in p.labels()]
    if name == "writer_reader":
        cases.append(("WIN", reach.OracleConfig()))
    compared = sum(witness_reference.assert_same_witnesses(p, label, config, init)
                   for label, config in cases)
    assert compared > 0


def test_compute_mu_reads_each_distribution_once(monkeypatch):
    # a witness path's edge probabilities come from its source's
    # distribution, read once per configuration and kept for the call
    p = load_corpus("writer_reader")
    oracle = reach.ReachOracle(p)
    reads = []
    real = oracle.distribution
    monkeypatch.setattr(oracle, "distribution", lambda c: reads.append(c) or real(c))
    mu, per, _ = compute_mu(p, "WIN", oracle)
    assert len(reads) == len(set(reads)) == 534
    assert 0 < mu == min(per.values())


def test_compute_mu_unreachable_label():
    p = load_corpus("dead_label")
    with pytest.raises(ValueError, match="not reachable"):
        compute_mu(p, "DEAD")


def test_compute_eagerness_threshold_floor_follows_beta():
    # the S-run bound needs n >= 2*beta; P0 is in the start configuration,
    # so no other term raises the threshold above that floor
    eager = compute_eagerness(load_corpus("race_flag"), "P0", beta=1000)
    assert eager.n_threshold >= 2000


def test_compute_eagerness_unreachable_label_named():
    with pytest.raises(ValueError, match="label 'DEAD' is not reachable from the start configuration"):
        compute_eagerness(load_corpus("dead_label"), "DEAD")


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
