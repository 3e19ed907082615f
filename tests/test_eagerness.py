import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import witness_reference
from conftest import corpus_names, load_corpus
from ptso_verify import eagerness, lang, reach, semantics
from ptso_verify.eagerness import (COARSE_BITS, POW_BITS, GamblerParams, PowLadder,
                                   _dyadic, _round_frac, compute_eagerness, compute_mu,
                                   gambler_first_passage, gambler_tail_bound,
                                   gamma_bounds, least_n, nth_root_bounds, pow_decide,
                                   sqrt_bounds, srun_rate)

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


# nth_root_bounds(y, n) and its number of pow_decide calls as the two-loop
# form at commit 60769da gave them, one case per way out: both sides on the
# first try, a lower and an upper side widened, a lower candidate <= 0
# (ROOT_REL_BITS = 0 makes the first one 0, and it is never checked), 12
# failed tries on both sides (pow_decide always False), and a seed that
# overflows a float.
ROOT_EXITS = [
    ("first", F(2), 3, {}, 2,
     F("1597139675139411290042993380725/1267650600228229401496703205376"),
     F("1597139675139422638402935026315/1267650600228229401496703205376")),
    ("first-small", F(1, 3), 150, {}, 2,
     F("1258400140294961488576749358725/1267650600228229401496703205376"),
     F("1258400140294970430047533019515/1267650600228229401496703205376")),
    ("lo-widened", F(2503155504993241601315571986085850, 7), 2, {}, 3,
     F("332670816712938372757799269827/17592186044416"),
     F("1330683266851777128714418555453/70368744177664")),
    ("hi-widened", F(4710128697246244834921603690, 7), 2, {}, 3,
     F("467290694532302939699463473775/18014398509481984"),
     F("116822673633077810112418919825/4503599627370496")),
    ("lo-zero", F(1000), 2, {"ROOT_REL_BITS": 0}, 1,
     F(2000, 1001), F("4450510153742611/70368744177664")),
    ("bernoulli", F(1000), 2, {"pow_decide": lambda ladder, n, pred: False}, 24,
     F(2000, 1001), F(1001, 2)),
    ("overflow", F(2**3000), 2, {}, 0, 2 / (1 + F(1, 2**3000)), (2**3000 + 1) / F(2)),
]


@pytest.mark.parametrize("case", ROOT_EXITS, ids=[c[0] for c in ROOT_EXITS])
def test_nth_root_bounds_on_every_exit(monkeypatch, case):
    _, y, n, patch, calls, lo, hi = case
    for name, value in patch.items():
        monkeypatch.setattr(eagerness, name, value)
    decide, asked = eagerness.pow_decide, []
    monkeypatch.setattr(eagerness, "pow_decide",
                        lambda ladder, n, pred: asked.append(n) or decide(ladder, n, pred))
    assert nth_root_bounds(y, n) == (lo, hi)
    assert len(asked) == calls
    assert lo ** n <= y <= hi ** n


def round_down(x, bits):
    """Reference: the largest multiple of a power of two at most x with
    about `bits` bits of precision, on Fractions."""
    if x == 0:
        return x
    n, d = x.numerator, x.denominator
    shift = bits - (n.bit_length() - d.bit_length())
    if shift >= 0:
        return F((n << shift) // d, 1 << shift)
    return F((n // (d << -shift)) << -shift)


def round_up(x, bits):
    """Reference: the smallest such multiple at least x."""
    return -round_down(-x, bits)


def test_rounding_brackets():
    for bits, x in itertools.product((8, COARSE_BITS, POW_BITS), (
            F(355, 113), F(1, 10**50), F(10**50, 3), F(2**200), F(0), F(1))):
        down = _dyadic(*_round_frac(x.numerator, x.denominator, False, bits))
        up = _dyadic(*_round_frac(x.numerator, x.denominator, True, bits))
        assert (down, up) == (round_down(x, bits), round_up(x, bits))
        assert down <= x <= up
        assert x == 0 or 0 < down


def test_pow_ladder_contains_exact():
    ladder = PowLadder(F(2, 3))
    for n in (0, 1, 7, 100, 12345):
        plo, phi = ladder.pow(n)
        assert plo <= F(2, 3) ** n <= phi


def fraction_iv_pow(x, n):
    """Reference: x**n by square-and-multiply on Fractions, each product
    rounded down and up to POW_BITS bits, a lower and an upper bound."""
    if not (x >= 0 and n >= 0):
        raise ValueError("needs x >= 0 and n >= 0")
    rlo, rhi = F(1), F(1)
    blo, bhi = x, x
    while n:
        if n & 1:
            rlo = round_down(rlo * blo, POW_BITS)
            rhi = round_up(rhi * bhi, POW_BITS)
        n >>= 1
        if n:
            blo = round_down(blo * blo, POW_BITS)
            bhi = round_up(bhi * bhi, POW_BITS)
    return rlo, rhi


RATIONALS = st.fractions(min_value=0, max_value=2, max_denominator=10**30)
# within 2**-30 of 1, so the reference's exact squares stay small at n ~ 1e9
NEAR_ONE = st.integers(-2**20, 2**20).map(lambda k: 1 + F(k, 2**50))


@st.composite
def pow_cases(draw):
    """(x, n): a rational in [0, 2], 0 among them, with n <= 3,000, or a
    base near 1 with n <= 1e9; n = 0, 1, 2 drawn often. A small base with a
    huge n is never drawn: the reference would need a 2**n-bit denominator."""
    near = draw(st.booleans())
    x = draw(st.one_of(NEAR_ONE if near else RATIONALS, st.just(F(0))))
    n = draw(st.one_of(st.sampled_from([0, 1, 2]),
                       st.integers(0, 10**9 if near else 3000)))
    return x, n


@settings(max_examples=300, deadline=None)
@given(pow_cases())
@example((F(0), 5))
@example((F(1), 10**9))
@example((F(0), 0))
def test_pow_ladder_equals_fraction_iv_pow(case):
    x, n = case
    want = fraction_iv_pow(x, n)
    assert PowLadder(x).pow(n) == want
    assert all(type(v) is F for v in want)


def test_pow_ladder_zero_bound_stays_small():
    # a zero base's rungs stay (0, 0): an exponent that doubled with every
    # squaring would make pow(n) build a 2**(129 * n)-sized denominator
    assert PowLadder(F(0)).pow(2**62) == (0, 0)
    assert PowLadder(F(0)).pow(10**9) == (0, 0)


@settings(max_examples=40, deadline=None)
@given(RATIONALS, st.lists(st.integers(0, 3000), min_size=1, max_size=12))
def test_pow_ladder_reused_across_exponents(x, ns):
    # one ladder, asked for n descending and then ascending, gives what a
    # fresh ladder gives for each n
    ladder = PowLadder(x)
    order = sorted(ns, reverse=True) + sorted(ns)
    assert [ladder.pow(n) for n in order] == [PowLadder(x).pow(n) for n in order]


def test_pow_ladder_rejects_bad_input():
    with pytest.raises(ValueError, match="base"):
        PowLadder(F(-1))
    with pytest.raises(ValueError, match="exponent"):
        PowLadder(F(1, 2)).pow(-1)


def _decide(x, n, pred):
    """pow_decide(x, n, pred), and whether it fell back to the exact power
    (pred is then asked a third time)."""
    calls = []
    got = pow_decide(PowLadder(x), n, lambda p: calls.append(p) or pred(p))
    return got, len(calls) == 3


@settings(max_examples=80, deadline=None)
@given(st.integers(2**20, 2**40), st.integers(1, 2**40), st.integers(7, 600),
       st.sampled_from([-1, 0, 1]))
@example(a=2**20, b=1, n=7, delta=0)
def test_pow_decide_sign_at_ties_and_neighbours(a, b, n, delta):
    # y is x**n itself or one unit from it in its last place at 128+ bits,
    # inside the ladder's interval, so the exact power decides
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
        lo, hi = PowLadder(x).pow(n)
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
    assert PowLadder(ra).pow(eager.n_threshold)[0] >= 1 / (1 - eager.alpha_hat)
    rs = eager.alpha_s[1] / eager.alpha_hat
    rd = eager.alpha_d / eager.alpha_hat
    assert PowLadder(rs).pow(eager.n_hat)[1] + PowLadder(rd).pow(eager.n_hat)[1] <= 1


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
