"""Gambler's-ruin analytics and the eagerness certificate (alpha, n~).

The certificate bounds the probability that a run first reaches the target
label at step n or later by alpha^n for all n >= n~. It is assembled from
three exponentially decaying bounds: the gravity of small configurations
(rate gamma = 2*sqrt(2)/3), a bound on runs visiting small configurations
sporadically (rate alpha_s, from the gravity rate at border parameter beta),
and a bound on runs that revisit small configurations often while delaying
the target (rate alpha_d, from a positive single-visit hit probability mu).

Irrational quantities are handled as certified rational intervals: float
seeds verified by exact integer arithmetic, Bernoulli bounds as fallback,
and powers of a rational bracketed by one squaring ladder per base whose
every product is rounded outward (`_round_frac`, `PowLadder`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from . import markov, reach, semantics

# 38 truncated decimals of pi; the next digit block is 716..., so +1e-38 is above.
PI_LO = Fraction("3.14159265358979323846264338327950288419")
PI_HI = PI_LO + Fraction(1, 10**38)

SMALL_SIZE = 4          # small configuration: total buffered messages <= 4
Q_STAR = Fraction(2, 3)
P_STAR = Fraction(1, 3)
DEFAULT_BETA = 150

SQRT_BITS = 96          # sqrt_bounds: hi - lo = 1/(den * 2^SQRT_BITS)
ROOT_REL_BITS = 48      # nth_root_bounds: first relative slack 2^-ROOT_REL_BITS
POW_BITS = 128          # PowLadder: bits kept by each outward rounding
COARSE_BITS = 48        # _coarse_upper: bits of the grid rates are rounded up to


# --- certified rational bounds for irrational values ---

def sqrt_bounds(x):
    """lo <= sqrt(x) <= hi with hi - lo = 1/(den*2^SQRT_BITS)."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("sqrt of negative")
    if x == 0:
        return Fraction(0), Fraction(0)
    n, d = x.numerator, x.denominator
    scale = 1 << SQRT_BITS
    t = math.isqrt(n * d * scale * scale)
    return Fraction(t, d * scale), Fraction(t + 1, d * scale)


def _ln_big(n):
    """float ln of a positive integer of any size."""
    k = max(0, n.bit_length() - 53)
    return math.log(n >> k) + k * math.log(2)


def _ln_frac(x):
    return _ln_big(x.numerator) - _ln_big(x.denominator)


def _bernoulli_root_bounds(y, n):
    # (1 + t)^n >= 1 + n*t gives, for any y > 0:
    #   y^(1/n) <= 1 + (y-1)/n     and     y^(1/n) >= 1/(1 + (1/y-1)/n)
    hi = 1 + (y - 1) / n
    lo = 1 / (1 + (1 / y - 1) / n)
    return lo, hi


def nth_root_bounds(y, n):
    """Certified lo <= y**(1/n) <= hi for y > 0, n >= 1."""
    y = Fraction(y)
    if y <= 0:
        raise ValueError("nth root needs y > 0")
    if n == 1 or y == 1:
        return y, y
    bern_lo, bern_hi = _bernoulli_root_bounds(y, n)
    try:
        seed = math.exp(_ln_frac(y) / n)
    except (OverflowError, ValueError):
        seed = 0.0
    if not (seed > 0 and math.isfinite(seed)):
        return bern_lo, bern_hi
    f = Fraction(seed)
    lo_hi = []
    # Each side moves the seed outward by a relative slack, quadrupled after
    # each failed check; after 12 failures it takes its Bernoulli bound, and
    # a lower candidate <= 0 gives way to it too, through the max below.
    for sign, pred, bern in ((-1, lambda p: p <= y, bern_lo), (1, lambda p: p >= y, bern_hi)):
        slack = Fraction(1, 1 << ROOT_REL_BITS)
        for _ in range(12):
            x = f * (1 + sign * slack)
            if x <= 0 or pow_decide(PowLadder(x), n, pred):
                break
            slack *= 4
        else:
            x = bern
        lo_hi.append(x)
    return max(lo_hi[0], bern_lo), min(lo_hi[1], bern_hi)


def _round_frac(n, d, up, bits=POW_BITS):
    """n/d rounded down, or up with `up`, to a multiple of a power of two
    with about `bits` bits of precision, for a reduced n/d >= 0, as (m, e)
    meaning m * 2**e; zero is (0, 0), so its rungs keep e at 0."""
    if not n:
        return 0, 0
    if up:
        n = -n
    shift = bits - (n.bit_length() - d.bit_length())
    if shift >= 0:
        m, e = (n << shift) // d, -shift
    else:
        m, e = n // (d << -shift), -shift
    return (-m, e) if up else (m, e)


def _dyadic(m, e):
    """The Fraction m * 2**e."""
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


def _round_mul(a, b, up):
    """The product of two dyadics (m, e) >= 0 rounded down, or up with `up`:
    the top POW_BITS + 1 bits of the mantissa kept, the rest floored or
    ceiled away."""
    m, e = a[0] * b[0], a[1] + b[1]
    k = m.bit_length() - 1 - POW_BITS
    if k > 0:
        m = -(-m >> k) if up else m >> k
        e += k
    return m, e


class PowLadder:
    """x**n for a rational x >= 0 and any n >= 0, bracketed with outward
    relative rounding: two squaring ladders of x on dyadic mantissas, one
    rounded down and one up.

    Rung k of a ladder is x**(2**k) rounded to POW_BITS + 1 bits: rung 0 x
    rounded, rung 1 its exact square rounded, rung k + 1 rung k squared and
    rounded. pow(n) multiplies the rungs of the bits of n from the lowest
    up, rounding each product, and converts to Fraction only the two
    results. Rungs are squared once, on first need, so one ladder answers
    any number of exponents.
    """

    def __init__(self, x):
        if x < 0:
            raise ValueError("PowLadder needs a base x >= 0")
        self.x = x
        n, d = x.numerator, x.denominator
        self._rungs = ([_round_frac(n, d, False), _round_frac(n * n, d * d, False)],
                       [_round_frac(n, d, True), _round_frac(n * n, d * d, True)])

    def _side(self, up, n):
        rungs = self._rungs[up]
        while len(rungs) < n.bit_length():
            rungs.append(_round_mul(rungs[-1], rungs[-1], up))
        k = (n & -n).bit_length() - 1
        acc = rungs[k]
        n >>= k + 1
        while n:
            k += 1
            if n & 1:
                acc = _round_mul(acc, rungs[k], up)
            n >>= 1
        return _dyadic(*acc)

    def pow(self, n):
        """Certified (lo, hi) with lo <= x**n <= hi."""
        if n < 0:
            raise ValueError("PowLadder needs an exponent n >= 0")
        if n == 0:
            return Fraction(1), Fraction(1)
        return self._side(False, n), self._side(True, n)


def pow_decide(ladder, n, pred):
    """pred(x**n) for the base x of a PowLadder and a predicate monotone in
    its argument; one ladder answers every n of a search.

    Decided on the ladder's certified interval when pred agrees at both
    ends, so the exact power, which can run to millions of bits, is computed
    only when the interval straddles pred's switching point.
    """
    lo, hi = ladder.pow(n)
    got = pred(lo)
    return got if got == pred(hi) else pred(ladder.x ** n)


def least_n(pred, n_min=1, hint=None):
    """Smallest n >= n_min with pred(n) true; pred must be monotone in n."""
    if pred(n_min):
        return n_min
    hi = max(n_min + 1, hint or 0)
    while not pred(hi):
        hi *= 2
        if hi > 10**18:
            raise OverflowError("threshold search diverged")
    lo = n_min
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


# --- gambler's ruin ---

@dataclass(frozen=True)
class GamblerParams:
    p: Fraction   # step right (away from the sink)
    q: Fraction   # step left

    def __post_init__(self):
        p, q = Fraction(self.p), Fraction(self.q)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        if p <= 0 or q <= 0 or p + q != 1:
            raise ValueError("need p, q > 0 with p + q = 1")


def gambler_first_passage(g, n):
    """Exact probability that the walk from 1 first hits 0 at step n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n % 2 == 0:
        return Fraction(0)
    return Fraction(comb(n, (n + 1) // 2), n) * g.p ** ((n - 1) // 2) * g.q ** ((n + 1) // 2)


def gambler_tail_bound(g, n):
    """Certified interval for (3q/sqrt(pi)) * (4pq)^floor(n/2), an upper bound
    on the probability that the walk from 1 needs n or more steps to hit 0."""
    if n < 2:
        raise ValueError("the tail bound holds for n >= 2")
    sp_lo = sqrt_bounds(PI_LO)[0]
    sp_hi = sqrt_bounds(PI_HI)[1]
    base = 3 * g.q * (4 * g.p * g.q) ** (n // 2)
    return base / sp_hi, base / sp_lo


def gamma_bounds():
    """The gravity rate gamma = 2*sqrt(q*, p* product) = 2*sqrt(2)/3."""
    lo, hi = sqrt_bounds(Fraction(2))
    return 2 * lo / 3, 2 * hi / 3


def srun_rate(beta):
    """Certified interval for the sporadic-run decay rate
    (beta/(beta-1)) * (2 beta)^(1/beta) * (1/beta + 1/gamma)^floor(1/beta) * gamma."""
    if beta < 2:
        raise ValueError("beta must be >= 2")
    g_lo, g_hi = gamma_bounds()
    root_lo, root_hi = nth_root_bounds(Fraction(2 * beta), beta)
    front = Fraction(beta, beta - 1)
    # floor(1/beta) is 0 for every beta >= 2, so the third factor is 1.
    return front * root_lo * g_lo, front * root_hi * g_hi


# --- the certificate ---

@dataclass
class EagernessParams:
    q_star: Fraction
    p_star: Fraction
    gamma: tuple          # certified interval
    beta: int
    alpha_s: tuple        # certified interval
    a_set: tuple          # ids of small reachable configurations that can reach the label
    mu: Fraction
    alpha_d: Fraction
    n_d: int
    alpha_hat: Fraction
    n_hat: int
    alpha: Fraction
    n_threshold: int

    def to_json(self):
        fs = functools.partial(markov.frac_str, memo={})   # one memo per document
        return {
            "q_star": fs(self.q_star),
            "p_star": fs(self.p_star),
            "gamma": [fs(self.gamma[0]), fs(self.gamma[1])],
            "beta": self.beta,
            "alpha_s": [fs(self.alpha_s[0]), fs(self.alpha_s[1])],
            "a_set_size": len(self.a_set),
            "mu": fs(self.mu),
            "mu_float": float(self.mu),
            "alpha_d": fs(self.alpha_d),
            "n_d": self.n_d,
            "alpha_hat": fs(self.alpha_hat),
            "n_hat": self.n_hat,
            "alpha": fs(self.alpha),
            "alpha_float": float(self.alpha),
            "n_threshold": self.n_threshold,
        }


def _witness_bfs(succs, steps, start, rank):
    """Shortest path of ids from `start` to a label-bearing id that never
    revisits `start`: the BFS over `succs` (bound-filtered, in configuration
    order), each layer expanded in witness order, read from `rank` (explored
    id -> its place in `ex.in_witness_order`), up to the first label-bearing
    id found. It follows only successors one step nearer the label by
    `steps` (`ex.reaching(label)`): every shortest path runs through them,
    and each one's first discoverer in the full search is one of them."""
    parent = {start: start}
    layer = [start]
    while layer:
        d = steps[layer[0]] - 1     # the ids of a layer are equally near
        nxt = []
        for c in sorted(layer, key=rank.__getitem__):
            for succ in succs[c]:
                if steps.get(succ) != d or succ in parent:
                    continue
                parent[succ] = c
                if d == 0:
                    path = [succ]
                    while path[-1] != start:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return path
                nxt.append(succ)
        layer = nxt
    raise AssertionError("witness BFS found no label-bearing configuration")


def compute_mu(prog, label, oracle=None, source=None):
    """A positive lower bound on the probability, from each c in A, of
    visiting the label before returning to c.

    Per configuration: the probability of the shortest label-reaching path
    that never revisits c. Configurations already bearing the label need no
    witness (they cannot occur strictly before a first hit) and are skipped.
    Returns (mu, per-id map, A as ids in witness order) over `oracle`'s ids,
    searched in its final-bound exploration from the configuration `source`.
    The explored ids are ranked in witness order once, their steps to the
    label are `ex.reaching(label)`, and each path source's distribution is
    read once.
    """
    oracle = oracle or reach.ReachOracle(prog)
    source = semantics.initial_config(prog) if source is None else source
    ex, configs = oracle.checked(oracle.intern(source), "A-set"), oracle.configs
    rank = {i: k for k, i in enumerate(ex.in_witness_order(ex.nodes))}
    steps = ex.reaching(label)
    a_set = sorted((i for i in steps if oracle.sizes[i] <= SMALL_SIZE), key=rank.__getitem__)
    if not a_set:
        raise ValueError(f"label {label!r} is not reachable from the start configuration"
                         f"{reach.pruned_note(ex.pruned, ex.bound)}")
    per = {}
    dists = {}                     # path source id -> its distribution
    for i in a_set:
        if not steps[i]:            # bears the label
            continue
        path = _witness_bfs(ex.succs, steps, i, rank)
        num = den = 1
        for a, b in zip(path, path[1:]):
            dist = dists.get(a)
            if dist is None:
                dist = dists[a] = oracle.distribution(configs[a])
            p = dist[configs[b]]
            num *= p.numerator
            den *= p.denominator
        per[i] = Fraction(num, den)
    mu = min(per.values()) if per else Fraction(1)
    return mu, per, a_set


def _coarse_upper(x):
    """Round a certified upper bound in (0,1) up to a small-denominator grid,
    keeping it below 1; coarse rates keep the cost loop's exact powers cheap."""
    r = _dyadic(*_round_frac(x.numerator, x.denominator, True, COARSE_BITS))
    return r if r < 1 else x


def _log_hint(const, ratio, beta):
    """A float guess, for least_n, at the least n with ratio**n >= const > 1.
    A ratio > 1 that a float cannot tell from 1 comes from a beta too large
    for the certificate's thresholds to be searched."""
    ln = _ln_frac(ratio)
    if ln == 0:
        raise ValueError(f"beta={beta} is too large: the certificate's rates are "
                         "within float precision of each other; use a smaller beta")
    return int(_ln_frac(const) / ln) + 1


def compute_eagerness(prog, label, oracle=None, source=None, beta=DEFAULT_BETA):
    """Compute the full eagerness certificate for runs from `source`."""
    prog.check_label(label)
    oracle = oracle or reach.ReachOracle(prog)
    source = semantics.initial_config(prog) if source is None else source

    gamma = gamma_bounds()
    alpha_s = srun_rate(beta)
    alpha_s = (alpha_s[0], _coarse_upper(alpha_s[1]))
    if alpha_s[1] >= 1:
        raise ValueError(f"beta={beta} gives S-run rate >= 1; use a larger beta (150 suffices)")

    mu, per, a_set = compute_mu(prog, label, oracle, source)
    size_a = len(a_set)

    if not per:
        # No label-free member of A: delayed runs are impossible.
        alpha_d, n_d = Fraction(1, 2), 1
    elif mu == 1:
        # Every return-free witness is certain; D-run terms vanish once the
        # pigeonhole forces a second visit, i.e. for n >= beta*|A|.
        alpha_d, n_d = Fraction(1, 2), beta * size_a
    else:
        base_hi = _coarse_upper(nth_root_bounds(1 - mu, beta * size_a)[1])
        if not base_hi < 1:
            raise AssertionError("D-run base rate is not below 1")
        alpha_d = (base_hi + 1) / 2
        inner_hi = nth_root_bounds(1 - mu, size_a)[1]
        const_hi = size_a / ((1 - mu) * (1 - inner_hi))    # > 1: both factors in (0, 1)
        ratio = alpha_d / base_hi
        ratio_pow = PowLadder(ratio)
        n_d = least_n(lambda n: ratio_pow.pow(n)[0] >= const_hi, 1,
                      _log_hint(const_hi, ratio, beta))

    alpha_hat = (max(alpha_s[1], alpha_d) + 1) / 2
    rs = alpha_s[1] / alpha_hat
    rd = alpha_d / alpha_hat

    rs_pow, rd_pow = PowLadder(rs), PowLadder(rd)
    n_hat = least_n(lambda n: rs_pow.pow(n)[1] + rd_pow.pow(n)[1] <= 1, 1, 64)

    alpha = (alpha_hat + 1) / 2
    ra = alpha / alpha_hat
    lim = 1 / (1 - alpha_hat)
    ra_pow = PowLadder(ra)
    # The S-run bound holds only for n >= 2*beta.
    n_threshold = least_n(lambda n: ra_pow.pow(n)[0] >= lim, max(n_d, 2 * beta, n_hat),
                          _log_hint(lim, ra, beta))

    params = EagernessParams(Q_STAR, P_STAR, gamma, beta, alpha_s, tuple(a_set),
                             mu, alpha_d, n_d, alpha_hat, n_hat, alpha, n_threshold)
    if not (alpha_s[1] < 1 and alpha_d < 1):
        raise AssertionError("S-run or D-run rate is not below 1")
    if not max(alpha_s[1], alpha_d) < params.alpha_hat < params.alpha < 1:
        raise AssertionError("certificate rates are not strictly increasing below 1")
    return params
