"""PTSO probability layer: scheduler and update distributions composed into
one-step transition distributions, all in exact rational arithmetic."""

from __future__ import annotations

from fractions import Fraction

from . import semantics


class Policy:
    """Probabilistic policy hook. Defaults: weight-proportional scheduling
    over enabled processes and the uniform distribution over feasible update
    words. Subclasses may override either; faithfulness (every enabled
    process gets nonzero mass) is required."""

    def sched_distribution(self, prog, c):
        enabled = semantics.enabled_indices(prog, c)
        if not enabled:
            return {}
        total = sum(prog.processes[pi].weight for pi in enabled)
        return {pi: Fraction(prog.processes[pi].weight, total) for pi in enabled}

    def update_distribution(self, prog, c):
        counts, total = semantics.update_successors(prog, c)
        return {succ: Fraction(n, total) for succ, n in counts.items()}


DEFAULT_POLICY = Policy()


def sched_distribution(prog, c, policy=DEFAULT_POLICY):
    """Process-scheduling distribution at c, keyed by process name.

    Empty when c is disabled; the full step is then the identity process
    transition followed by an update step.
    """
    return {prog.processes[pi].name: w
            for pi, w in policy.sched_distribution(prog, c).items()}


def update_distribution(prog, c, policy=DEFAULT_POLICY):
    dist = policy.update_distribution(prog, c)
    _check(dist)
    return dist


def step_distribution(prog, c, policy=DEFAULT_POLICY):
    """One full (process; update) step of the chain: exact, row-stochastic."""
    sched = policy.sched_distribution(prog, c)
    dist = {}
    if not sched:
        dist = dict(policy.update_distribution(prog, c))
    else:
        for pi, w in sched.items():
            mid = semantics.process_step(prog, c, pi)
            for succ, q in policy.update_distribution(prog, mid).items():
                prob = w * q
                if succ in dist:
                    dist[succ] += prob
                else:
                    dist[succ] = prob
    _check(dist)
    return dist


def _check(dist):
    if sum(dist.values()) != 1:
        raise ValueError("distribution does not sum to 1")
    if not all(p > 0 for p in dist.values()):
        raise ValueError("distribution has nonpositive mass")


def frac_str(x):
    """Exactness-preserving JSON rendering of a rational."""
    x = Fraction(x)
    return f"{_int_str(x.numerator)}/{_int_str(x.denominator)}"


_SMALL = 10 ** 600   # below the interpreter's smallest int-to-str digit limit


def _int_str(n):
    """Decimal digits of an int of any size. Certified error terms carry
    alpha^n with thousands of digits, beyond the interpreter's int-to-str
    limit; split by a power of ten instead of raising that process-wide
    limit."""
    if -_SMALL < n < _SMALL:
        return str(n)
    if n < 0:
        return "-" + _int_str(-n)
    k = n.bit_length() * 3 // 20          # about half the digits
    hi, lo = divmod(n, 10 ** k)
    return _int_str(hi) + _int_str(lo).zfill(k)


def parse_frac(text):
    """Parse "num/den" or a decimal literal into an exact Fraction."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(text)
