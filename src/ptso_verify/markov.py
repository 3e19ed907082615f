"""PTSO probability layer: the exact rational view of a transition row
(`ReachOracle.row`, built there in integers from the scheduler weights and
the update-word counts) and the exact rendering and parsing of rationals."""

from __future__ import annotations

from fractions import Fraction


def step_distribution(row, configs):
    """A row over successor ids (`ReachOracle.row`) as exact Fractions keyed
    by successor configuration; `configs` is its id -> configuration list."""
    den, weights = row
    return {configs[j]: Fraction(w, den) for j, w in weights}


def frac_str(x):
    """Exactness-preserving JSON rendering of a rational."""
    x = Fraction(x)
    return f"{_int_str(x.numerator)}/{_int_str(x.denominator)}"


_SMALL = 10 ** 600   # below the interpreter's smallest int-to-str digit limit
_BITLIM = 128        # below this many bits Decimal(n) converts directly


def _int_str(n):
    """Decimal digits of an int of any size. Certified error terms carry
    alpha^n with thousands of digits, beyond the interpreter's int-to-str
    limit, which is process-wide and stays as it is: large ints are rendered
    through `decimal` instead."""
    if -_SMALL < n < _SMALL:
        return str(n)
    if n < 0:
        return "-" + _int_str(-n)
    return str(_int_to_decimal(n))


def _int_to_decimal(n):
    """An exact decimal.Decimal equal to the int n >= 0, in time below
    quadratic.

    Splits n by bits (shifts only) and recombines the halves in decimal,
    whose large multiplications are fast: hi * 2**w + lo, with the powers of
    two memoized. This is the algorithm of CPython 3.12's
    `_pylong.int_to_decimal`; `decimal` is imported only here.
    """
    import decimal

    D = decimal.Decimal
    pow2 = {}

    def w2pow(w):
        got = pow2.get(w)
        if got is None:
            if w <= _BITLIM:
                got = D(2) ** w
            elif w - 1 in pow2:
                got = pow2[w - 1] + pow2[w - 1]
            else:
                half = w >> 1
                # the smaller half first, so an odd w's larger half is one doubling away
                got = w2pow(half) * w2pow(w - half)
            pow2[w] = got
        return got

    def inner(n, w):
        if w <= _BITLIM:
            return D(n)
        half = w >> 1
        hi = n >> half
        lo = n - (hi << half)
        return inner(lo, half) + inner(hi, w - half) * w2pow(half)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.Emin = decimal.MIN_EMIN
        ctx.traps[decimal.Inexact] = 1
        return inner(n, n.bit_length())


def parse_frac(text):
    """Parse "num/den" or a decimal literal into an exact Fraction; a
    malformed text or a zero denominator raises ValueError."""
    text = text.strip()
    if "/" in text:
        num, den = (int(part) for part in text.split("/", 1))
        if den == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(num, den)
    return Fraction(text)
