"""PTSO probability layer: the exact rational view of a transition row
(`ReachOracle.row`, built there in integers from the scheduler weights and
the update-word counts) and the exact rendering and parsing of rationals."""

from __future__ import annotations

import sys
from fractions import Fraction


def step_distribution(row, configs):
    """A row over successor ids (`ReachOracle.row`) as exact Fractions keyed
    by successor configuration; `configs` is its id -> configuration list."""
    den, weights = row
    return {configs[j]: Fraction(w, den) for j, w in weights}


def frac_str(x, memo=None):
    """Exactness-preserving JSON rendering of a rational. `memo`, a dict that
    one document's renderings share, keeps each large integer's digits and
    the powers of two that split them; without it nothing is kept."""
    x = Fraction(x)
    return f"{_int_str(x.numerator, memo)}/{_int_str(x.denominator, memo)}"


_SMALL = 10 ** 600   # below the interpreter's smallest int-to-str digit limit
_BITLIM = 128        # below this many bits Decimal(n) converts directly


def _int_str(n, memo=None):
    """Decimal digits of an int of any size. Certified error terms carry
    alpha^n with thousands of digits, beyond the interpreter's int-to-str
    limit, which is process-wide and stays as it is: large ints are rendered
    through `decimal` instead, each once per `memo` (see frac_str)."""
    if -_SMALL < n < _SMALL:
        return str(n)
    if n < 0:
        return "-" + _int_str(-n, memo)
    memo = {} if memo is None else memo
    if n not in memo:
        memo[n] = str(_int_to_decimal(n, memo.setdefault("pow2", {})))
    return memo[n]


def _int_to_decimal(n, pow2):
    """An exact decimal.Decimal equal to the int n >= 0, in time below
    quadratic.

    Splits n by bits (shifts only) and recombines the halves in decimal,
    whose large multiplications are fast: hi * 2**w + lo, with the powers of
    two memoized in `pow2` (width -> Decimal), which any number of ints can
    share. This is the algorithm of CPython 3.12's
    `_pylong.int_to_decimal`; `decimal` is imported only here. A dyadic n =
    m * 2**t, t its trailing zero bits, is rendered as m times the power of
    two from `pow2` when t is more than _BITLIM bits, so its zeros are not
    split.
    """
    import decimal

    D = decimal.Decimal

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
        t = (n & -n).bit_length() - 1
        if t > _BITLIM:
            m = n >> t
            return inner(m, m.bit_length()) * w2pow(t)
        return inner(n, n.bit_length())


def parse_frac(text):
    """Parse "num/den" or a decimal literal into an exact Fraction. A
    malformed text, a zero denominator, or a value whose num/den form needs
    more digits than the int-to-str limit (which int() enforces on "num/den")
    raises ValueError; an exponent that large is refused before its power of
    ten is built."""
    text = text.strip()
    if "/" in text:
        num, den = (int(part) for part in text.split("/", 1))
        if den == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(num, den)
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    too_long = f"{text!r} needs more than {limit} digits as num/den"
    mant, _, exp = text.lower().partition("e")
    if exp and abs(int(exp)) >= limit + len(mant):
        # m * 10**e with m != 0 has a num or den of 10**(|e| - len(m)) or more
        if Fraction(mant):
            raise ValueError(too_long)
        return Fraction(0)
    x = Fraction(text)
    if max(abs(x.numerator), x.denominator) >= 10 ** limit:
        raise ValueError(too_long)
    return x
