import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import exhaustive
from conftest import load_corpus, make_config
from ptso_verify import lang, markov, reach, semantics

F = Fraction

WEIGHTED = """
domain 2
vars x
proc P weight 1
regs a o n
P0: x := a
P1: a := CAS(x, o, n)
P2: term
proc Q weight 2
regs b
Q0: x := b
Q1: term
"""


@pytest.fixture
def prog():
    return lang.parse_program(WEIGHTED)


def sched(prog, c):
    """The scheduling distribution at c, keyed by process name: each enabled
    process (semantics.enabled_indices) in proportion to its weight."""
    enabled = semantics.enabled_indices(prog, c)
    total = sum(prog.processes[pi].weight for pi in enabled)
    return {prog.processes[pi].name: F(prog.processes[pi].weight, total) for pi in enabled}


def update(prog, c):
    """The update step at c, uniform over the feasible words: each
    successor's word count over the total (exhaustive.update_successors)."""
    counts, total = exhaustive.update_successors(prog, c)
    return {succ: F(n, total) for succ, n in counts.items()}


def test_sched_weights(prog):
    c = semantics.initial_config(prog)
    assert sched(prog, c) == {"P": F(1, 3), "Q": F(2, 3)}


def test_sched_blocked_cas(prog):
    c = make_config(prog, labels={"P": "P1"}, bufs={"P": [("x", 1)]})
    assert sched(prog, c) == {"Q": F(1)}


def test_sched_all_disabled(prog):
    c = make_config(prog, labels={"P": "P2", "Q": "Q1"})
    assert sched(prog, c) == {}
    # the full step is then just an update step
    dist = reach.ReachOracle(prog).distribution(c)
    assert dist == update(prog, c)


def test_update_distribution_flush(prog):
    c = make_config(prog, bufs={"P": [("x", 1), ("x", 0)], "Q": [("x", 1)]})
    dist = update(prog, c)
    flush = sum(p for cc, p in dist.items() if semantics.is_plain(cc))
    assert flush == F(3, 9)


def test_update_distribution_plain_point_mass(prog):
    c = semantics.initial_config(prog)
    assert update(prog, c) == {c: F(1)}


def test_update_single_buffer_five(prog):
    c = make_config(prog, bufs={"P": [("x", 1)] * 5})
    dist = update(prog, c)
    by_size = {}
    for cc, p in dist.items():
        by_size[semantics.size(cc)] = by_size.get(semantics.size(cc), F(0)) + p
    assert all(by_size[k] == F(1, 6) for k in range(6))
    assert sum(p for s, p in by_size.items() if s < 5) == F(5, 6)


def test_step_distribution_row_sums(prog):
    step = reach.ReachOracle(prog).distribution
    seen = {semantics.initial_config(prog)}
    frontier = list(seen)
    for _ in range(4):
        nxt = []
        for c in frontier:
            dist = step(c)
            assert sum(dist.values()) == 1
            for succ in dist:
                if succ not in seen:
                    seen.add(succ)
                    nxt.append(succ)
        frontier = nxt


def test_faithfulness_and_ts_equality(prog):
    # scheduled with positive probability iff enabled; support of the step
    # distribution equals the transition relation
    c = make_config(prog, labels={"P": "P1"}, bufs={"P": [("x", 1)], "Q": [("x", 0)]})
    scheduled = sched(prog, c)
    assert set(scheduled) == {prog.processes[pi].name for pi in semantics.enabled_indices(prog, c)}
    assert all(p > 0 for p in scheduled.values())
    dist = reach.ReachOracle(prog).distribution(c)
    assert set(dist) == set(semantics.step_successors(prog, c))


def writer_family(nprocs):
    """nprocs single-writer processes, all parked at their write instruction."""
    lines = ["domain 2", "vars x"]
    for i in range(nprocs):
        lines += [f"proc W{i} weight 1", f"regs r{i}",
                  f"w{i}: x := r{i}", f"t{i}: term"]
    return lang.parse_program("\n".join(lines) + "\n")


def partitions_padded(total, parts):
    """Nonincreasing partitions of `total` into at most `parts` parts."""
    def rec(remaining, maxpart):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, maxpart), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest
    out = []
    for p in rec(total, total):
        if len(p) <= parts:
            out.append(p + (0,) * (parts - len(p)))
    return out


def test_left_biasedness_all_size5_shapes():
    # every size-5 buffer shape over <= 6 processes moves to size <= 4 with
    # probability >= 2/3, even when every process step is a write
    prog = writer_family(6)
    step = reach.ReachOracle(prog).distribution
    for shape in partitions_padded(5, 6):
        bufs = {f"W{i}": [("x", 1)] * k for i, k in enumerate(shape)}
        c = make_config(prog, bufs=bufs)
        dist = step(c)
        small = sum(p for cc, p in dist.items() if semantics.size(cc) <= 4)
        assert small >= F(2, 3), shape


def test_parse_frac():
    assert markov.parse_frac("1/100") == F(1, 100)
    assert markov.parse_frac("0.25") == F(1, 4)
    for bad in ("1/0", " 3/-0 ", "x/2", "1/2/3", "1e", "1e5x"):
        with pytest.raises(ValueError):
            markov.parse_frac(bad)
    assert markov.frac_str(F(5, 16)) == "5/16"


def test_step_distribution_point_mass_on_deterministic():
    p = lang.parse_program("domain 2\nvars x\nproc P weight 1\nregs a\nA0: a := 1\nA1: term\n")
    c = semantics.initial_config(p)
    dist = reach.ReachOracle(p).distribution(c)
    assert len(dist) == 1 and list(dist.values()) == [F(1)]


def test_corpus_row_sums_support_and_size_law():
    for name in ("race_flag", "two_sccs"):
        prog = load_corpus(name)
        step = reach.ReachOracle(prog).distribution
        seen = {semantics.initial_config(prog)}
        frontier = list(seen)
        for _ in range(5):
            nxt = []
            for c in frontier:
                dist = step(c)
                assert sum(dist.values()) == 1
                # support equals the transition relation; full steps grow the
                # total buffer size by at most one
                assert set(dist) == set(semantics.step_successors(prog, c))
                for succ in dist:
                    assert semantics.size(succ) <= semantics.size(c) + 1
                nxt.extend(s for s in dist if s not in seen and not seen.add(s))
            frontier = nxt


def test_frac_str_huge_keeps_int_digit_limit():
    # 12k digits, with a long zero run that the chunked rendering must pad
    digits = "9" + "0" * 5000 + "".join(str((7 * i * i + 3 * i + 1) % 10) for i in range(7000))
    num = 0
    for i in range(0, len(digits), 500):    # int(str) is length-limited too
        chunk = digits[i:i + 500]
        num = num * 10 ** len(chunk) + int(chunk)
    limit = sys.get_int_max_str_digits()
    assert markov.frac_str(Fraction(num)) == f"{digits}/1"
    assert markov.frac_str(Fraction(-1, num)) == f"-1/{digits}"
    assert sys.get_int_max_str_digits() == limit


# str() with the int-to-str digit limit lifted, in a child process so this
# process's limit never moves; the int travels in hex, which has no limit
LIFTED_STR = ("import sys; sys.set_int_max_str_digits(0); "
              "sys.stdout.write(' '.join(str(int(h, 16)) for h in sys.stdin.read().split()))")


def _lifted_strs(ns):
    out = subprocess.run([sys.executable, "-c", LIFTED_STR], input=" ".join(map(hex, ns)),
                         capture_output=True, text=True, timeout=120, check=True)
    return out.stdout.split()


def _lifted_str(n):
    return _lifted_strs([n])[0]


def _with_digits(digits, seed):
    low = 10 ** (digits - 1)
    return low + random.Random(seed).randrange(9 * low)


@settings(max_examples=10, deadline=None)
@given(n=st.builds(_with_digits, st.integers(590, 400_000), st.integers(0, 2**32)),
       negative=st.booleans())
@example(n=10 ** 600 - 1, negative=False)
@example(n=10 ** 600, negative=True)
@example(n=10 ** 600 + 1, negative=False)
@example(n=10 ** 600 + 1, negative=True)
@example(n=_with_digits(400_000, 1), negative=True)
def test_int_str_matches_lifted_str(n, negative):
    digits = _lifted_str(n)
    limit = sys.get_int_max_str_digits()
    if negative:
        assert markov._int_str(-n) == "-" + digits
        assert markov.frac_str(Fraction(-1, n)) == "-1/" + digits
    else:
        assert markov._int_str(n) == digits
        assert markov.frac_str(Fraction(1, n)) == "1/" + digits
    assert sys.get_int_max_str_digits() == limit


def _module_state():
    """Names and container or functools-cache sizes of `markov`'s module
    attributes and of its functions' defaults: where a cache that outlives a
    call would live."""
    state = {}
    for name, value in vars(markov).items():
        if hasattr(value, "cache_info"):
            state[name] = value.cache_info().currsize
        else:
            state[name] = len(value) if isinstance(value, (dict, list, set)) else None
        for k, default in enumerate(getattr(value, "__defaults__", None) or ()):
            if isinstance(default, (dict, list, set)):
                state[f"{name}.default{k}"] = len(default)
    return state


def _near_ints(base):
    """`base`, ints of nearly its bit length, the 10**600 rendering boundary
    and a small int: the pool a rendered list draws from."""
    return [base, base + 1, base - 1, base << 3, base >> 2,
            10 ** 600 - 1, 10 ** 600, 10 ** 600 + 1, 3]


PICKS = st.tuples(st.integers(0, 8), st.integers(0, 8), st.booleans())


@settings(max_examples=10, deadline=None)
@given(base=st.builds(_with_digits, st.integers(590, 20_000), st.integers(0, 2**32)),
       picks=st.lists(PICKS, min_size=1, max_size=8))
@example(base=_with_digits(5_000, 1),
         picks=[(i, 8, i % 2 == 1) for i in range(9)] + [(0, 8, False), (8, 1, True)])
def test_frac_str_shared_memo_matches_each_alone(base, picks):
    # one document's rationals through one memo, repeats and near-equal
    # widths included, render as each does alone and as lifted str does
    pool = _near_ints(base)
    xs = [Fraction(-pool[i] if negative else pool[i], pool[j]) for i, j, negative in picks]
    limit, state = sys.get_int_max_str_digits(), _module_state()
    memo = {}
    shared = [markov.frac_str(x, memo) for x in xs]
    alone = [markov.frac_str(x) for x in xs]
    ints = [abs(x.numerator) for x in xs] + [x.denominator for x in xs]
    digits = dict(zip(ints, _lifted_strs(ints)))
    lifted = [f"{'-' if x < 0 else ''}{digits[abs(x.numerator)]}/{digits[x.denominator]}"
              for x in xs]
    assert shared == alone == lifted
    assert sys.get_int_max_str_digits() == limit
    assert _module_state() == state


ODD_5000 = random.Random(5000).getrandbits(5000) | 1 << 4999 | 1    # odd, 5,000 bits


@pytest.mark.parametrize("t", [markov._BITLIM, markov._BITLIM + 1, 97_947])
def test_dyadic_ints_match_lifted_str(t):
    # m * 2**t, alone and over an odd denominator, through one memo and each
    # alone, against lifted str: at t = _BITLIM the int is split in full
    ms = [1, 3, 2**61 - 1, ODD_5000]
    odd = 5 ** 1500
    limit, state = sys.get_int_max_str_digits(), _module_state()
    xs = [Fraction(m << t, odd) for m in ms]
    digits = dict(zip(ms + [odd], _lifted_strs([m << t for m in ms] + [odd])))
    memo = {}
    for m, x in zip(ms, xs):
        want = digits[m]
        assert markov._int_str(m << t) == want == markov._int_str(m << t, memo)
        assert markov._int_str(-(m << t)) == "-" + want == markov._int_str(-(m << t), memo)
        assert (x.numerator, x.denominator) == (m << t, odd)
        assert markov.frac_str(x) == f"{want}/{digits[odd]}" == markov.frac_str(x, memo)
        assert markov.frac_str(-x) == f"-{want}/{digits[odd]}" == markov.frac_str(-x, memo)
    assert sys.get_int_max_str_digits() == limit
    assert _module_state() == state
