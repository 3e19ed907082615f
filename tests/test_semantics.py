import itertools

import pytest
from hypothesis import given, settings, strategies as st

import exhaustive
from conftest import make_config
from ptso_verify import lang, semantics
from update_reference import enumerate_updates

TWO_WRITERS = """
domain 3
vars x y
proc P weight 1
regs a
P0: x := a
P1: term
proc Q weight 2
regs b
Q0: y := b
Q1: term
"""


@pytest.fixture
def prog():
    return lang.parse_program(TWO_WRITERS)


def brute_force_update_words(prog, c):
    """Oracle: every word over the processes within multiplicity bounds,
    generated exhaustively and applied via apply_schedule."""
    names = [p.name for p in prog.processes]
    lens = [len(b) for b in c.bufs]
    counts = {}
    total = 0
    for length in range(sum(lens) + 1):
        for word in itertools.product(range(len(names)), repeat=length):
            if any(word.count(i) > lens[i] for i in range(len(names))):
                continue
            total += 1
            succ = semantics.apply_schedule(prog, c, [names[i] for i in word])
            counts[succ] = counts.get(succ, 0) + 1
    return counts, total


def test_initial_config(prog):
    c = semantics.initial_config(prog)
    assert semantics.size(c) == 0
    assert semantics.is_plain(c)
    assert c.labels == ("P0", "Q0")
    assert set(c.regs) == {0} and set(c.mem) == {0}


def test_fetch_val():
    """A read takes the newest own buffered write to the variable, over
    older buffered writes and over memory; memory when none is buffered."""
    p = lang.parse_program(
        "domain 8\nvars x y\nproc P weight 1\nregs r\nR0: r := x\nR1: term\n")
    r = p.tables["reg_index"]["r"]

    def read(buf):
        c = make_config(p, bufs={"P": buf}, mem={"x": 7})
        return semantics.process_step(p, c, "P").regs[r]

    assert read([("x", 3), ("y", 2), ("x", 1)]) == 3
    assert read([("y", 2)]) == 7
    assert read([]) == 7


def test_enabled_set(prog):
    c = semantics.initial_config(prog)
    assert semantics.enabled_indices(prog, c) == [0, 1]
    done = make_config(prog, labels={"P": "P1", "Q": "Q1"})
    assert semantics.enabled_indices(prog, done) == []


CAS_PROG = """
domain 2
vars x
proc P weight 1
regs o n r
C0: r := CAS(x, o, n)
C1: term
"""


def test_cas_disabled_with_nonempty_buffer():
    p = lang.parse_program(CAS_PROG)
    c = make_config(p, bufs={"P": [("x", 1)]})
    assert semantics.enabled_indices(p, c) == []
    empty = semantics.initial_config(p)
    assert semantics.enabled_indices(p, empty) == [0]


def test_cas_true_and_false():
    p = lang.parse_program(CAS_PROG)
    c = make_config(p, regs={"o": 0, "n": 1})
    c2 = semantics.process_step(p, c, "P")
    assert c2.mem[0] == 1 and c2.regs[p.tables["reg_index"]["r"]] == 1
    c = make_config(p, regs={"o": 1, "n": 1})
    c2 = semantics.process_step(p, c, "P")
    assert c2.mem[0] == 0 and c2.regs[p.tables["reg_index"]["r"]] == 0


def test_write_prepends(prog):
    c = make_config(prog, regs={"a": 1}, bufs={"P": [("x", 2)]})
    c2 = semantics.process_step(prog, c, "P")
    assert c2.bufs[0] == (("x", 1), ("x", 2))
    assert c2.labels[0] == "P1"
    assert semantics.size(c2) == semantics.size(c) + 1


def test_if_false_advances():
    p = lang.parse_program(
        "domain 2\nvars x\nproc P weight 1\nregs r\nI0: if r then I2\nI1: x := r\nI2: term\n")
    c = semantics.initial_config(p)
    assert semantics.process_step(p, c, "P").labels == ("I1",)
    c = make_config(p, regs={"r": 1})
    assert semantics.process_step(p, c, "P").labels == ("I2",)


def test_disabled_step(prog):
    """With no process enabled, the step is the update step alone."""
    done = make_config(prog, labels={"P": "P1", "Q": "Q1"}, bufs={"P": [("x", 1)]})
    counts, _ = exhaustive.update_successors(prog, done)
    assert semantics.step_successors(prog, done) == dict.fromkeys(counts)
    with pytest.raises(ValueError):
        semantics.process_step(prog, done, "P")


def test_apply_schedule_basic(prog):
    c = make_config(prog, bufs={"P": [("x", 1)]})
    r = semantics.apply_schedule(prog, c, ["P"])
    assert r.mem[prog.tables["var_index"]["x"]] == 1
    assert semantics.is_plain(r)


def test_apply_schedule_pops_oldest_first(prog):
    # newest-first buffer [(x,2),(x,1)]: [P,P] pops (x,1) then (x,2)
    c = make_config(prog, bufs={"P": [("x", 2), ("x", 1)]})
    r = semantics.apply_schedule(prog, c, ["P", "P"])
    assert r.mem[prog.tables["var_index"]["x"]] == 2
    one = semantics.apply_schedule(prog, c, ["P"])
    assert one.mem[prog.tables["var_index"]["x"]] == 1
    assert one.bufs[0] == (("x", 2),)


def test_apply_schedule_empty_is_identity(prog):
    c = make_config(prog, bufs={"P": [("x", 1)]})
    assert semantics.apply_schedule(prog, c, []) == c


def test_apply_schedule_infeasible(prog):
    c = make_config(prog, bufs={"P": [("x", 1)]})
    with pytest.raises(ValueError, match="infeasible"):
        semantics.apply_schedule(prog, c, ["P", "P"])


def test_update_successors_counts(prog):
    c = make_config(prog, bufs={"P": [("x", 1), ("x", 2)], "Q": [("y", 1)]})
    counts, total = exhaustive.update_successors(prog, c)
    assert total == 9
    flushed = sum(n for cc, n in counts.items() if semantics.is_plain(cc))
    assert flushed == 3
    assert sum(counts.values()) == total


def test_update_successors_empty(prog):
    c = semantics.initial_config(prog)
    counts, total = exhaustive.update_successors(prog, c)
    assert total == 1 and counts == {c: 1}


@pytest.mark.parametrize("bufs", [
    {},
    {"P": [("x", 1)]},
    {"P": [("x", 1), ("x", 0)], "Q": [("y", 2)]},
    {"P": [("x", 1), ("y", 2), ("x", 0)], "Q": [("y", 1), ("x", 2)]},
])
def test_update_successors_vs_brute_force(prog, bufs):
    c = make_config(prog, bufs=bufs)
    counts, total = exhaustive.update_successors(prog, c)
    bcounts, btotal = brute_force_update_words(prog, c)
    assert total == btotal
    assert counts == bcounts


def test_update_word_counts_by_length_vs_brute_force(prog):
    for lens in [(0, 0), (1, 0), (2, 1), (3, 2), (2, 2)]:
        bufs = {"P": [("x", 0)] * lens[0], "Q": [("y", 0)] * lens[1]}
        c = make_config(prog, bufs=bufs)
        _, btotal = brute_force_update_words(prog, c)
        by_len = semantics.update_word_counts_by_length(lens)
        assert sum(by_len.values()) == btotal
    assert semantics.update_word_counts_by_length((2, 1)) == {0: 1, 1: 2, 2: 3, 3: 3}


def test_schedule_commutation(prog):
    # disjoint-process schedules commute on buffers; memory depends only on
    # pop order, exercised over all interleavings of a fixed multiset
    c = make_config(prog, bufs={"P": [("x", 1), ("x", 2)], "Q": [("y", 1)]})
    a = semantics.apply_schedule(prog, semantics.apply_schedule(prog, c, ["P"]), ["Q"])
    b = semantics.apply_schedule(prog, semantics.apply_schedule(prog, c, ["Q"]), ["P"])
    assert a == b
    words = set(itertools.permutations(["P", "P", "Q"]))
    results = {w: semantics.apply_schedule(prog, c, list(w)) for w in words}
    for w, r in results.items():
        assert r.bufs == ((), ())


def test_size():
    p = lang.parse_program(TWO_WRITERS)
    c = make_config(p, bufs={"P": [("x", 0)] * 4, "Q": [("y", 1)]})
    assert semantics.size(c) == 5
    assert semantics.size(semantics.initial_config(p)) == 0


def test_process_step_size_law(prog):
    # 0 <= size(c') - size(c) <= 1 for process transitions
    for bufs in ({}, {"P": [("x", 1)]}, {"Q": [("y", 2), ("y", 0)]}):
        c = make_config(prog, bufs=bufs)
        for pi in semantics.enabled_indices(prog, c):
            mid = semantics.process_step(prog, c, pi)
            assert 0 <= semantics.size(mid) - semantics.size(c) <= 1


def test_step_successors_deterministic_process_step(prog):
    c = semantics.initial_config(prog)
    assert semantics.process_step(prog, c, "P") == semantics.process_step(prog, c, "P")


def test_config_json_round_trip(prog):
    c = make_config(prog, regs={"a": 1}, bufs={"P": [("x", 1), ("y", 2)]}, mem={"y": 2})
    doc = semantics.config_to_json(prog, c)
    assert doc["bufs"]["P"] == [["x", 1], ["y", 2]]
    assert semantics.config_from_json(prog, doc) == c
    with pytest.raises(ValueError):
        semantics.config_from_json(prog, {**doc, "labels": {"P": "Q0", "Q": "Q0"}})


@settings(max_examples=40)
@given(st.lists(st.tuples(st.sampled_from(["x", "y"]), st.integers(0, 2)), max_size=4),
       st.lists(st.tuples(st.sampled_from(["x", "y"]), st.integers(0, 2)), max_size=3))
def test_update_counts_property(bufp, bufq):
    prog = lang.parse_program(TWO_WRITERS)
    c = make_config(prog, bufs={"P": bufp, "Q": bufq})
    counts, total = exhaustive.update_successors(prog, c)
    assert sum(counts.values()) == total
    assert total == sum(semantics.update_word_counts_by_length([len(bufp), len(bufq)]).values())
    # every successor only shrinks buffers and keeps labels/regs
    for succ in counts:
        assert succ.labels == c.labels and succ.regs == c.regs
        assert semantics.size(succ) <= semantics.size(c)


THREE_PROCS = """
domain 3
vars x y
proc P weight 1
regs a
P0: term
proc Q weight 1
regs b
Q0: term
proc R weight 1
regs c
R0: term
"""

MESSAGES = st.tuples(st.sampled_from(["x", "y"]), st.integers(0, 2))


@st.composite
def update_rows(draw):
    """Buffers of 2-3 processes, at most 10 messages together, and a memory;
    small domains give repeated values and writes of the current value."""
    nprocs = draw(st.integers(2, 3))
    total = draw(st.integers(0, 10))
    owners = draw(st.lists(st.integers(0, nprocs - 1), min_size=total, max_size=total))
    msgs = draw(st.lists(MESSAGES, min_size=total, max_size=total))
    bufs = [[] for _ in range(nprocs)]
    for pi, msg in zip(owners, msgs):
        bufs[pi].append(msg)
    mem = draw(st.tuples(st.integers(0, 2), st.integers(0, 2)))
    return tuple(tuple(b) for b in bufs), mem


@settings(max_examples=100, deadline=None)
@given(update_rows())
def test_count_updates_matches_word_enumeration(case):
    """The lattice count equals the word-by-word reference: same successors
    in the same order, same counts, same first words, same total."""
    bufs, mem = case
    prog = lang.parse_program(THREE_PROCS)
    row, total = semantics.update_successors(prog, (bufs, mem))
    ref_row, ref_total = enumerate_updates(prog, bufs, mem)
    assert list(row.items()) == list(ref_row.items())
    assert total == ref_total
    assert total == sum(semantics.update_word_counts_by_length([len(b) for b in bufs]).values())


def test_count_updates_does_not_enumerate():
    # 3 buffers x 7 messages: over a billion words, counted on 512 pop-count
    # vectors; a word-by-word walk would not finish
    prog = lang.parse_program(THREE_PROCS)
    bufs = (tuple(("x", v % 3) for v in range(7)),
            tuple(("y", v % 2) for v in range(7)),
            tuple(("x" if v % 2 else "y", (v + 1) % 3) for v in range(7)))
    row, total = semantics.update_successors(prog, (bufs, (0, 0)))
    assert total == sum(semantics.update_word_counts_by_length((7, 7, 7)).values())
    assert total > 10**9
    assert sum(n for n, _ in row.values()) == total
    assert {k[0] for k in row} == {tuple(b[: len(b) - k] for b, k in zip(bufs, ks))
                                   for ks in itertools.product(range(8), repeat=3)}


def test_update_rows_enumerated_once_per_bufs_and_mem(monkeypatch):
    """explore, then distribution on every explored configuration: update
    words are counted once per distinct (bufs, mem) pair, and the moving
    process that step_successors gives each explored step (the one a
    witness path prints) is a process name, never a schedule."""
    from conftest import load_corpus
    from ptso_verify import reach

    prog = load_corpus("writer_reader")
    enumerated = []
    real = semantics.update_successors
    monkeypatch.setattr(semantics, "update_successors",
                        lambda p, store: enumerated.append(store) or real(p, store))
    oracle = reach.ReachOracle(prog, reach.OracleConfig(bound=8))
    ex = oracle.explore(oracle.intern(semantics.initial_config(prog)))
    after_explore = len(enumerated)
    nodes = sorted(oracle.configs[i] for i in ex.nodes)
    for c in nodes:
        oracle.distribution(c)
    assert len(enumerated) == len(set(enumerated))
    assert len(enumerated) == after_explore    # distribution reuses every row
    names = {p.name for p in prog.processes} | {None}
    assert all(proc in names for c in nodes
               for proc in semantics.step_successors(prog, c).values())
