import pytest
from hypothesis import given, strategies as st

from ptso_verify import lang, reach, semantics
from ptso_verify.lang import (Assign, Cas, Const, Goto, If, Instruction,
                              ProgramError, Term, Write)

MINIMAL = """
domain 2
vars x
proc P weight 1
regs a
0: x := a
1: term
"""

FULL = """
domain 4
vars x y
proc P weight 2
regs a b c
p0: a := 3
p1: x := a
p2: b := y
p3: c := a + b
p4: c := a == b
p5: c := CAS(x, a, b)
p6: if c then p1
p7: term
proc Q weight 1
regs d
q0: d := x
q1: term
"""


def test_parse_minimal():
    p = lang.parse_program(MINIMAL)
    assert len(p.processes) == 1
    assert len(p.processes[0].instrs) == 2
    assert p.domain_size == 2
    assert isinstance(p.processes[0].instrs[0].stmt, Write)


def test_default_domain():
    p = lang.parse_program("vars x\nproc P weight 1\nregs a\n0: a := 1\n1: term\n")
    assert p.domain_size == lang.DEFAULT_DOMAIN


def test_if_self_target_rejected():
    text = "domain 2\nvars x\nproc P weight 1\nregs a\n3: if a then 3\n4: term\n"
    with pytest.raises(ProgramError, match="own label"):
        lang.parse_program(text)


def test_goto_self_target_rejected():
    # a step that leaves its process's label unchanged would make the moving
    # process (and so its step cost) unidentifiable
    with pytest.raises(ProgramError, match="own label"):
        lang.Program(2, ("x",), (lang.ProcessDef("P", 1, ("a",), (
            Instruction("0", Goto("0")), Instruction("1", Term()))),))


def test_goto_into_another_process_rejected():
    # a process running another's code would run it with the other's
    # registers, and bear a label the label's owner alone may bear
    with pytest.raises(ProgramError, match="label '0': `goto` target '2' belongs to process 'Q'"):
        lang.Program(2, ("x",), (
            lang.ProcessDef("P", 1, ("a",), (Instruction("0", Goto("2")), Instruction("1", Term()))),
            lang.ProcessDef("Q", 1, ("b",), (Instruction("2", Term()),))))


def test_register_collision_across_processes():
    text = ("domain 2\nvars x\nproc P weight 1\nregs a\n0: x := a\n1: term\n"
            "proc Q weight 1\nregs a\n2: x := a\n3: term\n")
    with pytest.raises(ProgramError, match="register 'a'"):
        lang.parse_program(text)


@pytest.mark.parametrize("bad,msg", [
    ("domain 2\nvars x\nproc P weight 1\nregs a\n0: x := a\n0: term\n", "duplicate label"),
    ("domain 2\nvars x\nproc P weight 1\nregs a\n0: x := b\n1: term\n", "undeclared"),
    ("domain 2\nvars x\nproc P weight 1\nregs a\n0: y := a\n1: term\n", "undeclared"),
    ("domain 2\nvars x\nproc P weight 1\nregs x\n0: term\n", "variable and register"),
    ("domain 2\nvars x\nproc P weight 1\nregs a\n0: a := 5\n1: term\n", "outside domain"),
    ("domain 2\nvars x\nproc P weight 1\nregs a\n0: if a then nowhere\n1: term\n", "unknown branch target"),
    ("domain 2\nvars x\nproc P weight 1\nregs a\n0: if a then 3\n1: term\n"
     "proc Q weight 1\nregs b\n2: b := 1\n3: term\n",
     "label '0': `if` target '3' belongs to process 'Q', not 'P'"),
    ("domain 2\nvars x\nproc P weight 0\nregs a\n0: x := a\n1: term\n", "weight"),
    ("domain 2\nvars x\nproc P weight 1\nregs a\n0: x := a\n", "end with `term`"),
    ("domain 2\nvars x\nproc P weight 1\nregs a\n0: term\n1: x := a\n2: term\n", "exactly one"),
    ("domain 1\nvars x\nproc P weight 1\nregs a\n0: term\n", "domain size"),
    ("domain 2\nvars x\nproc P weight 1\nregs a\n0: x := 1\n1: term\n", "constant to shared variable"),
    ("domain 2\nvars x\nproc P weight 1\nregs a\n0: if b then 1\n1: term\n",
     "label '0': undeclared register 'b'"),
    ("domain 2\nvars x\nproc P weight 1\nregs a\n0: a := CAS(y, a, a)\n1: term\n",
     "label '0': undeclared variable 'y'"),
    ("domain 2\nvars x\nproc P weight 1\nregs a\n0: a := CAS(x, b, a)\n1: term\n",
     "label '0': undeclared register 'b'"),
])
def test_rejects(bad, msg):
    with pytest.raises(ProgramError, match=msg):
        lang.parse_program(bad)


def test_syntax_error_carries_line():
    with pytest.raises(ProgramError, match="line 5"):
        lang.parse_program("domain 2\nvars x\nproc P weight 1\nregs a\n0: x x x\n1: term\n")


def test_comments_ignored():
    p = lang.parse_program("# hi\nvars x # vars\nproc P weight 1\nregs a\n0: term # done\n")
    assert len(p.processes[0].instrs) == 1


def test_round_trip_minimal():
    p = lang.parse_program(MINIMAL)
    assert lang.parse_program(lang.print_program(p)) == p


def test_round_trip_full():
    p = lang.parse_program(FULL)
    assert lang.parse_program(lang.print_program(p)) == p


def test_goto_not_printable():
    p = lang.parse_program(MINIMAL)
    q = lang.remove_label(p, "0")
    with pytest.raises(ProgramError, match="goto"):
        lang.print_program(q)


def test_next_label():
    p = lang.parse_program(FULL)
    assert lang.next_label(p, "p0") == "p1"
    assert lang.next_label(p, "p6") == "p7"
    with pytest.raises(ProgramError):
        lang.next_label(p, "p7")


def test_remove_label_write():
    p = lang.parse_program(MINIMAL)
    q = lang.remove_label(p, "0")
    instrs = q.processes[0].instrs
    assert len(instrs) == 3
    assert isinstance(instrs[0].stmt, Goto)
    assert isinstance(instrs[2].stmt, Term)
    assert instrs[0].stmt.target == instrs[2].label
    assert instrs[1] == p.processes[0].instrs[1]


def test_remove_label_twice():
    p = lang.parse_program(FULL)
    q = lang.remove_label(lang.remove_label(p, "p1"), "q0")
    gotos = [i for proc in q.processes for i in proc.instrs if isinstance(i.stmt, Goto)]
    assert len(gotos) == 2
    new_terms = set(q.labels()) - set(p.labels())
    assert len(new_terms) == 2


def test_remove_label_unknown():
    with pytest.raises(ProgramError, match="unknown label"):
        lang.remove_label(lang.parse_program(MINIMAL), "zz")


def test_remove_term_label_still_terminates():
    # Removing the `term` label: the process goes goto -> fresh term; every
    # run still reaches a Term statement (checked through the semantics).
    p = lang.parse_program(MINIMAL)
    q = lang.remove_label(p, "1")
    oracle = reach.ReachOracle(q)
    ex = oracle.explore(oracle.intern(semantics.initial_config(q)))
    fresh = (set(q.labels()) - set(p.labels())).pop()
    reached = {i for i in ex.nodes if fresh in oracle.configs[i].labels}
    assert reached
    # every bottom SCC sits at the fresh term
    for comp in ex.bottom_sccs():
        for i in comp:
            assert fresh in oracle.configs[i].labels


def test_remove_label_preserves_others():
    p = lang.parse_program(FULL)
    for lbl in p.labels():
        q = lang.remove_label(p, lbl)
        assert set(p.labels()) <= set(q.labels())
        assert len(set(q.labels())) == len(set(p.labels())) + 1


# --- property tests over generated programs ---

_names = st.integers(0, 4)


@st.composite
def programs(draw):
    domain = draw(st.integers(2, 4))
    nvars = draw(st.integers(1, 2))
    variables = [f"x{i}" for i in range(nvars)]
    nprocs = draw(st.integers(1, 3))
    procs = []
    label_counter = 0
    for pi in range(nprocs):
        regs = [f"r{pi}_{j}" for j in range(draw(st.integers(1, 2)))]
        n_instr = draw(st.integers(1, 4))
        labels = [f"l{label_counter + k}" for k in range(n_instr + 1)]
        label_counter += n_instr + 1
        instrs = []
        for k in range(n_instr):
            kind = draw(st.integers(0, 7))
            reg = regs[draw(_names) % len(regs)]
            var = variables[draw(_names) % len(variables)]
            if kind in (0, 7):
                stmt = Write(var, reg)
            elif kind == 1:
                stmt = lang.Read(reg, var)
            elif kind == 2:
                stmt = Assign(reg, Const(draw(st.integers(0, domain - 1))))
            elif kind == 3:
                stmt = Assign(reg, lang.Add(reg, regs[0]))
            elif kind == 4:
                stmt = Cas(reg, var, regs[0], regs[-1])
            else:
                # kind 5 jumps anywhere, kind 6 back to an earlier label: loops
                # that write (kinds 0 and 7) make the bounded explorations prune
                last = k - 1 if kind == 6 and k > 0 else n_instr
                target = labels[draw(st.integers(0, last))]
                if target == labels[k]:
                    target = labels[k + 1]
                stmt = If(reg, target)
            instrs.append(Instruction(labels[k], stmt))
        instrs.append(Instruction(labels[n_instr], Term()))
        procs.append(lang.ProcessDef(f"P{pi}", draw(st.integers(1, 3)), tuple(regs), tuple(instrs)))
    return lang.Program(domain, tuple(variables), tuple(procs))


@st.composite
def racy_programs(draw, loops=False):
    """Straight-line races whose outcomes are seldom certain: each of 2-3
    processes sets its register to a nonzero constant, then takes 1-3 steps,
    each a write of that register or a read into it followed by a forward
    `if` on what was read; at least one process reads. No loops, so no bound
    prunes; pair with branch_labels, where the outcomes of the races show.

    With `loops`, at least one process ends with a read, and each such
    process's last `if` jumps to a loop through a label (an assignment and a
    `goto` back to it) instead, falling through to `term` otherwise: the
    read decides whether that label is visited infinitely often. The loop
    writes nothing, so still no bound prunes."""
    domain = draw(st.integers(2, 4))
    variables = [f"x{i}" for i in range(draw(st.integers(1, 2)))]
    steps = st.lists(st.booleans(), min_size=1, max_size=3)     # True: read and branch
    procs = []
    for pi, reads in enumerate(draw(st.lists(steps, min_size=2, max_size=3).filter(
            lambda ps: any(p[-1] for p in ps) if loops else any(map(any, ps))))):
        reg = f"r{pi}"
        stmts = [Assign(reg, Const(draw(st.integers(1, domain - 1))))]
        branches = []          # index of each `if` in stmts
        for read in reads:
            var = draw(st.sampled_from(variables))
            if read:
                stmts.append(lang.Read(reg, var))
                branches.append(len(stmts))
                stmts.append(None)
            else:
                stmts.append(Write(var, reg))
        if reads[-1]:
            stmts.append(Assign(reg, Const(0)))    # the last `if` jumps past it
        stmts.append(Term())
        loop = len(stmts) if loops and reads[-1] else None
        if loop is not None:
            stmts += [Assign(reg, Const(1)), Goto(f"p{pi}_{loop}")]
        labels = [f"p{pi}_{k}" for k in range(len(stmts))]
        for k in branches:
            stmts[k] = If(reg, labels[draw(st.integers(k + 2, len(stmts) - 1))])
        if loop is not None:
            stmts[branches[-1]] = If(reg, labels[loop])
        instrs = tuple(Instruction(lbl, stmt) for lbl, stmt in zip(labels, stmts))
        procs.append(lang.ProcessDef(f"P{pi}", draw(st.integers(1, 3)), (reg,), instrs))
    return lang.Program(domain, tuple(variables), tuple(procs))


def branch_labels(prog):
    """The targets of every `if` and the labels right after one, sorted."""
    out = set()
    for proc in prog.processes:
        for instr, after in zip(proc.instrs, proc.instrs[1:]):
            if isinstance(instr.stmt, If):
                out.update((instr.stmt.target, after.label))
    return sorted(out)


@given(programs())
def test_print_parse_round_trip(prog):
    assert lang.parse_program(lang.print_program(prog)) == prog


@given(programs(), st.data())
def test_mutated_programs_rejected(prog, data):
    # duplicating a label, stealing a foreign register or naming an
    # undeclared one must be rejected; operand errors name the label
    text = lang.print_program(prog)
    labels = sorted(prog.labels())
    lbl = data.draw(st.sampled_from(labels))
    dup = text + f"proc Zz weight 1\nregs zz\n{lbl}: term\n"
    with pytest.raises(ProgramError):
        lang.parse_program(dup)
    foreign = text + "proc Zz weight 1\nregs zz\nzl0: x0 := r0_0\nzl1: term\n"
    with pytest.raises(ProgramError, match="label 'zl0': foreign register 'r0_0'"):
        lang.parse_program(foreign)
    undeclared = text + "proc Zz weight 1\nregs zz\nzl0: zz := zq\nzl1: term\n"
    with pytest.raises(ProgramError, match="label 'zl0': undeclared register 'zq'"):
        lang.parse_program(undeclared)


@given(programs(), st.data())
def test_remove_label_adds_one_fresh(prog, data):
    labels = sorted(prog.labels())
    lbl = data.draw(st.sampled_from(labels))
    q = lang.remove_label(prog, lbl)
    assert set(prog.labels()) <= set(q.labels())
    assert len(set(q.labels()) - set(prog.labels())) == 1
    for proc_p, proc_q in zip(prog.processes, q.processes):
        for ip in proc_p.instrs:
            if ip.label != lbl:
                assert any(iq == ip for iq in proc_q.instrs)
