"""Classical TSO transition system: configurations, process steps, update steps.

A configuration holds a labeling (per process), a register state, per-process
FIFO store buffers and the shared memory. Buffers are tuples of (var, value)
messages with index 0 the newest; writes prepend at index 0 and update steps
pop the oldest message from the tail. An update schedule is a word over
process names, executed front to back.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import NamedTuple

from . import lang
from .lang import Assign, Cas, Goto, If, Read, Term, Write


class Config(NamedTuple):
    labels: tuple          # label per process, by process index
    regs: tuple            # value per register, by global register index
    bufs: tuple            # per process: tuple of (var, value), newest first
    mem: tuple             # value per shared variable, by variable index


def initial_config(prog):
    """All processes at their first label, everything 0, buffers empty."""
    return Config(
        labels=tuple(p.instrs[0].label for p in prog.processes),
        regs=(0,) * len(prog.tables["reg_index"]),
        bufs=((),) * len(prog.processes),
        mem=(0,) * len(prog.vars),
    )


def size(c):
    return sum(len(b) for b in c.bufs)


def is_plain(c):
    return all(not b for b in c.bufs)


def _resolve_proc(prog, proc):
    return proc if isinstance(proc, int) else prog.proc_index(proc)


def _eval_expr(prog, regs, expr):
    tb = prog.tables["reg_index"]
    match expr:
        case lang.Const(value=v):
            return v
        case lang.Reg(reg=r):
            return regs[tb[r]]
        case lang.Add(left=a, right=b):
            return (regs[tb[a]] + regs[tb[b]]) % prog.domain_size
        case lang.Eq(left=a, right=b):
            return 1 if regs[tb[a]] == regs[tb[b]] else 0
    raise AssertionError(expr)


# What a process step takes from and gives to the store. A configuration is
# its local part (labels, regs) and its store part (bufs, mem); process_step
# below is the one definition of every statement, and STORE_ACCESS says, per
# statement type, which part of the store a step needs, so that a caller may
# keep the steps of a local part once (reach.ReachOracle.successors does):
#   LOCAL  Assign, If, Goto: a new local part; the store is left as it is.
#   WRITE  Write x := r: a new local part, and the message (x, regs[r])
#          pushed onto the process's own buffer as its newest entry (push).
#   READ   Read r := x: a new local part, which depends on one value seen,
#          the newest entry for x in its own buffer, else mem[x] (seen_value).
#   CAS    enabled only when its own buffer is empty; its outcome depends on
#          mem[x], which it writes when the comparison holds.
#   TERM   never enabled.
# No process enabled means the update step runs alone.
LOCAL, WRITE, READ, CAS, TERM = "local", "write", "read", "cas", "term"
STORE_ACCESS = {Assign: LOCAL, If: LOCAL, Goto: LOCAL, Write: WRITE, Read: READ,
                Cas: CAS, Term: TERM}


def push(bufs, pi, msg):
    """bufs with msg written by process pi: its buffer's newest entry."""
    return bufs[:pi] + ((msg,) + bufs[pi],) + bufs[pi + 1:]


def seen_value(buf, mem, x, xi):
    """The value a read of variable x (index xi) sees: the newest entry for
    x in the reader's own buffer buf, else mem[xi]."""
    for bx, bv in buf:
        if bx == x:
            return bv
    return mem[xi]


def enabled_indices(prog, c):
    """Indices of the processes that may take a step in c: every process
    except those at `term` and those at a CAS with a nonempty buffer."""
    out = []
    for pi in range(len(prog.processes)):
        access = STORE_ACCESS[type(prog.stmt_at(c.labels[pi]))]
        if not (access is TERM or (access is CAS and c.bufs[pi])):
            out.append(pi)
    return out


def process_step(prog, c, proc):
    """One process transition of an enabled process (no update step)."""
    pi = _resolve_proc(prog, proc)
    tables = prog.tables
    label = c.labels[pi]
    stmt = prog.stmt_at(label)
    rix = tables["reg_index"]
    vix = tables["var_index"]

    def with_label(new_label, regs=None, bufs=None, mem=None):
        labels = list(c.labels)
        labels[pi] = new_label
        return Config(tuple(labels),
                      c.regs if regs is None else regs,
                      c.bufs if bufs is None else bufs,
                      c.mem if mem is None else mem)

    match stmt:
        case Write(var=x, reg=r):
            return with_label(lang.next_label(prog, label),
                              bufs=push(c.bufs, pi, (x, c.regs[rix[r]])))
        case Read(reg=r, var=x):
            regs = list(c.regs)
            regs[rix[r]] = seen_value(c.bufs[pi], c.mem, x, vix[x])
            return with_label(lang.next_label(prog, label), regs=tuple(regs))
        case Assign(reg=r, expr=e):
            regs = list(c.regs)
            regs[rix[r]] = _eval_expr(prog, c.regs, e)
            return with_label(lang.next_label(prog, label), regs=tuple(regs))
        case Cas(reg_out=o, var=x, reg_cmp=rc, reg_new=rn):
            if c.bufs[pi]:
                raise ValueError(f"process {prog.processes[pi].name!r} is disabled: CAS with nonempty buffer")
            regs = list(c.regs)
            if c.mem[vix[x]] == c.regs[rix[rc]]:
                mem = list(c.mem)
                mem[vix[x]] = c.regs[rix[rn]]
                regs[rix[o]] = 1
                return with_label(lang.next_label(prog, label), regs=tuple(regs), mem=tuple(mem))
            regs[rix[o]] = 0
            return with_label(lang.next_label(prog, label), regs=tuple(regs))
        case If(reg=r, target=t):
            if c.regs[rix[r]] != 0:
                return with_label(t)
            return with_label(lang.next_label(prog, label))
        case Goto(target=t):
            return with_label(t)
        case Term():
            raise ValueError(f"process {prog.processes[pi].name!r} is disabled: at `term`")
    raise AssertionError(stmt)


def may_reach_label(prog, init, label):
    """A sound over-approximation of label reachability (Kuperstein, Vechev
    & Yahav, PLDI 2011): a predicate on the configurations reachable from
    init, False only where no configuration bearing `label` is reachable.

    Each process's local part is explored exactly and alone, with one
    may-value set per variable for the store, seeded from init's memory and
    buffers. A step is process_step with empty buffers and, for a Read or a
    CAS, each may-value in memory, so a CAS may both succeed and fail; what
    a step leaves in the store joins the may-sets, and the readers of a
    grown set step again, to a fixpoint. The predicate holds at c when the
    label owner's label and registers in c can reach the label in the
    owner's abstract steps.
    """
    vix, owner = prog.tables["var_index"], prog.tables["label_pos"][label][0]
    lo = sum(len(p.regs) for p in prog.processes[:owner])
    hi = lo + len(prog.processes[owner].regs)
    may = [set() for _ in prog.vars]
    readers = [[] for _ in prog.vars]      # variable index -> nodes reading it
    empty = ((),) * len(prog.processes)
    work = []                              # (node, value read or None)
    preds = {}                             # node (process, local part) -> its predecessors

    def add(xi, v):
        if v not in may[xi]:
            may[xi].add(v)
            work.extend((node, v) for node in readers[xi])

    def visit(node):
        if node not in preds:
            preds[node] = set()
            stmt = prog.stmt_at(node[1][0][node[0]])
            access = STORE_ACCESS[type(stmt)]
            if access is READ or access is CAS:
                readers[vix[stmt.var]].append(node)
                work.extend((node, v) for v in may[vix[stmt.var]])
            elif access is not TERM:
                work.append((node, None))

    for x, v in itertools.chain(zip(prog.vars, init.mem), *init.bufs):
        add(vix[x], v)
    for pi in range(len(prog.processes)):
        visit((pi, (init.labels, init.regs)))
    while work:
        node, v = work.pop()
        pi, (labels, regs) = node
        mem = init.mem
        if v is not None:
            xi = vix[prog.stmt_at(labels[pi]).var]
            mem = mem[:xi] + (v,) + mem[xi + 1:]
        nxt = process_step(prog, Config(labels, regs, empty, mem), pi)
        for x, w in itertools.chain(zip(prog.vars, nxt.mem), nxt.bufs[pi]):
            add(vix[x], w)
        succ = (pi, (nxt.labels, nxt.regs))
        visit(succ)
        preds[succ].add(node)
    reaching = {node for node in preds if node[0] == owner and node[1][0][owner] == label}
    stack = list(reaching)
    while stack:
        for p in preds[stack.pop()]:
            if p not in reaching:
                reaching.add(p)
                stack.append(p)
    live = {(labels[owner], regs[lo:hi]) for _, (labels, regs) in reaching}
    return lambda c: (c.labels[owner], c.regs[lo:hi]) in live


def pop(prog, store, pi):
    """The store part (bufs, mem) after one update letter: process pi's
    oldest message, the last entry of its nonempty buffer, written to
    memory."""
    bufs, mem = store
    buf = bufs[pi]
    x, v = buf[-1]
    xi = prog.tables["var_index"][x]
    return (bufs[:pi] + (buf[:-1],) + bufs[pi + 1:],
            mem if mem[xi] == v else mem[:xi] + (v,) + mem[xi + 1:])


def apply_schedule(prog, c, word):
    """Execute an update schedule: one pop per letter, front of the word
    first."""
    store = (c.bufs, c.mem)
    for proc in word:
        pi = _resolve_proc(prog, proc)
        if not store[0][pi]:
            raise ValueError(f"infeasible schedule: process {prog.processes[pi].name!r} buffer exhausted")
        store = pop(prog, store, pi)
    return Config(c.labels, c.regs, *store)


def update_word_counts_by_length(buffer_lengths):
    """Number of feasible update words of each length, for given buffer sizes.

    Words of length L are the multinomials L! / prod(k_i!) summed over the
    suffix-length vectors k with sum L, built one buffer at a time: a word
    over the earlier buffers of length t and k letters of the next
    interleave in C(t + k, k) ways.
    """
    counts = {0: 1}
    for ln in buffer_lengths:
        out = {}
        for t, a in counts.items():
            for k in range(ln + 1):
                out[t + k] = out.get(t + k, 0) + a * comb(t + k, k)
        counts = out
    return counts


def update_successors(prog, store):
    """The update step from a store part (bufs, mem); labels and registers
    never affect it. Counts the feasible update words on the lattice of
    pop-count vectors j <= lens, without walking the words, and keeps
    nothing between calls.

    A state (j, m) carries [number of words reaching it, lexicographically
    first such word]; popping process p's next-oldest message (x, v) moves
    it to (j + e_p, m[x := v]). Each level is visited in first-word order
    and the letters in process order, so a state is first met through its
    first word, and the next level comes out in first-word order too.

    Returns (row, total): row maps each successor store part to [number of
    words reaching it, first such word as process indices], sorted by store
    part; total is the number of feasible words.
    """
    bufs, mem = store
    vix = prog.tables["var_index"]
    lens = [len(b) for b in bufs]
    # Oldest-first pop streams per process, as (variable index, value).
    streams = [[(vix[x], v) for x, v in reversed(b)] for b in bufs]
    procs = range(len(bufs))
    level = {((0,) * len(bufs), mem): [1, ()]}
    row = {(bufs, mem): [1, ()]}
    total = 1
    for _ in range(sum(lens)):
        nxt = {}
        for (j, m), (n, word) in level.items():
            for p in procs:
                k = j[p]
                if k == lens[p]:
                    continue
                xi, v = streams[p][k]
                key = (j[:p] + (k + 1,) + j[p + 1:],
                       m if m[xi] == v else m[:xi] + (v,) + m[xi + 1:])
                entry = nxt.get(key)
                if entry is None:
                    nxt[key] = [n, word + (p,)]
                else:
                    entry[0] += n
        for (j, m), entry in nxt.items():
            row[tuple(b[: len(b) - k] if k else b for b, k in zip(bufs, j)), m] = entry
            total += entry[0]
        level = nxt
    return dict(sorted(row.items())), total


def step_successors(prog, c):
    """Successor set of the full (process; update) transition relation.

    Returns a dict mapping each successor to its witness step (process,
    word): the name of the first process (by index) whose step reaches it,
    or None when c is disabled and only the update step runs, and the first
    update word from that step, as process indices.
    """
    out = {}
    new = tuple.__new__        # skips Config's keyword-handling constructor
    for pi in enabled_indices(prog, c) or [None]:
        mid = c if pi is None else process_step(prog, c, pi)
        name = None if pi is None else prog.processes[pi].name
        local = (mid.labels, mid.regs)
        for store, (_, word) in update_successors(prog, (mid.bufs, mid.mem))[0].items():
            out.setdefault(new(Config, local + store), (name, word))
    return out


# --- Canonical JSON rendering ---

def config_to_json(prog, c):
    rix = prog.tables["reg_index"]
    return {
        "labels": {p.name: c.labels[i] for i, p in enumerate(prog.processes)},
        "regs": {r: c.regs[i] for r, i in rix.items()},
        "bufs": {p.name: [[x, v] for x, v in c.bufs[i]] for i, p in enumerate(prog.processes)},
        "mem": {x: c.mem[i] for i, x in enumerate(prog.vars)},
    }


def config_from_json(prog, obj):
    """Inverse of config_to_json. `labels` must name every process; missing
    registers, memory and buffers are 0 and empty. A malformed document
    raises ValueError."""
    tables = prog.tables
    if not isinstance(obj, dict) or "labels" not in obj:
        raise ValueError("configuration must be a JSON object with a 'labels' object")
    sec = {k: obj.get(k, {}) for k in ("labels", "regs", "bufs", "mem")}
    for k, v in sec.items():
        if not isinstance(v, dict):
            raise ValueError(f"configuration {k!r} must be a JSON object")
    names = [p.name for p in prog.processes]
    for k in ("labels", "bufs"):
        for name in sec[k]:
            if name not in names:
                raise ValueError(f"unknown process {name!r} in {k!r}")
    labels = []
    for pi, name in enumerate(names):
        if name not in sec["labels"]:
            raise ValueError(f"no label for process {name!r}")
        lbl = sec["labels"][name]
        if not isinstance(lbl, str) or tables["label_pos"].get(lbl, (None,))[0] != pi:
            raise ValueError(f"label {lbl!r} does not belong to process {name!r}")
        labels.append(lbl)
    regs = [0] * len(tables["reg_index"])
    for r, v in sec["regs"].items():
        if r not in tables["reg_index"]:
            raise ValueError(f"unknown register {r!r}")
        regs[tables["reg_index"][r]] = _check_value(prog, v)
    mem = [0] * len(prog.vars)
    for x, v in sec["mem"].items():
        if x not in tables["var_index"]:
            raise ValueError(f"unknown variable {x!r} in memory")
        mem[tables["var_index"][x]] = _check_value(prog, v)
    bufs = []
    for name in names:
        entries = sec["bufs"].get(name, [])
        if not isinstance(entries, list):
            raise ValueError(f"buffer of process {name!r} must be a JSON array")
        buf = []
        for entry in entries:
            if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)):
                raise ValueError(f"buffer entry {entry!r} is not a [variable, value] pair")
            x, v = entry
            if x not in tables["var_index"]:
                raise ValueError(f"unknown variable {x!r} in buffer")
            buf.append((x, _check_value(prog, v)))
        bufs.append(tuple(buf))
    return Config(tuple(labels), tuple(regs), tuple(bufs), tuple(mem))


def _check_value(prog, v):
    if type(v) is not int or not 0 <= v < prog.domain_size:    # JSON true is no value
        raise ValueError(f"value {v!r} outside domain 0..{prog.domain_size - 1}")
    return v
