"""Classical TSO transition system: configurations, process steps, update steps.

A configuration holds a labeling (per process), a register state, per-process
FIFO store buffers and the shared memory. Buffers are tuples of (var, value)
messages with index 0 the newest; writes prepend at index 0 and update steps
pop the oldest message from the tail. An update schedule is a word over
process names, executed front to back.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial
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


def enabled_indices(prog, c):
    """Indices of the processes that may take a step in c: every process
    except those at `term` and those at a CAS with a nonempty buffer."""
    out = []
    for pi in range(len(prog.processes)):
        stmt = prog.stmt_at(c.labels[pi])
        if not (isinstance(stmt, Term) or (isinstance(stmt, Cas) and c.bufs[pi])):
            out.append(pi)
    return out


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
            bufs = list(c.bufs)
            bufs[pi] = ((x, c.regs[rix[r]]),) + bufs[pi]
            return with_label(lang.next_label(prog, label), bufs=tuple(bufs))
        case Read(reg=r, var=x):
            buf = c.bufs[pi]
            val = None
            for bx, bv in buf:
                if bx == x:
                    val = bv
                    break
            if val is None:
                val = c.mem[vix[x]]
            regs = list(c.regs)
            regs[rix[r]] = val
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


def apply_schedule(prog, c, word):
    """Execute an update schedule: each letter pops the named process's oldest
    message into memory, front of the word first."""
    vix = prog.tables["var_index"]
    popped = [0] * len(prog.processes)
    mem = list(c.mem)
    for proc in word:
        pi = _resolve_proc(prog, proc)
        buf = c.bufs[pi]
        k = popped[pi]
        if k >= len(buf):
            raise ValueError(f"infeasible schedule: process {prog.processes[pi].name!r} buffer exhausted")
        x, v = buf[len(buf) - 1 - k]
        mem[vix[x]] = v
        popped[pi] = k + 1
    bufs = tuple(b[: len(b) - k] if k else b for b, k in zip(c.bufs, popped))
    return Config(c.labels, c.regs, bufs, tuple(mem))


def _interleavings(ks):
    """Distinct words with ks[p] letters p, lexicographically."""
    counts = list(ks)
    n = sum(ks)
    word = []

    def rec():
        if len(word) == n:
            yield tuple(word)
            return
        for p, k in enumerate(counts):
            if k:
                counts[p] -= 1
                word.append(p)
                yield from rec()
                word.pop()
                counts[p] += 1

    yield from rec()


def update_word_counts_by_length(buffer_lengths):
    """Number of feasible update words of each length, for given buffer sizes.

    Exact, via the exponential generating function of per-buffer suffix
    choices: words of length L = L! * [x^L] prod_i sum_{j<=len_i} x^j/j!.
    """
    poly = [Fraction(1)]
    for ln in buffer_lengths:
        factor = [Fraction(1, factorial(j)) for j in range(ln + 1)]
        out = [Fraction(0)] * (len(poly) + ln)
        for i, a in enumerate(poly):
            if a:
                for j, b in enumerate(factor):
                    out[i + j] += a * b
        poly = out
    counts = {}
    for ln, coeff in enumerate(poly):
        val = coeff * factorial(ln)
        if val:
            if val.denominator != 1:
                raise AssertionError(f"non-integer word count {val} for length {ln}")
            counts[ln] = val.numerator
    return counts


def _enumerate_updates(prog, bufs, mem):
    """Walk every feasible update word from (bufs, mem): suffix-length tuples
    in product order, then distinct interleavings lexicographically.

    Returns (row, total): row maps each successor (bufs, mem) to
    [number of words reaching it, first such word as process indices].
    """
    vix = prog.tables["var_index"]
    nprocs = len(bufs)
    row = {}
    total = 0
    # Oldest-first pop streams per process.
    streams = [tuple(reversed(b)) for b in bufs]
    for ks in itertools.product(*[range(len(b) + 1) for b in bufs]):
        succ_bufs = tuple(b[: len(b) - k] if k else b for b, k in zip(bufs, ks))
        for word in _interleavings(ks):
            total += 1
            m = list(mem)
            taken = [0] * nprocs
            for pi in word:
                x, v = streams[pi][taken[pi]]
                taken[pi] += 1
                m[vix[x]] = v
            key = (succ_bufs, tuple(m))
            entry = row.get(key)
            if entry is None:
                row[key] = [1, word]
            else:
                entry[0] += 1
    return row, total


def _update_row(prog, c):
    """The update step from c, enumerated once per (bufs, mem) pair and kept
    on the program: labels and registers never affect it."""
    memo = prog.tables["update_rows"]
    key = (c.bufs, c.mem)
    got = memo.get(key)
    if got is None:
        got = memo[key] = _enumerate_updates(prog, c.bufs, c.mem)
    return got


def update_successors(prog, c):
    """All update-step successors of c with their schedule counts.

    Returns (counts, total) where counts maps successor configurations to the
    number of update words reaching them and total is the number of feasible
    words.
    """
    row, total = _update_row(prog, c)
    counts = {Config(c.labels, c.regs, bufs, mem): n for (bufs, mem), (n, _) in row.items()}
    return counts, total


def witness_schedule(prog, mid, succ):
    """The first update word, in enumeration order, taking `mid` to its
    update successor `succ`, as process names."""
    row, _ = _update_row(prog, mid)
    return tuple(prog.processes[pi].name for pi in row[(succ.bufs, succ.mem)][1])


def step_successors(prog, c):
    """Successor set of the full (process; update) transition relation.

    Returns a dict successor -> the first process (by index) whose step
    reaches it, or None when c is disabled and only the update step runs.
    """
    out = {}
    for pi in enabled_indices(prog, c) or [None]:
        mid = c if pi is None else process_step(prog, c, pi)
        name = None if pi is None else prog.processes[pi].name
        for succ in update_successors(prog, mid)[0]:
            out.setdefault(succ, name)
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
    tables = prog.tables
    labels = []
    for pi, p in enumerate(prog.processes):
        lbl = obj["labels"][p.name]
        if tables["label_pos"].get(lbl, (None,))[0] != pi:
            raise ValueError(f"label {lbl!r} does not belong to process {p.name!r}")
        labels.append(lbl)
    regs = [0] * len(tables["reg_index"])
    for r, v in obj.get("regs", {}).items():
        regs[tables["reg_index"][r]] = _check_value(prog, v)
    mem = [0] * len(prog.vars)
    for x, v in obj.get("mem", {}).items():
        mem[tables["var_index"][x]] = _check_value(prog, v)
    bufs = []
    for p in prog.processes:
        entries = obj.get("bufs", {}).get(p.name, [])
        buf = []
        for x, v in entries:
            if x not in tables["var_index"]:
                raise ValueError(f"unknown variable {x!r} in buffer")
            buf.append((x, _check_value(prog, v)))
        bufs.append(tuple(buf))
    return Config(tuple(labels), tuple(regs), tuple(bufs), tuple(mem))


def _check_value(prog, v):
    if not isinstance(v, int) or not 0 <= v < prog.domain_size:
        raise ValueError(f"value {v!r} outside domain 0..{prog.domain_size - 1}")
    return v
