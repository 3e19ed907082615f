"""Assembly-like concurrent program syntax: parse, validate, print, transform.

A program is a finite value domain, a set of shared variables and a list of
weighted processes, each a sequence of labeled instructions over its own
registers. Labels are globally unique; register sets of distinct processes
are disjoint.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field


DEFAULT_DOMAIN = 4

_KEYWORDS = {"domain", "vars", "proc", "weight", "regs", "if", "then", "term", "CAS", "goto"}
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_NAT_RE = re.compile(r"[0-9]+\Z")


class ProgramError(ValueError):
    """Invalid program text or structure."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


# --- Expressions ---

@dataclass(frozen=True)
class Const:
    value: int


@dataclass(frozen=True)
class Reg:
    reg: str


@dataclass(frozen=True)
class Add:
    left: str
    right: str


@dataclass(frozen=True)
class Eq:
    left: str
    right: str


Expr = Const | Reg | Add | Eq


# --- Statements ---

@dataclass(frozen=True)
class Write:
    var: str
    reg: str


@dataclass(frozen=True)
class Read:
    reg: str
    var: str


@dataclass(frozen=True)
class Assign:
    reg: str
    expr: Expr


@dataclass(frozen=True)
class Cas:
    reg_out: str
    var: str
    reg_cmp: str
    reg_new: str


@dataclass(frozen=True)
class If:
    reg: str
    target: str


@dataclass(frozen=True)
class Term:
    pass


@dataclass(frozen=True)
class Goto:
    """Unconditional jump; only produced by remove_label, never parsed."""

    target: str


Statement = Write | Read | Assign | Cas | If | Term | Goto


@dataclass(frozen=True)
class Instruction:
    label: str
    stmt: Statement


@dataclass(frozen=True)
class ProcessDef:
    name: str
    weight: int
    regs: tuple[str, ...]
    instrs: tuple[Instruction, ...]


@dataclass(frozen=True)
class Program:
    domain_size: int
    vars: tuple[str, ...]
    processes: tuple[ProcessDef, ...]
    _tables: dict = field(default=None, compare=False, repr=False, hash=False)

    def __post_init__(self):
        object.__setattr__(self, "_tables", None)
        _validate_structure(self)

    # Derived lookup tables, built once on demand.
    @property
    def tables(self):
        if self._tables is None:
            object.__setattr__(self, "_tables", _build_tables(self))
        return self._tables

    def labels(self):
        return self.tables["label_pos"].keys()

    def check_label(self, label):
        """Reject a target label that names no instruction."""
        if label not in self.tables["label_pos"]:
            raise ProgramError(f"unknown label {label!r}")

    def stmt_at(self, label):
        pi, ii = self.tables["label_pos"][label]
        return self.processes[pi].instrs[ii].stmt

    def proc_index(self, name):
        return self.tables["proc_index"][name]


def _build_tables(prog):
    label_pos = {}
    for pi, proc in enumerate(prog.processes):
        for ii, instr in enumerate(proc.instrs):
            label_pos[instr.label] = (pi, ii)
    reg_index = {}
    for proc in prog.processes:
        for r in proc.regs:
            reg_index[r] = len(reg_index)
    var_index = {x: i for i, x in enumerate(prog.vars)}
    proc_index = {p.name: i for i, p in enumerate(prog.processes)}
    return {
        "label_pos": label_pos,
        "reg_index": reg_index,
        "var_index": var_index,
        "proc_index": proc_index,
    }


def _expr_regs(expr):
    match expr:
        case Const():
            return ()
        case Reg(reg=r):
            return (r,)
        case Add(left=a, right=b) | Eq(left=a, right=b):
            return (a, b)
    raise AssertionError(expr)


def _stmt_regs(stmt):
    match stmt:
        case Write(reg=r):
            return (r,)
        case Read(reg=r):
            return (r,)
        case Assign(reg=r, expr=e):
            return (r, *_expr_regs(e))
        case Cas(reg_out=o, reg_cmp=c, reg_new=n):
            return (o, c, n)
        case If(reg=r):
            return (r,)
        case Term() | Goto():
            return ()
    raise AssertionError(stmt)


def _validate_structure(prog):
    """Invariants every Program (surface or transformed) must satisfy."""
    if prog.domain_size < 2:
        raise ProgramError(f"domain size must be >= 2, got {prog.domain_size}")
    if len(set(prog.vars)) != len(prog.vars):
        raise ProgramError("duplicate shared variable name")
    if not prog.processes:
        raise ProgramError("program has no processes")

    seen_labels = {}
    seen_regs = {}
    var_set = set(prog.vars)
    names = set()
    for proc in prog.processes:
        if proc.name in names:
            raise ProgramError(f"duplicate process name {proc.name!r}")
        names.add(proc.name)
        if proc.weight < 1:
            raise ProgramError(f"process {proc.name!r}: weight must be >= 1")
        if not proc.instrs:
            raise ProgramError(f"process {proc.name!r} has no instructions")
        for r in proc.regs:
            if r in seen_regs:
                raise ProgramError(f"register {r!r} declared by both {seen_regs[r]!r} and {proc.name!r}")
            if r in var_set:
                raise ProgramError(f"name {r!r} used as both variable and register")
            seen_regs[r] = proc.name
        for instr in proc.instrs:
            if instr.label in seen_labels:
                raise ProgramError(f"duplicate label {instr.label!r}")
            seen_labels[instr.label] = proc.name

    for proc in prog.processes:
        own_regs = set(proc.regs)
        for instr in proc.instrs:
            for r in _stmt_regs(instr.stmt):
                if r not in own_regs:
                    where = "undeclared" if r not in seen_regs else "foreign"
                    raise ProgramError(
                        f"label {instr.label!r}: {where} register {r!r} for process {proc.name!r}")
            match instr.stmt:
                case Write(var=x) | Read(var=x) | Cas(var=x):
                    if x not in var_set:
                        raise ProgramError(f"label {instr.label!r}: undeclared variable {x!r}")
                case Assign(expr=Const(value=v)):
                    if not 0 <= v < prog.domain_size:
                        raise ProgramError(
                            f"label {instr.label!r}: constant {v} outside domain 0..{prog.domain_size - 1}")
                case If(target=t):
                    if t not in seen_labels:
                        raise ProgramError(f"label {instr.label!r}: unknown branch target {t!r}")
                    if t == instr.label:
                        raise ProgramError(f"label {instr.label!r}: `if` may not target its own label")
                case Goto(target=t):
                    if t not in seen_labels:
                        raise ProgramError(f"label {instr.label!r}: unknown goto target {t!r}")
                    if t == instr.label:
                        raise ProgramError(f"label {instr.label!r}: `goto` may not target its own label")


def _validate_surface(prog):
    """Extra parse-time rules: one trailing `term` per process, no goto."""
    for proc in prog.processes:
        terms = [i.label for i in proc.instrs if isinstance(i.stmt, Term)]
        if not isinstance(proc.instrs[-1].stmt, Term):
            raise ProgramError(f"process {proc.name!r} does not end with `term`")
        if len(terms) != 1:
            raise ProgramError(f"process {proc.name!r} must contain exactly one `term`")
        for instr in proc.instrs:
            if isinstance(instr.stmt, Goto):
                raise ProgramError(f"label {instr.label!r}: goto is not surface syntax")


# --- Parsing ---

def _strip_comment(line):
    i = line.find("#")
    return line if i < 0 else line[:i]


def _check_name(tok, what, lineno):
    if not _IDENT_RE.match(tok):
        raise ProgramError(f"invalid {what} {tok!r}", lineno)
    if tok in _KEYWORDS:
        raise ProgramError(f"{what} {tok!r} is a reserved word", lineno)
    return tok


def parse_program(text):
    """Parse program text into a validated Program."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = _strip_comment(raw).strip()
        if stripped:
            lines.append((lineno, stripped))
    pos = 0

    def peek():
        return lines[pos] if pos < len(lines) else (len(text.splitlines()) + 1, None)

    domain = DEFAULT_DOMAIN
    lineno, line = peek()
    if line is None:
        raise ProgramError("empty program", lineno)
    if line.split()[0] == "domain":
        parts = line.split()
        if len(parts) != 2 or not _NAT_RE.match(parts[1]):
            raise ProgramError("expected `domain NAT`", lineno)
        domain = int(parts[1])
        pos += 1

    lineno, line = peek()
    if line is None or line.split()[0] != "vars":
        raise ProgramError("expected `vars` declaration", lineno)
    var_toks = line.split()[1:]
    if not var_toks:
        raise ProgramError("`vars` declares no variables", lineno)
    variables = tuple(_check_name(v, "variable name", lineno) for v in var_toks)
    var_set = set(variables)
    pos += 1

    processes = []
    while pos < len(lines):
        lineno, line = lines[pos]
        parts = line.split()
        if parts[0] != "proc":
            raise ProgramError(f"expected `proc`, got {parts[0]!r}", lineno)
        if len(parts) != 4 or parts[2] != "weight" or not _NAT_RE.match(parts[3]):
            raise ProgramError("expected `proc NAME weight NAT`", lineno)
        name = _check_name(parts[1], "process name", lineno)
        weight = int(parts[3])
        pos += 1

        lineno, line = peek()
        if line is None or line.split()[0] != "regs":
            raise ProgramError(f"process {name!r}: expected `regs` declaration", lineno)
        regs = tuple(_check_name(r, "register name", lineno) for r in line.split()[1:])
        pos += 1

        instrs = []
        while pos < len(lines):
            lineno, line = lines[pos]
            if line.split()[0] == "proc":
                break
            instrs.append(_parse_instr(line, lineno, var_set))
            pos += 1
        processes.append(ProcessDef(name, weight, regs, tuple(instrs)))

    prog = Program(domain, variables, tuple(processes))
    _validate_surface(prog)
    return prog


def _parse_instr(line, lineno, var_set):
    m = re.match(r"([A-Za-z_0-9]+)\s*:\s*(.+)\Z", line)
    if not m:
        raise ProgramError(f"expected `LABEL: stmt`, got {line!r}", lineno)
    label, body = m.group(1), m.group(2).strip()
    if not (_IDENT_RE.match(label) or _NAT_RE.match(label)):
        raise ProgramError(f"invalid label {label!r}", lineno)
    if label in _KEYWORDS:
        raise ProgramError(f"label {label!r} is a reserved word", lineno)
    return Instruction(label, _parse_stmt(body, lineno, var_set))


def _parse_stmt(body, lineno, var_set):
    """The statement's shape; its operands are checked by `_validate_structure`."""
    if body == "term":
        return Term()

    m = re.match(r"if\s+(\w+)\s+then\s+(\w+)\Z", body)
    if m:
        return If(*m.groups())

    m = re.match(r"(\w+)\s*:=\s*(.+)\Z", body)
    if not m:
        raise ProgramError(f"cannot parse statement {body!r}", lineno)
    lhs, rhs = m.group(1), m.group(2).strip()

    cas = re.match(r"CAS\s*\(\s*(\w+)\s*,\s*(\w+)\s*,\s*(\w+)\s*\)\Z", rhs)
    if cas:
        return Cas(lhs, *cas.groups())

    binop = re.match(r"(\w+)\s*(\+|==)\s*(\w+)\Z", rhs)
    if binop:
        a, op, b = binop.groups()
        return Assign(lhs, Add(a, b) if op == "+" else Eq(a, b))

    if _NAT_RE.match(rhs):
        if lhs in var_set:
            raise ProgramError(f"cannot assign a constant to shared variable {lhs!r}; write through a register", lineno)
        return Assign(lhs, Const(int(rhs)))

    if not re.match(r"\w+\Z", rhs):
        raise ProgramError(f"cannot parse right-hand side {rhs!r}", lineno)

    # The variable set alone tells `x := r`, `r := x` and `r := s` apart.
    if lhs in var_set:
        return Write(lhs, rhs)
    if rhs in var_set:
        return Read(lhs, rhs)
    return Assign(lhs, Reg(rhs))


# --- Printing ---

def _print_stmt(stmt):
    match stmt:
        case Write(var=x, reg=r):
            return f"{x} := {r}"
        case Read(reg=r, var=x):
            return f"{r} := {x}"
        case Assign(reg=r, expr=Const(value=v)):
            return f"{r} := {v}"
        case Assign(reg=r, expr=Reg(reg=s)):
            return f"{r} := {s}"
        case Assign(reg=r, expr=Add(left=a, right=b)):
            return f"{r} := {a} + {b}"
        case Assign(reg=r, expr=Eq(left=a, right=b)):
            return f"{r} := {a} == {b}"
        case Cas(reg_out=o, var=x, reg_cmp=c, reg_new=n):
            return f"{o} := CAS({x}, {c}, {n})"
        case If(reg=r, target=t):
            return f"if {r} then {t}"
        case Term():
            return "term"
        case Goto(target=t):
            raise ProgramError(f"goto {t!r} has no surface syntax; transformed programs are not printable")
    raise AssertionError(stmt)


def print_program(prog):
    """Render a Program back to its surface syntax (round-trips under parse)."""
    out = [f"domain {prog.domain_size}", "vars " + " ".join(prog.vars)]
    for proc in prog.processes:
        out.append(f"proc {proc.name} weight {proc.weight}")
        out.append("regs " + " ".join(proc.regs))
        for instr in proc.instrs:
            out.append(f"{instr.label}: {_print_stmt(instr.stmt)}")
    return "\n".join(out) + "\n"


# --- Transforms and label helpers ---

def next_label(prog, label):
    """Label of the textually following instruction in the same process."""
    pi, ii = prog.tables["label_pos"][label]
    proc = prog.processes[pi]
    if isinstance(proc.instrs[ii].stmt, Term):
        raise ProgramError(f"label {label!r} is a `term` instruction; it has no successor")
    return proc.instrs[ii + 1].label


def fresh_label(prog, base="__term"):
    existing = set(prog.labels())
    n = 0
    while f"{base}{n}" in existing:
        n += 1
    return f"{base}{n}"


def remove_label(prog, label):
    """The P (-) label transform: statement at `label` becomes a goto to a
    fresh trailing `term`, so reaching `label` halts the owning process."""
    prog.check_label(label)
    pi, ii = prog.tables["label_pos"][label]
    new = fresh_label(prog)
    proc = prog.processes[pi]
    instrs = list(proc.instrs)
    instrs[ii] = Instruction(label, Goto(new))
    instrs.append(Instruction(new, Term()))
    procs = list(prog.processes)
    procs[pi] = ProcessDef(proc.name, proc.weight, proc.regs, tuple(instrs))
    return Program(prog.domain_size, prog.vars, tuple(procs))
