"""Independent exact oracle for the tests: enumerate the full chain reachable
from a start configuration (no buffer bounding; the program must induce a
finite reachable chain) and solve absorption/cost equations with Fraction
Gaussian elimination. Deliberately does not share any algorithmic code with
the frontier-based analyses it validates.
"""

import itertools
from fractions import Fraction

from ptso_verify import semantics

MAX_STATES = 10_000


def update_successors(prog, c, kept=None):
    """The update step at configuration c: (counts, total), counts mapping
    each successor configuration to the number of update words reaching it
    and total the number of feasible words; semantics.update_successors of
    c's store part, joined with c's labels and registers. `kept`, a dict one
    search passes to each call, keeps the update step per store part."""
    store = (c.bufs, c.mem)
    kept = {} if kept is None else kept
    if store not in kept:
        kept[store] = semantics.update_successors(prog, store)
    row, total = kept[store]
    return {semantics.Config(c.labels, c.regs, *succ): n for succ, (n, _) in row.items()}, total


def step_distribution(prog, c, kept=None):
    """One full (process; update) step at c, composed here in Fractions from
    the process and update steps: process pi with probability weight/total
    over the enabled processes, then each update word from its intermediate
    configuration with probability 1/words. Successors in first-reached
    order; no process enabled means the update step alone. `kept` as
    update_successors takes it."""
    enabled = semantics.enabled_indices(prog, c)
    total = sum(prog.processes[pi].weight for pi in enabled)
    moves = [(Fraction(prog.processes[pi].weight, total), semantics.process_step(prog, c, pi))
             for pi in enabled] or [(Fraction(1), c)]
    dist = {}
    for p_sched, mid in moves:
        counts, words = update_successors(prog, mid, kept)
        for succ, n in counts.items():
            dist[succ] = dist.get(succ, 0) + p_sched * Fraction(n, words)
    assert sum(dist.values()) == 1
    return dist


def successors(prog, c, kept=None):
    """The support of step_distribution(prog, c), as a set, without its
    probabilities. `kept` as update_successors takes it."""
    mids = [semantics.process_step(prog, c, pi) for pi in semantics.enabled_indices(prog, c)]
    return {succ for mid in mids or [c] for succ in update_successors(prog, mid, kept)[0]}


def build_chain(prog, init, max_states=MAX_STATES):
    """(states, trans) with trans[i] = {j: prob}; exact and complete."""
    index = {init: 0}
    states = [init]
    trans = []
    todo = [init]
    kept = {}
    while todo:
        nxt = []
        for c in todo:
            row = {}
            for succ, p in step_distribution(prog, c, kept).items():
                j = index.get(succ)
                if j is None:
                    if len(states) >= max_states:
                        raise RuntimeError(f"chain exceeds {max_states} states")
                    j = len(states)
                    index[succ] = j
                    states.append(succ)
                    nxt.append(succ)
                row[j] = p
            trans.append(row)
        todo = nxt
    # rows are appended in BFS discovery order, which matches state indices
    assert len(trans) == len(states)
    return states, trans


def _predecessors(trans):
    preds = [[] for _ in trans]
    for i, row in enumerate(trans):
        for j in row:
            preds[j].append(i)
    return preds


def _can_reach(states, trans, target_idx):
    preds = _predecessors(trans)
    seen = set(target_idx)
    stack = list(target_idx)
    while stack:
        i = stack.pop()
        for p in preds[i]:
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return seen


def _solve(unknowns, coeff_rows, rhs):
    """Solve x_i - sum_j a_ij x_j = rhs_i for i in `unknowns` (sparse rows)."""
    order = sorted(unknowns)
    pos = {i: k for k, i in enumerate(order)}
    rows = []
    vec = []
    for i in order:
        row = {pos[i]: Fraction(1)}
        for j, a in coeff_rows[i].items():
            if j in pos:
                row[pos[j]] = row.get(pos[j], Fraction(0)) - a
        rows.append(row)
        vec.append(rhs[i])
    n = len(order)
    for col in range(n):
        piv = None
        for r in range(col, n):
            if rows[r].get(col):
                piv = r
                break
        assert piv is not None, "singular absorption system"
        rows[col], rows[piv] = rows[piv], rows[col]
        vec[col], vec[piv] = vec[piv], vec[col]
        pv = rows[col][col]
        for r in range(col + 1, n):
            f = rows[r].get(col)
            if not f:
                continue
            f = f / pv
            for j, a in rows[col].items():
                if j >= col:
                    cur = rows[r].get(j, Fraction(0)) - f * a
                    if cur:
                        rows[r][j] = cur
                    elif j in rows[r]:
                        del rows[r][j]
            vec[r] = vec[r] - f * vec[col]
    sol = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        acc = vec[r]
        for j, a in rows[r].items():
            if j > r:
                acc -= a * sol[j]
        sol[r] = acc / rows[r][r]
    return {i: sol[pos[i]] for i in order}


def reach_probabilities(prog, init, label, max_states=MAX_STATES, chain=None):
    """(states, trans, x) with x[i] = P(reach a label-bearing config from i);
    `chain` is build_chain(prog, init, max_states) unless given."""
    states, trans = chain or build_chain(prog, init, max_states)
    return states, trans, _absorption(states, trans,
                                      {i for i, s in enumerate(states) if label in s.labels})


def _absorption(states, trans, target):
    """x[i] = P(reach a state of `target` from i), solved exactly."""
    reaching = _can_reach(states, trans, target)
    x = {}
    unknowns = set()
    for i in range(len(states)):
        if i in target:
            x[i] = Fraction(1)
        elif i not in reaching:
            x[i] = Fraction(0)
        else:
            unknowns.add(i)
    if unknowns:
        coeff = {}
        rhs = {}
        for i in unknowns:
            coeff[i] = {j: p for j, p in trans[i].items() if j in unknowns}
            rhs[i] = sum((p * x[j] for j, p in trans[i].items() if j not in unknowns),
                         Fraction(0))
        x.update(_solve(unknowns, coeff, rhs))
    return x


def reach_probability(prog, init, label, max_states=MAX_STATES, chain=None):
    states, trans, x = reach_probabilities(prog, init, label, max_states, chain)
    return x[0]


def reach_within(prog, init, label, horizon, chain=None):
    """P(a label-bearing configuration within `horizon` steps of init,
    init itself included), exactly: `horizon` rounds of the vector
    iteration x_{t+1}[i] = 1 on label states, sum_j p_ij x_t[j] elsewhere,
    from x_0 = the label indicator."""
    states, trans = chain or build_chain(prog, init)
    target = [label in s.labels for s in states]
    x = [Fraction(int(t)) for t in target]
    for _ in range(horizon):
        x = [Fraction(1) if t else sum((p * x[j] for j, p in row.items()), Fraction(0))
             for t, row in zip(target, trans)]
    return x[0]


def _bottom_components(trans):
    """The bottom strongly connected components of the chain, as sets of
    state indices: Kosaraju's two passes (finish order on the graph, then
    components on its reverse), keeping the components no edge leaves."""
    n = len(trans)
    order, seen = [], [False] * n
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        stack = [(start, iter(trans[start]))]
        while stack:
            i, it = stack[-1]
            j = next((j for j in it if not seen[j]), None)
            if j is None:
                stack.pop()
                order.append(i)
            else:
                seen[j] = True
                stack.append((j, iter(trans[j])))
    preds = _predecessors(trans)
    placed = [False] * n
    bottoms = []
    for root in reversed(order):
        if placed[root]:
            continue
        members, todo = {root}, [root]
        placed[root] = True
        while todo:
            for p in preds[todo.pop()]:
                if not placed[p]:
                    placed[p] = True
                    members.add(p)
                    todo.append(p)
        if all(j in members for i in members for j in trans[i]):
            bottoms.append(members)
    return bottoms


def repeated_reach_probability(prog, init, label, chain=None):
    """P(label infinitely often) from init: a finite chain ends, almost
    surely, in a bottom SCC and visits each of its states infinitely often,
    so this is the probability of reaching a bottom SCC that holds a
    label-bearing configuration."""
    states, trans = chain or build_chain(prog, init)
    target = set()
    for members in _bottom_components(trans):
        if any(label in states[i].labels for i in members):
            target |= members
    return _absorption(states, trans, target)[0]


def _mover_label(prog, a, b):
    moved = [i for i, (la, lb) in enumerate(zip(a.labels, b.labels)) if la != lb]
    if not moved:
        return None
    assert len(moved) == 1
    return a.labels[moved[0]]


def conditional_expected_cost(prog, init, label, cost, max_states=MAX_STATES, chain=None):
    """(hit probability, conditional expected cost to first hit) from init."""
    states, trans, x = reach_probabilities(prog, init, label, max_states, chain)
    target = {i for i, s in enumerate(states) if label in s.labels}
    # z_i = E[cost to first hit; hit] ; z = 0 on targets and non-reaching states
    z = {}
    unknowns = set()
    for i in range(len(states)):
        if i in target or x[i] == 0:
            z[i] = Fraction(0)
        else:
            unknowns.add(i)
    if unknowns:
        coeff = {}
        rhs = {}
        for i in unknowns:
            coeff[i] = {j: p for j, p in trans[i].items() if j in unknowns}
            acc = Fraction(0)
            for j, p in trans[i].items():
                step = _mover_label(prog, states[i], states[j])
                if step is not None:
                    acc += p * cost[step] * x[j]
                if j not in unknowns:
                    acc += p * z[j]
            rhs[i] = acc
        z.update(_solve(unknowns, coeff, rhs))
    p0 = x[0]
    assert p0 > 0, "label unreachable; conditional cost undefined"
    return p0, z[0] / p0


def all_plain_configs(prog, cap=1_000_000):
    """Every plain configuration (All mode), capped by state-count."""
    label_lists = [tuple(i.label for i in p.instrs) for p in prog.processes]
    nregs = len(prog.tables["reg_index"])
    nvars = len(prog.vars)
    total = 1
    for ls in label_lists:
        total *= len(ls)
    total *= prog.domain_size ** (nregs + nvars)
    if total > cap:
        raise ValueError(f"plain-configuration space has {total} states, above cap {cap}")
    dom = range(prog.domain_size)
    out = []
    empty = ((),) * len(prog.processes)
    for labels in itertools.product(*label_lists):
        for regs in itertools.product(dom, repeat=nregs):
            for mem in itertools.product(dom, repeat=nvars):
                out.append(semantics.Config(labels, regs, empty, mem))
    return out
