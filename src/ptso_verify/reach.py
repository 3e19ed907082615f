"""Bounded reachability oracle and plain/B-plain configuration enumeration.

Exact unbounded-buffer reachability is replaced by exhaustive forward
exploration of the buffer-size-bounded transition system: successors whose
total buffered-message count exceeds the bound are pruned, everything kept is
explored exhaustively, so answers are exact for the bounded sub-system. A
query that found nothing while pruning occurred is No under AssumeNo (the
default, with the bound stamped on the answer) or Unknown under strict mode.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace

from . import markov, semantics
from .errors import OracleUnknownError
from .semantics import Config


@dataclass(frozen=True)
class OracleConfig:
    bound: int = 8                 # K
    strict: bool = False           # False: AssumeNo; True: ReportUnknown

    def __post_init__(self):
        if self.bound < 1:
            raise ValueError("bound must be >= 1")


@dataclass
class ReachAnswer:
    path: list | None              # yes: [{"proc", "schedule", "config"}...]; no: None
    bound: int
    pruned: bool

    @property
    def is_yes(self):
        return self.path is not None


@dataclass
class Exploration:
    """Forward closure of one root in the K-bounded system; node i is configs[i]."""

    root: int
    bound: int
    succs: dict                    # id -> tuple of successor ids, in BFS order
    pruned_at: frozenset           # ids with a successor pruned by the bound
    configs: list = field(repr=False)   # the oracle's id -> config list
    _preds: dict = field(default=None, repr=False)
    _reaching: dict = field(default_factory=dict, repr=False)

    @property
    def nodes(self):
        """The explored ids: the keys of `succs`."""
        return self.succs.keys()

    @property
    def pruned(self):
        return bool(self.pruned_at)

    def in_witness_order(self, ids):
        """ids sorted by their configurations: the order every witness, scan
        candidate and B-plain list is chosen in, whatever the ids."""
        return sorted(ids, key=self.configs.__getitem__)

    def preds(self):
        if self._preds is None:
            preds = {c: [] for c in self.nodes}
            for c, succs in self.succs.items():
                for s in succs:
                    preds[s].append(c)
            self._preds = preds
        return self._preds

    def reaching(self, target):
        """{id: its fewest steps to `target`} over the explored ids that can
        reach it, by one backward BFS over `preds()`; `target` is a label (a
        configuration bearing it) or a frozenset of ids."""
        got = self._reaching.get(target)
        if got is None:
            hits = (target if isinstance(target, frozenset)
                    else (c for c in self.nodes if target in self.configs[c].labels))
            preds, got = self.preds(), {t: 0 for t in hits if t in self.succs}
            queue = list(got)
            for c in queue:             # grows while read: the BFS queue
                d = got[c] + 1
                for p in preds[c]:
                    if p not in got:
                        got[p] = d
                        queue.append(p)
            self._reaching[target] = got
        return got

    def bottom_sccs(self):
        out = []
        for comp in _tarjan(self.nodes, self.succs):
            members = set(comp)
            if all(s in members for c in comp for s in self.succs[c]):
                out.append(members)
        return out

    def path_to(self, prog, target):
        """BFS-tree witness path from the root to id `target`, replayable. A
        node's parent is its first predecessor (`succs` is in BFS order), its
        process and schedule the witness step step_successors gives."""
        preds, configs = self.preds(), self.configs
        steps = []
        c = target
        while c != self.root:
            pred = preds[c][0]
            proc, word = semantics.step_successors(prog, configs[pred])[configs[c]]
            steps.append({"proc": proc,
                          "schedule": [prog.processes[pi].name for pi in word],
                          "config": semantics.config_to_json(prog, configs[c])})
            c = pred
        steps.reverse()
        return steps


def pruned_note(pruned, bound):
    """What an answer decided on an exploration at `bound` rests on, to
    append to its message: nothing if nothing was pruned, else the bound."""
    if not pruned:
        return ""
    return f" within bound {bound} (exploration pruned; rerun with a larger --bound)"


def _tarjan(nodes, succs):
    """Iterative Tarjan SCC. Components come out sinks first: an edge never
    points to a component emitted later."""
    index = {}
    low = {}
    onstack = set()
    stack = []
    comps = []
    counter = [0]
    for start in nodes:
        if start in index:
            continue
        work = [(start, iter(succs[start]))]
        index[start] = low[start] = counter[0]
        counter[0] += 1
        stack.append(start)
        onstack.add(start)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = low[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    onstack.add(succ)
                    work.append((succ, iter(succs[succ])))
                    advanced = True
                    break
                if succ in onstack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                comps.append(comp)
    return comps


class ReachOracle:
    """Memoizing reachability oracle over the bounded transition system.

    One oracle serves one analysis at a time; its configuration, local and
    store ids, step tables, transition rows and explorations are shared by
    every query against the same program. Every analysis asks it, and only
    it, whether a configuration can reach a label and whether a pruned
    exploration makes an answer Unknown. Its queries take and give
    configuration ids: intern(c) is the one way in, configs[i] the one way
    out.
    """

    def __init__(self, prog, config=None):
        self.prog = prog
        self.config = config or OracleConfig()
        self._ids = []             # store id -> {local id: the id of that pair's config}
        self.configs = []          # id -> config
        self._lids = []            # id -> the local id of its config
        self._sids = []            # id -> the store id of its config
        self.sizes = []            # id -> its store's size, semantics.size of its config
        self._rows = []            # id -> its row, or None until asked
        self._local_ids = {}       # local part (labels, regs) -> its id
        self._locals = []          # local id -> local part
        self._moves = []           # local id -> its process steps (_moves_of), or None
        self._store_ids = {}       # store part (bufs, mem) -> its id
        self._stores = []          # store id -> store part
        self._store_sizes = []     # store id -> buffered messages in it
        self._updates = []         # store id -> its update step (_update_step), or None
        self._explorations = {}    # root id -> its exploration
        self._home = {}            # id -> an exploration holding it

    # -- one-step structure --

    def _store_id(self, store):
        got = self._store_ids.get(store)
        if got is None:
            got = self._store_ids[store] = len(self._stores)
            self._stores.append(store)
            self._store_sizes.append(sum(map(len, store[0])))
            self._updates.append(None)
            self._ids.append({})
        return got

    def _update_step(self, sid):
        """The update step from store id sid, kept, from one
        semantics.update_successors call: (its successor store ids in store
        order, their word counts, the number of words). explore walks the
        ids; row reads all three."""
        row, total = semantics.update_successors(self.prog, self._stores[sid])
        got = self._updates[sid] = (tuple(map(self._store_id, row)),
                                    tuple(n for n, _ in row.values()), total)
        return got

    def _local_of(self, c):
        """The id of c's local part (labels, regs), given on first sight."""
        local = (c.labels, c.regs)
        got = self._local_ids.get(local)
        if got is None:
            got = self._local_ids[local] = len(self._locals)
            self._locals.append(local)
            self._moves.append(None)
        return got

    def _moves_of(self, lid, c):
        """The process steps of local id lid, filled from c, a configuration
        with that local part, and kept: which processes can move and what
        each move does, by semantics.STORE_ACCESS. One (process, access,
        what) per process that can move, in process order:
        - LOCAL (Assign, If, Goto): what is the local id the step gives; the
          store stays;
        - WRITE: (local id, message); the step pushes the message onto the
          process's buffer;
        - READ: (x, index of x, {value seen: local id}), the dict filled as
          values are seen;
        - CAS: None; each step is taken by process_step.
        A process at `term` has none."""
        prog, local_of = self.prog, self._local_of
        moves = []
        for pi, label in enumerate(c.labels):
            stmt = prog.stmt_at(label)
            access = semantics.STORE_ACCESS[type(stmt)]
            if access is semantics.LOCAL:
                what = local_of(semantics.process_step(prog, c, pi))
            elif access is semantics.WRITE:
                mid = semantics.process_step(prog, c, pi)
                what = (local_of(mid), mid.bufs[pi][0])
            elif access is semantics.READ:
                what = (stmt.var, prog.tables["var_index"][stmt.var], {})
            elif access is semantics.CAS:
                what = None
            else:
                continue
            moves.append((pi, access, what))
        got = self._moves[lid] = tuple(moves)
        return got

    def successors(self, i):
        """The process steps of configs[i] in process order, as (local part,
        local id, store id, process): one per enabled process, or configs[i]
        itself with process None when none is enabled. A configuration is its
        local part (labels, regs) joined with its store part (bufs, mem). The
        steps are read from the table of its local id (_moves_of);
        process_step runs only for a value a Read has not seen before and for
        a CAS. The update step leaves the local part alone, so each local
        part here, in turn joined with each store the update step reaches
        from its store, gives step_successors(configs[i])."""
        prog, locals_, store_id, local_of = (
            self.prog, self._locals, self._store_id, self._local_of)
        c, lid, sid = self.configs[i], self._lids[i], self._sids[i]
        moves = self._moves[lid]
        if moves is None:
            moves = self._moves_of(lid, c)
        bufs, mem = c.bufs, c.mem
        out = []
        for pi, access, what in moves:
            if access is semantics.LOCAL:
                j, s = what, sid
            elif access is semantics.WRITE:
                j, msg = what
                s = store_id((semantics.push(bufs, pi, msg), mem))
            elif access is semantics.READ:
                x, xi, seen = what
                v = semantics.seen_value(bufs[pi], mem, x, xi)
                j, s = seen.get(v), sid
                if j is None:
                    j = seen[v] = local_of(semantics.process_step(prog, c, pi))
            elif bufs[pi]:         # a CAS waits for its own buffer to drain
                continue
            else:
                mid = semantics.process_step(prog, c, pi)
                j, s = local_of(mid), store_id((mid.bufs, mid.mem))
            out.append((locals_[j], j, s, pi))
        if not out:
            return [(locals_[lid], lid, sid, None)]
        # Every process step moves its own process's label (no self-jumps),
        # so the local parts are distinct; explore's sort by local part
        # would otherwise need to merge two steps' stores.
        if len({j for _, j, _, _ in out}) < len(out):
            raise AssertionError(f"two process steps from {c} give one local part")
        return out

    def intern(self, c):
        """The integer id of configuration c, given on first sight: c equals
        configs[id], and its size is sizes[id]. c is looked up by the ids of
        its local part and its store part."""
        return self.node(self._local_of(c), self._store_id((c.bufs, c.mem)))

    def node(self, lid, sid):
        """The id of the configuration joining local id lid with store id
        sid, given on first sight. Only here is a configuration built, and
        only for a new id; row and explore look a known one up in _ids
        inline and call this only when it is missing, Monte Carlo always."""
        ids = self._ids[sid]
        got = ids.get(lid)
        if got is None:
            got = ids[lid] = len(self.configs)
            # tuple.__new__ skips Config's keyword-handling constructor
            self.configs.append(tuple.__new__(Config, self._locals[lid] + self._stores[sid]))
            self._lids.append(lid)
            self._sids.append(sid)
            self.sizes.append(self._store_sizes[sid])
            self._rows.append(None)
        return got

    def row(self, i):
        """The step distribution at configs[i] as integer weights over one
        denominator: (den, ((succ_id, weight), ...)) with weight/den the
        exact probability of the step, den the least common denominator and
        successors in first-reached order (process by index, then store
        order); the mass-propagation loops run on these. Each step's update
        step is the one explore walks (_update_step). Each successor is
        looked up by its (local id, store id) pair; no configuration is built
        for one that already has an id.

        The process at index pi is scheduled with probability w_pi / W (W the
        total weight of the enabled processes) and each update word from its
        intermediate store with probability 1 / T_pi, so over the common
        denominator W * lcm(T) the path through pi to a successor weighs
        w_pi * count * lcm(T) / T_pi; one gcd then reduces the row. With no
        process enabled the update step runs alone, as a process of weight
        1."""
        got = self._rows[i]
        if got is not None:
            return got
        prog, ids, updates, node = self.prog, self._ids, self._updates, self.node
        steps = [(1 if pi is None else prog.processes[pi].weight, lid,
                  updates[s] or self._update_step(s))
                 for _, lid, s, pi in self.successors(i)]
        words = math.lcm(*(total for *_, (_, _, total) in steps))
        acc = {}
        for w, lid, (sids, counts, total) in steps:
            scale = w * (words // total)
            for s, n in zip(sids, counts):
                j = ids[s].get(lid)
                if j is None:
                    j = node(lid, s)
                acc[j] = acc.get(j, 0) + n * scale
        den = sum(w for w, *_ in steps) * words
        if sum(acc.values()) != den:
            raise ValueError("distribution does not sum to 1")
        if not all(n > 0 for n in acc.values()):
            raise ValueError("distribution has nonpositive mass")
        g = math.gcd(den, *acc.values())
        got = self._rows[i] = (den // g, tuple((j, n // g) for j, n in acc.items()))
        return got

    def distribution(self, c):
        """The step distribution at c as exact Fractions keyed by
        configuration, a view of row(intern(c))."""
        return markov.step_distribution(self.row(self.intern(c)), self.configs)

    # -- bounded exploration --

    def explore(self, root):
        """The exploration from id `root`."""
        got = self._explorations.get(root)
        if got is not None:
            return got
        bound, sizes, ids, updates = (
            self.config.bound, self._store_sizes, self._ids, self._updates)
        seen = {root}              # the ids discovered so far
        queue = [root]             # FIFO, appended to while it is walked
        succs = {}
        pruned_at = set()
        node, update_step = self.node, self._update_step
        for i in queue:
            kept = []
            for _, lid, sid, _ in sorted(self.successors(i)):
                for s in (updates[sid] or update_step(sid))[0]:
                    # an edge is pruned exactly when it leads over the bound,
                    # back to an over-bound --init root included
                    if sizes[s] > bound:
                        pruned_at.add(i)
                        continue
                    j = ids[s].get(lid)
                    if j is None:
                        j = node(lid, s)
                    if j not in seen:
                        seen.add(j)
                        queue.append(j)
                    kept.append(j)
            succs[i] = tuple(kept)
        got = Exploration(root, bound, succs, frozenset(pruned_at), self.configs)
        self._explorations[root] = got
        # A node's forward cone does not depend on the root it was reached
        # from, so any exploration holding it answers for it.
        for i in succs:
            self._home.setdefault(i, got)
        return got

    def checked(self, root, what):
        """explore(root); in strict mode a pruned exploration makes `what`,
        the result resting on it, Unknown."""
        ex = self.explore(root)
        if ex.pruned and self.config.strict:
            raise OracleUnknownError(
                f"{what} unknown: exploration pruned at bound {ex.bound}; rerun with a larger --bound")
        return ex

    # -- can-reach --

    def cone_roots(self, i):
        """The ids whose bounded cones make up i's, for i over the bound and
        held by no exploration: explore(i) would prune every edge back to i,
        so i's cone is i plus the cones of its successors within the bound,
        and those are the roots, in first-reached order. Read from row(i),
        which is cached, so a mass loop expanding i reuses it."""
        bound, sizes = self.config.bound, self.sizes
        return [j for j, _ in self.row(i)[1] if sizes[j] <= bound]

    def can_reach(self, i, target):
        """Can id i reach `target`, a label or a frozenset of ids? For a
        label this is reaches_label(configs[i], label).is_yes without a
        witness path. In strict mode a No that rests on a pruned cone raises
        OracleUnknownError."""
        ex = self._home.get(i)
        if ex is None and self.sizes[i] <= self.config.bound:
            ex = self.explore(i)
        if ex is None:
            # i is over the bound and no exploration holds it: decided from
            # its cone roots without exploring it. Its empty update word
            # leaves a successor over the bound, so a No is always pruned.
            # (Loops, not generators: a closure here would slow every call.)
            if (i in target) if isinstance(target, frozenset) else (target in self.configs[i].labels):
                return True
            for s in self.cone_roots(i):
                if s in (self._home.get(s) or self.explore(s)).reaching(target):
                    return True
        elif i in ex.reaching(target):
            return True
        if self.config.strict and (ex is None or i in ex.reaching(ex.pruned_at)):
            what = "a configuration set" if isinstance(target, frozenset) else repr(target)
            raise OracleUnknownError(
                f"reachability of {what} unknown at bound {self.config.bound}; "
                "rerun with a larger --bound")
        return False

    def reaches_label(self, c, label, bound_max=None):
        """Is a configuration containing `label` reachable from c? A yes
        carries a replayable witness path; the answer is stamped with the
        bound of the exploration that decided it.

        Iterative deepening: a pruned No below `bound_max` is asked again of
        an oracle at twice the bound, capped at `bound_max` (bounds b, 2b,
        4b, ..., bound_max). In strict mode a pruned No at the last bound
        raises OracleUnknownError.
        """
        ex = self.explore(self.intern(c))
        hits = [ex.root] if label in c.labels else ex.in_witness_order(
            i for i in ex.nodes if label in self.configs[i].labels)
        if hits:
            return ReachAnswer(ex.path_to(self.prog, hits[0]), ex.bound, ex.pruned)
        if ex.pruned and bound_max is not None and ex.bound < bound_max:
            # Only explorations depend on the bound: the deeper oracle shares
            # every other table of this one, ids, steps and rows included.
            deeper = copy.copy(self)
            deeper.config = replace(self.config, bound=min(2 * ex.bound, bound_max))
            deeper._explorations, deeper._home = {}, {}
            return deeper.reaches_label(c, label, bound_max)
        if ex.pruned and self.config.strict:
            raise OracleUnknownError(
                f"reachability unknown at bound {ex.bound}; rerun with a larger --bound")
        return ReachAnswer(None, ex.bound, ex.pruned)

    # -- plain and B-plain enumeration --

    def bplain_configs(self, source=None):
        """The ids of the plain configurations in bottom SCCs of the bounded
        step graph from id `source` (default the initial configuration), in
        witness order.

        Equivalent to the definitional bottom SCCs of the plain-to-plain
        reachability relation: from any configuration some plain configuration
        is one flush-all step away, so a B-plain configuration's whole
        forward cone reaches back to it.
        """
        source = self.intern(semantics.initial_config(self.prog)) if source is None else source
        ex = self.checked(source, "B-plain set")
        return ex.in_witness_order(i for comp in ex.bottom_sccs() for i in comp
                                   if semantics.is_plain(self.configs[i]))
