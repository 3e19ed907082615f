"""Bounded reachability oracle and plain/B-plain configuration enumeration.

Exact unbounded-buffer reachability is replaced by exhaustive forward
exploration of the buffer-size-bounded transition system: successors whose
total buffered-message count exceeds the bound are pruned, everything kept is
explored exhaustively, so answers are exact for the bounded sub-system. A
query that found nothing while pruning occurred is No under AssumeNo (the
default, with the bound stamped on the answer) or Unknown under strict mode.

An update word is a sequence of single pops, so an exploration walks the
pops of each process step's store instead of storing one edge per (process
step, update successor), and keeps the factored graph of
`exploration.Exploration`.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass, replace
from operator import itemgetter

from . import markov, semantics
from .errors import OracleUnknownError
from .exploration import Exploration
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


_STEP = itemgetter(1, 2, 3)         # a successors entry's (local id, store id, process)


def pruned_note(pruned, bound):
    """What an answer decided on an exploration at `bound` rests on, to
    append to its message: nothing if nothing was pruned, else the bound."""
    if not pruned:
        return ""
    return f" within bound {bound} (exploration pruned; rerun with a larger --bound)"


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
        self._own = {}             # (process, own label, own registers) -> its step (_moves_of)
        self._store_ids = {}       # store part (bufs, mem) -> its id
        self._stores = []          # store id -> store part
        self._store_sizes = []     # store id -> buffered messages in it
        self._pops = []            # store id -> its one-pop table (pops), or None
        self._updates = []         # store id -> its update step (_update_step), or None
        self._explorations = {}    # root id -> its exploration
        self._home = {}            # id -> an exploration holding it
        spans = itertools.accumulate((len(p.regs) for p in prog.processes), initial=0)
        self._reg_spans = list(itertools.pairwise(spans))   # process -> its slice of regs
        self._tables = (self._ids, self._locals, self._lids, self._sids, self._stores,
                        self._store_sizes, self._pops)

    # -- one-step structure --

    def _store_id(self, store):
        got = self._store_ids.get(store)
        if got is None:
            got = self._store_ids[store] = len(self._stores)
            self._stores.append(store)
            self._store_sizes.append(sum(map(len, store[0])))
            self._pops.append(None)
            self._updates.append(None)
            self._ids.append({})
        return got

    def pops(self, sid):
        """The one-pop table of store id sid, kept: the store id that
        semantics.pop gives for each nonempty buffer, in process order.
        Every update word is a walk through these tables."""
        got = self._pops[sid]
        if got is None:
            store = self._stores[sid]
            got = self._pops[sid] = tuple(self._store_id(semantics.pop(self.prog, store, pi))
                                          for pi, buf in enumerate(store[0]) if buf)
        return got

    def popped(self, i):
        """The ids of configs[i] after one update letter, one per nonempty
        buffer in process order."""
        lid = self._lids[i]
        return [self.node(lid, s) for s in self.pops(self._sids[i])]

    def _update_step(self, sid):
        """The update step from store id sid, kept, from one
        semantics.update_successors call: (its successor store ids in store
        order, their word counts, the number of words), for row."""
        row, total = semantics.update_successors(self.prog, self._stores[sid])
        got = self._updates[sid] = (tuple(map(self._store_id, row)),
                                    tuple(n for n, _ in row.values()), total)
        return got

    def _local_of(self, local):
        """The id of local part (labels, regs), given on first sight."""
        got = self._local_ids.get(local)
        if got is None:
            got = self._local_ids[local] = len(self._locals)
            self._locals.append(local)
            self._moves.append(None)
        return got

    def _spliced(self, lid, pi, own):
        """The local id of local id lid with process pi's label and
        registers replaced by own, a pair (label, registers)."""
        (labels, regs), (lo, hi) = self._locals[lid], self._reg_spans[pi]
        return self._local_of((labels[:pi] + own[:1] + labels[pi + 1:],
                               regs[:lo] + own[1] + regs[hi:]))

    def _own_part(self, c, pi):
        lo, hi = self._reg_spans[pi]
        return c.labels[pi], c.regs[lo:hi]

    def _moves_of(self, lid, c):
        """The process steps of local id lid, filled from c, a configuration
        with that local part, and kept: which processes can move and what
        each move does, by semantics.STORE_ACCESS. One (process, access,
        what) per process that can move, in process order:
        - LOCAL (Assign, If, Goto): what is the local id the step gives; the
          store stays;
        - WRITE: (local id, message); the step pushes the message onto the
          process's buffer;
        - READ: (x, index of x, {value seen: local id}, {value seen: own
          part}), the dicts filled as values are seen;
        - CAS: None; each step is taken by process_step.
        A process at `term` has none. lang rejects foreign registers and
        self-targeting jumps, so a step changes only its own process's label
        and registers, and depends on nothing else of the local part: each
        is kept once per (process, own label, own registers) in _own, as the
        own part it gives, from one process_step call, and spliced into
        lid's local part."""
        prog, own_of = self.prog, self._own
        labels, regs = self._locals[lid]
        moves = []
        for pi, label in enumerate(labels):
            stmt = prog.stmt_at(label)
            access = semantics.STORE_ACCESS[type(stmt)]
            if access is semantics.TERM:
                continue
            if access is semantics.CAS:
                moves.append((pi, access, None))
                continue
            lo, hi = self._reg_spans[pi]
            key = (pi, label, regs[lo:hi])
            own = own_of.get(key)
            if own is None:
                if access is semantics.READ:
                    own = {}
                else:
                    mid = semantics.process_step(prog, c, pi)
                    own = (self._own_part(mid, pi),
                           mid.bufs[pi][0] if access is semantics.WRITE else None)
                own_of[key] = own
            if access is semantics.READ:
                what = (stmt.var, prog.tables["var_index"][stmt.var], {}, own)
            elif access is semantics.LOCAL:
                what = self._spliced(lid, pi, own[0])
            else:
                what = (self._spliced(lid, pi, own[0]), own[1])
            moves.append((pi, access, what))
        got = self._moves[lid] = tuple(moves)
        return got

    def successors(self, i):
        """The process steps of configs[i] in process order, as (local part,
        local id, store id, process): one per enabled process, or configs[i]
        itself with process None when none is enabled. A configuration is its
        local part (labels, regs) joined with its store part (bufs, mem). The
        steps are read from the table of its local id (_moves_of);
        process_step runs only for a process state or a value read not seen
        before and for a CAS. The update step leaves the local part alone, so
        each local part here, in turn joined with each store the update step
        reaches from its store, gives step_successors(configs[i])."""
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
                x, xi, seen, own = what
                v = semantics.seen_value(bufs[pi], mem, x, xi)
                j, s = seen.get(v), sid
                if j is None:
                    part = own.get(v)
                    if part is None:
                        part = own[v] = self._own_part(semantics.process_step(prog, c, pi), pi)
                    j = seen[v] = self._spliced(lid, pi, part)
            elif bufs[pi]:         # a CAS waits for its own buffer to drain
                continue
            else:
                mid = semantics.process_step(prog, c, pi)
                j, s = local_of(mid[:2]), store_id(mid[2:])
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
        return self.node(self._local_of(c[:2]), self._store_id(c[2:]))

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
        order); the mass-propagation loops run on these. The process steps
        are those explore kept, else successors(i); each one's update step
        is counted once per store (_update_step). Each successor is looked
        up by its (local id, store id) pair; no configuration is built for
        one that already has an id.

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
                 for lid, s, pi in self._steps_of(i)]
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

    def _steps_of(self, i):
        """The process steps of id i as (local id, store id, process): the
        ones an exploration holding i kept, else successors(i)'s."""
        ex = self._home.get(i)
        steps = ex.steps[i] if ex else sum(map(_STEP, self.successors(i)), ())
        return zip(steps[::3], steps[1::3], steps[2::3])

    def distribution(self, c):
        """The step distribution at c as exact Fractions keyed by
        configuration, a view of row(intern(c))."""
        return markov.step_distribution(self.row(self.intern(c)), self.configs)

    # -- bounded exploration --

    def explore(self, root):
        """The exploration from id `root`: a BFS whose full steps are walked
        as single pops. From each process step (local id, store) it walks
        the pops of the store by DFS and stops at a node already walked,
        whose whole update closure was discovered with it. The new stores
        within the bound are sorted into store order before they get ids, so
        ids and BFS order are those of a search over every update word."""
        got = self._explorations.get(root)
        if got is not None:
            return got
        bound, sizes, ids, stores, pops = (
            self.config.bound, self._store_sizes, self._ids, self._stores, self._pops)
        node, pop_table = self.node, self.pops
        walked = set()             # ids whose update closure was walked: all found, the root once reached
        queue = [root]             # FIFO, appended to while it is walked
        steps, found, pruned_at = {}, {}, set()
        for i in queue:
            out = self.successors(i)
            steps[i] = sum(map(_STEP, out), ())
            for _, lid, t, _ in sorted(out):
                if sizes[t] > bound:
                    pruned_at.add(i)
                elif ids[t].get(lid) in walked:
                    continue
                fresh, reached, stack = [], {t}, [t]
                while stack:
                    u = stack.pop()
                    if sizes[u] <= bound:
                        j = ids[u].get(lid)
                        if j in walked:
                            continue
                        if j == root:
                            walked.add(root)
                        else:
                            fresh.append(u)
                    next_ = pops[u]
                    for s in (pop_table(u) if next_ is None else next_):
                        if s not in reached:
                            reached.add(s)
                            stack.append(s)
                fresh.sort(key=stores.__getitem__)
                for u in fresh:
                    j = ids[u].get(lid)
                    if j is None:
                        j = node(lid, u)
                    walked.add(j)
                    found[j] = i
                    queue.append(j)
        got = Exploration(root, bound, steps, found, frozenset(pruned_at), self.configs,
                          self._tables)
        self._explorations[root] = got
        # A node's forward cone does not depend on the root it was reached
        # from, so any exploration holding it answers for it.
        for i in steps:
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
