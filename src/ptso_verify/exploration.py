"""The exploration of one root: the factored graph that ReachOracle.explore
keeps and the questions asked of it.

An update word is a sequence of single pops, so an exploration keeps, per
explored id, its process steps and the id that discovered it, and no
successor tuple; the update step is walked through the oracle's one-pop
tables. Backward searches and SCCs run on that factored graph, `succs` lists
each node's successors of the full step on demand, and a witness path
follows the node that discovered each node.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from . import semantics


@dataclass
class Exploration:
    """Forward closure of one root in the K-bounded system; node i is
    configs[i], and `nodes` are the explored ids in BFS order.

    It is kept as a factored graph. Its nodes are the settled ones, the
    explored ids, and the intermediate ones, pairs (local id, store id) that
    a process step leaves before the update step. Its edges:
    - a settled node to the intermediate of each of its process steps
      (`steps`), weight 1;
    - an intermediate to the one its store leaves after one pop
      (ReachOracle.pops), weight 0;
    - an intermediate within the bound to the settled node joining its two
      parts, the stop, weight 0.
    Every update word is a sequence of pops, so one step of the chain is a
    path of weight 1 between two settled nodes. An intermediate over the
    bound is named by its pair; one within it by ~id of its settled node in
    _out, where both kinds are nodes, and by that id in _preds, where no
    settled node is a key. `succs` gives each node's successors of the full
    step on demand, and `path_to` follows the node that discovered each
    node (`found`).
    """

    root: int
    bound: int
    steps: dict                    # id -> its process steps, flat: (local id, store id, process) each
    found: dict                    # id but the root -> the id that discovered it
    pruned_at: frozenset           # ids with a process step over the bound
    configs: list = field(repr=False)   # the oracle's id -> config list
    # The oracle's (_ids, _locals, _lids, _sids, _stores, _store_sizes,
    # _pops); not the oracle itself, which holds its explorations.
    tables: tuple = field(repr=False)
    _back: tuple = field(default=None, repr=False)
    _reaching: dict = field(default_factory=dict, repr=False)
    _succs: dict = field(default_factory=dict, repr=False)

    @property
    def nodes(self):
        """The explored ids: the keys of `steps`."""
        return self.steps.keys()

    @property
    def succs(self):
        """Explored id -> the tuple of explored ids one step away, in BFS
        order: per process step, by local part, the stores its pops reach
        within the bound, in store order. Built on first read and kept."""
        return _Succs(self)

    @property
    def pruned(self):
        return bool(self.pruned_at)

    def in_witness_order(self, ids):
        """ids sorted by their configurations: the order every witness, scan
        candidate and B-plain list is chosen in, whatever the ids."""
        return sorted(ids, key=self.configs.__getitem__)

    def _out(self, x):
        """The successors of node x of the factored graph, for _tarjan."""
        ids, _, lids, sids, _, sizes, pops = self.tables
        bound = self.bound
        if type(x) is tuple:
            (lid, u), stop = x, ()
        elif x < 0:
            lid, u, stop = lids[~x], sids[~x], (~x,)
        else:
            steps = self.steps[x]
            return tuple(~ids[s][lid] if sizes[s] <= bound else (lid, s)
                         for lid, s in zip(steps[::3], steps[1::3]))
        return tuple(~ids[s][lid] if sizes[s] <= bound else (lid, s) for s in pops[u]) + stop

    def reaching(self, target):
        """{id: its fewest steps to `target`} over the explored ids that can
        reach it, by one backward 0-1 BFS over the factored graph that counts
        only process steps; `target` is a label (a configuration bearing it)
        or a frozenset of ids."""
        got = self._reaching.get(target)
        if got is None:
            steps = self.steps
            hits = (target if isinstance(target, frozenset)
                    else (c for c in steps if target in self.configs[c].labels))
            got = {t: 0 for t in hits if t in steps}
            (into, unpop), met, layer, d = self._preds(), set(), list(got), 0
            while layer:                # the settled ids d steps away
                d += 1
                stack, layer = [j for j in layer if j not in met], []
                met.update(stack)       # their intermediates, by the stop
                while stack:            # and the weight-0 cone of those, backwards
                    x = stack.pop()
                    for p in into.get(x, ()):
                        if p not in got:
                            got[p] = d
                            layer.append(p)
                    for y in unpop.get(x, ()):
                        if y not in met:
                            met.add(y)
                            stack.append(y)
            self._reaching[target] = got
        return got

    def _preds(self):
        """The factored graph backwards, built once: ({intermediate: the
        settled ids whose process steps lead to it}, {intermediate: the
        intermediates that pop to it}), each a tuple, the smaller kind. A
        settled node's one predecessor, the intermediate its stop leaves,
        has its id."""
        if self._back is None:
            ids, _, lids, sids, _, sizes, pops = self.tables
            bound, root, steps = self.bound, self.root, self.steps
            into, unpop, met = {}, {}, set()
            todo = [j for j in steps if j != root]   # every node found was walked
            for i, flat in steps.items():
                for lid, s in zip(flat[::3], flat[1::3]):
                    y = ids[s][lid] if sizes[s] <= bound else (lid, s)
                    into[y] = into.get(y, ()) + (i,)
                    if (y == root or type(y) is tuple) and y not in met:
                        met.add(y)
                        todo.append(y)
            for x in todo:              # grows while read
                lid, u = x if type(x) is tuple else (lids[x], sids[x])
                for s in pops[u]:
                    y = ids[s][lid] if sizes[s] <= bound else (lid, s)
                    unpop[y] = unpop.get(y, ()) + (x,)
                    if (y == root or type(y) is tuple) and y not in met:
                        met.add(y)
                        todo.append(y)
            self._back = into, unpop
        return self._back

    def bottom_sccs(self):
        """The settled members of each bottom SCC of the factored graph:
        the bottom SCCs of the step graph over `nodes`."""
        graph, todo, out = {}, list(self.steps), []
        for x in todo:                  # grows while read
            if x not in graph:
                graph[x] = self._out(x)
                todo += graph[x]
        for comp in _tarjan(self.steps, graph):
            members = set(comp)
            if all(s in members for c in comp for s in graph[c]):
                out.append(members.intersection(self.steps))
        return out

    def path_to(self, prog, target):
        """BFS-tree witness path from the root to id `target`, replayable. A
        node's parent is the node that discovered it, its process and
        schedule the witness step step_successors gives."""
        found, configs = self.found, self.configs
        steps = []
        c = target
        while c != self.root:
            pred = found[c]
            proc, word = semantics.step_successors(prog, configs[pred])[configs[c]]
            steps.append({"proc": proc,
                          "schedule": [prog.processes[pi].name for pi in word],
                          "config": semantics.config_to_json(prog, configs[c])})
            c = pred
        steps.reverse()
        return steps


class _Succs(Mapping):
    """Exploration.succs: a read-only view over its steps and the pop tables."""

    def __init__(self, ex):
        self._ex = ex

    def __getitem__(self, i):
        ex = self._ex
        got = ex._succs.get(i)
        if got is None:
            ids, locals_, _, _, stores, sizes, pops = ex.tables
            steps, out = ex.steps[i], []
            for lid, t in sorted(zip(steps[::3], steps[1::3]), key=lambda p: locals_[p[0]]):
                reached, stack = {t}, [t]
                while stack:
                    for s in pops[stack.pop()]:
                        if s not in reached:
                            reached.add(s)
                            stack.append(s)
                out += (ids[s][lid] for s in sorted(reached, key=stores.__getitem__)
                        if sizes[s] <= ex.bound)
            got = ex._succs[i] = tuple(out)
        return got

    def __iter__(self):
        return iter(self._ex.steps)

    def __len__(self):
        return len(self._ex.steps)


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
