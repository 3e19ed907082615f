"""Reference witness search for `eagerness.compute_mu`: the Config-ordered
BFS, with no integer ids.

Every search re-sorts each layer and each successor set as configurations
and filters successors by the bound itself, straight from
`semantics.step_successors`; `compute_mu` must find the same paths, and so the
same per-configuration probabilities, over the oracle's ids. One
`compute_mu` call asks `step_successors` once per configuration.
`assert_same_witnesses` checks `eagerness.compute_mu` against it, paths
included.
"""

import functools
from fractions import Fraction
from unittest import mock

from ptso_verify import eagerness, reach, semantics


def witness_bfs(oracle, start, label, bound, step=None):
    """Shortest path from `start` to a label-bearing configuration that never
    revisits `start`; BFS over the bounded system, deterministic order.
    `step(c)` gives step_successors(oracle.prog, c), kept by the caller."""
    step = step or functools.partial(semantics.step_successors, oracle.prog)
    parent = {}
    seen = {start}
    layer = [start]
    while layer:
        nxt = []
        for c in sorted(layer):
            for succ in sorted(step(c)):
                if succ in seen or semantics.size(succ) > bound:
                    continue
                seen.add(succ)
                parent[succ] = c
                if label in succ.labels:
                    path = [succ]
                    while path[-1] != start:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return path
                nxt.append(succ)
        layer = nxt
    raise AssertionError("witness BFS found no label-bearing configuration")


def compute_mu(oracle, label, source):
    """(mu, per-configuration map, A, configuration -> its witness path) with
    the first three as `eagerness.compute_mu` defines them, or None when no
    small configuration reachable from `source` can reach `label`."""
    ex = oracle.explore(oracle.intern(source))
    a_set = sorted(c for c in map(oracle.configs.__getitem__, ex.reaching(label))
                   if semantics.size(c) <= eagerness.SMALL_SIZE)
    if not a_set:
        return None
    per, paths = {}, {}
    step = functools.cache(functools.partial(semantics.step_successors, oracle.prog))
    for c in a_set:
        if label in c.labels:
            continue
        path = paths[c] = witness_bfs(oracle, c, label, oracle.config.bound, step)
        prob = Fraction(1)
        for a, b in zip(path, path[1:]):
            prob *= oracle.distribution(a)[b]
        per[c] = prob
    return (min(per.values()) if per else Fraction(1)), per, a_set, paths


def assert_same_witnesses(prog, label, config, source):
    """`eagerness.compute_mu` on a fresh oracle at `config` gives this
    module's (mu, per, A), and its witness search returns this module's path
    for every member; both find A empty, or neither. Returns the number of
    paths compared."""
    want = compute_mu(reach.ReachOracle(prog, config), label, source)
    oracle = reach.ReachOracle(prog, config)
    if want is None:
        try:
            eagerness.compute_mu(prog, label, oracle, source)
        except ValueError as exc:
            assert "not reachable" in str(exc)
            return 0
        raise AssertionError("compute_mu found an A-set the reference did not")
    found = {}                  # start id -> the id path its search returned
    search = eagerness._witness_bfs

    def recorded(succs, steps, start, rank):
        found[start] = search(succs, steps, start, rank)
        return found[start]

    with mock.patch.object(eagerness, "_witness_bfs", recorded):
        mu, per, a_set = eagerness.compute_mu(prog, label, oracle, source)
    configs = oracle.configs
    paths = {configs[i]: [configs[j] for j in path] for i, path in found.items()}
    assert (mu, {configs[i]: v for i, v in per.items()}, [configs[i] for i in a_set],
            paths) == want
    return len(paths)
