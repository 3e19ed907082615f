"""Reference witness search for `eagerness.compute_mu`: the Config-ordered
BFS, with no integer ids.

Every search re-sorts each layer and each successor set as configurations
and filters successors by the bound itself, straight from
`semantics.step_successors`; `compute_mu` must find the same paths, and so the
same per-configuration probabilities, over the oracle's ids.
"""

from fractions import Fraction

from ptso_verify import eagerness, semantics


def witness_bfs(oracle, start, label, bound):
    """Shortest path from `start` to a label-bearing configuration that never
    revisits `start`; BFS over the bounded system, deterministic order."""
    parent = {}
    seen = {start}
    layer = [start]
    while layer:
        nxt = []
        for c in sorted(layer):
            for succ in sorted(semantics.step_successors(oracle.prog, c)):
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
    """(mu, per-configuration map, A) as `eagerness.compute_mu` defines them,
    or None when no small configuration reachable from `source` can reach
    `label`."""
    ex = oracle.explore(oracle.intern(source))
    a_set = sorted(c for c in map(oracle.configs.__getitem__, ex.reaching(label))
                   if semantics.size(c) <= eagerness.SMALL_SIZE)
    if not a_set:
        return None
    per = {}
    for c in a_set:
        if label in c.labels:
            continue
        path = witness_bfs(oracle, c, label, oracle.config.bound)
        prob = Fraction(1)
        for a, b in zip(path, path[1:]):
            prob *= oracle.distribution(a)[b]
        per[c] = prob
    return (min(per.values()) if per else Fraction(1)), per, a_set
