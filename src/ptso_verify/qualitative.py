"""The four qualitative analyses: almost-sure and almost-never (repeated)
reachability of an instruction label.

Each analysis scans the plain configurations reachable from the start
configuration; the finite-attractor property of the plain set makes these
scans decisive for the chain.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import lang, reach, semantics


@dataclass
class QualResult:
    analysis: str
    verdict: bool
    witness: dict | None
    bound_used: int
    pruned: bool

    def __bool__(self):
        return self.verdict

    def to_json(self):
        doc = {"analysis": self.analysis, "verdict": self.verdict,
               "bound_used": self.bound_used}
        if self.witness is not None:
            doc["witness"] = self.witness
        return doc


def _scan(analysis, prog, ex, label, candidates, reachable):
    """The first candidate id in witness order whose can-reach answer for
    `label` is `reachable` refutes the analysis; none does, verdict true."""
    config_key, label_key = (("bplain_config", "reachable_label") if reachable
                             else ("plain_config", "unreachable_label"))
    can = ex.reaching(label)
    for c in ex.in_witness_order(candidates):
        if (c in can) == reachable:
            witness = {
                config_key: semantics.config_to_json(prog, ex.configs[c]),
                "path_to_it": ex.path_to(prog, c),
                label_key: label,
            }
            return QualResult(analysis, False, witness, ex.bound, ex.pruned)
    return QualResult(analysis, True, None, ex.bound, ex.pruned)


def qual_reach(prog, init, label, oracle=None):
    """Almost-sure reachability: is the label reached with probability 1?

    Early true when the label already occurs in `init`; otherwise scans the
    label-removed program for a reachable plain configuration that cannot
    reach the label.
    """
    prog.check_label(label)
    oracle = oracle or reach.ReachOracle(prog)
    if label in init.labels:
        return QualResult("qual_reach", True, None, oracle.config.bound, False)

    transformed = lang.remove_label(prog, label)
    fresh = (set(transformed.labels()) - set(prog.labels())).pop()
    sub = reach.ReachOracle(transformed, oracle.config)
    ex = sub.checked(sub.intern(init), "plain-configuration scan")
    candidates = [i for i in ex.nodes
                  if semantics.is_plain(sub.configs[i]) and fresh not in sub.configs[i].labels]
    return _scan("qual_reach", transformed, ex, label, candidates, False)


def qual_rep_reach(prog, init, label, oracle=None):
    """Almost-sure repeated reachability; scans the original program."""
    prog.check_label(label)
    oracle = oracle or reach.ReachOracle(prog)
    ex = oracle.checked(oracle.intern(init), "plain-configuration scan")
    candidates = [i for i in ex.nodes if semantics.is_plain(oracle.configs[i])]
    return _scan("qual_rep_reach", prog, ex, label, candidates, False)


def never_qual_reach(prog, init, label, oracle=None, bound_max=None):
    """Almost-never reachability: probability 0 iff the label is unreachable.
    With `bound_max`, a pruned No deepens the bound up to it (see
    `ReachOracle.reaches_label`)."""
    oracle = oracle or reach.ReachOracle(prog)
    if bound_max is not None and bound_max < oracle.config.bound:
        raise ValueError("iterative mode needs bound <= bound_max")
    prog.check_label(label)
    answer = oracle.reaches_label(init, label, bound_max)
    witness = {"path_to_label": answer.path} if answer.is_yes else None
    return QualResult("never_qual_reach", not answer.is_yes, witness, answer.bound, answer.pruned)


def never_qual_rep_reach(prog, init, label, oracle=None):
    """Almost-never repeated reachability: false iff some reachable B-plain
    configuration can reach the label."""
    prog.check_label(label)
    oracle = oracle or reach.ReachOracle(prog)
    ex = oracle.checked(oracle.intern(init), "plain-configuration scan")
    return _scan("never_qual_rep_reach", prog, ex, label, oracle.bplain_configs(ex.root), True)
