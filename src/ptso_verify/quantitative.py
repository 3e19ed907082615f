"""Epsilon-precise reachability and repeated-reachability probabilities.

Breadth-first mass propagation, exact: path mass reaching the target is
banked in PosApprx, mass provably unable to reach it in NegApprx, and the
loop stops once PosApprx + NegApprx >= 1 - epsilon. Frontier entries of equal
depth and configuration are merged, which preserves the two accumulators and
keeps the frontier polynomial. Masses are integers over one denominator per
layer: each layer scales by the lcm of the expanded rows' denominators
(`ReachOracle.row`) and divides out the common gcd, so conservation is the
integer identity PosApprx + NegApprx + frontier = 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import markov, reach
from .errors import BudgetExceededError

DEFAULT_MAX_ITERATIONS = 100_000


@dataclass
class QuantResult:
    analysis: str
    value: Fraction               # PosApprx: certified lower bound
    neg: Fraction                 # NegApprx
    epsilon: Fraction
    iterations: int               # BFS layers processed
    frontier_mass_remaining: Fraction
    max_config_size_seen: int
    bound_used: int
    pruned: bool

    def to_json(self):
        fs = functools.partial(markov.frac_str, memo={})   # one memo per document
        return {
            "analysis": self.analysis,
            "value": fs(self.value),
            "value_float": float(self.value),
            "neg": fs(self.neg),
            "neg_float": float(self.neg),
            "epsilon": fs(self.epsilon),
            "iterations": self.iterations,
            "frontier_mass_remaining": fs(self.frontier_mass_remaining),
            "frontier_mass_remaining_float": float(self.frontier_mass_remaining),
            "max_config_size_seen": self.max_config_size_seen,
            "bound_used": self.bound_used,
            "oracle_pruned": self.pruned,
        }


def advance(den, banked, expand):
    """One BFS layer of mass propagation on integers.

    Masses are integers over the shared denominator `den`: `banked` holds
    the accumulators, `expand` the entries that move on as
    (mass, row_den, ((key, weight), ...)), each weight over row_den. Returns
    (den, banked, frontier) over the next shared denominator: scaled by the
    lcm of the row denominators, then divided by the gcd of every figure.
    """
    scale = math.lcm(*(row_den for _, row_den, _ in expand))
    new = {}
    for mass, row_den, entries in expand:
        mass *= scale // row_den
        for key, w in entries:
            prev = new.get(key)
            new[key] = mass * w if prev is None else prev + mass * w
    den *= scale
    banked = [b * scale for b in banked]
    g = math.gcd(den, *banked, *new.values())
    return den // g, [b // g for b in banked], {key: mass // g for key, mass in new.items()}


def _run(init, epsilon, oracle, pos_test, neg_test, analysis, max_iterations, pruned):
    epsilon = Fraction(epsilon)
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    if max_iterations < 0:
        raise ValueError("max_iterations must be >= 0")
    en, ed = epsilon.numerator, epsilon.denominator
    den = 1
    pos = neg = 0
    sizes = oracle.sizes
    start = oracle.intern(init)
    frontier = {start: 1}          # configuration id -> integer mass over den
    iterations = 0
    max_size = sizes[start]
    # Both tests are functions of the configuration alone, so each id's fate
    # is decided once: True banks positive, False negative, a row expands.
    fate = {}

    def result():
        return QuantResult(analysis, Fraction(pos, den), Fraction(neg, den), epsilon,
                           iterations, Fraction(den - pos - neg, den), max_size,
                           oracle.config.bound, pruned)

    while (pos + neg) * ed < den * (ed - en):
        if iterations >= max_iterations:
            raise BudgetExceededError(
                f"{analysis}: no convergence within {max_iterations} iterations", result())
        expand = []
        for i, mass in frontier.items():
            f = fate.get(i)
            if f is None:
                f = fate[i] = True if pos_test(i) else False if neg_test(i) else oracle.row(i)
            if f is True:
                pos += mass
            elif f is False:
                neg += mass
            else:
                expand.append((mass, *f))
        den, (pos, neg), frontier = advance(den, (pos, neg), expand)
        iterations += 1
        max_size = max(max_size, max(map(sizes.__getitem__, frontier), default=0))
        if pos + neg + sum(frontier.values()) != den:
            raise AssertionError(f"{analysis}: mass not conserved at layer {iterations}")
    return result()


def quant_reach(prog, init, label, epsilon, oracle=None,
                max_iterations=DEFAULT_MAX_ITERATIONS):
    """Approximate p = P(reach label) with p in [value, value + epsilon]."""
    prog.check_label(label)
    oracle = oracle or reach.ReachOracle(prog)
    ex, configs = oracle.explore(oracle.intern(init)), oracle.configs
    return _run(init, epsilon, oracle,
                pos_test=lambda i: label in configs[i].labels,
                neg_test=lambda i: not oracle.can_reach(i, label),
                analysis="quant_reach",
                max_iterations=max_iterations, pruned=ex.pruned)


def quant_rep_reach(prog, init, label, epsilon, oracle=None,
                    max_iterations=DEFAULT_MAX_ITERATIONS):
    """Approximate p = P(reach label infinitely often), epsilon-precise.

    An entry banks positive mass when every B-plain configuration reachable
    from it can reach the label, negative mass when the label is unreachable
    from it; everything else keeps expanding.
    """
    prog.check_label(label)
    oracle = oracle or reach.ReachOracle(prog)
    ex = oracle.explore(oracle.intern(init))
    bad = frozenset(i for i in oracle.bplain_configs(ex.root) if not oracle.can_reach(i, label))
    return _run(init, epsilon, oracle,
                pos_test=lambda i: not oracle.can_reach(i, bad),
                neg_test=lambda i: not oracle.can_reach(i, label),
                analysis="quant_rep_reach",
                max_iterations=max_iterations, pruned=ex.pruned)
