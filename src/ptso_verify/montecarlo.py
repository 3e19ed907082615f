"""Statistical oracle: sample PTSO runs to estimate reachability
probabilities and conditional costs.

Sampling is exact: process choices use integer `randrange` over scheduling
weights, and update schedules are drawn uniformly over all feasible update
words by sequential letter sampling with exact word counts (the probability
of each word is 1/W where W counts the feasible words). Per-run streams are
derived from (master seed, run index), so results are reproducible and
independent of any parallel split.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import sqrt

from . import semantics


def _per_run_seed(seed, idx):
    return (seed << 64) + idx


class RunSampler:
    """Per-program sampling caches; one instance serves many runs."""

    def __init__(self, prog):
        self.prog = prog
        self._proc_cache = {}
        self._w_memo = {}

    def _enabled_entry(self, c):
        key = (c.labels, tuple(bool(b) for b in c.bufs))
        ent = self._proc_cache.get(key)
        if ent is None:
            enabled = semantics.enabled_indices(self.prog, c)
            cum = list(itertools.accumulate(self.prog.processes[pi].weight for pi in enabled))
            ent = (enabled, cum, cum[-1] if cum else 0)
            self._proc_cache[key] = ent
        return ent

    def total_words(self, caps):
        """Number of feasible update words for per-process pop capacities."""
        key = tuple(sorted(caps))
        got = self._w_memo.get(key)
        if got is None:
            got = sum(semantics.update_word_counts_by_length(key).values())
            self._w_memo[key] = got
        return got

    def _sample_word(self, caps, rng):
        """A uniform draw over all feasible update words: each step stops with
        probability 1/W(caps) and otherwise starts with letter p with
        probability W(caps - e_p)/W(caps)."""
        caps = list(caps)
        word = []
        while True:
            r = rng.randrange(self.total_words(tuple(caps)))
            if r == 0:
                return word
            r -= 1
            for pi, cap in enumerate(caps):
                if not cap:
                    continue
                caps[pi] -= 1
                w = self.total_words(tuple(caps))
                if r < w:
                    word.append(pi)
                    break
                caps[pi] += 1
                r -= w
            else:
                raise AssertionError("word sampling fell off the capacity table")

    def step(self, c, rng):
        """One full chain step. Returns (process index or None, update word
        as process indices, successor configuration)."""
        enabled, cum, total = self._enabled_entry(c)
        if total == 0:
            pi, mid = None, c
        else:
            r = rng.randrange(total)
            k = 0
            while cum[k] <= r:
                k += 1
            pi = enabled[k]
            mid = semantics.process_step(self.prog, c, pi)
        word = tuple(self._sample_word([len(b) for b in mid.bufs], rng))
        if not word:
            return pi, (), mid
        return pi, word, semantics.apply_schedule(self.prog, mid, word)


@dataclass
class RunSample:
    seed: int
    steps: list        # (process name or None, schedule of names, Config)
    first_hit: int | None
    total_cost: int | None


def sample_step(prog, c, rng, sampler=None):
    """One chain step with name-keyed results: (choice, schedule, configuration)."""
    sampler = sampler or RunSampler(prog)
    pi, word, succ = sampler.step(c, rng)
    name = None if pi is None else prog.processes[pi].name
    sched = tuple(prog.processes[w].name for w in word)
    return name, sched, succ


def sample_run(prog, init, seed, horizon, label=None, cost=None, sampler=None):
    """Sample one run of `horizon` steps; records every step.

    first_hit is the step index of the first configuration containing
    `label` (0 for the start configuration); total_cost sums instruction
    costs up to the first hit when a cost function is given.
    """
    sampler = sampler or RunSampler(prog)
    rng = random.Random(seed)
    c = init
    steps = []
    first_hit = 0 if (label is not None and label in c.labels) else None
    total_cost = 0 if (first_hit == 0 and cost is not None) else None
    running_cost = 0
    for i in range(1, horizon + 1):
        pi, word, succ = sampler.step(c, rng)
        name = None if pi is None else prog.processes[pi].name
        sched = tuple(prog.processes[w].name for w in word)
        if first_hit is None and cost is not None and pi is not None:
            running_cost += cost[c.labels[pi]]
        steps.append((name, sched, succ))
        c = succ
        if first_hit is None and label is not None and label in c.labels:
            first_hit = i
            total_cost = running_cost if cost is not None else None
    return RunSample(seed, steps, first_hit, total_cost)


def wilson_interval(hits, n, z=1.96):
    if n == 0:
        return 0.0, 1.0
    phat = hits / n
    denom = 1 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass
class ReachEstimate:
    fraction: float
    interval: tuple
    hits: int
    runs: int
    horizon: int
    censored: int     # runs that did not reach the label within the horizon
    seed: int

    def to_json(self):
        return {
            "analysis": "simulate",
            "fraction": self.fraction,
            "fraction_exact": f"{self.hits}/{self.runs}",
            "wilson95": [self.interval[0], self.interval[1]],
            "hits": self.hits,
            "runs": self.runs,
            "horizon": self.horizon,
            "censored": self.censored,
            "seed": self.seed,
        }


def estimate_reach(prog, init, label, runs, horizon, seed):
    """Fraction of sampled runs reaching `label` within `horizon` steps."""
    prog.check_label(label)
    if runs < 1:
        raise ValueError("runs must be >= 1")
    sampler = RunSampler(prog)
    hits = 0
    for idx in range(runs):
        rng = random.Random(_per_run_seed(seed, idx))
        c = init
        if label in c.labels:
            hits += 1
            continue
        for _ in range(horizon):
            _, _, c = sampler.step(c, rng)
            if label in c.labels:
                hits += 1
                break
    return ReachEstimate(hits / runs, wilson_interval(hits, runs), hits,
                         runs, horizon, runs - hits, seed)


@dataclass
class CondCostEstimate:
    mean: float
    interval: tuple
    hitting_runs: int
    runs: int
    horizon: int
    seed: int

    def to_json(self):
        return {
            "analysis": "simulate_cost",
            "mean": self.mean,
            "normal95": [self.interval[0], self.interval[1]],
            "hitting_runs": self.hitting_runs,
            "runs": self.runs,
            "horizon": self.horizon,
            "seed": self.seed,
        }


def estimate_cond_cost(prog, init, label, cost, runs, horizon, seed):
    """Sample mean of cost-to-first-hit over runs that reach `label`."""
    prog.check_label(label)
    if runs < 1:
        raise ValueError("runs must be >= 1")
    sampler = RunSampler(prog)
    samples = []
    for idx in range(runs):
        rng = random.Random(_per_run_seed(seed, idx))
        c = init
        if label in c.labels:
            samples.append(0)
            continue
        acc = 0
        for _ in range(horizon):
            pi, _, succ = sampler.step(c, rng)
            if pi is not None:
                acc += cost[c.labels[pi]]
            c = succ
            if label in c.labels:
                samples.append(acc)
                break
    if not samples:
        raise ValueError("no sampled run reached the label within the horizon")
    n = len(samples)
    mean = sum(samples) / n
    if n > 1:
        var = sum((s - mean) ** 2 for s in samples) / (n - 1)
        half = 1.96 * sqrt(var / n)
    else:
        half = float("inf")
    return CondCostEstimate(mean, (mean - half, mean + half), n, runs, horizon, seed)

