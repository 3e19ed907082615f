"""Statistical oracle: sample PTSO runs to estimate reachability
probabilities and conditional costs.

Sampling is exact: process choices use integer `randrange` over scheduling
weights, and update schedules are drawn uniformly over all feasible update
words by sequential letter sampling with exact word counts (the probability
of each word is 1/W where W counts the feasible words). Per-run streams are
derived from (master seed, run index), so results are reproducible and
independent of any parallel split.

`RunSampler` keeps two step tables per configuration, filled on first use
and holding integer ids into lists. The process-choice table holds the
enabled processes, their cumulative weights and the mid-configuration id per
choice. The update-letter table holds cumulative thresholds (1 for the stop,
then W(lens - e_p) per nonempty buffer p in process order, summing to
W(lens)) and the child id per letter. A step draws exactly what the
letter-by-letter definition draws: `randrange(total weight)` when a process
is enabled, then `randrange(W(lens))` at every intermediate configuration,
including the final stop draw. `estimate_reach` and `estimate_cond_cost` end
a run early in an absorbing configuration (no enabled process, every buffer
empty), whose only successor is itself; `sample_run` records every step.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_right
from dataclasses import dataclass
from math import sqrt

from . import semantics


# The step tables are caches: past this many configurations (about 0.9 kB
# each) they are dropped and refilled, so memory stays bounded on programs
# whose runs keep visiting new configurations.
TABLE_LIMIT = 1 << 16


def _per_run_seed(seed, idx):
    return (seed << 64) + idx


class RunSampler:
    """Per-program step tables; one instance serves many runs."""

    def __init__(self, prog):
        self.prog = prog
        self._w_memo = {}
        self._clear()

    def _clear(self):
        self._ids = {}          # Config -> id
        self._configs = []      # id -> Config
        self._choices = []      # id -> (enabled, cum weights, total, mid ids) or None
        self._letters = []      # id -> (cum thresholds, letters, child ids) or None

    def _id(self, c):
        got = self._ids.get(c)
        if got is None:
            got = self._ids[c] = len(self._configs)
            self._configs.append(c)
            self._choices.append(None)
            self._letters.append(None)
        return got

    def total_words(self, caps):
        """Number of feasible update words for per-process pop capacities."""
        key = tuple(sorted(caps))
        got = self._w_memo.get(key)
        if got is None:
            got = sum(semantics.update_word_counts_by_length(key).values())
            self._w_memo[key] = got
        return got

    def _fill_choices(self, cid):
        c = self._configs[cid]
        enabled = semantics.enabled_indices(self.prog, c)
        cum = list(itertools.accumulate(self.prog.processes[pi].weight for pi in enabled))
        mids = [self._id(semantics.process_step(self.prog, c, pi)) for pi in enabled]
        got = self._choices[cid] = (enabled, cum, cum[-1] if cum else 0, mids)
        return got

    def _fill_letters(self, cid):
        """Index 0 is the stop (threshold 1, no letter, stay at cid); index
        k > 0 pops letters[k] with probability W(lens - e_p)/W(lens)."""
        c = self._configs[cid]
        caps = [len(b) for b in c.bufs]
        cum, letters, children = [1], [None], [cid]
        for pi, cap in enumerate(caps):
            if cap:
                caps[pi] -= 1
                cum.append(cum[-1] + self.total_words(caps))
                caps[pi] += 1
                letters.append(pi)
                children.append(self._id(semantics.apply_schedule(self.prog, c, (pi,))))
        if cum[-1] != self.total_words(caps):
            raise AssertionError(f"letter thresholds sum to {cum[-1]}, not W{tuple(caps)}")
        got = self._letters[cid] = (cum, letters, children)
        return got

    def step(self, c, rng):
        """One full chain step. Returns (process index or None, update word
        as process indices, successor configuration)."""
        if len(self._configs) >= TABLE_LIMIT:
            self._clear()
        cid = self._id(c)
        enabled, cum, total, mids = self._choices[cid] or self._fill_choices(cid)
        if total:
            k = bisect_right(cum, rng.randrange(total))
            pi, node = enabled[k], mids[k]
        else:
            pi, node = None, cid
        word = []
        tables = self._letters
        while True:
            cum, letters, children = tables[node] or self._fill_letters(node)
            k = bisect_right(cum, rng.randrange(cum[-1]))
            if not k:
                return pi, tuple(word), self._configs[node]
            word.append(letters[k])
            node = children[k]

    def absorbing(self, c):
        """Whether c is its own only successor: no process is enabled and
        every buffer is empty."""
        if any(c.bufs):
            return False
        cid = self._id(c)
        return not (self._choices[cid] or self._fill_choices(cid))[2]


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


def _check_budget(runs, horizon):
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if horizon < 0:
        raise ValueError("horizon must be >= 0")


def estimate_reach(prog, init, label, runs, horizon, seed):
    """Fraction of sampled runs reaching `label` within `horizon` steps."""
    prog.check_label(label)
    _check_budget(runs, horizon)
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
            if sampler.absorbing(c):
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
    _check_budget(runs, horizon)
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
            if sampler.absorbing(c):
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

