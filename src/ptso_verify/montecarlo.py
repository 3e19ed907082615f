"""Statistical oracle: sample PTSO runs to estimate reachability
probabilities and conditional costs.

Sampling is exact: process choices are integer draws over scheduling
weights, and update schedules are drawn uniformly over all feasible update
words by sequential letter sampling with exact word counts (the probability
of each word is 1/W where W counts the feasible words). Per-run streams are
derived from (master seed, run index), so results are reproducible and
independent of any parallel split.

`RunSampler` walks the ids of one `reach.ReachOracle` (its `intern` and
`configs[id]`) and keeps two step tables per id, filled on first use. The
process-choice table holds the enabled processes, their cumulative weights,
the total weight and the mid-configuration id per choice, read from the
oracle's process steps (`successors`). The update-letter table holds
cumulative thresholds (1 for the stop, then W(lens - e_p) per nonempty
buffer p in process order, summing to W(lens)) and the child id per letter.
`step(id, rng)` draws exactly what the letter-by-letter definition draws: a
number below the total weight when a process is enabled, then one below
W(lens) at every intermediate configuration, including the final stop draw.
Each draw below n is done inline as `Random.randrange(n)` does it on CPython
3.11 (`_randbelow_with_getrandbits`): `getrandbits(n.bit_length())`, repeated
while the result is at least n. So the stream of a `random.Random` and every
sampled run are those of `randrange`, without its per-call checks.

The run loops walk ids. `estimate_reach` and `estimate_cond_cost` end a run
at its first hit, in an absorbing configuration (no enabled process, every
buffer empty), whose only successor is itself, or in a provably dead one,
whose label owner `semantics.may_reach_label` shows can no longer reach the
label. A dead run cannot hit, and each run draws from its own stream, so no
estimate changes. The stop test is decided once per id; `sample_run` records
every step.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_right
from dataclasses import dataclass
from math import isinf, sqrt

from . import reach, semantics


# The step tables and the oracle's are caches: once the oracle holds this
# many configurations (about 0.87 kB each, with all its tables), the run loops
# refill them all between two steps, so memory stays bounded on programs
# whose runs keep visiting new configurations.
TABLE_LIMIT = 1 << 16


class RunSampler:
    """Per-program step tables over the ids of one reach.ReachOracle; one
    instance serves many runs."""

    def __init__(self, prog):
        self.prog = prog
        self._w_memo = {}
        self._start()

    def _start(self):
        self.oracle = reach.ReachOracle(self.prog)
        self.configs = self.oracle.configs      # id -> Config, the oracle's
        # id -> (enabled, cum weights, total, its bit length, mid ids) or None
        self._choices = []
        # id -> (cum thresholds, W(lens), its bit length, letters, child ids) or None
        self._letters = []

    def _grow(self):
        """Give each id the oracle has handed out a slot in both tables."""
        n = len(self.configs) - len(self._choices)
        self._choices += [None] * n
        self._letters += [None] * n

    def intern(self, c):
        """The oracle's id of configuration c."""
        got = self.oracle.intern(c)
        self._grow()
        return got

    def refill(self, cid):
        """Start a fresh oracle and tables, and return the id of configuration
        cid in them; every other id is void and `configs` is a new list. The
        run loops call it between two steps at TABLE_LIMIT ids."""
        c = self.configs[cid]
        self._start()
        return self.intern(c)

    def total_words(self, caps):
        """Number of feasible update words for per-process pop capacities."""
        key = tuple(sorted(caps))
        got = self._w_memo.get(key)
        if got is None:
            got = sum(semantics.update_word_counts_by_length(key).values())
            self._w_memo[key] = got
        return got

    def _fill_choices(self, cid):
        steps = self.oracle.successors(cid)     # one (cid's parts, None) if none is enabled
        enabled = [pi for *_, pi in steps if pi is not None]
        mids = [self.oracle.node(lid, sid) for _, lid, sid, _ in steps]
        self._grow()
        cum = list(itertools.accumulate(self.prog.processes[pi].weight for pi in enabled))
        total = cum[-1] if cum else 0
        got = self._choices[cid] = (enabled, cum, total, total.bit_length(), mids)
        return got

    def _fill_letters(self, cid):
        """Index 0 is the stop (threshold 1, no letter, stay at cid); index
        k > 0 pops letters[k] with probability W(lens - e_p)/W(lens)."""
        c = self.configs[cid]
        caps = [len(b) for b in c.bufs]
        cum, letters, children = [1], [None], [cid]
        for pi, cap in enumerate(caps):
            if cap:
                caps[pi] -= 1
                cum.append(cum[-1] + self.total_words(caps))
                caps[pi] += 1
                letters.append(pi)
                children.append(self.intern(semantics.apply_schedule(self.prog, c, (pi,))))
        total = cum[-1]
        if total != self.total_words(caps):
            raise AssertionError(f"letter thresholds sum to {total}, not W{tuple(caps)}")
        got = self._letters[cid] = (cum, total, total.bit_length(), letters, children)
        return got

    def step(self, cid, rng):
        """One full chain step from configuration id cid. Returns (process
        index or None, update word as process indices, successor id). Each
        draw is `rng.randrange(n)`, done inline (see the module docstring)."""
        getrandbits = rng.getrandbits
        enabled, cum, total, bits, mids = self._choices[cid] or self._fill_choices(cid)
        if total:
            r = getrandbits(bits)
            while r >= total:
                r = getrandbits(bits)
            k = bisect_right(cum, r)
            pi, node = enabled[k], mids[k]
        else:
            pi, node = None, cid
        word = []
        tables = self._letters
        while True:
            cum, total, bits, letters, children = tables[node] or self._fill_letters(node)
            r = getrandbits(bits)
            while r >= total:
                r = getrandbits(bits)
            if not r:           # below the stop's threshold 1
                return pi, tuple(word), node
            k = bisect_right(cum, r)
            word.append(letters[k])
            node = children[k]

    def absorbing(self, cid):
        """Whether configuration cid is its own only successor: no process
        is enabled and every buffer is empty."""
        return not (self.oracle.sizes[cid] or (self._choices[cid] or self._fill_choices(cid))[2])


@dataclass
class RunSample:
    seed: int
    steps: list        # (process name or None, schedule of names, Config)
    first_hit: int | None
    total_cost: int | None


def sample_run(prog, init, seed, horizon, label=None, cost=None):
    """Sample one run of `horizon` steps; records every step.

    first_hit is the step index of the first configuration containing
    `label` (0 for the start configuration); total_cost sums instruction
    costs up to the first hit when a cost function is given.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    sampler = RunSampler(prog)
    rng = random.Random(seed)
    c = init
    cid = sampler.intern(c)
    steps = []
    first_hit = 0 if (label is not None and label in c.labels) else None
    total_cost = 0 if (first_hit == 0 and cost is not None) else None
    running_cost = 0
    for i in range(1, horizon + 1):
        if len(sampler.configs) >= TABLE_LIMIT:
            cid = sampler.refill(cid)
        pi, word, cid = sampler.step(cid, rng)
        name = None if pi is None else prog.processes[pi].name
        sched = tuple(prog.processes[w].name for w in word)
        if first_hit is None and cost is not None and pi is not None:
            running_cost += cost[c.labels[pi]]
        c = sampler.configs[cid]
        steps.append((name, sched, c))
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


def _first_hit_costs(prog, init, label, runs, horizon, seed, cost=None):
    """Per run: its cost up to the first configuration bearing `label` (0
    without a cost function), or None when it meets none within `horizon`
    steps. A run ends at its first hit, in an absorbing configuration, or in
    a dead one, from which semantics.may_reach_label proves the label
    unreachable. Whether a run ends at a configuration is decided once per
    id, and at init before any draw."""
    sampler = RunSampler(prog)
    step, configs, limit = sampler.step, sampler.configs, TABLE_LIMIT
    live = semantics.may_reach_label(prog, init, label)

    def ends_at(cid):
        c = configs[cid]
        return label in c.labels or not live(c) or sampler.absorbing(cid)

    start = sampler.intern(init)
    if ends_at(start):
        yield from [0 if label in init.labels else None] * runs     # no run leaves init
        return
    ends = []       # id -> whether a run ends there, or None until decided
    for idx in range(runs):
        rng = random.Random((seed << 64) + idx)       # run idx's own stream
        cid, acc = start, 0
        for _ in range(horizon):
            if len(configs) >= limit:
                cid = sampler.refill(cid)
                configs, start = sampler.configs, sampler.intern(init)
                ends.clear()
            if cid >= len(ends):
                ends += [None] * (len(configs) - len(ends))
            end = ends[cid]
            if end is None:
                end = ends[cid] = ends_at(cid)
            if end:
                break
            pi, _, succ = step(cid, rng)
            if cost is not None and pi is not None:
                acc += cost[configs[cid].labels[pi]]
            cid = succ
        yield acc if label in configs[cid].labels else None


def estimate_reach(prog, init, label, runs, horizon, seed):
    """Fraction of sampled runs reaching `label` within `horizon` steps."""
    prog.check_label(label)
    _check_budget(runs, horizon)
    hits = sum(hit is not None
               for hit in _first_hit_costs(prog, init, label, runs, horizon, seed))
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
            "normal95": [None if isinf(end) else end for end in self.interval],
            "hitting_runs": self.hitting_runs,
            "runs": self.runs,
            "horizon": self.horizon,
            "seed": self.seed,
        }


def estimate_cond_cost(prog, init, label, cost, runs, horizon, seed):
    """Sample mean of cost-to-first-hit over runs that reach `label`."""
    prog.check_label(label)
    _check_budget(runs, horizon)
    samples = [hit for hit in _first_hit_costs(prog, init, label, runs, horizon, seed, cost)
               if hit is not None]
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

