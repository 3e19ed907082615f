"""In-memory span tracer that wraps ptso_verify's public functions from
outside the package.

`install(tracer)` rebinds module and class attributes (and the entries of
dicts that captured a function at import, such as `cli._QUAL`) to timing
wrappers and restores them when the block ends. Nothing under `src/` knows
it is traced.

Every wrapped call is a span with a name, a start, an end and a parent. A
span's self time is its duration minus the durations of its child spans; the
tracer computes it online as each span closes. Coarse spans are kept one by
one; spans of the hot leaf functions (millions of calls on Monte Carlo
workloads) are aggregated per (name, parent name) so memory stays bounded.
"""

from __future__ import annotations

import contextlib
import statistics
import time
import weakref

# Wrapped per call but kept only as (name, parent name) aggregates.
HOT = frozenset({
    "semantics.update_successors",
    "semantics.step_successors",
    "semantics.process_step",
    "reach.ReachOracle.successors",
    "reach.ReachOracle.distribution",
    "reach.ReachOracle.reaches_label",
    "markov.step_distribution",
    "markov.frac_str",
    "montecarlo.RunSampler.step",
})

LAYERS = ("lang", "semantics", "markov", "reach", "qualitative", "quantitative",
          "eagerness", "cost", "montecarlo", "cli")


class Tracer:
    """Collects spans and counters for one traced pass."""

    def __init__(self, clock=time.perf_counter, hot=HOT):
        self.clock = clock
        self.hot = hot
        self.spans = []      # (id, name, parent id or -1, start, end, self)
        self.agg = {}        # (name, parent name) -> [calls, total, self]
        self.counters = {}
        self.seen = weakref.WeakValueDictionary()
        self._stack = []     # open frames: [name, start, child, id, parent id, parent name]
        self._next_id = 0

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def peak(self, key, value):
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    def enter(self, name):
        stack = self._stack
        parent = stack[-1] if stack else None
        if name in self.hot:
            sid = parent[3] if parent else -1   # hot spans inherit the id
        else:
            sid = self._next_id
            self._next_id += 1
        frame = [name, self.clock(), 0.0, sid,
                 parent[3] if parent else -1, parent[0] if parent else None]
        stack.append(frame)
        return frame

    def exit(self, frame):
        end = self.clock()
        stack = self._stack
        if stack.pop() is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        name, start, child, sid, parent_id, parent_name = frame
        dur = end - start
        if stack:
            stack[-1][2] += dur
        if name in self.hot:
            entry = self.agg.get((name, parent_name))
            if entry is None:
                self.agg[(name, parent_name)] = [1, dur, dur - child]
            else:
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - child
        else:
            self.spans.append((sid, name, parent_id, start, end, dur - child))

    def wrap(self, name, fn, observe=None):
        """`fn` timed as span `name`; `observe(tracer, args, result, exc)`
        runs after the span closes, outside its timing."""
        enter = self.enter
        exit_ = self.exit

        def traced(*args, **kwargs):
            frame = enter(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                exit_(frame)
                if observe is not None:
                    observe(self, args, None, exc)
                raise
            exit_(frame)
            if observe is not None:
                observe(self, args, result, None)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- summaries --

    def rows(self):
        """(name, parent name, calls, total, self) over spans and aggregates."""
        names = {sid: name for sid, name, *_ in self.spans}
        out = [(name, names.get(pid), 1, end - start, self_t)
               for sid, name, pid, start, end, self_t in self.spans]
        out += [(name, parent, calls, total, self_t)
                for (name, parent), (calls, total, self_t) in self.agg.items()]
        return out

    def by_name(self):
        """name -> [calls, total, self] summed over parents."""
        out = {}
        for name, _, calls, total, self_t in self.rows():
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_t
        return out

    def calls_under(self, name, parent):
        return sum(c for n, p, c, _, _ in self.rows() if n == name and p == parent)

    def layer_self(self):
        out = dict.fromkeys(LAYERS, 0.0)
        for name, (_, _, self_t) in self.by_name().items():
            out[name.split(".", 1)[0]] += self_t
        return out

    def dump(self):
        return {
            "spans": [list(s) for s in self.spans],
            "aggregates": [[n, p, *v] for (n, p), v in sorted(
                self.agg.items(), key=lambda kv: (kv[0][0], kv[0][1] or ""))],
            "counters": dict(sorted(self.counters.items())),
        }


# -- observers: counts read from return values, outside span timing --

def _update_successors(tr, args, result, exc):
    if exc is None:
        counts, total = result
        tr.count("semantics.update_words", total)
        tr.count("semantics.update_succs", len(counts))


def _explore(tr, args, result, exc):
    # explore() returns cached explorations again; count each one once
    if exc is None and tr.seen.get(id(result)) is not result:
        tr.seen[id(result)] = result
        tr.count("reach.explore_nodes", len(result.nodes))
        tr.count("reach.explore_pruned", int(result.pruned))


def _frac_str(tr, args, result, exc):
    if exc is None:
        tr.count("markov.frac_str_digits", len(result))


def _result_or_partial(result, exc):
    if exc is not None:
        return getattr(exc, "partial", None)
    return result


def _quant(tr, args, result, exc):
    res = _result_or_partial(result, exc)
    if res is not None:
        tr.count("quantitative.layers", res.iterations)
        tr.peak("quantitative.value_bits", res.value.denominator.bit_length())


def _cost(tr, args, result, exc):
    res = _result_or_partial(result, exc)
    if res is not None:
        tr.count("cost.layers", res.n)
        err = res.c_error
        tr.peak("cost.error_bits", max(err.numerator.bit_length(), err.denominator.bit_length()))


def _estimate(tr, args, result, exc):
    if exc is None:
        tr.count("montecarlo.runs", result.runs)


def targets():
    """(owner, attribute, span name, observer) for every wrapped function."""
    from ptso_verify import (cli, cost, eagerness, lang, markov, montecarlo,
                             qualitative, quantitative, reach, semantics)
    from ptso_verify.montecarlo import RunSampler, ReachEstimate
    from ptso_verify.quantitative import QuantResult
    from ptso_verify.qualitative import QualResult
    from ptso_verify.reach import ReachOracle

    out = [
        (lang, "parse_program", "lang.parse_program", None),
        (lang, "remove_label", "lang.remove_label", None),
        (semantics, "update_successors", "semantics.update_successors", _update_successors),
        (semantics, "step_successors", "semantics.step_successors", None),
        (semantics, "process_step", "semantics.process_step", None),
        (ReachOracle, "explore", "reach.ReachOracle.explore", _explore),
        (ReachOracle, "successors", "reach.ReachOracle.successors", None),
        (ReachOracle, "distribution", "reach.ReachOracle.distribution", None),
        (ReachOracle, "reaches_label", "reach.ReachOracle.reaches_label", None),
        (ReachOracle, "bplain_configs", "reach.ReachOracle.bplain_configs", None),
        (markov, "step_distribution", "markov.step_distribution", None),
        (markov, "frac_str", "markov.frac_str", _frac_str),
        (quantitative, "quant_reach", "quantitative.quant_reach", _quant),
        (quantitative, "quant_rep_reach", "quantitative.quant_rep_reach", _quant),
        (eagerness, "compute_eagerness", "eagerness.compute_eagerness", None),
        (eagerness, "compute_mu", "eagerness.compute_mu", None),
        (eagerness, "nth_root_bounds", "eagerness.nth_root_bounds", None),
        (cost, "expected_avg_cost", "cost.expected_avg_cost", _cost),
        (montecarlo, "estimate_reach", "montecarlo.estimate_reach", _estimate),
        (RunSampler, "step", "montecarlo.RunSampler.step", None),
        (cli, "main", "cli.main", None),
        (cli, "_emit", "cli._emit", None),
        (QualResult, "to_json", "cli.to_json.QualResult", None),
        (QuantResult, "to_json", "cli.to_json.QuantResult", None),
        (cost.CostResult, "to_json", "cli.to_json.CostResult", None),
        (eagerness.EagernessParams, "to_json", "cli.to_json.EagernessParams", None),
        (ReachEstimate, "to_json", "cli.to_json.ReachEstimate", None),
    ]
    # cli binds the qualitative entry points into a dict at import
    for command, fn in cli._QUAL.items():
        out.append((qualitative, fn.__name__, f"qualitative.{fn.__name__}", None))
        out.append((cli._QUAL, command, f"qualitative.{fn.__name__}", None))
    return out


@contextlib.contextmanager
def install(tracer):
    """Rebind every target to a wrapper for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, observe in targets():
            if isinstance(owner, dict):
                original = owner[attr]
                owner[attr] = tracer.wrap(name, original, observe)
            else:
                original = owner.__dict__[attr]
                setattr(owner, attr, tracer.wrap(name, original, observe))
            saved.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)


UNITS = {
    "lang.parse_s": "s", "lang.self_s": "s",
    "semantics.update_successors_calls": "count", "semantics.update_successors_s": "s",
    "semantics.update_words": "count", "semantics.update_succs": "count",
    "semantics.succs_per_word": "ratio", "semantics.step_successors_s": "s",
    "semantics.process_step_calls": "count", "semantics.process_step_s": "s",
    "semantics.self_s": "s",
    "reach.explore_calls": "count", "reach.explore_s": "s", "reach.explore_nodes": "count",
    "reach.explore_pruned": "count", "reach.successors_hit_ratio": "ratio",
    "reach.distribution_hit_ratio": "ratio", "reach.self_s": "s",
    "markov.step_distribution_calls": "count", "markov.step_distribution_s": "s",
    "markov.frac_str_calls": "count", "markov.frac_str_s": "s",
    "markov.frac_str_digits": "digits", "markov.self_s": "s",
    "cli.render_s": "s", "cli.json_bytes": "bytes", "cli.self_s": "s",
    "quantitative.quant_s": "s", "quantitative.layers": "count",
    "quantitative.value_bits": "bits",
    "eagerness.compute_eagerness_s": "s", "eagerness.compute_mu_s": "s",
    "eagerness.nth_root_bounds_s": "s", "eagerness.self_s": "s",
    "cost.expected_avg_cost_s": "s", "cost.layers": "count", "cost.error_bits": "bits",
    "qualitative.verdict_s": "s",
    "montecarlo.estimate_reach_s": "s", "montecarlo.step_calls": "count",
    "montecarlo.step_s": "s", "montecarlo.steps_per_s": "1/s",
    "montecarlo.runs_per_s": "1/s", "montecarlo.self_s": "s",
    "trace.overhead_s": "s",
}


def per_layer(tr, json_bytes):
    """Raw per-layer figures of one traced pass. `_s` figures are self
    times, except `cli.render_s`, which spans result rendering (`to_json`,
    which calls `frac_str`) and JSON emission."""
    names = tr.by_name()

    def calls(*keys):
        return sum(names.get(k, (0, 0.0, 0.0))[0] for k in keys)

    def self_s(*keys):
        return sum(names.get(k, (0, 0.0, 0.0))[2] for k in keys)

    def ratio(num, den):
        return num / den if den else 0.0

    c = tr.counters.get
    succ_calls = calls("reach.ReachOracle.successors")
    dist_calls = calls("reach.ReachOracle.distribution")
    render = sum(total for name, (_, total, _) in names.items()
                 if name.startswith("cli.to_json.") or name == "cli._emit")
    m = {
        "lang.parse_s": self_s("lang.parse_program"),
        "semantics.update_successors_calls": calls("semantics.update_successors"),
        "semantics.update_successors_s": self_s("semantics.update_successors"),
        "semantics.update_words": c("semantics.update_words", 0),
        "semantics.update_succs": c("semantics.update_succs", 0),
        "semantics.succs_per_word": ratio(c("semantics.update_succs", 0),
                                          c("semantics.update_words", 0)),
        "semantics.step_successors_s": self_s("semantics.step_successors"),
        "semantics.process_step_calls": calls("semantics.process_step"),
        "semantics.process_step_s": self_s("semantics.process_step"),
        "reach.explore_calls": calls("reach.ReachOracle.explore"),
        "reach.explore_s": self_s("reach.ReachOracle.explore"),
        "reach.explore_nodes": c("reach.explore_nodes", 0),
        "reach.explore_pruned": c("reach.explore_pruned", 0),
        "reach.successors_hit_ratio": ratio(
            succ_calls - tr.calls_under("semantics.step_successors",
                                        "reach.ReachOracle.successors"), succ_calls),
        "reach.distribution_hit_ratio": ratio(
            dist_calls - tr.calls_under("markov.step_distribution",
                                        "reach.ReachOracle.distribution"), dist_calls),
        "markov.step_distribution_calls": calls("markov.step_distribution"),
        "markov.step_distribution_s": self_s("markov.step_distribution"),
        "markov.frac_str_calls": calls("markov.frac_str"),
        "markov.frac_str_s": self_s("markov.frac_str"),
        "markov.frac_str_digits": c("markov.frac_str_digits", 0),
        "cli.render_s": render,
        "cli.json_bytes": json_bytes,
        "quantitative.quant_s": self_s("quantitative.quant_reach", "quantitative.quant_rep_reach"),
        "quantitative.layers": c("quantitative.layers", 0),
        "quantitative.value_bits": c("quantitative.value_bits", 0),
        "eagerness.compute_eagerness_s": self_s("eagerness.compute_eagerness"),
        "eagerness.compute_mu_s": self_s("eagerness.compute_mu"),
        "eagerness.nth_root_bounds_s": self_s("eagerness.nth_root_bounds"),
        "cost.expected_avg_cost_s": self_s("cost.expected_avg_cost"),
        "cost.layers": c("cost.layers", 0),
        "cost.error_bits": c("cost.error_bits", 0),
        "qualitative.verdict_s": self_s(*(n for n in names if n.startswith("qualitative."))),
        "montecarlo.estimate_reach_s": self_s("montecarlo.estimate_reach"),
        "montecarlo.step_calls": calls("montecarlo.RunSampler.step"),
        "montecarlo.step_s": self_s("montecarlo.RunSampler.step"),
        "montecarlo.runs": c("montecarlo.runs", 0),
    }
    # layers with one wrapped function already report its self time above
    for layer, secs in tr.layer_self().items():
        if layer not in ("qualitative", "quantitative", "cost"):
            m[f"{layer}.self_s"] = secs
    return m


def summarize(passes, mc_seconds, overhead_s):
    """Per-layer metrics of a traced run: the median of each figure over the
    traced passes; Monte Carlo rates as counts from the trace over
    `mc_seconds` of untraced simulate queries; `overhead_s` of tracing."""
    m = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
    runs = m.pop("montecarlo.runs")
    m["montecarlo.steps_per_s"] = m["montecarlo.step_calls"] / mc_seconds if mc_seconds else 0.0
    m["montecarlo.runs_per_s"] = runs / mc_seconds if mc_seconds else 0.0
    m["trace.overhead_s"] = overhead_s
    return m
