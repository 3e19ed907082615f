"""Expected average cost to the first visit of a target label, with
certified error tracking driven by the eagerness certificate.

Breadth-first layers carry (configuration id, accumulated cost) entries with
exact path mass, held as integers over one denominator per layer (see
`quantitative`). CostApprx/ProbApprx accumulate the mass absorbed at the
target; CError/PError are the geometric tail bounds kappa*alpha^n/(1-alpha)^2
and alpha^n/(1-alpha), valid once n reaches the eagerness threshold. The gap
they leave grows with alpha^n, so whether a layer closes it is decided on a
certified interval for alpha^n (`eagerness.pow_decide` on one squaring
ladder of alpha per call); the exact terms are computed only for the result.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from . import eagerness as eag
from . import markov, quantitative, reach, semantics
from .errors import BudgetExceededError

DEFAULT_MAX_LAYERS = 20_000
DEFAULT_MAX_FRONTIER = 200_000

# Keyed by the lower-cased statement class name.
DEFAULT_KIND_COSTS = {
    "write": 3, "read": 2, "assign": 1, "cas": 5, "if": 1, "term": 1, "goto": 1,
}


@dataclass(frozen=True)
class CostFunction:
    costs: dict  # label -> positive int, every program label mapped

    @staticmethod
    def validate(prog, costs):
        if not isinstance(costs, dict):
            raise ValueError("cost function must be a JSON object mapping labels to costs")
        unknown = set(costs) - set(prog.labels())
        if unknown:
            raise ValueError(f"cost function names unknown labels: {sorted(unknown)}")
        missing = set(prog.labels()) - set(costs)
        if missing:
            raise ValueError(f"cost function misses labels: {sorted(missing)}")
        for lbl, v in costs.items():
            if type(v) is not int or v < 1:
                raise ValueError(f"cost of label {lbl!r} must be a positive integer, got {v!r}")
        return CostFunction(dict(costs))

    @staticmethod
    def uniform(prog, value=1):
        return CostFunction({lbl: value for lbl in prog.labels()})

    @staticmethod
    def by_kind(prog, table=None):
        table = DEFAULT_KIND_COSTS if table is None else table
        return CostFunction({lbl: table[type(prog.stmt_at(lbl)).__name__.lower()]
                             for lbl in prog.labels()})

    def __getitem__(self, label):
        return self.costs[label]

    @property
    def max_cost(self):
        return max(self.costs.values())


@dataclass
class CostResult:
    value: Fraction               # CostApprx / (ProbApprx + PError), certified lower end
    value_upper: Fraction | None  # (CostApprx + CError) / ProbApprx
    cost_apprx: Fraction
    prob_apprx: Fraction
    c_error: Fraction
    p_error: Fraction
    n: int
    epsilon: Fraction
    n_threshold: int
    aborted: bool
    live_frontier_mass: Fraction  # frontier mass that can still reach the label
    max_config_size_seen: int

    def to_json(self):
        fs = functools.partial(markov.frac_str, memo={})   # one memo per document
        doc = {
            "analysis": "expected_avg_cost",
            "value": fs(self.value),
            "value_float": float(self.value),
            "value_upper": None if self.value_upper is None else fs(self.value_upper),
            "cost_apprx": fs(self.cost_apprx),
            "cost_apprx_float": float(self.cost_apprx),
            "prob_apprx": fs(self.prob_apprx),
            "prob_apprx_float": float(self.prob_apprx),
            "c_error": fs(self.c_error),
            "p_error": fs(self.p_error),
            "p_error_float": float(self.p_error),
            "n": self.n,
            "epsilon": fs(self.epsilon),
            "n_threshold": self.n_threshold,
            "aborted": self.aborted,
            "live_frontier_mass": fs(self.live_frontier_mass),
            "max_config_size_seen": self.max_config_size_seen,
        }
        if self.value_upper is not None:
            doc["value_upper_float"] = float(self.value_upper)
        return doc


def _gap_below(cost_apprx, c_error, prob_apprx, p_error, epsilon):
    """(CostApprx+CError)/ProbApprx - CostApprx/(ProbApprx+PError) < epsilon,
    by integer cross-multiplication (1M-bit error terms make normalized
    Fraction division the hot spot otherwise). Requires ProbApprx > 0."""
    a = cost_apprx + c_error
    p2 = prob_apprx + p_error
    an, ad = a.numerator, a.denominator
    bn, bd = cost_apprx.numerator, cost_apprx.denominator
    pn, pd = prob_apprx.numerator, prob_apprx.denominator
    qn, qd = p2.numerator, p2.denominator
    en, ed = epsilon.numerator, epsilon.denominator
    return ed * (an * pd * bd * qn - bn * qd * ad * pn) < en * (ad * pn * bd * qn)


def check_budget(max_layers, max_frontier):
    if max_layers < 0 or max_frontier < 0:
        raise ValueError("max_layers and max_frontier must be >= 0")


def _step(oracle, cost, label, i):
    """() if configuration i bears the label, else its row with the cost of
    each step: (row_den, ((succ_id, cost, weight), ...))."""
    c = oracle.configs[i]
    if label in c.labels:
        return ()
    row_den, weights = oracle.row(i)
    entries = []
    for j, w in weights:
        # A process step changes the label of the moving process and no
        # other (no jump may target its own label), so the step costs the
        # label that changed; a disabled step costs 0.
        moved = [a for a, b in zip(c.labels, oracle.configs[j].labels) if a != b]
        entries.append((j, cost[moved[0]] if moved else 0, w))
    return row_den, tuple(entries)


def expected_avg_cost(prog, init, label, cost, epsilon, oracle=None, eager=None,
                      max_layers=DEFAULT_MAX_LAYERS, max_frontier=DEFAULT_MAX_FRONTIER):
    """Approximate the conditional expected cost of reaching `label` from the
    plain configuration `init`, within [value, value + epsilon)."""
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    check_budget(max_layers, max_frontier)
    if not semantics.is_plain(init):
        raise ValueError("the start configuration must be plain")
    prog.check_label(label)
    oracle = oracle or reach.ReachOracle(prog)
    start = oracle.intern(init)
    if not oracle.can_reach(start, label):
        ex = oracle.explore(start)
        raise ValueError(f"label {label!r} is unreachable{reach.pruned_note(ex.pruned, ex.bound)}; "
                         "the conditional expected cost is undefined")
    if eager is None:
        eager = eag.compute_eagerness(prog, label, oracle, source=init)

    alpha = eager.alpha
    alpha_pow = eag.PowLadder(alpha)    # one squaring ladder for every done(m)
    n_threshold = eager.n_threshold
    base_c = Fraction(cost.max_cost) / (1 - alpha) ** 2
    base_p = 1 / (1 - alpha)
    # Masses are integers over the shared denominator `den`; cost_num and
    # prob_num are CostApprx and ProbApprx over it.
    den = 1
    cost_num = prob_num = 0
    sizes = oracle.sizes
    frontier = {(start, 0): 1}     # (configuration id, accumulated cost) -> mass
    n = 0
    max_size = sizes[start]
    # id -> () if its configuration bears the label, else its step as
    # (row_den, ((succ_id, cost of the step, weight), ...)); built once per id.
    steps = {}

    def done(m):
        """Do the error terms at layer m close the gap below epsilon? The gap
        grows with alpha^m, so a certified interval decides nearly always."""
        cost_apprx, prob_apprx = Fraction(cost_num, den), Fraction(prob_num, den)
        return eag.pow_decide(alpha_pow, m, lambda t: _gap_below(
            cost_apprx, base_c * t, prob_apprx, base_p * t, epsilon))

    def result(m, aborted):
        cost_apprx, prob_apprx = Fraction(cost_num, den), Fraction(prob_num, den)
        t = alpha ** m
        c_error, p_error = base_c * t, base_p * t
        live = sum(phi for (i, _), phi in frontier.items() if oracle.can_reach(i, label))
        upper = None if prob_apprx == 0 else (cost_apprx + c_error) / prob_apprx
        return CostResult(cost_apprx / (prob_apprx + p_error), upper, cost_apprx, prob_apprx,
                          c_error, p_error, m, epsilon, n_threshold, aborted,
                          Fraction(live, den), max_size)

    while True:
        n += 1
        expand = []
        for (i, psi), phi in frontier.items():
            step = steps.get(i)
            if step is None:
                step = steps[i] = _step(oracle, cost, label, i)
            if not step:
                cost_num += psi * phi
                prob_num += phi
                continue
            row_den, entries = step
            expand.append((phi, row_den, [((j, psi + d), w) for j, d, w in entries]))
        den, (cost_num, prob_num), frontier = quantitative.advance(
            den, (cost_num, prob_num), expand)
        max_size = max(max_size, max((sizes[i] for i, _ in frontier), default=0))
        if prob_num + sum(frontier.values()) != den:
            raise AssertionError(f"expected_avg_cost: mass not conserved at layer {n}")

        if n >= n_threshold and prob_num > 0 and done(n):
            return result(n, False)

        if not frontier:
            # All mass was absorbed at the target (entries never vanish
            # otherwise), so CostApprx/ProbApprx are final and only the error
            # terms keep decaying: jump to the first terminating layer.
            start = max(n + 1, n_threshold)
            if start > max_layers or not done(max_layers):
                n = max_layers
            else:
                return result(eag.least_n(done, start), False)

        if len(frontier) > max_frontier or n >= max_layers:
            raise BudgetExceededError(
                f"expected_avg_cost: budget exhausted at layer {n} "
                f"(frontier {len(frontier)}, threshold n~={n_threshold})", result(n, True))

