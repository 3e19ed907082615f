"""Expected average cost to the first visit of a target label, with
certified error tracking driven by the eagerness certificate.

Breadth-first layers carry (configuration, accumulated cost) entries with
exact rational path mass. CostApprx/ProbApprx accumulate the mass absorbed at
the target; CError/PError are the geometric tail bounds kappa*alpha^n/(1-alpha)^2
and alpha^n/(1-alpha), valid once n reaches the eagerness threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import eagerness as eag
from . import lang, reach, semantics
from .errors import BudgetExceededError

DEFAULT_MAX_LAYERS = 20_000
DEFAULT_MAX_FRONTIER = 200_000

DEFAULT_KIND_COSTS = {
    "write": 3, "read": 2, "assign": 1, "cas": 5, "if": 1, "term": 1, "goto": 1,
}


def _stmt_kind(stmt):
    match stmt:
        case lang.Write():
            return "write"
        case lang.Read():
            return "read"
        case lang.Assign():
            return "assign"
        case lang.Cas():
            return "cas"
        case lang.If():
            return "if"
        case lang.Term():
            return "term"
        case lang.Goto():
            return "goto"
    raise AssertionError(stmt)


@dataclass(frozen=True)
class CostFunction:
    costs: dict  # label -> positive int, every program label mapped

    @staticmethod
    def validate(prog, costs):
        missing = set(prog.labels()) - set(costs)
        if missing:
            raise ValueError(f"cost function misses labels: {sorted(missing)}")
        for lbl, v in costs.items():
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"cost of label {lbl!r} must be a positive integer, got {v!r}")
        return CostFunction(dict(costs))

    @staticmethod
    def uniform(prog, value=1):
        return CostFunction({lbl: value for lbl in prog.labels()})

    @staticmethod
    def by_kind(prog, table=None):
        table = DEFAULT_KIND_COSTS if table is None else table
        return CostFunction({lbl: table[_stmt_kind(prog.stmt_at(lbl))]
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
        from .markov import frac_str
        doc = {
            "analysis": "expected_avg_cost",
            "value": frac_str(self.value),
            "value_float": float(self.value),
            "value_upper": None if self.value_upper is None else frac_str(self.value_upper),
            "cost_apprx": frac_str(self.cost_apprx),
            "cost_apprx_float": float(self.cost_apprx),
            "prob_apprx": frac_str(self.prob_apprx),
            "prob_apprx_float": float(self.prob_apprx),
            "c_error": frac_str(self.c_error),
            "p_error": frac_str(self.p_error),
            "p_error_float": float(self.p_error),
            "n": self.n,
            "epsilon": frac_str(self.epsilon),
            "n_threshold": self.n_threshold,
            "aborted": self.aborted,
            "live_frontier_mass": frac_str(self.live_frontier_mass),
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


def expected_avg_cost(prog, init, label, cost, epsilon, oracle=None, eager=None,
                      max_layers=DEFAULT_MAX_LAYERS, max_frontier=DEFAULT_MAX_FRONTIER):
    """Approximate the conditional expected cost of reaching `label` from the
    plain configuration `init`, within [value, value + epsilon)."""
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if not semantics.is_plain(init):
        raise ValueError("the start configuration must be plain")
    prog.check_label(label)
    oracle = oracle or reach.ReachOracle(prog)
    if not oracle.can_reach(init, label):
        raise ValueError(f"label {label!r} is unreachable; the conditional expected cost is undefined")
    if eager is None:
        eager = eag.compute_eagerness(prog, label, oracle, source=init)

    kappa = cost.max_cost
    alpha = eager.alpha
    n_threshold = eager.n_threshold
    c_error = Fraction(kappa) / (1 - alpha) ** 2
    p_error = Fraction(1) / (1 - alpha)
    cost_apprx = Fraction(0)
    prob_apprx = Fraction(0)
    frontier = {(init, 0): Fraction(1)}
    n = 0
    max_size = semantics.size(init)

    while True:
        n += 1
        new = {}
        for (c, psi), phi in sorted(frontier.items()):
            if label in c.labels:
                cost_apprx += psi * phi
                prob_apprx += phi
                continue
            for succ, q in oracle.distribution(c).items():
                # A process step changes the label of the moving process and
                # no other (no jump may target its own label), so the step
                # costs the label that changed; a disabled step costs 0.
                moved = [a for a, b in zip(c.labels, succ.labels) if a != b]
                key = (succ, psi + (cost[moved[0]] if moved else 0))
                add = phi * q
                prev = new.get(key)
                new[key] = add if prev is None else prev + add
        # By construction c_error = kappa*alpha^n/(1-alpha)^2 and
        # p_error = alpha^n/(1-alpha); tests check the closed forms.
        c_error *= alpha
        p_error *= alpha
        frontier = new
        max_size = max(max_size, max((semantics.size(c) for c, _ in frontier), default=0))

        if (n >= n_threshold and p_error > 0 and prob_apprx > 0
                and _gap_below(cost_apprx, c_error, prob_apprx, p_error, epsilon)):
            return _result(prog, oracle, label, cost_apprx, prob_apprx, c_error,
                           p_error, n, epsilon, n_threshold, False, frontier, max_size)

        if not frontier:
            # All mass was absorbed at the target (entries never vanish
            # otherwise), so CostApprx/ProbApprx are final and only the error
            # terms keep decaying: jump to the first terminating layer.
            if prob_apprx != 1:
                raise AssertionError(f"frontier empty with absorbed mass {prob_apprx} != 1")
            kap = Fraction(kappa)
            base_c = kap / (1 - alpha) ** 2
            base_p = Fraction(1) / (1 - alpha)

            def done(m):
                return _gap_below(cost_apprx, base_c * alpha ** m, prob_apprx,
                                  base_p * alpha ** m, epsilon)

            start = max(n + 1, n_threshold)
            if start > max_layers or not done(max_layers):
                n = max_layers
                c_error = base_c * alpha ** n
                p_error = base_p * alpha ** n
            else:
                lo, final = start, max_layers
                if done(start):
                    final = start
                else:
                    while final - lo > 1:
                        mid = (lo + final) // 2
                        if done(mid):
                            final = mid
                        else:
                            lo = mid
                return _result(prog, oracle, label, cost_apprx, prob_apprx,
                               base_c * alpha ** final, base_p * alpha ** final,
                               final, epsilon, n_threshold, False, frontier, max_size)

        if len(frontier) > max_frontier or n >= max_layers:
            partial = _result(prog, oracle, label, cost_apprx, prob_apprx, c_error,
                              p_error, n, epsilon, n_threshold, True, frontier, max_size)
            raise BudgetExceededError(
                f"expected_avg_cost: budget exhausted at layer {n} "
                f"(frontier {len(frontier)}, threshold n~={n_threshold})", partial)


def _result(prog, oracle, label, cost_apprx, prob_apprx, c_error, p_error, n,
            epsilon, n_threshold, aborted, frontier, max_size):
    live = sum((phi for (c, _), phi in frontier.items() if oracle.can_reach(c, label)),
               Fraction(0))
    value = cost_apprx / (prob_apprx + p_error)
    upper = None if prob_apprx == 0 else (cost_apprx + c_error) / prob_apprx
    return CostResult(value, upper, cost_apprx, prob_apprx, c_error, p_error,
                      n, epsilon, n_threshold, aborted, live, max_size)
