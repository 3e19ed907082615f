"""Command-line front end. One analysis per invocation; a single JSON
document on stdout, a human-readable summary on stderr.

Exit codes: 0 analysis completed (true verdict for qualitative commands),
1 false qualitative verdict, 2 usage or parse error, 3 oracle Unknown in
strict mode, 4 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import cost as cost_mod
from . import eagerness, lang, markov, montecarlo, qualitative, quantitative, reach, semantics
from .errors import BudgetExceededError, OracleUnknownError

SCHEMA = "ptso-verify/1"

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_UNKNOWN = 3
EXIT_BUDGET = 4


def _emit(doc, summary):
    doc = {"schema": SCHEMA, **doc}
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    sys.stderr.write(summary + "\n")


def _add_common(sub, epsilon=False, oracle=True):
    sub.add_argument("program", help="program file (.ptso)")
    sub.add_argument("--label", required=True, help="target instruction label")
    if oracle:
        sub.add_argument("--bound", type=int, default=8,
                         help="buffer-size cap of the reachability oracle (default 8)")
        sub.add_argument("--strict", action="store_true",
                         help="report Unknown instead of assuming No when the bound prunes")
    sub.add_argument("--init", default=None, metavar="FILE",
                     help="JSON file with a start configuration (canonical rendering)")
    if epsilon:
        sub.add_argument("--epsilon", default="1/100",
                         help='precision, as "num/den" or a decimal (default 1/100)')


def build_parser():
    ap = argparse.ArgumentParser(prog="ptso-verify",
                                 description="Probabilistic TSO model checker")
    sp = ap.add_subparsers(dest="command", required=True)

    sp.add_parser("parse", help="parse and validate a program").add_argument(
        "program", help="program file (.ptso)")
    for name in ("qual-reach", "qual-rep-reach", "never-reach", "never-rep-reach"):
        sub = sp.add_parser(name)
        _add_common(sub)
        if name == "never-reach":
            sub.add_argument("--bound-max", type=int, default=None,
                             help="deepen a pruned No: --bound doubled up to this cap")
    for name in ("quant-reach", "quant-rep-reach"):
        sub = sp.add_parser(name)
        _add_common(sub, epsilon=True)
        sub.add_argument("--max-iterations", type=int, default=quantitative.DEFAULT_MAX_ITERATIONS)

    sub = sp.add_parser("cost", help="expected average cost to the label")
    _add_common(sub, epsilon=True)
    sub.add_argument("--costs", default=None, metavar="FILE", help="JSON map label -> positive cost")
    sub.add_argument("--default-costs", action="store_true",
                     help="use the per-statement-kind cost table instead of unit costs")
    sub.add_argument("--beta", type=int, default=eagerness.DEFAULT_BETA)
    sub.add_argument("--max-layers", type=int, default=cost_mod.DEFAULT_MAX_LAYERS)
    sub.add_argument("--max-frontier", type=int, default=cost_mod.DEFAULT_MAX_FRONTIER)

    sub = sp.add_parser("simulate", help="Monte Carlo reachability estimate")
    _add_common(sub, oracle=False)
    sub.add_argument("--runs", type=int, default=10000)
    sub.add_argument("--horizon", type=int, default=500)
    sub.add_argument("--seed", type=int, default=0)

    sub = sp.add_parser("eagerness", help="compute the eagerness certificate")
    _add_common(sub)
    sub.add_argument("--beta", type=int, default=eagerness.DEFAULT_BETA)
    return ap


def _load(args):
    with open(args.program, encoding="utf-8") as fh:
        prog = lang.parse_program(fh.read())
    if getattr(args, "init", None):
        with open(args.init, encoding="utf-8") as fh:
            init = semantics.config_from_json(prog, json.load(fh))
    else:
        init = semantics.initial_config(prog)
    if "bound" not in args:     # parse and simulate ask no oracle
        return prog, init, None
    oc = reach.OracleConfig(bound=args.bound, strict=args.strict)
    return prog, init, reach.ReachOracle(prog, oc)


_QUAL = {
    "qual-reach": qualitative.qual_reach,
    "qual-rep-reach": qualitative.qual_rep_reach,
    "never-reach": qualitative.never_qual_reach,
    "never-rep-reach": qualitative.never_qual_rep_reach,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        prog, init, oracle = _load(args)
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE

    try:
        if args.command == "parse":
            doc = {
                "analysis": "parse",
                "canonical": lang.print_program(prog),
                "domain": prog.domain_size,
                "vars": list(prog.vars),
                "processes": [{"name": p.name, "weight": p.weight,
                               "regs": list(p.regs), "labels": [i.label for i in p.instrs]}
                              for p in prog.processes],
            }
            _emit(doc, f"parsed {args.program}: {len(prog.processes)} processes, "
                       f"{len(list(prog.labels()))} instructions")
            return EXIT_OK

        if args.command in _QUAL:
            deepen = {"bound_max": args.bound_max} if "bound_max" in args else {}
            res = _QUAL[args.command](prog, init, args.label, oracle, **deepen)
            _emit(res.to_json(), f"{res.analysis}({args.label}) = {res.verdict}"
                                 f"{reach.pruned_note(res.pruned, res.bound_used)}")
            return EXIT_OK if res.verdict else EXIT_FALSE

        if args.command in ("quant-reach", "quant-rep-reach"):
            eps = markov.parse_frac(args.epsilon)
            fn = quantitative.quant_reach if args.command == "quant-reach" else quantitative.quant_rep_reach
            res = fn(prog, init, args.label, eps, oracle, max_iterations=args.max_iterations)
            _emit(res.to_json(),
                  f"{res.analysis}({args.label}) in [{float(res.value):.6f}, "
                  f"{float(res.value + res.epsilon):.6f}] after {res.iterations} layers"
                  f"{reach.pruned_note(res.pruned, res.bound_used)}")
            return EXIT_OK

        if args.command == "cost":
            eps = markov.parse_frac(args.epsilon)
            cost_mod.check_budget(args.max_layers, args.max_frontier)
            if args.costs:
                with open(args.costs, encoding="utf-8") as fh:
                    cost = cost_mod.CostFunction.validate(prog, json.load(fh))
            elif args.default_costs:
                cost = cost_mod.CostFunction.by_kind(prog)
            else:
                cost = cost_mod.CostFunction.uniform(prog)
            eager = eagerness.compute_eagerness(prog, args.label, oracle,
                                                source=init, beta=args.beta)
            if eager.n_threshold > args.max_layers:
                sys.stderr.write(
                    f"warning: eagerness threshold n~={eager.n_threshold} exceeds "
                    f"--max-layers={args.max_layers}; expect a partial-bounds abort\n")
            res = cost_mod.expected_avg_cost(prog, init, args.label, cost, eps, oracle,
                                             eager=eager, max_layers=args.max_layers,
                                             max_frontier=args.max_frontier)
            _emit(res.to_json(),
                  f"expected_avg_cost({args.label}) ~ {float(res.value):.6f} "
                  f"(+{float(res.epsilon)}) after {res.n} layers")
            return EXIT_OK

        if args.command == "simulate":
            res = montecarlo.estimate_reach(prog, init, args.label,
                                            args.runs, args.horizon, args.seed)
            _emit(res.to_json(),
                  f"simulate({args.label}): {res.hits}/{res.runs} hits within "
                  f"{res.horizon} steps, fraction {res.fraction:.6f}")
            return EXIT_OK

        if args.command == "eagerness":
            eager = eagerness.compute_eagerness(prog, args.label, oracle,
                                                source=init, beta=args.beta)
            _emit(eager.to_json(),
                  f"eagerness({args.label}): alpha ~ {float(eager.alpha):.6f}, "
                  f"n~ = {eager.n_threshold}")
            return EXIT_OK

        raise AssertionError(args.command)

    except OracleUnknownError as exc:
        sys.stderr.write(f"unknown: {exc}\n")
        return EXIT_UNKNOWN
    except BudgetExceededError as exc:
        if exc.partial is not None:
            _emit(exc.partial.to_json(), f"budget exceeded: {exc}")
        else:
            sys.stderr.write(f"budget exceeded: {exc}\n")
        return EXIT_BUDGET
    except (OSError, lang.ProgramError, ValueError) as exc:   # OSError: --costs FILE
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
