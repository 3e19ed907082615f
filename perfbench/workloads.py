"""The three query workloads: fixed CLI query lists with their references.

Each query is the argv of one `ptso-verify` invocation, with paths relative
to the repository root, plus the check its output must pass (see
`reference.py`). `--seed` picks the generated `race` instance and the Monte
Carlo seed; nothing else depends on it.

Why each workload exists:
- qualitative: verdicts on buffers up to the default bound 8. Time goes into
  bounded exploration (`reach`), update-word enumeration and witness
  schedules (`semantics`); almost no rational arithmetic or rendering.
- quantitative: exact-rational mass propagation (`markov`, `quantitative`),
  the eagerness certificate and certified cost (`eagerness`, `cost`) with
  large-rational JSON rendering; many states with buffers of at most 2.
- simulate: Monte Carlo throughput at horizon 500 (`montecarlo`). It never
  enumerates update words or builds distributions, so a `reach`/`markov`
  change must leave it unchanged.
"""

from __future__ import annotations

from racegen import race_program

CORPUS = "tests/corpus"
DET_COST = "perfbench/programs/det_cost.ptso"
NAMES = ("qualitative", "quantitative", "simulate")

# Golden value, recorded from the analysis itself (no independent solver
# exists for the certificate): n~ for eagerness(writer_reader, WIN).
WRITER_READER_N_THRESHOLD = 745808264902


def corpus(name):
    return f"{CORPUS}/{name}.ptso"


def _q(qid, command, program, label, *extra, check):
    return {"id": qid, "argv": [command, program, "--label", label, *extra],
            "check": check}


def build(workload, seed, race_path):
    """(program texts by path, query list) for `workload` at `seed`.

    `race_path` is where the caller writes the generated race program.
    """
    race = {race_path: race_program(seed)}
    wr, la = corpus("writer_reader"), corpus("loop_all")
    if workload == "qualitative":
        queries = [
            _q("qual-reach.writer_reader.WIN", "qual-reach", wr, "WIN", check={
                "kind": "verdict", "expect": True,
                "reason": "from every reachable plain configuration R can still "
                          "flush its 2, let L's 1 land last and read it"}),
            _q("never-rep-reach.writer_reader.WIN", "never-rep-reach", wr, "WIN", check={
                "kind": "verdict", "expect": False,
                "reason": "WIN is a term label: once reached it stays visited, "
                          "and it is reached with positive probability"}),
            _q("qual-rep-reach.loop_all.P1", "qual-rep-reach", la, "P1", check={
                "kind": "verdict", "expect": True,
                "reason": "a is always 1, so P loops P1 -> P2 -> P1 forever"}),
            _q("never-reach.loop_all.PT", "never-reach", la, "PT", check={
                "kind": "verdict", "expect": True,
                "reason": "a is always 1, so `if a then P1` never falls through to PT"}),
            _q("qual-reach.race.WIN", "qual-reach", race_path, "WIN", check={
                "kind": "verdict_exact", "program": race_path, "label": "WIN",
                "holds_iff": "p == 1"}),
            _q("never-reach.race.WIN", "never-reach", race_path, "WIN", check={
                "kind": "verdict_exact", "program": race_path, "label": "WIN",
                "holds_iff": "p == 0"}),
        ]
        return race, queries
    if workload == "quantitative":
        rc = corpus("race_costs")
        queries = [
            _q("quant-reach.race.WIN", "quant-reach", race_path, "WIN",
               "--epsilon", "1/1000000000000",
               check={"kind": "quant", "program": race_path, "label": "WIN"}),
            _q("quant-rep-reach.two_sccs.A1", "quant-rep-reach", corpus("two_sccs"), "A1",
               check={"kind": "quant", "program": corpus("two_sccs"), "label": "A1",
                      "reason": "once Q reaches A1 it loops through A1 forever and "
                                "the B loop never reaches it, so P(inf. often A1) "
                                "= P(reach A1)"}),
            _q("eagerness.writer_reader.WIN", "eagerness", wr, "WIN", check={
                "kind": "eagerness", "n_threshold": WRITER_READER_N_THRESHOLD}),
            _q("cost.race_costs.HI", "cost", rc, "HI", "--epsilon", "1/10",
               "--max-layers", "2000",
               check={"kind": "cost", "program": rc, "label": "HI"}),
            _q("cost.race_costs.GOAL", "cost", rc, "GOAL", "--epsilon", "1/10",
               "--max-layers", "2000",
               check={"kind": "cost", "program": rc, "label": "GOAL"}),
            _q("cost.det_cost.GOAL", "cost", DET_COST, "GOAL", "--epsilon", "1/10",
               check={"kind": "cost", "program": DET_COST, "label": "GOAL",
                      "expect": "3", "reason": "three unit-cost steps, no choice"}),
        ]
        return race, queries
    if workload == "simulate":
        mc = ["--horizon", "500", "--seed", str(seed)]
        queries = [
            _q("simulate.writer_reader.WIN", "simulate", wr, "WIN", "--runs", "2500", *mc,
               check={"kind": "mc_at_least", "fraction": "999/1000"}),
            _q("simulate.loop_all.PT", "simulate", la, "PT", "--runs", "500", *mc,
               check={"kind": "mc_zero", "reason": "PT is unreachable (a is always 1)"}),
            _q("simulate.race_retry.WIN", "simulate", corpus("race_retry"), "WIN",
               "--runs", "2000", *mc,
               check={"kind": "mc_exact", "program": corpus("race_retry"), "label": "WIN"}),
        ]
        return {}, queries
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(NAMES)}")


def programs(queries):
    """Every program path the queries read, in first-use order."""
    return list(dict.fromkeys(q["argv"][1] for q in queries))


# Spans that must fire on the workload whose metrics they are meant to move;
# a wrapper that missed its target would otherwise report zeros.
SPANS = {
    "qualitative": [
        "lang.parse_program", "lang.remove_label", "semantics.update_successors",
        "semantics.step_successors", "semantics.process_step", "reach.ReachOracle.explore",
        "reach.ReachOracle.successors", "reach.ReachOracle.reaches_label",
        "reach.ReachOracle.bplain_configs", "qualitative.qual_reach",
        "qualitative.qual_rep_reach", "qualitative.never_qual_reach",
        "qualitative.never_qual_rep_reach", "cli.main", "cli._emit", "cli.to_json.QualResult"],
    "quantitative": [
        "lang.parse_program", "semantics.update_successors", "semantics.process_step",
        "reach.ReachOracle.explore", "reach.ReachOracle.distribution",
        "markov.step_distribution", "markov.frac_str", "quantitative.quant_reach",
        "quantitative.quant_rep_reach", "eagerness.compute_eagerness", "eagerness.compute_mu",
        "eagerness.nth_root_bounds", "cost.expected_avg_cost", "cli.main", "cli._emit",
        "cli.to_json.QuantResult", "cli.to_json.CostResult", "cli.to_json.EagernessParams"],
    "simulate": [
        "lang.parse_program", "semantics.process_step", "montecarlo.estimate_reach",
        "montecarlo.RunSampler.step", "cli.main", "cli._emit", "cli.to_json.ReachEstimate"],
}
