"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import contextlib
import io
import json
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import racegen  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from ptso_verify import cli, lang, semantics  # noqa: E402

CORPUS = HERE.parent / "tests" / "corpus"


def test_generator_is_deterministic_with_fixed_shape():
    seeds = range(6)
    texts = [racegen.race_program(seed) for seed in seeds]
    assert texts == [racegen.race_program(seed) for seed in seeds]
    assert len(set(texts)) > 1
    shapes = set()
    for seed, text in zip(seeds, texts):
        prog = lang.parse_program(text)
        shapes.add(tuple(tuple(i.label for i in p.instrs) for p in prog.processes))
        writes, weights, target = racegen.race_params(seed)
        flat = {v for pair in writes for v in pair}
        assert target in flat and flat - {target}
        assert sorted(weights[:-1]) == [1, 2, 3]
    assert len(shapes) == 1


def test_self_time_on_hand_built_span_tree():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9] > leaf x2 (hot)
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 6.5, 7.0, 8.0, 9.0, 10.0])
    tr = tracer.Tracer(clock=lambda: next(ticks), hot=frozenset({"leaf"}))
    root = tr.enter("root")
    a = tr.enter("a")
    tr.exit(tr.enter("a1"))
    tr.exit(a)
    b = tr.enter("b")
    tr.exit(tr.enter("leaf"))
    tr.exit(tr.enter("leaf"))
    tr.exit(b)
    tr.exit(root)
    rows = {name: (parent, calls, total, self_t)
            for name, parent, calls, total, self_t in tr.rows()}
    assert rows == {
        "a1": ("a", 1, 1.0, 1.0),
        "a": ("root", 1, 3.0, 2.0),
        "leaf": ("b", 2, 1.5, 1.5),
        "b": ("root", 1, 4.0, 2.5),
        "root": (None, 1, 10.0, 3.0),
    }
    assert len(tr.spans) == 4          # the hot leaf is aggregated
    assert sum(r[3] for r in rows.values()) == 10.0


def test_speed_probe_rescales_by_nearby_kernel_times():
    probe = speed.Probe()
    probe.samples = [(1.0, 0.001), (2.0, 0.004), (2.1, 0.002), (2.2, 0.003), (9.0, 0.008)]
    assert probe.kernel_s(2.0, 2.1) == 0.003          # median of the three near samples
    assert probe.kernel_s(8.0, 8.1) == 0.008          # none near: the closest one
    assert speed.rescale(3.0, 2 * speed.NOMINAL_S) == 1.5
    with speed.Probe() as live:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 6 * speed.PERIOD:
            pass
    assert len(live.samples) >= 3 and live.spent > 0
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def _quant_doc(value, eps="1/100"):
    return json.dumps({"analysis": "quant_reach", "value": value, "epsilon": eps})


def test_gate_rejects_doctored_answers():
    refs = {"p.ptso WIN": {"p": "1/3", "e": "5/2"}}
    quant = {"check": {"kind": "quant", "program": "p.ptso", "label": "WIN"}}
    assert reference.check(quant, 0, _quant_doc("33/100"), refs) is None
    assert reference.check(quant, 0, _quant_doc("1/2"), refs) is not None
    assert reference.check(quant, 0, _quant_doc("1/3", "0/1"), refs) is None
    assert reference.check(quant, 0, _quant_doc("1/4"), refs) is not None

    exact = {"check": {"kind": "verdict_exact", "program": "p.ptso", "label": "WIN",
                       "holds_iff": "p == 0"}}
    assert reference.check(exact, 1, json.dumps({"verdict": False}), refs) is None
    assert reference.check(exact, 0, json.dumps({"verdict": True}), refs) is not None

    cost = {"check": {"kind": "cost", "program": "p.ptso", "label": "WIN"}}
    good = {"value": "12/5", "epsilon": "1/5", "value_upper": "13/5"}
    assert reference.check(cost, 0, json.dumps(good), refs) is None
    assert reference.check(cost, 0, json.dumps({**good, "value": "21/10"}), refs) is not None
    partial = {"aborted": True, "value": "2/1", "prob_apprx": "1/3"}
    assert reference.check(cost, 4, json.dumps(partial), refs) is None
    assert reference.check(cost, 4, json.dumps({**partial, "prob_apprx": "1/2"}), refs)

    mc = {"check": {"kind": "mc_exact", "program": "p.ptso", "label": "WIN"}}
    assert reference.check(mc, 0, json.dumps({"hits": 340, "runs": 1000}), refs) is None
    assert reference.check(mc, 0, json.dumps({"hits": 500, "runs": 1000}), refs) is not None
    assert reference.check(mc, 2, "", refs) is not None
    assert reference.check(mc, 0, "not json", refs).startswith("malformed")
    assert reference.check(quant, 0, json.dumps({"verdict": True}), refs).startswith("malformed")


def _ask(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue().encode()


QUERIES = [
    ["qual-reach", str(CORPUS / "race_flag.ptso"), "--label", "W1"],
    ["never-rep-reach", str(CORPUS / "once_then_term.ptso"), "--label", "WIN"],
    ["quant-reach", str(CORPUS / "race_flag.ptso"), "--label", "W1", "--epsilon", "1/1000"],
    ["cost", str(CORPUS / "race_costs.ptso"), "--label", "GOAL", "--max-layers", "50"],
    ["simulate", str(CORPUS / "race_retry.ptso"), "--label", "WIN", "--runs", "50",
     "--horizon", "100", "--seed", "3"],
]


def test_traced_and_untraced_outputs_are_byte_identical():
    plain = [_ask(argv) for argv in QUERIES]
    tr = tracer.Tracer()
    with tracer.install(tr):
        traced = [_ask(argv) for argv in QUERIES]
    assert traced == plain
    assert {code for code, _ in plain} == {0, 1, 4}
    names = tr.by_name()
    for name in ("cli.main", "qualitative.qual_reach", "markov.frac_str",
                 "semantics.update_successors", "montecarlo.RunSampler.step"):
        assert names[name][0] > 0, name
    # every wrapper is removed again
    for owner, attr, _, _ in tracer.targets():
        fn = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        assert not hasattr(fn, "__wrapped__"), attr


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layers = tracer.summarize([tracer.per_layer(tracer.Tracer(), 0)], 0.0, 0.0)
    assert sorted(layers) == sorted(m["name"] for m in spec["per_layer"])
    for m in spec["per_layer"]:
        assert tracer.UNITS[m["name"]] == m["unit"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)


def test_every_workload_query_names_a_known_program():
    for name in workloads.NAMES:
        generated, queries = workloads.build(name, 7, "race.ptso")
        assert queries
        for path in workloads.programs(queries):
            text = generated.get(path) or (HERE.parent / path).read_text()
            prog = lang.parse_program(text)
            for q in queries:
                if q["argv"][1] == path:
                    assert q["argv"][3] in prog.tables["label_pos"]
            semantics.initial_config(prog)
