import pytest

import exhaustive
from conftest import load_corpus, make_config
from ptso_verify import lang, montecarlo, qualitative, reach, semantics
from ptso_verify.errors import OracleUnknownError


@pytest.fixture(scope="module")
def oracles(corpus_mod):
    return {name: reach.ReachOracle(p) for name, p in corpus_mod.items()}


@pytest.fixture(scope="module")
def corpus_mod():
    from conftest import corpus_names
    return {name: load_corpus(name) for name in corpus_names()}


def test_qual_reach_label_in_init(corpus_mod, oracles):
    p = corpus_mod["race_flag"]
    init = semantics.initial_config(p)
    res = qualitative.qual_reach(p, init, "P0", oracles["race_flag"])
    assert res.verdict and res.witness is None


def test_qual_reach_writer_reader(corpus_mod, oracles):
    p = corpus_mod["writer_reader"]
    res = qualitative.qual_reach(p, semantics.initial_config(p), "WIN", oracles["writer_reader"])
    assert res.verdict


def test_qual_reach_race_false_with_witness(corpus_mod, oracles):
    p = corpus_mod["race_flag"]
    res = qualitative.qual_reach(p, semantics.initial_config(p), "W1", oracles["race_flag"])
    assert not res.verdict
    assert res.witness["unreachable_label"] == "W1"
    # the Monte Carlo frequency agrees: definitively below 1
    est = montecarlo.estimate_reach(p, semantics.initial_config(p), "W1", 2000, 200, 3)
    assert est.fraction < 0.9


def test_qual_rep_reach_loop(corpus_mod, oracles):
    p = corpus_mod["loop_all"]
    init = semantics.initial_config(p)
    assert qualitative.qual_rep_reach(p, init, "P1", oracles["loop_all"]).verdict
    assert qualitative.qual_reach(p, init, "P1", oracles["loop_all"]).verdict


def test_qual_rep_reach_once_false(corpus_mod, oracles):
    p = corpus_mod["once_then_term"]
    init = semantics.initial_config(p)
    assert qualitative.qual_reach(p, init, "WIN", oracles["once_then_term"]).verdict
    res = qualitative.qual_rep_reach(p, init, "WIN", oracles["once_then_term"])
    assert not res.verdict


def test_qual_rep_reach_label_in_init_not_again(corpus_mod, oracles):
    # repeated != once: starting at WIN does not make box-diamond WIN certain
    p = corpus_mod["once_then_term"]
    start = make_config(p, labels={"P": "WIN"}, regs={"a": 1})
    res = qualitative.qual_rep_reach(p, start, "WIN", oracles["once_then_term"])
    assert not res.verdict


def test_never_reach(corpus_mod, oracles):
    p = corpus_mod["dead_label"]
    init = semantics.initial_config(p)
    assert qualitative.never_qual_reach(p, init, "DEAD", oracles["dead_label"]).verdict
    assert not qualitative.never_qual_reach(p, init, "P0", oracles["dead_label"]).verdict
    assert not qualitative.never_qual_reach(p, init, "END", oracles["dead_label"]).verdict


def test_never_rep_reach(corpus_mod, oracles):
    p = corpus_mod["once_then_term"]
    init = semantics.initial_config(p)
    assert qualitative.never_qual_rep_reach(p, init, "WIN", oracles["once_then_term"]).verdict
    p2 = corpus_mod["loop_all"]
    res = qualitative.never_qual_rep_reach(p2, semantics.initial_config(p2), "P1", oracles["loop_all"])
    assert not res.verdict
    p3 = corpus_mod["dead_label"]
    assert qualitative.never_qual_rep_reach(p3, semantics.initial_config(p3), "DEAD",
                                            oracles["dead_label"]).verdict


def test_never_rep_reach_two_sccs(corpus_mod, oracles):
    p = corpus_mod["two_sccs"]
    init = semantics.initial_config(p)
    # A1 lies inside a reachable bottom SCC
    assert not qualitative.never_qual_rep_reach(p, init, "A1", oracles["two_sccs"]).verdict
    # QT is dead code, never reached at all
    assert qualitative.never_qual_rep_reach(p, init, "QT", oracles["two_sccs"]).verdict


def test_implications_on_corpus(corpus_mod, oracles):
    # qual_reach true => never_qual_reach false; rep true => reach true
    for name in ("race_flag", "once_then_term", "two_sccs", "dead_label", "race_retry"):
        p = corpus_mod[name]
        init = semantics.initial_config(p)
        oracle = oracles[name]
        for lbl in sorted(p.labels()):
            qr = qualitative.qual_reach(p, init, lbl, oracle)
            nr = qualitative.never_qual_reach(p, init, lbl, oracle)
            rr = qualitative.qual_rep_reach(p, init, lbl, oracle)
            if qr.verdict:
                assert not nr.verdict
            if rr.verdict:
                assert qr.verdict


def test_never_rep_equals_bplain_characterization(corpus_mod, oracles):
    # verdict true iff no B-plain c with init ->* c ->* label
    for name in ("once_then_term", "two_sccs", "race_flag"):
        p = corpus_mod[name]
        oracle = oracles[name]
        init = semantics.initial_config(p)
        bplain = oracle.bplain_configs(oracle.intern(init))
        for lbl in sorted(p.labels()):
            expected = not any(
                any(lbl in oracle.configs[i].labels for i in oracle.explore(b).nodes)
                for b in bplain)
            got = qualitative.never_qual_rep_reach(p, init, lbl, oracle).verdict
            assert got == expected, (name, lbl)


def test_scan_equivalent_to_all_mode_guarded(corpus_mod, oracles):
    # iterating ALL plain configurations with the init ->* c guard gives the
    # same verdict as the ReachableOnly scan
    p = corpus_mod["once_then_term"]
    oracle = oracles["once_then_term"]
    init = semantics.initial_config(p)
    ex = oracle.explore(oracle.intern(init))
    nodes = {oracle.configs[i]: i for i in ex.nodes}
    for lbl in sorted(p.labels()):
        targets = {i for c, i in nodes.items() if lbl in c.labels}
        can = ex.reaching(frozenset(targets))
        scan = True
        for c in exhaustive.all_plain_configs(p):
            if c in nodes and nodes[c] not in can:
                scan = False
        assert scan == qualitative.qual_rep_reach(p, init, lbl, oracle).verdict


def test_strict_mode_aborts(corpus_mod):
    p = corpus_mod["loop_all"]
    strict = reach.ReachOracle(p, reach.OracleConfig(bound=3, strict=True))
    with pytest.raises(OracleUnknownError):
        qualitative.qual_rep_reach(p, semantics.initial_config(p), "P1", strict)


def test_unknown_label_rejected(corpus_mod, oracles):
    p = corpus_mod["race_flag"]
    with pytest.raises(lang.ProgramError):
        qualitative.qual_reach(p, semantics.initial_config(p), "NOPE", oracles["race_flag"])


def test_verdict_json_shape(corpus_mod, oracles):
    p = corpus_mod["race_flag"]
    res = qualitative.qual_reach(p, semantics.initial_config(p), "W1", oracles["race_flag"])
    doc = res.to_json()
    assert doc["analysis"] == "qual_reach" and doc["verdict"] is False
    assert "witness" in doc and "bound_used" in doc
