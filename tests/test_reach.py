import collections
import dataclasses
import math
import pathlib
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import exhaustive
from conftest import corpus_names, load_corpus, make_config
from test_lang import programs, racy_programs
from ptso_verify import cost, lang, markov, quantitative, reach, semantics
from ptso_verify.errors import BudgetExceededError, OracleUnknownError

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
from racegen import race_program  # noqa: E402

SINGLE_TERM = "domain 2\nvars x\nproc P weight 1\nregs a\n0: term\n"

STRAIGHT = """
domain 2
vars x
proc P weight 1
regs a
S0: a := 1
S1: x := a
S2: term
"""

GUARDED = """
domain 2
vars x
proc P weight 1
regs one z r
P0: one := 1
P1: z := 0
P2: if z then DEAD
P3: if one then END
DEAD: r := 0
END: term
"""


def test_reaches_label_already_there():
    p = lang.parse_program(SINGLE_TERM)
    oracle = reach.ReachOracle(p)
    ans = oracle.reaches_label(semantics.initial_config(p), "0")
    assert ans.is_yes and ans.path == []


def test_reaches_label_forward():
    p = lang.parse_program(STRAIGHT)
    oracle = reach.ReachOracle(p)
    ans = oracle.reaches_label(semantics.initial_config(p), "S2")
    assert ans.is_yes
    assert len(ans.path) >= 2


def test_reaches_label_dead_guard():
    p = lang.parse_program(GUARDED)
    oracle = reach.ReachOracle(p)
    ans = oracle.reaches_label(semantics.initial_config(p), "DEAD")
    assert not ans.is_yes and not ans.pruned  # exact: no writes, nothing pruned


def test_witness_path_replays():
    p = load_corpus("race_flag")
    oracle = reach.ReachOracle(p)
    init = semantics.initial_config(p)
    ans = oracle.reaches_label(init, "W1")
    assert ans.is_yes
    c = init
    for step in ans.path:
        succ = semantics.config_from_json(p, step["config"])
        assert oracle.distribution(c)[succ] > 0
        if step["proc"] is None:
            assert semantics.enabled_indices(p, c) == []
            mid = c
        else:
            assert p.proc_index(step["proc"]) in semantics.enabled_indices(p, c)
            mid = semantics.process_step(p, c, step["proc"])
        assert semantics.apply_schedule(p, mid, step["schedule"]) == succ
        c = succ
    assert "W1" in c.labels


def test_all_plain_configs_count():
    p = lang.parse_program("domain 2\nvars x\nproc P weight 1\nregs a\nA0: x := a\nA1: term\n")
    allp = exhaustive.all_plain_configs(p)
    assert len(allp) == 2 * 2 * 2
    oracle = reach.ReachOracle(p)
    reachable = {c for c in _explored(oracle, semantics.initial_config(p))
                 if semantics.is_plain(c)}
    assert reachable <= set(allp)
    with pytest.raises(ValueError, match="cap"):
        exhaustive.all_plain_configs(p, cap=3)


def naive_bplain(oracle, source):
    """Independent B-plain computation straight from the definition:
    pairwise reachability between plain configurations."""
    plains = [c for c in sorted(_explored(oracle, source)) if semantics.is_plain(c)]
    reach_sets = {c: set(_explored(oracle, c)) for c in plains}
    out = []
    for c in plains:
        if all(c in reach_sets[d] for d in plains if d in reach_sets[c]):
            out.append(c)
    return out


@pytest.mark.parametrize("name,label", [("once_then_term", None), ("race_flag", None),
                                        ("two_sccs", None)])
def test_bplain_matches_naive_definition(name, label):
    p = load_corpus(name)
    oracle = reach.ReachOracle(p)
    init = semantics.initial_config(p)
    bplain = oracle.bplain_configs(oracle.intern(init))
    assert [oracle.configs[i] for i in bplain] == naive_bplain(oracle, init)


def test_bplain_straight_line():
    p = lang.parse_program(STRAIGHT)
    oracle = reach.ReachOracle(p)
    bp = oracle.bplain_configs()
    assert bp
    for i in bp:
        assert oracle.configs[i].labels == ("S2",)


def test_bplain_single_term():
    p = lang.parse_program(SINGLE_TERM)
    oracle = reach.ReachOracle(p)
    init = oracle.intern(semantics.initial_config(p))
    assert oracle.bplain_configs(init) == [init]


def test_every_plain_reaches_bplain():
    p = load_corpus("two_sccs")
    oracle = reach.ReachOracle(p)
    init = oracle.intern(semantics.initial_config(p))
    ex = oracle.explore(init)
    bplain = set(oracle.bplain_configs(init))
    back = ex.backward_set(bplain)
    for i in ex.nodes:
        if semantics.is_plain(oracle.configs[i]):
            assert i in back


def test_reachable_plain_excludes_impossible_valuations():
    # the reader's register can only hold 1 after some writer flush made
    # memory nonzero, so a=1 with x=0 never co-occurs in a reachable plain
    # configuration (brute-force over the explored plain set)
    p = load_corpus("writer_reader")
    oracle = reach.ReachOracle(p)
    plains = sorted(c for c in _explored(oracle, semantics.initial_config(p))
                    if semantics.is_plain(c))
    a_ix = p.tables["reg_index"]["a"]
    x_ix = p.tables["var_index"]["x"]
    assert plains
    assert not any(c.regs[a_ix] == 1 and c.mem[x_ix] == 0 for c in plains)


def test_monotone_in_bound():
    p = load_corpus("writer_reader")
    init = semantics.initial_config(p)
    yes_bounds = []
    for k in (2, 3, 4):
        oracle = reach.ReachOracle(p, reach.OracleConfig(bound=k))
        yes_bounds.append(oracle.reaches_label(init, "WIN").is_yes)
    assert yes_bounds == sorted(yes_bounds)  # once yes, stays yes
    assert yes_bounds[-1]


def test_over_bound_root_prunes_its_self_edge():
    # an --init start may hold more messages than the bound: its empty-word
    # self-edge goes back to an over-bound configuration and is pruned, while
    # the successors that pop one or both messages are kept
    p = load_corpus("race_flag")
    root = make_config(p, labels={"P": "P2", "Q": "J"}, bufs={"P": [("x", 1), ("x", 0)]})
    assert semantics.size(root) == 2
    oracle = reach.ReachOracle(p, reach.OracleConfig(bound=1))
    i = oracle.intern(root)
    ex = oracle.explore(i)
    assert ex.pruned_at == {i}
    assert i not in ex.succs[i]
    assert sorted(oracle.sizes[s] for s in ex.succs[i]) == [0, 1]
    assert all(oracle.sizes[j] <= 1 for j in ex.nodes - {i})
    assert len(ex.nodes) == 3


def _explored(oracle, c):
    """The configurations of oracle's exploration from configuration c, in
    BFS order."""
    return [oracle.configs[i] for i in oracle.explore(oracle.intern(c)).nodes]


def _first_over_bound(prog, oracle, ex):
    """The first successor over the bound, in configuration order, of the
    configurations ex explored; None if there is none."""
    return next((s for c in sorted(oracle.configs[i] for i in ex.nodes)
                 for s in sorted(semantics.step_successors(prog, c))
                 if semantics.size(s) > ex.bound), None)


def _explorations(prog, bounds=(1, 3, 8)):
    """prog's explorations at each bound, each with its oracle: from its
    start, and from the first successor over the bound, an --init start
    whose edges back to itself are pruned."""
    for bound in bounds:
        oracle = reach.ReachOracle(prog, reach.OracleConfig(bound=bound))
        ex = oracle.explore(oracle.intern(semantics.initial_config(prog)))
        yield oracle, ex
        over = _first_over_bound(prog, oracle, ex)
        if over is not None:
            yield oracle, oracle.explore(oracle.intern(over))


@pytest.mark.parametrize("name", corpus_names())
def test_exploration_holds_each_configuration_once(name):
    """Every successor listed in `succs` is a node keying `succs`, and no two
    nodes hold one configuration."""
    for oracle, ex in _explorations(load_corpus(name)):
        assert all(s in ex.succs for succs in ex.succs.values() for s in succs)
        assert len({oracle.configs[i] for i in ex.nodes}) == len(ex.nodes)


@pytest.mark.parametrize("name", corpus_names())
def test_explorations_hold_the_oracles_ids(name):
    """One numbering: every id an exploration holds is the oracle's id of
    its configuration, two explorations of one oracle give a shared
    configuration one id, and witness order is configuration order."""
    by_oracle = collections.defaultdict(list)
    for oracle, ex in _explorations(load_corpus(name)):
        by_oracle[oracle].append(ex)
        configs = oracle.configs
        held = {ex.root, *ex.pruned_at, *ex.succs, *(s for ss in ex.succs.values() for s in ss)}
        assert all(oracle.intern(configs[i]) == i for i in held)
        assert ([configs[i] for i in ex.in_witness_order(ex.nodes)]
                == sorted(configs[i] for i in ex.nodes))
    for oracle, explorations in by_oracle.items():
        ids = [{oracle.configs[i]: i for i in ex.nodes} for ex in explorations]
        for a, b in zip(ids, ids[1:]):
            assert all(a[c] == b[c] for c in a.keys() & b.keys())


@pytest.mark.parametrize("name", corpus_names())
def test_tarjan_emits_components_sinks_first(name):
    """Every node lies in one component, and no exploration edge points to
    a component emitted later: the order an SCC-by-SCC solve relies on."""
    for _, ex in _explorations(load_corpus(name)):
        comps = reach._tarjan(ex.nodes, ex.succs)
        order = {i: k for k, comp in enumerate(comps) for i in comp}
        assert sorted(order) == sorted(ex.nodes) == sorted(i for comp in comps for i in comp)
        assert all(order[s] <= order[i] for i, succs in ex.succs.items() for s in succs)


def _reference_exploration(prog, root, bound):
    """explore(root) over configurations: a FIFO breadth-first search over
    sorted(step_successors(prog, c)), keeping the successors within the bound
    and pruning edges back to a root over it. Returns (succs, pruned_at,
    found), found mapping each node but the root, in discovery order, to the
    node that first reached it."""
    succs, pruned_at, found = {}, set(), {}
    queue = [root]
    for c in queue:
        kept = []
        for succ in sorted(semantics.step_successors(prog, c)):
            if succ != root and succ not in found:
                if semantics.size(succ) > bound:
                    pruned_at.add(c)
                    continue
                found[succ] = c
                queue.append(succ)
            elif succ == root and semantics.size(root) > bound:
                pruned_at.add(c)
                continue
            kept.append(succ)
        succs[c] = tuple(kept)
    return succs, pruned_at, found


def _assert_explores_as_reference(prog, oracle, ex):
    configs = oracle.configs
    succs, pruned_at, _ = _reference_exploration(prog, configs[ex.root], ex.bound)
    assert [(configs[i], tuple(configs[s] for s in ss)) for i, ss in ex.succs.items()] == list(
        succs.items())
    assert {configs[i] for i in ex.pruned_at} == pruned_at


@pytest.mark.parametrize("name", corpus_names())
def test_exploration_matches_reference(name):
    """Same nodes in the same order, the same successor tuples and the same
    pruned set as the search over configurations."""
    prog = load_corpus(name)
    for oracle, ex in _explorations(prog):
        _assert_explores_as_reference(prog, oracle, ex)


@settings(max_examples=100, deadline=None)
@given(st.one_of(programs(), racy_programs()), st.integers(1, 3))
def test_generated_explorations_match_reference(prog, bound):
    for oracle, ex in _explorations(prog, (bound,)):
        _assert_explores_as_reference(prog, oracle, ex)


def test_successors_refuse_two_steps_to_one_local_part(monkeypatch):
    """Each process step moves its own label, so no two give one local part;
    explore's sort order rests on that, and a step breaking it raises, also
    under python -O."""
    p = load_corpus("race_flag")           # P and Q are both enabled at the start
    monkeypatch.setattr(semantics, "process_step", lambda prog, c, proc: c)
    with pytest.raises(AssertionError, match="one local part"):
        oracle = reach.ReachOracle(p)
        oracle.successors(oracle.intern(semantics.initial_config(p)))


def _reference_successors(prog, c):
    """successors of c rebuilt from enabled_indices and process_step: one
    (local part, store part, process) step per enabled process, in process
    order, or c itself with None when none is."""
    steps = [(semantics.process_step(prog, c, pi), pi) for pi in semantics.enabled_indices(prog, c)]
    return [((m.labels, m.regs), (m.bufs, m.mem), pi) for m, pi in steps or [(c, None)]]


def _assert_successors_as_reference(oracle, ex):
    """Every node's successors, read from the per-local-id table, are the
    reference steps, and carry the oracle's ids of their parts."""
    for i in ex.nodes:
        got = oracle.successors(i)
        assert [(local, oracle._stores[sid], pi) for local, _, sid, pi in got] == (
            _reference_successors(oracle.prog, oracle.configs[i]))
        assert all(oracle._locals[lid] == local for local, lid, _, _ in got)


@pytest.mark.parametrize("name", corpus_names())
def test_successors_match_reference(name):
    """At bounds 1, 3 and 8, from the start and from the first successor
    over the bound."""
    for oracle, ex in _explorations(load_corpus(name)):
        _assert_successors_as_reference(oracle, ex)


@settings(max_examples=100, deadline=None)
@given(st.one_of(programs(), racy_programs(), racy_programs(loops=True)), st.integers(1, 3))
def test_generated_successors_match_reference(prog, bound):
    for oracle, ex in _explorations(prog, (bound,)):
        _assert_successors_as_reference(oracle, ex)


def _store_uses(prog, c):
    """What c's processes take from the store: 'cas blocked' for a CAS with
    a nonempty own buffer, 'read own' for a Read its own buffer serves,
    'read mem' for one memory serves."""
    for pi, label in enumerate(c.labels):
        match prog.stmt_at(label):
            case lang.Cas():
                if c.bufs[pi]:
                    yield "cas blocked"
            case lang.Read(var=x):
                yield "read own" if any(y == x for y, _ in c.bufs[pi]) else "read mem"


def test_corpus_explorations_cover_the_store_uses():
    """The per-node comparison above meets every way a step reads the store:
    race_cas holds its CAS back behind a buffered write, and writer_reader's
    R reads x from its own buffer as well as from memory."""
    for name, uses in (("race_cas", {"cas blocked"}), ("writer_reader", {"read own", "read mem"})):
        prog = load_corpus(name)
        seen = {u for oracle, ex in _explorations(prog) for i in ex.nodes
                for u in _store_uses(prog, oracle.configs[i])}
        assert uses <= seen


def test_process_steps_filled_once_per_key(monkeypatch):
    """Exploring race seed 1 at bound 8, then building every explored node's
    row, calls process_step at most once per (local part, process, value a
    Read sees) key, and no more often than there are such keys among the
    explored nodes' enabled processes: rows read the steps exploration
    tabled. (race has no CAS, whose steps are not tabled.)"""
    prog = lang.parse_program(race_program(1))
    vix = prog.tables["var_index"]

    def key(c, pi):
        stmt = prog.stmt_at(c.labels[pi])
        assert not isinstance(stmt, lang.Cas)      # race has none; a CAS is not tabled
        seen = None
        if isinstance(stmt, lang.Read):
            seen = next((v for x, v in c.bufs[pi] if x == stmt.var), c.mem[vix[stmt.var]])
        return (c.labels, c.regs), pi, seen

    calls = collections.Counter()
    original = semantics.process_step

    def counting(prog_, c, proc):
        calls[key(c, proc)] += 1
        return original(prog_, c, proc)

    monkeypatch.setattr(semantics, "process_step", counting)
    oracle = reach.ReachOracle(prog, reach.OracleConfig(bound=8))
    ex = oracle.explore(oracle.intern(semantics.initial_config(prog)))
    for i in ex.nodes:
        oracle.row(i)
    monkeypatch.undo()
    keys = {key(oracle.configs[i], pi) for i in ex.nodes
            for pi in semantics.enabled_indices(prog, oracle.configs[i])}
    assert set(calls.values()) == {1}
    assert set(calls) <= keys
    assert sum(calls.values()) <= len(keys)
    assert len(keys) < sum(len(semantics.enabled_indices(prog, oracle.configs[i]))
                           for i in ex.nodes)


def test_update_step_counted_once_per_store_id(monkeypatch):
    """Exploring writer_reader at bound 8, then building every explored
    node's row, calls semantics.update_successors exactly once per store id
    whose update step the oracle keeps: rows count no store of their own."""
    prog = load_corpus("writer_reader")
    asked = []
    original = semantics.update_successors
    monkeypatch.setattr(semantics, "update_successors",
                        lambda prog_, store: asked.append(store) or original(prog_, store))
    oracle = reach.ReachOracle(prog, reach.OracleConfig(bound=8))
    ex = oracle.explore(oracle.intern(semantics.initial_config(prog)))
    for i in ex.nodes:
        oracle.row(i)
    assert len(asked) == len(set(asked))
    assert sorted(asked) == sorted(oracle._stores[s] for s, step in enumerate(oracle._updates)
                                   if step is not None)


def test_exploration_memory_ceiling():
    """The traced peak of exploring writer_reader from its start at bound 12
    (2,976 nodes) stays under 5 MiB. Keeping each store's update step once,
    as store ids and word counts, peaks at 3.3 MiB on CPython 3.11; keeping
    it a second time with each successor's store part and first word peaked
    at 6.9 MiB."""
    prog = load_corpus("writer_reader")
    tracemalloc.start()
    try:
        oracle = reach.ReachOracle(prog, reach.OracleConfig(bound=12))
        ex = oracle.explore(oracle.intern(semantics.initial_config(prog)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ex.nodes) == 2976
    assert peak < 5 * 2**20


@pytest.mark.parametrize("name", corpus_names())
def test_sizes_are_the_configurations_sizes(name):
    """One size rule: every id the oracle gave, explored or not, over-bound
    roots included, is sized as semantics.size sizes its configuration."""
    for oracle, _ in _explorations(load_corpus(name)):
        assert oracle.sizes == [semantics.size(c) for c in oracle.configs]


def _bfs_paths(prog, root, bound):
    """The witness path to every node of root's bounded exploration, rebuilt
    from the reference search: a node's step comes from the node that first
    reached it, with the process step_successors gives."""
    paths = {root: []}
    for succ, c in _reference_exploration(prog, root, bound)[2].items():
        proc = semantics.step_successors(prog, c)[succ]
        mid = c if proc is None else semantics.process_step(prog, c, proc)
        paths[succ] = paths[c] + [{
            "proc": proc, "schedule": list(semantics.witness_schedule(prog, mid, succ)),
            "config": semantics.config_to_json(prog, succ)}]
    return paths


def _keep_per_argument(monkeypatch, name):
    """Make semantics.<name>(prog, x), a pure function, keep its result per
    x for the rest of the test, which asks of one program only."""
    kept, real = {}, getattr(semantics, name)

    def keeping(prog, x):
        got = kept.get(x)
        if got is None:
            got = kept[x] = real(prog, x)
        return got

    monkeypatch.setattr(semantics, name, keeping)


@pytest.mark.parametrize("name", corpus_names())
def test_witness_paths_follow_first_discoverer(name, monkeypatch):
    # path_to asks step_successors and witness_schedule again for every step
    # of every node's path; what they return does not depend on being kept
    _keep_per_argument(monkeypatch, "step_successors")
    _keep_per_argument(monkeypatch, "update_successors")
    prog = load_corpus(name)
    for oracle, ex in _explorations(prog):
        configs = oracle.configs
        assert ({configs[i]: ex.path_to(prog, i) for i in ex.nodes}
                == _bfs_paths(prog, configs[ex.root], ex.bound))


def test_iterative_mode_schedule(monkeypatch):
    """A pruned No below bound_max is asked again at twice the bound, capped
    at bound_max; the answer carries the last bound."""
    p = load_corpus("loop_all")
    init = semantics.initial_config(p)
    bounds = []
    explore = reach.ReachOracle.explore

    def spy(self, root):
        bounds.append(self.config.bound)
        return explore(self, root)

    monkeypatch.setattr(reach.ReachOracle, "explore", spy)
    for start, bound_max, schedule in [(2, 12, [2, 4, 8, 12]), (3, 10, [3, 6, 10]),
                                       (5, 12, [5, 10, 12]), (4, 4, [4]), (4, None, [4])]:
        bounds.clear()
        ans = reach.ReachOracle(p, reach.OracleConfig(bound=start)).reaches_label(
            init, "PT", bound_max)
        assert bounds == schedule
        assert not ans.is_yes and ans.pruned and ans.bound == schedule[-1]
    with pytest.raises(ValueError):
        reach.OracleConfig(bound=0)


def test_strict_mode_unknown():
    p = load_corpus("loop_all")
    init = semantics.initial_config(p)
    # PT is dead code; with writers looping, exploration always prunes
    strict = reach.ReachOracle(p, reach.OracleConfig(bound=3, strict=True))
    with pytest.raises(OracleUnknownError, match="unknown at bound 3"):
        strict.reaches_label(init, "PT")
    with pytest.raises(OracleUnknownError, match="unknown at bound 6"):
        strict.reaches_label(init, "PT", bound_max=6)
    lax = reach.ReachOracle(p, reach.OracleConfig(bound=3))
    ans2 = lax.reaches_label(init, "PT")
    assert not ans2.is_yes and ans2.pruned and ans2.bound == 3


def test_can_reach_set_target():
    """A frozenset target is reached as its configurations are; a strict
    Unknown for it does not print the set."""
    p = load_corpus("loop_all")
    init = semantics.initial_config(p)
    lax = reach.ReachOracle(p, reach.OracleConfig(bound=2))
    ex = lax.explore(lax.intern(init))
    target = frozenset(i for i in ex.nodes if "P1" in lax.configs[i].labels)
    assert all(lax.can_reach(i, target) == lax.can_reach(i, "P1") for i in ex.nodes)
    strict = reach.ReachOracle(p, reach.OracleConfig(bound=2, strict=True))
    over = next(s for c in sorted(_explored(lax, init)) for s in sorted(semantics.step_successors(p, c))
                if semantics.size(s) > 2)
    with pytest.raises(OracleUnknownError,
                       match=r"^reachability of a configuration set unknown at bound 2;"):
        strict.can_reach(strict.intern(over), frozenset())


def _outcome(ask):
    try:
        return ask()
    except OracleUnknownError:
        return "unknown"


@pytest.mark.parametrize("name,labels,config", [
    ("race_retry", None, (reach.OracleConfig(bound=1), 1)),
    ("race_retry", None, (reach.OracleConfig(bound=1, strict=True), 1)),
    ("loop_all", ["PT", "P1"], (reach.OracleConfig(bound=2), 2)),
    ("loop_all", ["PT", "P1"], (reach.OracleConfig(bound=2, strict=True), 2)),
    ("writer_reader", ["WIN"], (reach.OracleConfig(bound=2, strict=True), 2)),
    ("race_retry", None, (reach.OracleConfig(bound=2, strict=True), 1)),
    ("loop_all", ["PT", "P1"], (reach.OracleConfig(bound=2, strict=True), 1)),
])
def test_can_reach_matches_reaches_label(name, labels, config):
    """can_reach equals reaches_label(c, label, bound_max).is_yes on every
    explored node, every one-step successor, including those beyond the
    bound, and every successor of those, which may itself be beyond the
    bound or unexplored. `config` is (the can_reach oracle's config, the
    bound reaches_label starts from): from a smaller start it deepens up to
    the config's bound, which answers alike because exploration is monotone
    in the bound."""
    config, start = config
    p = load_corpus(name)
    labels = labels or sorted(p.labels())
    fast = reach.ReachOracle(p, config)
    slow = reach.ReachOracle(p, dataclasses.replace(config, bound=start))
    nodes = set(_explored(fast, semantics.initial_config(p)))
    over = {s for c in nodes for s in fast.distribution(c)} - nodes
    configs = nodes | over
    for c in over:
        configs.update(fast.distribution(c))
    kinds = set()
    for c in sorted(configs):
        for label in labels:
            want = _outcome(lambda: slow.reaches_label(c, label, config.bound).is_yes)
            assert _outcome(lambda: fast.can_reach(fast.intern(c), label)) == want, (c, label)
            # deepening asks fresh oracles: the slow one still answers at its own bound
            here = want if start == config.bound else _outcome(
                lambda: slow.reaches_label(c, label).is_yes)
            assert _outcome(lambda: slow.can_reach(slow.intern(c), label)) == here, (c, label)
            kinds.add(want)
    if config == reach.OracleConfig(bound=1, strict=True):
        assert kinds == {True, False, "unknown"}


def test_over_bound_frontier_needs_no_exploration():
    """Configurations over the bound that no exploration holds are decided
    from their successors: each query ends with the one exploration of its
    start configuration, where exploring each such configuration made 322,
    176 and 23."""
    p = load_corpus("writer_reader")
    init = semantics.initial_config(p)
    oracle = reach.ReachOracle(p)
    with pytest.raises(BudgetExceededError):
        quantitative.quant_reach(p, init, "WIN", Fraction(1, 10), oracle, max_iterations=30)
    assert len(oracle._explorations) == 1
    oracle = reach.ReachOracle(p)
    with pytest.raises(BudgetExceededError):
        cost.expected_avg_cost(p, init, "WIN", cost.CostFunction.uniform(p),
                               Fraction(1, 10), oracle, max_layers=30)
    assert len(oracle._explorations) == 1
    p = load_corpus("loop_all")
    oracle = reach.ReachOracle(p, reach.OracleConfig(bound=2))
    quantitative.quant_rep_reach(p, semantics.initial_config(p), "P0", Fraction(1, 100),
                                 oracle, max_iterations=40)
    assert len(oracle._explorations) == 1


def _writer_reader_run(monkeypatch):
    """quant-reach writer_reader WIN at epsilon 1/10 for 30 layers, counting
    `successors` calls and row builds per configuration and recording the
    ids whose cone roots were asked. Returns the oracle, the start
    exploration, the two counters and the asked ids."""
    successors, rows, rooted = collections.Counter(), collections.Counter(), []
    original_successors = reach.ReachOracle.successors
    original_row = reach.ReachOracle.row
    original_roots = reach.ReachOracle.cone_roots

    def counting_successors(self, i):
        successors[self.configs[i]] += 1
        return original_successors(self, i)

    def counting_row(self, i):
        if self._rows[i] is None:
            rows[self.configs[i]] += 1
        return original_row(self, i)

    def recording_roots(self, i):
        rooted.append(i)
        return original_roots(self, i)

    monkeypatch.setattr(reach.ReachOracle, "successors", counting_successors)
    monkeypatch.setattr(reach.ReachOracle, "row", counting_row)
    monkeypatch.setattr(reach.ReachOracle, "cone_roots", recording_roots)
    p = load_corpus("writer_reader")
    init = semantics.initial_config(p)
    oracle = reach.ReachOracle(p)
    with pytest.raises(BudgetExceededError):
        quantitative.quant_reach(p, init, "WIN", Fraction(1, 10), oracle, max_iterations=30)
    monkeypatch.undo()
    return oracle, oracle.explore(oracle.intern(init)), successors, rows, rooted


def test_quant_reach_asks_successors_once_per_configuration(monkeypatch):
    """Each configuration of the start exploration asks for its successors
    once when explored, and every configuration once more when its row is
    built; an over-bound configuration decided from its cone roots is
    explored by none, and reads them from its cached row; no row is built
    twice."""
    oracle, ex, successors, rows, rooted = _writer_reader_run(monkeypatch)
    nodes = {oracle.configs[i] for i in ex.nodes}
    assert rooted
    assert all(oracle.configs[i] in rows and oracle.configs[i] not in nodes for i in rooted)
    assert successors == collections.Counter(nodes) + rows
    assert set(rows.values()) == {1}


def test_cone_roots_are_successors_within_bound(monkeypatch):
    """The cone roots read from the row are the successors within the bound,
    in step_successors' order."""
    oracle, _, _, _, rooted = _writer_reader_run(monkeypatch)
    bound = oracle.config.bound
    p = oracle.prog
    assert rooted
    for i in rooted:
        c = oracle.configs[i]
        assert semantics.size(c) > bound
        assert [oracle.configs[j] for j in oracle.cone_roots(i)] == [
            s for s in semantics.step_successors(p, c) if semantics.size(s) <= bound]


# A and B each buffer two writes and then read what the other wrote first;
# B also reads q, which C sets. B loops at BAD if it read q = 1, or if both
# reads saw 0; otherwise it loops at G. Both reads see 0 only if two writes
# sit in the buffers at once, so at bound 1 the start exploration holds no
# such configuration, and an escape whose B has read x = 0 and q = 0 leads
# to BAD only through successors within the bound outside that exploration.
ESCAPES = """
domain 2
vars x y z w q d e
proc A weight 1
regs one ra
A0: one := 1
A1: x := one
A2: y := one
A3: ra := z
A4: if ra then A6
A5: d := one
A6: e := one
A7: term
proc B weight 1
regs two c rb re rd
B0: two := 1
B1: z := two
B2: w := two
B3: rb := x
B4: c := q
B5: if c then BAD
B6: if rb then G
B7: re := e
B8: if re then B10
B9: if two then B7
B10: rd := d
B11: if rd then BAD
G: two := 1
G1: if two then G
BAD: c := 0
BAD1: rb := 0
BAD2: re := 0
BAD3: rd := 0
BAD4: if two then BAD
BT: term
proc C weight 1
regs three
C0: three := 1
C1: q := three
C2: term
"""


def _budgeted(run):
    try:
        return run()
    except BudgetExceededError as exc:
        return exc.partial


def _rep_reach_exploring_each_escape(prog, init, label, config, max_iterations):
    """quant_rep_reach's run with the reference escape rule: an entry outside
    the start exploration is explored itself, and it escapes when a bad
    B-plain configuration lies among the nodes. Returns the outcome and the
    set of escape verdicts."""
    oracle = reach.ReachOracle(prog, config)
    start = oracle.intern(init)
    ex = oracle.explore(start)
    bad = {i for i in oracle.bplain_configs(start) if not oracle.can_reach(i, label)}
    reach_bad = ex.backward_set(bad)
    seen = set()

    def reaches_bad(i):
        if i in ex.nodes:
            return i in reach_bad
        got = bool(oracle.explore(i).nodes & bad)
        seen.add(got)
        return got

    got = _budgeted(lambda: quantitative._run(
        init, Fraction(1, 100), oracle,
        pos_test=lambda i: not reaches_bad(i), neg_test=lambda i: not oracle.can_reach(i, label),
        analysis="quant_rep_reach", max_iterations=max_iterations, pruned=ex.pruned))
    return got, seen


@pytest.mark.parametrize("prog,label,bound,max_iterations,escapes,outside", [
    (load_corpus("loop_all"), "P0", 2, 40, {True}, False),
    (lang.parse_program(ESCAPES), "G", 1, 10, {True, False}, True),
])
def test_rep_reach_escapes_match_exploring_each_escape(prog, label, bound, max_iterations,
                                                       escapes, outside):
    """quant_rep_reach decides an escape over the bound from its successors;
    the reference explores the escape itself and looks for a bad B-plain
    configuration among the nodes. `escapes` are the reference's verdicts,
    and `outside` says whether a successor within the bound lay outside the
    start exploration, so that quant_rep_reach explored it."""
    init = semantics.initial_config(prog)
    config = reach.OracleConfig(bound=bound)
    fast = reach.ReachOracle(prog, config)
    got = _budgeted(lambda: quantitative.quant_rep_reach(
        prog, init, label, Fraction(1, 100), fast, max_iterations=max_iterations))
    want, seen = _rep_reach_exploring_each_escape(prog, init, label, config, max_iterations)
    assert seen == escapes
    assert (len(fast._explorations) > 1) == outside
    assert got == want


@settings(max_examples=200, deadline=None)
@given(programs(), st.integers(1, 2), st.data())
def test_generated_programs_over_bound_answers(prog, bound, data):
    """On generated programs, whose loops make the explorations prune,
    quant_rep_reach equals the run with the reference escape rule, and every
    configuration over the bound that it asks about gets from can_reach, in
    the run's oracle and in a strict one, the answer reaches_label gives it
    from a fresh oracle."""
    label = data.draw(st.sampled_from(sorted(prog.labels())))
    init = semantics.initial_config(prog)
    config = reach.OracleConfig(bound=bound)
    fast = reach.ReachOracle(prog, config)
    asked = set()
    can_reach = fast.can_reach

    def recording(i, target):
        if fast.sizes[i] > bound:
            asked.add(fast.configs[i])
        return can_reach(i, target)

    fast.can_reach = recording
    got = _budgeted(lambda: quantitative.quant_rep_reach(
        prog, init, label, Fraction(1, 100), fast, max_iterations=15))
    want, _ = _rep_reach_exploring_each_escape(prog, init, label, config, 15)
    assert got == want
    strict = reach.OracleConfig(bound=bound, strict=True)
    strict_oracle = reach.ReachOracle(prog, strict)
    strict_oracle.explore(strict_oracle.intern(init))
    for oracle, oracle_can_reach, config in ((fast, can_reach, config),
                                             (strict_oracle, strict_oracle.can_reach, strict)):
        fresh = reach.ReachOracle(prog, config)
        for c in sorted(asked):
            assert (_outcome(lambda: oracle_can_reach(oracle.intern(c), label))
                    == _outcome(lambda: fresh.reaches_label(c, label).is_yes)), (c, config)


def _assert_row_is_step_distribution(oracle, c):
    # differential: the integer row against the tests' own Fraction
    # composition of the step (exhaustive.step_distribution)
    p, configs = oracle.prog, oracle.configs
    i = oracle.intern(c)
    assert configs[i] == c and oracle.sizes[i] == semantics.size(c)
    den, weights = oracle.row(i)
    assert all(type(j) is int and type(w) is int and w > 0 for j, w in weights)
    assert sum(w for _, w in weights) == den
    dist = exhaustive.step_distribution(p, c)
    assert den == math.lcm(*(q.denominator for q in dist.values()))
    assert [configs[j] for j, _ in weights] == list(dist)
    assert {configs[j]: Fraction(w, den) for j, w in weights} == dist
    assert oracle.distribution(c) == dist
    assert markov.step_distribution(oracle.row(i), configs) == dist


@pytest.mark.parametrize("name", corpus_names())
def test_row_is_step_distribution_over_one_denominator(name, monkeypatch):
    """At every explored configuration, and over the bound, where the row is
    built for an id that intern gave and no exploration holds: the first
    successor over the bound (as _explorations finds it) and, on
    writer_reader, the configurations whose cone roots a quant-reach run
    asked."""
    p = load_corpus(name)
    oracle = reach.ReachOracle(p, reach.OracleConfig(bound=4 if name == "writer_reader" else 8))
    ex = oracle.explore(oracle.intern(semantics.initial_config(p)))
    over = _first_over_bound(p, oracle, ex)
    assert over not in oracle._ids     # exploration keeps no configuration over the bound
    for c in sorted(oracle.configs[i] for i in ex.nodes):
        _assert_row_is_step_distribution(oracle, c)
    if over is not None:
        _assert_row_is_step_distribution(oracle, over)
    if name == "writer_reader":
        run_oracle, _, _, _, rooted = _writer_reader_run(monkeypatch)
        assert rooted
        for i in rooted:
            _assert_row_is_step_distribution(run_oracle, run_oracle.configs[i])


def test_analyses_share_one_row_per_configuration(monkeypatch):
    calls = collections.Counter()
    original = reach.ReachOracle.row

    def counting(self, i):
        if self._rows[i] is None:
            calls[self.configs[i]] += 1
        return original(self, i)

    monkeypatch.setattr(reach.ReachOracle, "row", counting)
    p = load_corpus("race_costs")
    init = semantics.initial_config(p)
    oracle = reach.ReachOracle(p)
    quantitative.quant_reach(p, init, "HI", Fraction(1, 10**6), oracle)
    after_quant = len(calls)
    with pytest.raises(BudgetExceededError):
        cost.expected_avg_cost(p, init, "HI", cost.CostFunction.uniform(p),
                               Fraction(1, 10), oracle, max_layers=50)
    assert len(calls) > after_quant > 0
    assert set(calls.values()) == {1}


# The benchmark's `race` instance at seed 1 (perfbench/racegen.py).
RACE_SEED_1 = """
domain 4
vars x
proc W0 weight 2
regs a0 b0
W0A: a0 := 1
W0B: b0 := 3
W0C: x := a0
W0D: x := b0
W0T: term
proc W1 weight 3
regs a1 b1
W1A: a1 := 3
W1B: b1 := 2
W1C: x := a1
W1D: x := b1
W1T: term
proc W2 weight 1
regs a2 b2
W2A: a2 := 2
W2B: b2 := 1
W2C: x := a2
W2D: x := b2
W2T: term
proc R weight 2
regs one t r e
R0: one := 1
R1: t := 3
R2: r := x
R3: if r then DEC
R4: if one then R2
DEC: e := r == t
D2: if e then WIN
D3: if one then END
WIN: e := r
END: term
"""


@pytest.mark.parametrize("prog,epsilon,max_iterations,asked", [
    (lang.parse_program(RACE_SEED_1), Fraction(1, 10**12), None, 4945),
    (load_corpus("writer_reader"), Fraction(1, 10), 30, 1499),
])
def test_quant_reach_decides_each_configuration_once(monkeypatch, prog, epsilon,
                                                     max_iterations, asked):
    """A frontier configuration's fate is decided on its first visit: the
    negative test asks can_reach once per distinct configuration."""
    calls = collections.Counter()
    original = reach.ReachOracle.can_reach

    def counting(self, c, target):
        calls[c] += 1
        return original(self, c, target)

    monkeypatch.setattr(reach.ReachOracle, "can_reach", counting)
    budget = {} if max_iterations is None else {"max_iterations": max_iterations}
    try:
        quantitative.quant_reach(prog, semantics.initial_config(prog), "WIN", epsilon, **budget)
    except BudgetExceededError:
        assert max_iterations is not None
    assert sum(calls.values()) == len(calls) == asked


def test_mass_loops_size_each_configuration_once(monkeypatch):
    """The quant and cost loops size no configuration themselves: they read
    sizes[i] from the oracle's id table, which holds the size of each id's
    store, sized once per store, and that is semantics.size of its
    configuration."""
    calls = []
    original = semantics.size
    loops = {quantitative.__file__, cost.__file__}

    def counting(c):
        if sys._getframe(1).f_code.co_filename in loops:
            calls.append(c)
        return original(c)

    monkeypatch.setattr(semantics, "size", counting)
    p = load_corpus("race_costs")
    init = semantics.initial_config(p)
    oracle = reach.ReachOracle(p)
    quantitative.quant_reach(p, init, "HI", Fraction(1, 10**6), oracle)
    with pytest.raises(BudgetExceededError):
        cost.expected_avg_cost(p, init, "HI", cost.CostFunction.uniform(p),
                               Fraction(1, 10), oracle, max_layers=50)
    monkeypatch.undo()
    assert calls == []
    assert len(oracle.configs) > 1
    assert oracle.sizes == [semantics.size(c) for c in oracle.configs]


def test_rows_hold_integer_ids():
    p = load_corpus("race_costs")
    oracle = reach.ReachOracle(p)
    quantitative.quant_reach(p, semantics.initial_config(p), "HI", Fraction(1, 10**6), oracle)
    for i in range(len(oracle.configs)):
        den, weights = oracle.row(i)
        assert type(den) is int
        assert all(type(j) is int and 0 <= j < len(oracle.configs) for j, _ in weights)
    with pytest.raises(TypeError):
        oracle.row(oracle.configs[0])
