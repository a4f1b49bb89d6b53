"""Unit tests for the vector-clock engine's internals.

The engine-level verdicts are covered by the cross-engine agreement
suite in ``tests/test_properties.py``; these tests aim at the three
mechanisms that make the engine correct on their own:

* the chain decomposition (every node in exactly one chain, and chains
  really are paths in the static constraint graph);
* the frontier vectors (exact reachability, including after a batch of
  incremental insertions — the delta propagation must leave them
  identical to a from-scratch closure of the final graph — and both
  tables kept on exactly the chains holding a non-root store, which
  rests on every root being a source of every acyclic graph);
* Pearce–Kelly local reordering (the maintained order stays a valid
  topological order under adversarial back-edge insertions, and a
  cycle-closing edge raises with the edge recorded for the witness).

A last class pins the fixed point's shortcuts — projected frontier
rows without root chains, the R7 observer test on the candidate itself,
moved-frontier rescans, the R7 chain-scan cut and the per-entry flood —
to the plain formulation they speed up: the same edges in the same
order, the same iterations and the same witnesses.
"""

import pytest

from repro.core.graph import (
    ConstraintGraph,
    CycleDetected,
    compute_closure,
    topological_order,
)
from repro.core.policy import PSO, SC, TSO, MemoryModel, static_edges
from repro.core.prep import Chains, prepare
from repro.core.result import CheckStats, EdgeReason
from repro.core.vc import VectorClockChecker
from repro.generator.config import GeneratorConfig
from repro.generator.generator import generate_program
from repro.model.expansion import OpKind, expand
from repro.model.ops import IStore, ISwap
from repro.model.trace import DynRecord, Execution
from repro.sim.faults import (
    AtomicityHoleFault,
    StaleForwardFault,
    StoreBufferReorderFault,
    TraceCorruptionFault,
)
from repro.sim.machine import MachineConfig, TsoMachine
from tests.util import litmus_aprog

R = EdgeReason("test")

MIXED = """
P0: S[A]#1 ; M ; L[B]=4 ; S[A]#2
P1: S[B]#3 ; S[B]#4 ; L[A]=2
P2: SWAP[A]=2,#5 ; L[B]=4
"""


def _prepared(text, model=TSO):
    """A checker with phase-1 state built (static edges only), exposing
    the incremental machinery for direct driving."""
    aprog = litmus_aprog(text)
    checker = VectorClockChecker(model)
    checker._stats = CheckStats(nodes=aprog.n)
    graph = ConstraintGraph(aprog)
    checker._graph = graph
    for u, v, rule in static_edges(aprog, model):
        graph.add_edge(u, v, EdgeReason(rule, "program order"))
    order = topological_order(graph)
    assert order is not None
    checker._chains = Chains(aprog, model)
    checker._init_state(graph, order)
    return aprog, checker, graph


def _assert_topological(graph, ord_):
    for u in range(graph.n):
        for v in graph.succ[u]:
            assert ord_[u] < ord_[v], f"edge {u}->{v} violates the order"


def _reach_from(graph):
    """Per-node reach bitsets of a from-scratch closure of ``graph``."""
    order = topological_order(graph)
    assert order is not None
    return compute_closure(graph, order)[0]


def _assert_frontiers_exact(checker, graph):
    """Both frontier tables must match a from-scratch closure of the
    graph as it stands now, entry by entry on every kept column."""
    reach_from = _reach_from(graph)
    chains = checker._chains
    for v in range(graph.n):
        row_to = checker._vec_to[v]
        row_from = checker._vec_from[v]
        assert len(row_to) == len(row_from) == len(chains.store_chains), v
        for col, chain in enumerate(chains.store_chains):
            members = list(enumerate(chains.nodes[chain]))
            expected_to = max(
                (pos for pos, node in members if (reach_from[node] >> v) & 1),
                default=-1,
            )
            expected_from = min(
                (pos for pos, node in members if (reach_from[v] >> node) & 1),
                default=checker._inf,
            )
            assert row_to[col] == expected_to, (v, chain)
            assert row_from[col] == expected_from, (v, chain)


class TestChains:
    @pytest.mark.parametrize("model", [TSO, SC, PSO], ids=lambda m: m.name)
    def test_partition_and_path_property(self, model):
        aprog = litmus_aprog(MIXED)
        chains = Chains(aprog, model)
        # Exactly one (chain, position) per node, positions consecutive.
        seen = set()
        for chain, members in enumerate(chains.nodes):
            for pos, node in enumerate(members):
                assert chains.chain_of[node] == chain
                assert chains.pos_of[node] == pos
                seen.add(node)
        assert seen == set(range(aprog.n))
        # Consecutive members must be connected by a static-edge path —
        # the property that makes a frontier entry an exact summary.
        graph = ConstraintGraph(aprog)
        for u, v, rule in static_edges(aprog, model):
            graph.add_edge(u, v, EdgeReason(rule, "program order"))
        reach_from, _ = compute_closure(graph, topological_order(graph))
        for members in chains.nodes:
            for earlier, later in zip(members, members[1:]):
                assert (reach_from[earlier] >> later) & 1, (earlier, later)

    def test_addr_store_index_is_complete_and_sorted(self):
        aprog = litmus_aprog(MIXED)
        chains = Chains(aprog, TSO)
        indexed = set()
        for addr, slices in chains.addr_stores.items():
            for chain, positions in slices:
                assert positions == sorted(positions)
                for pos in positions:
                    node = chains.nodes[chain][pos]
                    assert aprog.ops[node].is_store
                    assert aprog.ops[node].addr == addr
                    indexed.add(node)
        # Every real store, and no root (no R6/R7 query can return one).
        assert indexed == {
            op.id for op in aprog.ops if op.is_store and not op.is_root
        }

    def test_sc_merges_each_processor_into_one_chain(self):
        aprog = litmus_aprog("P0: S[A]#1 ; L[A]=1 ; S[B]#2\nP1: L[B]=2")
        chains = Chains(aprog, SC)
        for stream in aprog.per_proc:
            assert len({chains.chain_of[node] for node in stream}) == 1

    def test_tso_splits_loads_and_stores(self):
        aprog = litmus_aprog("P0: S[A]#1 ; L[A]=1 ; S[B]#2 ; L[B]=2")
        chains = Chains(aprog, TSO)
        ops = aprog.ops
        for stream in aprog.per_proc:
            loads = {chains.chain_of[n] for n in stream if ops[n].is_load}
            stores = {chains.chain_of[n] for n in stream if ops[n].is_store}
            assert len(loads) == 1 and len(stores) == 1
            assert loads != stores


class TestFrontiers:
    def test_initial_frontiers_match_closure(self):
        _, checker, graph = _prepared(MIXED)
        _assert_frontiers_exact(checker, graph)

    @pytest.mark.parametrize("model", [TSO, PSO, SC], ids=lambda m: m.name)
    def test_vec_to_keeps_only_store_bearing_chains(self, model):
        # Both tables keep exactly the chains holding a non-root store.
        aprog, checker, _ = _prepared(MIXED, model)
        chains = checker._chains
        store_bearing = sorted({
            chains.chain_of[op.id]
            for op in aprog.ops
            if op.is_store and not op.is_root
        })
        assert chains.store_chains == store_bearing
        assert {len(row) for row in checker._vec_to} == {len(store_bearing)}
        assert {len(row) for row in checker._vec_from} == {len(store_bearing)}
        root_chains = {chains.chain_of[root] for root in aprog.roots.values()}
        assert root_chains.isdisjoint(store_bearing)
        if model is SC:
            # One program-order chain per processor, all holding stores:
            # only the root singletons are dropped.
            assert len(store_bearing) == chains.k - len(root_chains)
        else:
            # The load/membar chains and the root singletons are dropped.
            assert len(store_bearing) < chains.k - len(root_chains)

    def test_frontiers_exact_after_incremental_insertions(self):
        aprog, checker, graph = _prepared(MIXED)
        stores = [op.id for op in aprog.ops if op.is_store and not op.is_root]
        # Cross-processor insertions, deliberately including order-hostile
        # ones; after every single insertion the delta propagation must
        # leave the frontiers indistinguishable from a full rebuild.
        pairs = [
            (u, v)
            for u in stores
            for v in stores
            if aprog.ops[u].proc != aprog.ops[v].proc
        ]
        inserted = 0
        for u, v in pairs:
            if (_reach_from(graph)[v] >> u) & 1:
                continue  # would close a cycle; adversarial cases below
            checker._add_edge(u, v, R)
            inserted += 1
            _assert_topological(graph, checker._ord)
            _assert_frontiers_exact(checker, graph)
        assert inserted >= 3

    def test_run_leaves_frontiers_matching_final_graph(self):
        config = GeneratorConfig(nprocs=3, ops_per_proc=12, shared_words=2)
        program = generate_program(config, seed=5)
        execution = TsoMachine(program, seed=5).run()
        aprog = expand(
            execution, initial=program.initial, word_names=program.word_names
        )
        # _run, not run: run drops the tables read here when it returns.
        checker = VectorClockChecker()
        result = checker._run(aprog)
        assert result.ok
        assert result.stats.closure_rebuilds == 1
        _assert_frontiers_exact(checker, result.graph)


class TestReorder:
    def test_back_edge_insertions_keep_order_valid(self):
        aprog, checker, graph = _prepared(
            "P0: S[A]#1 ; S[A]#2\nP1: S[B]#3 ; S[B]#4\nP2: S[C]#5 ; S[C]#6"
        )
        ord_ = checker._ord
        procs = [
            [op.id for op in aprog.ops if op.proc == pid and not op.is_root]
            for pid in range(3)
        ]
        # Chain the processors against the maintained order: insert the
        # cross-processor edge whose source currently sits *latest* so
        # every insertion is a back edge and must trigger reordering.
        first = {pid: stream[0] for pid, stream in enumerate(procs)}
        last = {pid: stream[-1] for pid, stream in enumerate(procs)}
        by_pos = sorted(range(3), key=lambda pid: ord_[first[pid]])
        before = checker._stats.reorder_visits
        checker._add_edge(last[by_pos[2]], first[by_pos[1]], R)
        _assert_topological(graph, checker._ord)
        checker._add_edge(last[by_pos[1]], first[by_pos[0]], R)
        _assert_topological(graph, checker._ord)
        assert checker._stats.reorder_visits > before
        _assert_frontiers_exact(checker, graph)

    def test_order_compatible_insert_visits_nothing(self):
        aprog, checker, _ = _prepared(
            "P0: S[A]#1 ; S[A]#2\nP1: S[B]#3 ; S[B]#4"
        )
        ord_ = checker._ord
        stores = [op.id for op in aprog.ops if op.is_store and not op.is_root]
        u, v = min(stores, key=ord_.__getitem__), max(stores, key=ord_.__getitem__)
        checker._add_edge(u, v, R)
        assert checker._stats.reorder_visits == 0

    def test_cycle_closing_edge_raises_with_edge_recorded(self):
        aprog, checker, graph = _prepared(
            "P0: S[A]#1 ; S[A]#2\nP1: S[B]#3 ; S[B]#4"
        )
        stores = {
            (op.proc, op.value): op.id
            for op in aprog.ops
            if op.is_store and not op.is_root
        }
        checker._add_edge(stores[(0, 2)], stores[(1, 3)], R)
        with pytest.raises(CycleDetected) as exc:
            checker._add_edge(stores[(1, 4)], stores[(0, 1)], R)
        # The closing edge is recorded before raising so the violation
        # witness can name its rule.
        assert graph.has_edge(exc.value.u, exc.value.v)
        cycle = graph.cycle_through_edge(exc.value.u, exc.value.v)
        assert cycle[0] == exc.value.v or exc.value.v in cycle

    def test_self_loop_raises(self):
        aprog, checker, _ = _prepared("P0: S[A]#1 ; S[A]#2")
        store = next(
            op.id for op in aprog.ops if op.is_store and not op.is_root
        )
        with pytest.raises(CycleDetected):
            checker._add_edge(store, store, R)

    def test_intra_group_reverse_edge_raises(self):
        # A swap's companion load precedes its store ("atomic" chain);
        # proposing the reverse relation must surface as a cycle.
        aprog, checker, _ = _prepared("P0: S[A]#1 ; SWAP[A]=1,#2")
        group_ops = [op.id for op in aprog.ops if op.group != -1]
        first, last = min(group_ops), max(group_ops)
        assert first != last
        with pytest.raises(CycleDetected):
            checker._add_edge(last, first, R)


class _RescanAll(VectorClockChecker):
    """The fixed point without its shortcuts, on a layout of its own:
    ``vec_to`` and ``vec_from`` rows one column per chain, root chains
    included (built by a plain DP), a per-address store index that
    includes the roots, R6 intervals read on every indexed chain, the
    R7 observer test run on the candidate's group entry, every R6/R7
    item rescanned each iteration, every R7 candidate tested against
    every observer, and each flood pushing one frame per reached node
    carrying a list of ``(chain, pos)`` entries.  ``r6_scans`` counts
    the R6 items scanned, ``r7_tests`` the R7 observer tests."""

    r6_scans = 0
    r7_tests = 0

    def _init_state(self, graph, order):
        n = graph.n
        chains = self._chains
        chain_of, pos_of, k = chains.chain_of, chains.pos_of, chains.k
        self._inf = n + 1
        self._ord = [0] * n
        for index, node in enumerate(order):
            self._ord[node] = index
        self._seq = 0
        vec_to = [None] * n
        for node in order:
            vec = [-1] * k
            for parent in graph.pred[node]:
                vec = [max(a, b) for a, b in zip(vec, vec_to[parent])]
            chain = chain_of[node]
            vec[chain] = max(vec[chain], pos_of[node])
            vec_to[node] = vec
        vec_from = [None] * n
        for node in reversed(order):
            vec = [self._inf] * k
            for child in graph.succ[node]:
                vec = [min(a, b) for a, b in zip(vec, vec_from[child])]
            chain = chain_of[node]
            vec[chain] = min(vec[chain], pos_of[node])
            vec_from[node] = vec
        self._vec_to, self._vec_from = vec_to, vec_from
        per_chain = {}
        for op in graph.aprog.ops:
            if op.is_store:
                key = (op.addr, chain_of[op.id])
                per_chain.setdefault(key, []).append(pos_of[op.id])
        self._store_index = {}
        for (addr, chain), positions in per_chain.items():
            self._store_index.setdefault(addr, []).append(
                (chain, sorted(positions))
            )

    def _reaches(self, src, dst):
        self._stats.vc_queries += 1
        chains = self._chains
        return self._vec_from[src][chains.chain_of[dst]] <= chains.pos_of[dst]

    def _r6_candidates(self, addr, load, target, target_first):
        self.r6_scans += 1
        chains = self._chains
        vt_load = self._vec_to[load]
        vt_target = self._vec_to[target_first]
        out = []
        for chain, positions in self._store_index.get(addr, ()):
            self._stats.vc_queries += 1
            for pos in positions:
                node = chains.nodes[chain][pos]
                if vt_target[chain] < pos <= vt_load[chain] and node != target:
                    out.append(node)
        return out

    def _r7_candidates(self, addr, store):
        chains = self._chains
        vf = self._vec_from[store]
        out = []
        for chain, positions in self._store_index.get(addr, ()):
            self._stats.vc_queries += 1
            for pos in positions:
                node = chains.nodes[chain][pos]
                if pos >= vf[chain] and node != store:
                    out.append(node)
        return out

    def _fixed_point(self, aprog, graph, stats, prep):
        while True:
            stats.iterations += 1
            added = 0
            for load, addr, target, target_first in prep.loads:
                for s_prime in self._r6_candidates(
                    addr, load, target, target_first
                ):
                    reason = EdgeReason(
                        "R6",
                        f"store n{s_prime} precedes load n{load}, which "
                        f"observed store n{target} (Value axiom)",
                    )
                    if self._add_edge(s_prime, target, reason):
                        added += 1
            for store, addr, observers in prep.stores:
                for s_prime in self._r7_candidates(addr, store):
                    first = prep.group_first[s_prime]
                    for load, load_last in observers:
                        self.r7_tests += 1
                        if self._reaches(load_last, first):
                            continue
                        reason = EdgeReason(
                            "R7",
                            f"load n{load} observed store n{store}, which "
                            f"precedes store n{s_prime} (Value axiom)",
                        )
                        if self._add_edge(load, s_prime, reason):
                            added += 1
            if not added:
                return None
            stats.inferred_edges += added

    def _push_forward(self, u, v):
        self._flood(self._vec_to, self._graph.succ, u, v, max)

    def _push_backward(self, u, v):
        self._flood(self._vec_from, self._graph.pred, v, u, min)

    @staticmethod
    def _flood(rows, nbrs, src, start, better):
        stack = [(start, list(enumerate(rows[src])))]
        while stack:
            node, candidate = stack.pop()
            vec = rows[node]
            improved = [
                (chain, pos)
                for chain, pos in candidate
                if better(pos, vec[chain]) != vec[chain]
            ]
            if not improved:
                continue
            for chain, pos in improved:
                vec[chain] = pos
            for nbr in nbrs[node]:
                stack.append((nbr, improved))


_FAULTS = (
    StoreBufferReorderFault,
    StaleForwardFault,
    AtomicityHoleFault,
    TraceCorruptionFault,
)


#: (nprocs, ops_per_proc, shared_words, seed) of golden TSO runs whose
#: SC check closes its cycle only in the second pass, after skips.
_LATE_SC_CYCLES = (
    (4, 12, 2, 363359),
    (3, 25, 2, 706353),
    (4, 24, 3, 153578),
    (5, 13, 2, 147966),
)


def _run_pairs():
    """Random programs, small and mid-size (the mid-size ones reach
    iterations where most items are skipped), each run on a golden TSO
    machine, a golden SC-mode machine (so SC checks pass too) and with
    each fault injected; then the late-cycle runs above.  Yields
    ``(program, execution)`` pairs."""
    sizes = (
        GeneratorConfig(nprocs=4, ops_per_proc=30, shared_words=3),
        GeneratorConfig(nprocs=6, ops_per_proc=80, shared_words=4),
    )
    machines = [{}, {"config": MachineConfig(sc_mode=True)}] + [
        {"faults": [fault(rate=0.3)]} for fault in _FAULTS
    ]
    for config in sizes:
        for seed in range(3):
            program = generate_program(config, seed=seed)
            for kwargs in machines:
                yield program, TsoMachine(program, seed=seed, **kwargs).run()
    for nprocs, ops, words, seed in _LATE_SC_CYCLES:
        config = GeneratorConfig(
            nprocs=nprocs, ops_per_proc=ops, shared_words=words
        )
        program = generate_program(config, seed=seed)
        yield program, TsoMachine(program, seed=seed).run()


def _runs():
    """:func:`_run_pairs`, expanded to analysis programs."""
    for program, execution in _run_pairs():
        yield expand(
            execution, initial=program.initial, word_names=program.word_names
        )


def _fingerprint(result):
    stats = result.stats
    violation = result.violation
    return {
        "reasons": (
            None if result.graph is None
            else list(result.graph.reasons.items())
        ),
        "counts": (
            stats.iterations,
            stats.static_edges,
            stats.observed_edges,
            stats.inferred_edges,
            stats.reorder_visits,
            stats.closure_rebuilds,
        ),
        "verdict": result.ok,
        "witness": None if violation is None else (
            violation.kind,
            violation.message,
            violation.cycle,
            violation.reasons,
        ),
    }


class _CountingR6(VectorClockChecker):
    """The shipped engine, counting the R6 items it scans."""

    r6_scans = 0

    def _r6_candidates(self, addr, load, target, target_first):
        self.r6_scans += 1
        return super()._r6_candidates(addr, load, target, target_first)


#: One load (P1's) observes ``S[A]#1``, which has three same-address
#: successors on P0's store chain, the first a swap's store half.  The
#: load already reaches the swap's group entry (its load half, through
#: ``S[A]#5``), so the shipped R7 scan of that chain stops at the swap.
ATOMIC_SUCCESSORS = """
P0: S[A]#1 ; SWAP[A]=5,#2 ; S[A]#3 ; S[A]#4
P1: L[A]=1 ; S[A]#5
"""


class TestRescanExactness:
    @pytest.mark.parametrize("model", [TSO, PSO, SC], ids=lambda m: m.name)
    def test_matches_rescanning_every_item(self, model):
        # Fewer R6 scans can only come from skipped items.
        tally = {"passed": 0, "failed": 0, "skipped": 0, "late": 0}
        for aprog in _runs():
            shipped_checker = _CountingR6(model)
            shipped = shipped_checker.run(aprog)
            plain_checker = _RescanAll(model)
            plain = plain_checker.run(aprog)
            assert _fingerprint(shipped) == _fingerprint(plain)
            skipped = shipped_checker.r6_scans < plain_checker.r6_scans
            tally["passed" if shipped.ok else "failed"] += 1
            tally["skipped"] += skipped
            tally["late"] += (
                skipped and not shipped.ok and shipped.stats.iterations >= 2
            )
        # Both verdicts, and runs that skip.  Under SC a witness is
        # also compared after skips.
        assert tally["passed"] and tally["failed"] and tally["skipped"]
        if model is SC:
            assert tally["late"], tally

    @pytest.mark.parametrize("model", [TSO, PSO, SC], ids=lambda m: m.name)
    def test_full_rescan_after_pass_adds_nothing(self, model):
        checked = 0
        for aprog in _runs():
            result = VectorClockChecker(model).run(aprog)
            if not result.ok:
                continue
            # The plain fixed point over frontiers rebuilt from scratch
            # on the shipped engine's final graph.
            graph = result.graph
            stats = CheckStats(nodes=aprog.n)
            plain = _RescanAll(model)
            plain._graph = graph
            plain._stats = stats
            plain._chains = Chains(aprog, model)
            plain._init_state(graph, topological_order(graph))
            edges = graph.edge_count
            assert plain._fixed_point(
                aprog, graph, stats, prepare(aprog)
            ) is None
            assert (stats.iterations, stats.inferred_edges) == (1, 0)
            assert graph.edge_count == edges
            checked += 1
        assert checked

    @pytest.mark.parametrize("model", [TSO, PSO, SC], ids=lambda m: m.name)
    def test_roots_are_sources_of_passing_graphs(self, model):
        # The premise of dropping the root chains: in every acyclic
        # graph, no node but a root itself reaches the root.
        checked = 0
        for aprog in _runs():
            result = VectorClockChecker(model).run(aprog)
            if not result.ok:
                continue
            reach_from = _reach_from(result.graph)
            roots = 0
            for root in aprog.roots.values():
                roots |= 1 << root
            for node, reach in enumerate(reach_from):
                assert reach & roots & ~(1 << node) == 0, node
            checked += 1
        assert checked

    def test_r7_scan_stops_at_first_implied_successor(self):
        aprog = litmus_aprog(ATOMIC_SUCCESSORS)
        shipped = VectorClockChecker().run(aprog)
        plain_checker = _RescanAll()
        plain = plain_checker.run(aprog)
        assert shipped.ok
        assert _fingerprint(shipped) == _fingerprint(plain)
        # One pass that adds nothing: both engines test observers once
        # per scanned candidate, and the whole difference is what the
        # cut skipped — ``S[A]#3`` and ``S[A]#4`` after the swap
        # (observer: P1's load), and ``S[A]#4`` after ``S[A]#3``
        # (observer: the swap's load half).
        assert plain_checker.r7_tests - _observer_tests(aprog, shipped) == 3


def _observer_tests(aprog, result, model=TSO):
    """The shipped engine's R7 observer tests in a one-pass check: its
    ``vc_queries`` less the one probe per indexed chain that every
    R6/R7 item makes."""
    assert result.stats.iterations == 1
    prep = prepare(aprog)
    index = Chains(aprog, model).addr_stores
    items = [addr for _, addr, _, _ in prep.loads]
    items += [addr for _, addr, _ in prep.stores]
    probes = sum(len(index.get(addr, ())) for addr in items)
    return result.stats.vc_queries - probes


#: The swap's load half observes ``S[A]#1`` and its own store half is a
#: same-address successor of ``S[A]#1``: the load's group exit *is* the
#: candidate, yet never reaches the group entry, so the observer test
#: must not call the edge implied.  P1's load, the other observer,
#: already reaches the swap (through ``S[B]#5`` and ``L[B]=5``), so
#: calling it implied would cut the scan before ``S[A]#3``.
SAME_GROUP_OBSERVER = """
P0: S[A]#1 ; L[B]=5 ; SWAP[A]=1,#2 ; S[A]#3
P1: L[A]=1 ; S[B]#5
"""

#: A model that keeps load→load and store→store order but relaxes
#: load→store, so an 8-byte swap's ``L2 -> S2`` is only implied through
#: the group's internal chain (under TSO, PSO and SC it is also a static
#: R1 edge).
LOAD_STORE_RELAXED = MemoryModel(
    "LSrelaxed", load_load=True, load_store=False, store_store=True,
    store_load=False,
)


def _swap8_aprog():
    """``P0: S[B]#7 ; SWAP8[A]`` whose second load half ``L2`` (word
    ``B``) observes ``S[B]#7`` and whose store half ``S2`` (word ``B``)
    is ``S[B]#7``'s same-address successor: groups ``[L1, L2, S1, S2]``,
    where ``L2``'s group exit is ``S2`` itself."""
    a = 0x40
    store = IStore(addr=a + 4, size=4)
    swap = ISwap(addr=a, size=8)
    execution = Execution(records=[[
        DynRecord(instr=store, stored=(7,)),
        DynRecord(instr=swap, loaded=(0, 7), stored=(8, 9)),
    ]])
    return expand(execution, initial={}, word_names={a: "A", a + 4: "B"})


class TestSameGroupObserver:
    @pytest.mark.parametrize("model", [TSO, PSO, SC], ids=lambda m: m.name)
    def test_swap_observing_its_predecessor(self, model):
        aprog = litmus_aprog(SAME_GROUP_OBSERVER)
        shipped = VectorClockChecker(model).run(aprog)
        plain_checker = _RescanAll(model)
        plain = plain_checker.run(aprog)
        assert shipped.ok
        assert _fingerprint(shipped) == _fingerprint(plain)
        # Both observers are tested at the swap's store half and at
        # ``S[A]#3``: the scan goes on past the same-group observer.
        assert _observer_tests(aprog, shipped, model) == 4
        assert plain_checker.r7_tests == 4

    @pytest.mark.parametrize(
        "model", [TSO, LOAD_STORE_RELAXED], ids=lambda m: m.name
    )
    def test_swap8_keeps_intra_group_r7_edge(self, model):
        aprog = _swap8_aprog()
        shipped = VectorClockChecker(model).run(aprog)
        assert shipped.ok
        assert _fingerprint(shipped) == _fingerprint(_RescanAll(model).run(aprog))
        l2, s2 = (
            next(op.id for op in aprog.ops if op.kind == kind and op.group != -1
                 and op.addr == 0x44)
            for kind in (OpKind.LOAD, OpKind.STORE)
        )
        rule = shipped.graph.reasons[(l2, s2)].rule
        # The explicit edge the observer test must not suppress; under
        # TSO the static R1 edge was there first.
        assert rule == ("R1" if model is TSO else "R7")
