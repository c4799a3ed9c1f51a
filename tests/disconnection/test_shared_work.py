"""Work shared across the chains of one request.

Evaluation: every local task of a request answered from one
:class:`SharedRows` must carry the values the dict evaluator gives for that
task alone, under every pinned reachability backend and on a site whose
compact graph carries an uncompacted delta overlay.

Assembly: the prefix-shared :func:`assemble_chains` (behind
:func:`assemble_best_chain` and :meth:`DisconnectionSetEngine.execute_plan`)
must give every chain exactly the :class:`AssemblyResult` that per-chain
:func:`assemble_chain` gives, and the same winner as
:func:`best_over_chains`.
"""

from __future__ import annotations

import random
from typing import Dict

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.closure import (
    BACKEND_BIGINT,
    BACKEND_CHAIN,
    BACKEND_NUMPY,
    reachability_semiring,
    shortest_path_semiring,
    widest_path_semiring,
)
from repro.disconnection import (
    DisconnectionSetEngine,
    DistributedCatalog,
    ExecutionReport,
    LocalQueryEvaluator,
    QueryPlanner,
    SharedRows,
    assemble_best_chain,
    assemble_chain,
    assemble_chains,
    best_over_chains,
    collect_task_keys,
)
from repro.disconnection.planner import LocalQuerySpec
from repro.exceptions import NoChainError
from repro.fragmentation import BondEnergyFragmenter, GroundTruthFragmenter
from repro.graph import DiGraph

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def _ring_of_clusters(seed: int, clusters: int, size: int):
    """A directed graph whose clusters form a ring (a cyclic fragmentation graph)."""
    rng = random.Random(seed)
    graph = DiGraph()
    members = [[cluster * size + index for index in range(size)] for cluster in range(clusters)]
    for block in members:
        for node in block:
            graph.add_node(node)
        for a, b in zip(block, block[1:]):
            graph.add_edge(a, b, rng.uniform(1, 5))
            if rng.random() < 0.7:
                graph.add_edge(b, a, rng.uniform(1, 5))
        for _ in range(size):
            a, b = rng.choice(block), rng.choice(block)
            if a != b:
                graph.add_edge(a, b, rng.uniform(1, 5))
    for cluster in range(clusters):
        left, right = members[cluster], members[(cluster + 1) % clusters]
        for _ in range(rng.randint(1, 2)):
            a, b = rng.choice(left), rng.choice(right)
            graph.add_edge(a, b, rng.uniform(2, 8))
            if rng.random() < 0.6:
                graph.add_edge(b, a, rng.uniform(2, 8))
    return graph, GroundTruthFragmenter(members).fragment(graph)


@st.composite
def ring_cases(draw):
    seed = draw(st.integers(min_value=0, max_value=5_000))
    clusters = draw(st.integers(min_value=3, max_value=4))
    size = draw(st.integers(min_value=3, max_value=7))
    graph, fragmentation = _ring_of_clusters(seed, clusters, size)
    nodes = sorted(graph.nodes())
    pairs = draw(
        st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)), min_size=2, max_size=6)
    )
    return fragmentation, pairs


def _plans(catalog, pairs):
    planner = QueryPlanner(catalog)
    plans = []
    for source, target in pairs:
        try:
            plans.append(planner.plan(source, target))
        except NoChainError:
            continue
    return plans


def _request_tasks(catalog, pairs):
    """The task keys of one batch, required to put ≥2 tasks on some fragment."""
    tasks, _ = collect_task_keys(_plans(catalog, pairs))
    per_fragment: Dict[int, int] = {}
    for fragment_id, _, _ in tasks:
        per_fragment[fragment_id] = per_fragment.get(fragment_id, 0) + 1
    assume(per_fragment and max(per_fragment.values()) >= 2)
    return tasks


def _evaluate_shared(evaluator, catalog, tasks):
    shared = SharedRows(tasks)
    return {
        key: evaluator.evaluate(catalog.site(key[0]), LocalQuerySpec(*key), shared=shared)
        for key in tasks
    }


def _evaluate_alone(evaluator, catalog, tasks):
    return {key: evaluator.evaluate(catalog.site(key[0]), LocalQuerySpec(*key)) for key in tasks}


def _overlay_one_site(catalog, rng: random.Random) -> None:
    """Delete one edge and insert another inside a fragment, through the delta overlay."""
    for site in catalog.sites():
        site.compact()  # the delta patches an existing compact form
    site = catalog.site(rng.choice(sorted(site.fragment_id for site in catalog.sites())))
    augmented = site.augmented_subgraph()
    shortcut_pairs = {(source, target) for source, target, _ in site.shortcuts}
    subgraph = site.subgraph.copy()
    nodes = sorted(subgraph.nodes())
    removable = [edge for edge in sorted(subgraph.edges()) if edge not in shortcut_pairs]
    absent = [(a, b) for a in nodes for b in nodes if a != b and not augmented.has_edge(a, b)]
    assume(removable or absent)
    if removable:
        subgraph.remove_edge(*rng.choice(removable))
    if absent:
        subgraph.add_edge(*rng.choice(absent), rng.uniform(1, 5))
    site.apply_update(
        subgraph=subgraph,
        border_nodes=site.border_nodes,
        shortcuts=site.shortcuts,
        neighbours=site.neighbours,
        disconnection_sets=site.disconnection_sets,
    )
    assert site.compact().has_overlay()


class TestSharedRowsEvaluation:
    @SETTINGS
    @given(case=ring_cases(), backend=st.sampled_from([BACKEND_BIGINT, BACKEND_NUMPY, BACKEND_CHAIN]))
    def test_reachability_matches_dict_evaluator(self, case, backend):
        fragmentation, pairs = case
        catalog = DistributedCatalog(fragmentation, semiring=reachability_semiring())
        tasks = _request_tasks(catalog, pairs)
        shared = LocalQueryEvaluator(semiring=reachability_semiring(), backend=backend)
        baseline = LocalQueryEvaluator(semiring=reachability_semiring(), use_compact=False)
        for overlaid in (False, True):
            if overlaid:
                _overlay_one_site(catalog, random.Random(len(tasks)))
            got = _evaluate_shared(shared, catalog, tasks)
            expected = _evaluate_alone(baseline, catalog, tasks)
            alone = _evaluate_alone(shared, catalog, tasks)
            for key in tasks:
                assert got[key].values == expected[key].values, key
                # Shared rows never search less than a task's own search.
                assert (
                    got[key].statistics.tuples_produced >= alone[key].statistics.tuples_produced
                )

    @SETTINGS
    @given(case=ring_cases(), overlay=st.booleans())
    def test_shortest_paths_match_dict_evaluator(self, case, overlay):
        fragmentation, pairs = case
        catalog = DistributedCatalog(fragmentation)
        tasks = _request_tasks(catalog, pairs)
        if overlay:
            _overlay_one_site(catalog, random.Random(len(tasks)))
        evaluator = LocalQueryEvaluator()
        got = _evaluate_shared(evaluator, catalog, tasks)
        expected = _evaluate_alone(LocalQueryEvaluator(use_compact=False), catalog, tasks)
        alone = _evaluate_alone(evaluator, catalog, tasks)
        for key in tasks:
            assert got[key].values.keys() == expected[key].values.keys(), key
            for pair, value in got[key].values.items():
                assert value == pytest.approx(expected[key].values[pair], rel=1e-9)
            # Nodes settled are those a search for the task alone settles.
            assert got[key].statistics.tuples_produced == alone[key].statistics.tuples_produced
            assert got[key].statistics.delta_sizes == alone[key].statistics.delta_sizes

    def test_task_outside_the_shared_set_is_refused(self):
        _, fragmentation = _ring_of_clusters(1, 3, 4)
        catalog = DistributedCatalog(fragmentation)
        spec = LocalQuerySpec(0, frozenset([0]), frozenset([1]))
        shared = SharedRows([(0, frozenset([0]), frozenset([2]))])
        with pytest.raises(ValueError, match="not one of the shared rows' tasks"):
            LocalQueryEvaluator().evaluate(catalog.site(0), spec, shared=shared)


def _per_chain_report(engine, plan):
    """The engine's figures with every task searched alone and every chain joined alone."""
    report = ExecutionReport()
    report.planned_fragments = len(plan.fragments_involved())
    evaluator = LocalQueryEvaluator(semiring=engine.semiring)
    results = {}
    assemblies = []
    for chain_plan in plan.chains:
        for spec in chain_plan.local_queries:
            if spec.key() not in results:
                results[spec.key()] = evaluator.evaluate(engine.catalog.site(spec.fragment_id), spec)
                report.record_local(results[spec.key()])
        local = [results[spec.key()] for spec in chain_plan.local_queries]
        assemblies.append(assemble_chain(chain_plan, local, semiring=engine.semiring))
        report.record_assembly(assemblies[-1])
    return report, assemblies, results


class TestPrefixSharedAssembly:
    @SETTINGS
    @given(
        case=ring_cases(),
        semiring=st.sampled_from(
            [shortest_path_semiring(), reachability_semiring(), widest_path_semiring()]
        ),
    )
    def test_matches_per_chain_assembly(self, case, semiring):
        fragmentation, pairs = case
        engine = DisconnectionSetEngine(fragmentation, semiring=semiring)
        assume(not engine.catalog.fragmentation_graph.is_loosely_connected())
        plans = [plan for plan in _plans(engine.catalog, pairs) if len(plan.chains) >= 2]
        assume(plans)
        for plan in plans:
            reference_report, reference, results = _per_chain_report(engine, plan)
            assert assemble_chains(plan, results, semiring=semiring) == reference
            best = best_over_chains(reference, semiring=semiring)
            winner = next(
                (a.chain for a in reference if a.value is not None and a.value == best), None
            )
            assert assemble_best_chain(plan, results, semiring=semiring) == (best, winner)
            answer = engine.execute_plan(plan)
            assert (answer.value, answer.chain) == (best, winner)
            report = answer.report
            assert report.chains_evaluated == reference_report.chains_evaluated
            assert report.join_operations == reference_report.join_operations
            assert report.assembly_tuples == reference_report.assembly_tuples
            assert report.planned_fragments == reference_report.planned_fragments
            assert list(report.site_work) == list(reference_report.site_work)
            for fragment_id, work in report.site_work.items():
                expected = reference_report.site_work[fragment_id]
                assert (work.subqueries, work.iterations) == (
                    expected.subqueries,
                    expected.iterations,
                )
                if semiring.name == "reachability":
                    assert work.tuples_produced >= expected.tuples_produced
                else:
                    assert work.tuples_produced == expected.tuples_produced


# Figures of DisconnectionSetEngine.query on the shared transportation network
# fragmented by bond energy into 4 fragments (a cyclic fragmentation graph),
# as recorded before chains shared rows and prefix joins:
# value, chain, chains_evaluated, join_operations, assembly_tuples,
# planned_fragments, and (fragment, subqueries, iterations, tuples) per site.
RECORDED_REPORTS = {
    (0, 47): (
        479.99029542767533, (3, 1, 2), 2, 7, 22, 4,
        [(0, 1, 7, 134), (1, 2, 12, 85), (2, 1, 4, 7), (3, 2, 14, 30)],
    ),
    (3, 30): (
        381.3420904729901, (0, 1), 4, 10, 36, 3,
        [(0, 3, 21, 169), (1, 2, 12, 35), (3, 3, 21, 130)],
    ),
    (20, 45): (
        438.61091867444316, (0, 1, 2), 2, 7, 22, 4,
        [(0, 2, 14, 28), (1, 2, 12, 85), (2, 1, 4, 23), (3, 1, 7, 99)],
    ),
}


class TestExecutionReportUnchanged:
    def test_multi_chain_fixture_reports(self, small_transportation_network):
        graph = small_transportation_network.graph
        engine = DisconnectionSetEngine(BondEnergyFragmenter(4, restarts=2).fragment(graph))
        assert not engine.catalog.fragmentation_graph.is_loosely_connected()
        nodes = sorted(graph.nodes())
        for (source_index, target_index), recorded in RECORDED_REPORTS.items():
            answer = engine.query(nodes[source_index], nodes[target_index])
            report = answer.report
            figures = (
                answer.value,
                answer.chain,
                report.chains_evaluated,
                report.join_operations,
                report.assembly_tuples,
                report.planned_fragments,
                sorted(
                    (w.fragment_id, w.subqueries, w.iterations, w.tuples_produced)
                    for w in report.site_work.values()
                ),
            )
            assert figures[1:] == recorded[1:]
            assert figures[0] == pytest.approx(recorded[0], rel=1e-12)
