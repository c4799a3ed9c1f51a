"""Unit tests for the distributed catalog (per-site storage)."""

import pytest

from repro.disconnection import (
    DistributedCatalog,
    FragmentedDatabase,
    precompute_complementary_information,
)
from repro.fragmentation import GroundTruthFragmenter
from repro.generators import two_cluster_dumbbell
from repro.graph import DiGraph, hop_diameter


@pytest.fixture
def catalog():
    graph = two_cluster_dumbbell(4, bridge_nodes=2)
    fragmentation = GroundTruthFragmenter([set(range(4)), set(range(4, 8))]).fragment(graph)
    return DistributedCatalog(fragmentation)


class TestSites:
    def test_one_site_per_fragment(self, catalog):
        assert catalog.site_count() == 2
        assert [site.fragment_id for site in catalog.sites()] == [0, 1]

    def test_site_stores_its_fragment_relation(self, catalog):
        site = catalog.site(0)
        relation = site.local_relation()
        assert relation.schema == ("source", "target", "cost")
        assert relation.cardinality() == site.edge_count()

    def test_border_nodes_match_fragmentation(self, catalog):
        fragmentation = catalog.fragmentation
        for site in catalog.sites():
            assert site.border_nodes == fragmentation.border_nodes(site.fragment_id)

    def test_neighbours_and_disconnection_sets(self, catalog):
        site = catalog.site(0)
        assert site.neighbours == [1]
        assert site.disconnection_sets[1] == catalog.fragmentation.disconnection_set(0, 1)

    def test_sites_storing_node(self, catalog):
        # Node 4 and 5 sit on the bridge (stored in both fragments through
        # the bridge edges owned by fragment 0).
        assert catalog.sites_storing_node(1) == [0]
        assert catalog.sites_storing_node(7) == [1]
        assert len(catalog.sites_storing_node(4)) >= 1

    def test_augmented_subgraph_contains_shortcuts(self, catalog):
        site = catalog.site(0)
        augmented = site.augmented_subgraph()
        assert augmented.edge_count() >= site.subgraph.edge_count()

    def test_total_storage_includes_complementary_facts(self, catalog):
        edges = sum(site.edge_count() for site in catalog.sites())
        assert catalog.total_storage_facts() >= edges


class TestReuseOfComplementaryInformation:
    def test_precomputed_information_is_reused(self):
        graph = two_cluster_dumbbell(4, bridge_nodes=2)
        fragmentation = GroundTruthFragmenter([set(range(4)), set(range(4, 8))]).fragment(graph)
        info = precompute_complementary_information(fragmentation)
        catalog = DistributedCatalog(fragmentation, complementary=info)
        assert catalog.complementary is info


def ring_fragmentation():
    """A six-node two-way ring (fragment 0) bridged to a four-node ring (fragment 1)."""
    graph = DiGraph()
    for ring in (list(range(0, 6)), list(range(6, 10))):
        for a, b in zip(ring, ring[1:] + ring[:1]):
            graph.add_symmetric_edge(a, b)
    graph.add_symmetric_edge(5, 6)
    return GroundTruthFragmenter([set(range(0, 6)), set(range(6, 10))]).fragment(graph)


class TestIterationEstimateInvalidation:
    """An in-place site update must drop the cached ``hop_diameter + 1``."""

    def test_dirty_site_recomputes_its_diameter(self):
        database = FragmentedDatabase(ring_fragmentation(), incremental=True)
        site = database.engine().catalog.site(0)

        def expected():
            return hop_diameter(database.fragmentation().fragment_subgraph(0)) + 1

        before = site.local_iterations()
        assert before == expected()

        database.delete_edge(0, 1, symmetric=True)  # the ring becomes a path
        assert database.last_delta is not None and 0 in database.last_delta.dirty_fragments
        assert database.engine().catalog.site(0) is site  # updated in place
        lengthened = site.local_iterations()
        assert lengthened == expected()
        assert lengthened > before

        database.insert_edge(1, 4, 1.0, symmetric=True)  # a chord across the path
        assert 0 in database.last_delta.dirty_fragments
        assert database.engine().catalog.site(0) is site
        shortened = site.local_iterations()
        assert shortened == expected()
        assert shortened < lengthened
