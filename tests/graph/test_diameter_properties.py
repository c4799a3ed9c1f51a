"""Property test: the bit-parallel ``hop_diameter`` against per-node BFS.

``hop_diameter`` runs one BFS from every source at once over bitsets;
``eccentricity`` runs one plain BFS from one node. The diameter over
reachable pairs must equal the largest eccentricity, directed and
undirected, on graphs with isolated nodes, self-loops, several components
and one-way edges.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graph import DiGraph, eccentricity, hop_diameter


@st.composite
def graphs(draw):
    """Draw a graph of up to three node blocks with edges inside each block.

    Blocks never share an edge, so each is one or more components of its
    own. Edge pairs are drawn independently, so self-loops, one-way edges,
    both-way pairs and isolated nodes all occur.
    """
    graph = DiGraph()
    offset = 0
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        block = list(range(offset, offset + draw(st.integers(min_value=1, max_value=8))))
        for node in block:
            graph.add_node(node)
        node = st.sampled_from(block)
        for source, target in draw(st.lists(st.tuples(node, node), max_size=2 * len(block))):
            graph.add_edge(source, target)
        offset += len(block)
    return graph


def mixed_graph() -> DiGraph:
    """A one-way path, a both-way triangle with a self-loop, an isolated node."""
    path = [(0, 1), (1, 2), (2, 3)]
    triangle = [(4, 5), (5, 4), (5, 6), (6, 5), (4, 6), (6, 4), (5, 5)]
    graph = DiGraph(path + triangle)
    graph.add_node(7)
    return graph


def largest_eccentricity(graph: DiGraph, undirected: bool) -> int:
    return max(
        (eccentricity(graph, node, undirected=undirected) for node in graph.nodes()),
        default=0,
    )


@settings(max_examples=200, deadline=None)
@example(graph=DiGraph())
@example(graph=mixed_graph())
@given(graph=graphs())
def test_hop_diameter_is_the_largest_eccentricity(graph):
    for undirected in (True, False):
        assert hop_diameter(graph, undirected=undirected) == largest_eccentricity(
            graph, undirected
        )
