"""Seeded stochastic Kronecker graphs (krongen-style 2x2 initiator).

Each edge is placed by descending ``scale`` levels of the Kronecker product:
at every level one of the four initiator quadrants is drawn with probability
proportional to its entry, fixing one more bit of the source and target ids.
Self loops and duplicate edges are redrawn, so the result has exactly
``edges_per_node * 2**scale`` distinct directed edges.  Nodes that receive no
edge do not appear in the graph.
"""

from __future__ import annotations

import bisect
import random
from typing import List, Tuple

from repro.graph import DiGraph

# krongen's example initiator ("0.9 0.5; 0.5 0.1") with unequal off-diagonal
# entries: skewed degrees and a few hubs as in the example, but most edges run
# one way, so some fragments of the graph stay mostly acyclic.  On those the
# repository's ``select_kernel`` picks numpy, on the others bigint and chain;
# on the symmetric example it never picks numpy.
INITIATOR = ((0.9, 0.6), (0.4, 0.1))


def kronecker_edges(seed: int, *, scale: int, edges_per_node: float) -> List[Tuple[int, int]]:
    """Return the sorted directed edge list of one stochastic Kronecker graph."""
    if scale <= 0 or edges_per_node <= 0:
        raise ValueError("scale and edges_per_node must be positive")
    rng = random.Random(seed)
    weights = [INITIATOR[0][0], INITIATOR[0][1], INITIATOR[1][0], INITIATOR[1][1]]
    total = sum(weights)
    cumulative = []
    running = 0.0
    for weight in weights:
        running += weight / total
        cumulative.append(running)
    wanted = int(edges_per_node * (1 << scale))
    edges = set()
    while len(edges) < wanted:
        source = target = 0
        for _ in range(scale):
            quadrant = min(3, bisect.bisect_right(cumulative, rng.random()))
            source = (source << 1) | (quadrant >> 1)
            target = (target << 1) | (quadrant & 1)
        if source != target:
            edges.add((source, target))
    return sorted(edges)


def kronecker_graph(seed: int, *, scale: int, edges_per_node: float) -> DiGraph:
    """Return a :class:`DiGraph` over :func:`kronecker_edges` (unit weights)."""
    graph = DiGraph()
    for source, target in kronecker_edges(seed, scale=scale, edges_per_node=edges_per_node):
        graph.add_edge(source, target, 1.0)
    return graph
