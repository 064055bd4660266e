"""Seeded random-graph generators for experiments and tests."""

from __future__ import annotations

import numpy as np

from .graph import Graph, graph_from_edges


def gnp_random_graph(n: int, p: float, seed: int, directed: bool = False) -> Graph:
    """Erdos-Renyi G(n, p), deterministic per seed.

    Nodes are 0..n-1 (external ids equal internal ids). Guarantees at
    least one edge by connecting nodes 0 and 1 if the draw comes up empty.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    rng = np.random.default_rng(seed)
    pairs: list[tuple[int, int]] = []
    for u in range(n):
        if directed:
            hits = np.flatnonzero(rng.random(n) < p)
            pairs.extend((u, int(v)) for v in hits if v != u)
        else:
            hits = np.flatnonzero(rng.random(n - u - 1) < p)
            pairs.extend((u, u + 1 + int(v)) for v in hits)
    if not pairs:
        pairs = [(0, 1)]
    g = graph_from_edges(pairs, directed=directed)
    if g.n == n:
        return g
    # isolated nodes cannot come from an edge list; re-anchor them to node 0,
    # and node 0 itself to node 1 when it is the only one missing
    present = set(int(e) for e in g.external_ids)
    extra = [(0, u) for u in range(1, n) if u not in present] or [(0, 1)]
    return graph_from_edges(pairs + extra, directed=directed)


def preferential_attachment_graph(n: int, m: int, seed: int) -> Graph:
    """Barabasi-Albert style graph: heavy-tailed degrees like social networks.

    Each new node attaches to m distinct existing nodes chosen in
    proportion to degree. Average degree approaches 2m. Undirected.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if n <= m:
        raise ValueError("n must exceed m")
    rng = np.random.default_rng(seed)
    pairs: list[tuple[int, int]] = []
    # endpoints repeated by degree; seeded with a star on the first m+1 nodes
    repeated: list[int] = []
    for v in range(1, m + 1):
        pairs.append((0, v))
        repeated.extend((0, v))
    for v in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(repeated[int(rng.integers(len(repeated)))])
        for t in targets:
            pairs.append((v, t))
            repeated.extend((v, t))
    return graph_from_edges(pairs)
