"""Seeded random-graph generators for experiments and tests.

Each generator makes exactly the random draws, in exactly the order, of a
loop that asks the generator for one row (G(n, p)) or one target
(preferential attachment) per call. Bulk calls concatenate to that same
stream, so a seed gives the same graph however the draws are batched; the
one-draw-per-call loops are kept as references in the tests, which check
the two agree. The stream itself is numpy's: ``Generator.random`` and the
bounded ``Generator.integers``.
"""

from __future__ import annotations

import numbers

import numpy as np

from .graph import Graph, check_bool, check_int, graph_from_edges

# at most this many G(n, p) coin flips are held at once
_GNP_BLOCK = 1 << 18
# first span of preferential-attachment nodes drawn in one call
_PA_SPAN = 16


def gnp_random_graph(n: int, p: float, seed: int, directed: bool = False) -> Graph:
    """Erdos-Renyi G(n, p), deterministic per seed.

    Nodes are 0..n-1 (external ids equal internal ids). A node v >= 1 left
    isolated gets edge (0, v), and node 0 (0, 1) when it alone is isolated.

    The draws are one ``rng.random`` stream over the candidate arcs in
    row-major order: row u holds v = u+1..n-1 (undirected) or v = 0..n-1
    with the draw for v = u skipped (directed). Blocks of at most
    ``_GNP_BLOCK`` draws concatenate to the stream one call per row makes.

    Before any draw, ValueError unless ``n`` is an integer >= 2 and
    ``seed`` an integer >= 0 (``graph.check_int``: numpy integers yes,
    bools and floats no), ``p`` a real number (``numbers.Real``, numpy
    floats included) in [0, 1] that is not a bool, and ``directed`` a
    bool (``graph.check_bool``).
    """
    n = check_int("n", n, 2)
    if isinstance(p, bool) or not isinstance(p, numbers.Real):
        raise ValueError(f"p must be a number, not {p!r}")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    directed = check_bool("directed", directed)
    seed = check_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    if directed:
        total = n * n
    else:
        total = n * (n - 1) // 2
        # flat position of (u, u + 1), the start of row u
        starts = np.arange(n, dtype=np.int64)
        starts = starts * n - starts * (starts + 1) // 2
    blocks = []
    seen = np.zeros(n, dtype=bool)
    for lo in range(0, total, _GNP_BLOCK):
        hits = np.flatnonzero(rng.random(min(_GNP_BLOCK, total - lo)) < p) + lo
        if directed:
            u, v = np.divmod(hits, n)
            keep = u != v
            u, v = u[keep], v[keep]
        else:
            u = np.searchsorted(starts, hits, side="right") - 1
            v = hits - starts[u] + u + 1
        blocks.append(np.stack((u, v), axis=1))
        seen[u] = seen[v] = True
    missing = np.flatnonzero(~seen[1:]) + 1
    if not (seen[0] or missing.size):
        missing = np.array([1])
    blocks.append(np.stack((np.zeros_like(missing), missing), axis=1))
    return graph_from_edges(np.concatenate(blocks), directed=directed)


def preferential_attachment_graph(n: int, m: int, seed: int) -> Graph:
    """Barabasi-Albert style graph: heavy-tailed degrees like social networks.

    Each new node attaches to m distinct existing nodes chosen in
    proportion to degree. Average degree approaches 2m. Undirected.

    Draws: a star joins node 0 to nodes 1..m. Node w > m then draws
    ``rng.integers(2m(w - m))`` positions into the flat list of the edge
    endpoints written so far, adding each endpoint to a ``set`` until it
    holds m nodes; the set's iteration order writes w's edges. Spans of
    nodes draw m positions each in one call. A node whose m positions
    repeat a target rewinds the generator to the span's start, replays
    the span's draws through its own m and draws the rest of its
    positions one per call, so the stream stays that of one call per
    position. Repeats are rare (137 of 19,994 nodes in BA(20000, 5,
    seed=1)), so spans double while clean and halve on a repeat.

    Before any draw, ValueError unless ``m`` is an integer >= 1, then
    ``n`` an integer >= m + 1 and ``seed`` an integer >= 0
    (``graph.check_int``, as for ``gnp_random_graph``).
    """
    m = check_int("m", m, 1)
    n = check_int("n", n, m + 1)
    seed = check_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    # ends[2i], ends[2i + 1] are edge i. An entry drawn uniformly is a node
    # drawn in proportion to its degree. Node w's edges start at 2m(w - m)
    # and their first ends are all w.
    ends = [0] * (2 * m * (n - m))
    ends[1:2 * m:2] = range(1, m + 1)
    ends[2 * m::2] = np.arange(m + 1, n).repeat(m).tolist()
    span = _PA_SPAN
    w = m + 1
    while w < n:
        bounds = 2 * m * (np.arange(w, min(n, w + span)) - m)
        state = rng.bit_generator.state
        drawn = rng.integers(bounds.repeat(m)).tolist()
        for j in range(len(bounds)):
            targets = {ends[i] for i in drawn[j * m:(j + 1) * m]}
            repeat = len(targets) < m
            if repeat:
                # replay the span's draws through these m, then draw the rest singly
                rng.bit_generator.state = state
                rng.integers(bounds[:j + 1].repeat(m))
                while len(targets) < m:
                    targets.add(ends[int(rng.integers(bounds[j]))])
            pos = 2 * m * (w - m)
            ends[pos + 1:pos + 2 * m:2] = targets
            w += 1
            if repeat:
                span = max(1, span // 2)
                break
        else:
            span *= 2
    return graph_from_edges(np.array(ends, dtype=np.int64).reshape(-1, 2))
