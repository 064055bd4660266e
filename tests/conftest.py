import numpy as np
import pytest

from fuzzmap import (
    CompressedGraph,
    Graph,
    build,
    canonical_edge_list,
    default_system,
    gnp_random_graph,
    graph_from_edges,
    parse_fcl,
    preferential_attachment_graph,
    to_fcl,
)
from fuzzmap.oracle import node_states
from fuzzmap.radii import group_points

# 6-node graph with N(1) = {2, 5} whose k=2 quantized models put node 5
# inside node 1's definite-yes radius, push 3/4/6 to definite no, and
# leave node 2 in the fuzzy band (holds for every seed 0..31).
UNCERTAIN_PAIR_EDGES = [(1, 2), (1, 5), (2, 3), (2, 5), (4, 5), (5, 6)]

# adjacent external ids from 2**63: beyond int64, and equal once rounded to float64
HIGH_ID_EDGES = [(2**63, 2**63 + 1), (2**63 + 1, 5)]


@pytest.fixture
def uncertain_pair_graph() -> Graph:
    return graph_from_edges(UNCERTAIN_PAIR_EDGES)


@pytest.fixture(scope="session")
def benchmark_model():
    """The query benchmark's model: BA(20000, 5, seed=1) at k = 8, seed 1."""
    return build(preferential_attachment_graph(20000, 5, seed=1), k=8, seed=1)


@pytest.fixture(scope="session")
def benchmark_edge_text() -> str:
    """The compress benchmark's edge file: the canonical edge list of BA(20000, 5, seed=1)."""
    return canonical_edge_list(preferential_attachment_graph(20000, 5, seed=1))


@pytest.fixture
def k4_graph() -> Graph:
    return graph_from_edges([(u, v) for u in range(4) for v in range(u + 1, 4)])


def edgeless_graph(n: int) -> Graph:
    """n isolated nodes; not producible by the parser, built directly."""
    return Graph(
        n=n,
        directed=False,
        indptr=np.zeros(n + 1, dtype=np.int64),
        indices=np.zeros(0, dtype=np.int64),
        external_ids=np.arange(n, dtype=np.uint64),
    )


def manual_model(coords, r, R, directed=False, quantized=False, external_ids=None,
                 fcl_text=None) -> CompressedGraph:
    """A model of per-node coordinates and radii, grouped as ``build`` groups
    them: ``group_points``, ``node_states``, then ``CompressedGraph.from_states``.

    External ids default to 0..n-1 and the FCL text to the built-in
    system's; the fuzzy system is its parse.
    """
    coords = np.asfortranarray(coords, dtype=float)
    r, R = np.asarray(r, dtype=float), np.asarray(R, dtype=float)
    n = coords.shape[0]
    ids = np.arange(n, dtype=np.uint64) if external_ids is None else np.array(
        external_ids, dtype=np.uint64)
    assert r.shape == R.shape == ids.shape == (n,), "model parts disagree in n"
    fcl_text = to_fcl(default_system()) if fcl_text is None else fcl_text
    groups = group_points(coords)
    return CompressedGraph.from_states(groups.points_t, node_states(groups.inv, r, R), directed,
                                       quantized, parse_fcl(fcl_text), ids, fcl_text)


def soundness_corpus(count: int = 52):
    """(graph, seed) cases spanning n in [10, 200] and all four densities."""
    densities = [0.02, 0.1, 0.3, 0.7]
    rng = np.random.default_rng(20240601)
    cases = []
    for i in range(count):
        n = int(rng.integers(10, 201))
        p = densities[i % len(densities)]
        directed = i % 2 == 1
        cases.append((gnp_random_graph(n, p, seed=3000 + i, directed=directed), i))
    return cases
