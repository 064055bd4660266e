import numpy as np
import pytest

from fuzzmap import (
    Graph,
    build,
    canonical_edge_list,
    gnp_random_graph,
    graph_from_edges,
    preferential_attachment_graph,
)

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
        indptr=np.zeros(n + 1),
        indices=np.zeros(0),
        external_ids=np.arange(n, dtype=np.uint64),
    )


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
