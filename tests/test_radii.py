import logging
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fuzzmap import (
    Graph,
    compute_all_radii,
    fastmap_embed,
    gnp_random_graph,
    graph_from_edges,
)
from fuzzmap import radii
from fuzzmap.fastmap import Embedding
from fuzzmap.radii import _BLOCK, _block_distances, distances_from, pair_distances

from oracles import norm_oracle, radii_sort_scan


def embed_of(coords) -> Embedding:
    return Embedding(coords=np.asarray(coords, dtype=float))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(2, 40), k=st.integers(1, 16), order=st.sampled_from("CF"))
def test_pair_distances_bitwise_equal_distances_from(data, n, k, order):
    # soundness: the radii are built from distances_from and queries read
    # pair_distances, so the two must agree bit for bit in both directions,
    # whichever memory order the coords are in
    coords = np.asarray(data.draw(arrays(np.float64, (n, k), elements=st.floats(-1e6, 1e6))),
                        order=order)
    node = st.integers(0, n - 1)
    us, vs = np.array(data.draw(st.lists(st.tuples(node, node), min_size=1, max_size=50))).T
    d = pair_distances(coords, us, vs)
    for i, (u, v) in enumerate(zip(us, vs)):
        assert d[i].tobytes() == distances_from(coords, u)[v].tobytes()
        assert d[i].tobytes() == distances_from(coords, v)[u].tobytes()
    # a (rows, 1) index against every node, as the pair table scores its sides
    rows = pair_distances(coords, us[:, None], np.arange(n))
    assert rows.shape == (len(us), n)
    assert rows.tobytes() == np.stack([distances_from(coords, u) for u in us]).tobytes()


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(2, 3 * _BLOCK + 1), k=st.integers(1, 16),
       order=st.sampled_from("CF"))
def test_block_rows_bitwise_equal_query_distances(data, n, k, order):
    # the all-nodes scan reads its distances from these block rows, so each
    # must equal what a query computes for the same pair, bit for bit; in F
    # order coords.T is the C-contiguous table the scan reads
    coords = np.asarray(data.draw(arrays(np.float64, (n, k), elements=st.floats(-1e6, 1e6))),
                        order=order)
    out, tmp = np.empty((2, _BLOCK, n))
    ids = np.arange(n)
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        rows = _block_distances(coords.T, lo, hi, out, tmp)
        for i, v in enumerate(range(lo, hi)):
            row = rows[i].tobytes()
            assert row == distances_from(coords, v).tobytes()
            assert row == pair_distances(coords, np.full(n, v), ids).tobytes()
            assert row == pair_distances(coords, ids, np.full(n, v)).tobytes()


@pytest.mark.parametrize("k", [2, 16])
def test_pair_distances_memory_is_linear_in_pairs(k):
    # one axis gathered at a time: the output, one scratch array and the
    # gathers of at most two axes live at once, whatever k; gathering whole
    # (m, k) rows would need 2 m k floats on top
    rng = np.random.default_rng(k)
    coords = embed_of(rng.normal(size=(1000, k))).coords
    m = 100_000
    us, vs = rng.integers(0, 1000, (2, m))
    tracemalloc.start()
    try:
        pair_distances(coords, us, vs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * m * 8


def test_euclidean_matches_independent_norm():
    rng = np.random.default_rng(8)
    e = embed_of(rng.normal(size=(6, 4)) * 10)
    us, vs = np.divmod(np.arange(36), 6)
    for u, v, d in zip(us, vs, pair_distances(e.coords, us, vs)):
        assert d == pytest.approx(norm_oracle(e.coords[u], e.coords[v]), rel=1e-12)


def node_radii(g, e, quantize):
    """Each node's (r, R) as Python floats, from one compute_all_radii call."""
    every = compute_all_radii(g, e, quantize=quantize)
    return list(zip(every.r.tolist(), every.R.tolist()))


def labelled_distances(g, coords, v):
    d = distances_from(coords, v)
    return [(float(d[u]), u in g.neighbors(v)) for u in range(g.n) if u != v]


@pytest.mark.parametrize("quantize", [False, True])
@pytest.mark.parametrize("directed", [False, True])
def test_radii_match_sort_scan_oracle(quantize, directed):
    for i in range(8):
        g = gnp_random_graph(10 + 13 * i, [0.05, 0.2, 0.5][i % 3], seed=70 + i,
                             directed=directed)
        e = fastmap_embed(g, 3, seed=i)
        every = node_radii(g, e, quantize)
        for v in range(g.n):
            got = every[v]
            want = radii_sort_scan(labelled_distances(g, e.coords, v), quantize)
            assert got == want, f"node {v} of graph {i}"


def test_node_adjacent_to_all():
    # m = +inf: r equals the farthest-neighbor distance; quantized R = floor(M)+1
    g = graph_from_edges([(0, 1), (0, 2), (0, 3)])
    e = embed_of([[0.0], [1.3], [2.7], [0.4]])
    r, R = node_radii(g, e, False)[0]
    assert r == 2.7
    assert R == math.inf
    rq, Rq = node_radii(g, e, True)[0]
    assert rq == 2.0  # floor of the unquantized radius
    assert Rq == 3.0  # floor(M) + 1


def test_node_adjacent_to_none_directed():
    # node 2 has no out-neighbors: r = -1 sentinel, R = nearest other node
    g = graph_from_edges([(0, 1), (1, 2)], directed=True)
    e = embed_of([[0.0], [2.0], [3.0]])
    r, R = node_radii(g, e, False)[2]
    assert r == -1.0
    assert R == 1.0  # distance to node 1
    rq, Rq = node_radii(g, e, True)[2]
    assert rq == 0.0  # ceil(m) - 1; sound since nothing sits at distance 0
    assert Rq == 1.0  # no neighbors: unquantized R is kept


def test_quantized_R_keeps_its_guard_above_2_53():
    # path 0-1-2 on the line at 0, 2**54 and 2**55. For node 0, M = 2**54,
    # and floor(M) + 1 rounds back to 2**54 (doubles there are 4 apart): as
    # R it would answer a definite no for the edge (0, 1). The Q > M guard
    # keeps the unquantized R = 2**55, the nearest non-neighbor beyond M.
    g = graph_from_edges([(0, 1), (1, 2)])
    e = embed_of([[0.0], [2.0**54], [2.0**55]])
    M = distances_from(e.coords, 0)[1]
    assert M == 2.0**54 and np.floor(M) + 1.0 == M  # the shortcut is not above M
    for quantize in (False, True):
        r, R = node_radii(g, e, quantize)[0]
        assert R == 2.0**55 and M < R  # edge (0, 1) never answers a definite no
        assert r == 2.0**54  # and it answers yes: no non-neighbor within r


def test_coincident_non_neighbor_forces_sentinel():
    # node 2 coincides with node 0 in the embedding but is not its neighbor
    g = graph_from_edges([(0, 1), (1, 2)])
    e = embed_of([[0.0], [5.0], [0.0]])
    for quantize in (False, True):
        r, R = node_radii(g, e, quantize)[0]
        assert r == -1.0  # d <= 0 must never answer yes


# node 0 sits alone at 0.0, so its own point holds no non-neighbor and m
# comes from the nearest other point, at 1.0: in the first case that point
# holds a non-neighbor (node 2); in the second every node on it is a
# neighbor, and node 0 scans its whole row, finding m = 3 at node 3
NEAREST_POINT_CASES = {
    "nearest-point-holds-non-neighbor": (
        [(0, 1), (0, 3), (2, 3), (3, 4)],
        [[0.0], [1.0], [1.0], [3.0], [5.0]]),
    "nearest-point-all-neighbors": (
        [(0, 1), (0, 2), (0, 4), (1, 3), (2, 5), (3, 5)],
        [[0.0], [1.0], [1.0], [3.0], [3.0], [5.0]]),
}


@pytest.mark.parametrize("case", sorted(NEAREST_POINT_CASES))
@pytest.mark.parametrize("quantize", [False, True])
@pytest.mark.parametrize("directed", [False, True])
def test_nearest_point_and_its_fallback_match_sort_scan(case, quantize, directed):
    edges, coords = NEAREST_POINT_CASES[case]
    g = graph_from_edges(edges, directed=directed)
    e = embed_of(coords)
    every = compute_all_radii(g, e, quantize=quantize)
    for v in range(g.n):
        want = radii_sort_scan(labelled_distances(g, e.coords, v), quantize)
        assert (every.r[v], every.R[v]) == want, f"node {v}"
    # node 0's r lies below m = 1 in the first case and m = 3 in the second
    m = 1.0 if case == "nearest-point-holds-non-neighbor" else 3.0
    assert every.r[0] == {(1.0, False): -1.0, (1.0, True): 0.0,
                          (3.0, False): 1.0, (3.0, True): 2.0}[m, quantize]


def test_boundary_tie_neighbor_and_non_neighbor():
    # neighbor and non-neighbor both at distance 2: the non-neighbor wins
    # for r (r stays below 2), the neighbor wins for R (R stays above 2)
    g = graph_from_edges([(0, 1), (0, 2), (2, 3)])  # 3 is a non-neighbor of 0
    e = embed_of([[0.0], [1.0], [2.0], [2.0]])
    r, R = node_radii(g, e, False)[0]
    assert r == 1.0
    assert R == math.inf  # no non-neighbor strictly beyond the farthest neighbor


def test_uncertain_pair_bands(uncertain_pair_graph):
    from fuzzmap import build

    cg = build(uncertain_pair_graph, k=2, seed=0, quantize=True)
    one = cg.internal_id(1)
    d = distances_from(cg.embedding.coords, one)
    r1, R1 = cg.radii.r[one], cg.radii.R[one]
    assert d[cg.internal_id(5)] <= r1  # inside the smaller circle
    assert r1 < d[cg.internal_id(2)] < R1  # the uncertain node
    for other in (3, 4, 6):
        w = cg.internal_id(other)
        # outside a definite-no radius of at least one endpoint
        assert d[w] > r1 and (d[w] >= R1 or d[w] >= cg.radii.R[w])


@pytest.mark.parametrize("quantize", [False, True])
def test_soundness_brute_force(quantize):
    for i in range(6):
        g = gnp_random_graph(20 + 30 * i, 0.15, seed=90 + i)
        e = fastmap_embed(g, 4, seed=i)
        radii = compute_all_radii(g, e, quantize=quantize)
        for v in range(g.n):
            d = distances_from(e.coords, v)
            for u in range(g.n):
                if u == v:
                    continue
                if d[u] <= radii.r[v]:
                    assert u in g.neighbors(v), "yes-soundness violated"
                if d[u] >= radii.R[v]:
                    assert u not in g.neighbors(v), "no-soundness violated"


def test_quantized_radii_sound_direction():
    for i in range(5):
        g = gnp_random_graph(40, 0.2, seed=120 + i)
        e = fastmap_embed(g, 3, seed=i)
        every = node_radii(g, e, True)
        for v in range(g.n):
            d = distances_from(e.coords, v)
            others = np.arange(g.n) != v
            nb = np.zeros(g.n, bool)
            nb[g.neighbors(v)] = True
            nnd = d[~nb & others]
            nbd = d[nb & others]
            m = nnd.min() if nnd.size else math.inf
            M = nbd.max() if nbd.size else -math.inf
            rq, Rq = every[v]
            assert rq == -1.0 or rq < m  # never reaches a non-neighbor
            assert Rq > M  # never cuts off a neighbor
            assert rq == -1.0 or float(rq).is_integer()


def graph_from_matrix(adj: np.ndarray, directed: bool) -> Graph:
    adj = adj & ~np.eye(len(adj), dtype=bool)
    if not directed:
        adj = adj | adj.T
    return Graph(n=len(adj), directed=directed,
                 indptr=np.concatenate([[0], np.cumsum(adj.sum(axis=1))]),
                 indices=np.nonzero(adj)[1],
                 external_ids=np.arange(len(adj), dtype=np.uint64))


# small integers make distance ties, general floats make rounding, and
# multiples of 2**52 put m and M where ceil(m) - 1 and floor(M) + 1 fail
COORD = st.one_of(st.integers(-3, 3).map(float), st.floats(-1e3, 1e3),
                  st.integers(-6, 6).map(lambda i: i * 2.0**52))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.sampled_from([_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3]),
       k=st.integers(1, 8), directed=st.booleans(), quantize=st.booleans(),
       chunk_cap=st.sampled_from([1, 5, radii._CHUNK]))
def test_all_radii_equal_per_node_and_sort_scan(data, n, k, directed, quantize, chunk_cap):
    # a small _CHUNK gives a span per _BLOCK points, so rows past the first
    # span meet tie-heavy and 2**52-scale coordinates too
    g = graph_from_matrix(data.draw(arrays(bool, (n, n))), directed)
    e = embed_of(data.draw(arrays(np.float64, (n, k), elements=COORD)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(radii, "_CHUNK", chunk_cap)
        every = compute_all_radii(g, e, quantize=quantize)
    for v in range(n):
        want = radii_sort_scan(labelled_distances(g, e.coords, v), quantize)
        assert (every.r[v], every.R[v]) == want


# signed zeros and integer ties: pool rows coincide, and 0.0/-0.0 rows merge
POOL_COORD = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0])


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(2, 3 * _BLOCK + 1), k=st.integers(1, 4),
       pool=st.integers(1, 5), directed=st.booleans(), quantize=st.booleans(),
       chunk_cap=st.sampled_from([1, 5, radii._CHUNK]))
def test_coincident_points_match_per_node_and_sort_scan(data, n, k, pool, directed, quantize,
                                                        chunk_cap):
    # coords drawn from a few rows put many nodes on one point (u << n); a
    # small _CHUNK splits a point's nodes over several rule calls
    rows = data.draw(arrays(np.float64, (pool, k), elements=POOL_COORD))
    e = embed_of(rows[data.draw(arrays(np.intp, n, elements=st.integers(0, pool - 1)))])
    g = graph_from_matrix(data.draw(arrays(bool, (n, n))), directed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(radii, "_CHUNK", chunk_cap)
        every = compute_all_radii(g, e, quantize=quantize)
    for v in range(n):
        want = radii_sort_scan(labelled_distances(g, e.coords, v), quantize)
        assert (every.r[v], every.R[v]) == want


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e200, -1e200])
def test_non_finite_coords_rejected(bad):
    # the model's rule: a coordinate a k-axis distance could overflow from
    # would give inf distances, and R = inf reads a neighbor as a definite no
    g = gnp_random_graph(20, 0.3, seed=1)
    coords = fastmap_embed(g, 3, seed=1).coords.copy()
    coords[7, 1] = bad
    with pytest.raises(ValueError, match="non-finite or overflowing coordinate at node 7"):
        compute_all_radii(g, embed_of(coords))


@pytest.mark.parametrize("row", [[0], [1, 1], [2, 1]], ids=["self-loop", "repeat", "unsorted"])
def test_malformed_graph_rows_rejected(row):
    # a self-loop or a repeated neighbor would make the scan's count mask
    # hide a coincident non-neighbor, so no Graph may hold one. Repeats are
    # found by row order, so an unsorted row is rejected as well.
    with pytest.raises(ValueError, match="self-loops or repeats"):
        Graph(n=4, directed=True, indptr=np.array([0] + [len(row)] * 4), indices=np.array(row),
              external_ids=np.arange(4, dtype=np.uint64))


def test_scan_logs_point_grouping(caplog):
    # nodes 0 and 2 share a point and are not adjacent: both get r = -1;
    # node 1 neighbors both, and nobody has a non-neighbor beyond its M
    g = graph_from_edges([(0, 1), (1, 2)])
    e = embed_of([[0.0], [5.0], [-0.0]])
    with caplog.at_level(logging.INFO, logger="fuzzmap.radii"):
        compute_all_radii(g, e, quantize=False)
    assert [rec.getMessage() for rec in caplog.records] == [
        "radii: n=3 distinct_points=2 largest_group=2 r_sentinel_frac=0.6667 "
        "R_inf_frac=1.0000"]


def test_radii_validation(uncertain_pair_graph):
    g = uncertain_pair_graph
    with pytest.raises(ValueError, match="^embedding has 2 rows but graph has 6 nodes$"):
        compute_all_radii(g, embed_of([[0.0], [1.0]]))
    singleton = Graph(n=1, directed=False, indptr=np.zeros(2, dtype=np.int64),
                      indices=np.zeros(0, dtype=np.int64), external_ids=np.array([9], dtype=np.uint64))
    with pytest.raises(ValueError, match="^graph must have at least 2 nodes$"):
        compute_all_radii(singleton, embed_of([[0.0]]))
    with pytest.raises(ValueError, match="^embedding must have k >= 1 dimensions$"):
        compute_all_radii(g, embed_of(np.zeros((6, 0))))
    # coords that are not 2-d raised IndexError from the checks' shape reads
    for shape in [(6,), (6, 2, 1), ()]:
        message = re.escape(f"coords must be 2-d (n, k), not of shape {shape}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            compute_all_radii(g, Embedding(coords=np.zeros(shape)))
