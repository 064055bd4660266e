import io
import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from fuzzmap import (
    build,
    choose_pivots,
    fastmap_embed,
    gnp_random_graph,
    graph_distance_row,
    graph_from_edges,
    project,
    residual_distance,
    save,
)
from fuzzmap.fastmap import Embedding
from fuzzmap.radii import group_points

from oracles import farthest_pair_distance, reference_fastmap


def path_graph(n):
    return graph_from_edges([(i, i + 1) for i in range(n - 1)])


def test_graph_distance_row_matches_scalar(uncertain_pair_graph):
    # the implicit 0/1/n distance, pair by pair: 0 to self, 1 to a neighbor, n otherwise
    g = uncertain_pair_graph
    for u in range(g.n):
        row = graph_distance_row(g, u)
        assert row.shape == (g.n,)
        for v in range(g.n):
            assert row[v] == (0.0 if u == v else 1.0 if v in g.neighbors(u) else float(g.n))
    one, five, three = g.internal_id(1), g.internal_id(5), g.internal_id(3)
    assert graph_distance_row(g, one)[[five, three, one]].tolist() == [1.0, 6.0, 0.0]
    with pytest.raises(ValueError, match="out of range"):
        graph_distance_row(g, 17)


def test_choose_pivots_two_nodes():
    g = graph_from_edges([(0, 1)])
    pair = choose_pivots(lambda u: graph_distance_row(g, u), 2, seed=0)
    assert pair is not None and set(pair) == {0, 1}


@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_choose_pivots_path_graph_finds_far_pair(seed):
    # brute-force oracle: max pairwise distance over all pairs
    g = path_graph(5)
    best = farthest_pair_distance(lambda u, v: graph_distance_row(g, u)[v], g.n)
    assert best == 5.0  # non-adjacent pairs dominate at distance n
    pair = choose_pivots(lambda u: graph_distance_row(g, u), g.n, seed=seed)
    a, b = pair
    assert graph_distance_row(g, a)[b] == best  # hence a non-adjacent pair


def test_choose_pivots_deterministic():
    g = gnp_random_graph(40, 0.2, seed=3)
    row = lambda u: graph_distance_row(g, u)
    assert choose_pivots(row, g.n, seed=5) == choose_pivots(row, g.n, seed=5)


def test_choose_pivots_degenerate_and_errors():
    zero = lambda u: np.zeros(4)
    assert choose_pivots(zero, 4, seed=0) is None
    with pytest.raises(ValueError):
        choose_pivots(zero, 1, seed=0)


@pytest.mark.parametrize("n, seed, message", [
    (3, None, "seed must be an integer >= 0, not None"),
    (3, True, "seed must be an integer >= 0, not True"),
    (3, 1.0, "seed must be an integer >= 0, not 1.0"),
    (3, -1, "seed must be an integer >= 0, not -1"),
    (2.5, 0, "n must be an integer >= 2, not 2.5"),
    (True, 0, "n must be an integer >= 2, not True"),
], ids=["seed-none", "seed-bool", "seed-float", "seed-negative", "n-float", "n-bool"])
def test_choose_pivots_checks_n_and_seed_before_the_draw(monkeypatch, n, seed, message):
    # a None seed would draw the start from OS entropy, and True act as 1
    def not_reached(*args, **kwargs):
        raise AssertionError("a pivot start was drawn before n and seed were checked")

    monkeypatch.setattr(np.random, "default_rng", not_reached)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        choose_pivots(lambda u: np.ones(3), n, seed)


def test_project_anchors_and_formula():
    assert project(0.0, 3.0, 3.0) == 0.0
    assert project(3.0, 3.0, 0.0) == 3.0
    assert project(1.0, 6.0, 6.0) == pytest.approx(1.0 / 12.0, abs=1e-15)


def test_project_rejects_degenerate_axis():
    with pytest.raises(ValueError, match="degenerate axis"):
        project(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        project(-1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        project(np.inf, 2.0, 1.0)


def test_residual_distance_cases():
    assert residual_distance(5.0, 3.0, 0.0) == 4.0
    assert residual_distance(1.0, 2.0, 0.0) == 0.0  # clamped underflow
    for x in (0.0, 1.5, -7.25):
        assert residual_distance(2.5, x, x) == 2.5


def test_embed_k1_anchoring():
    g = path_graph(4)
    e = fastmap_embed(g, 1, seed=9)
    assert e.coords.shape == (4, 1)
    (a, b) = e.pivots[0]
    assert e.coords[a, 0] == 0.0
    assert e.coords[b, 0] == graph_distance_row(g, a)[b]


def test_embed_k4_complete_graph(k4_graph):
    e = fastmap_embed(k4_graph, 3, seed=0)
    a, b = e.pivots[0]
    assert e.coords[a, 0] == 0.0
    assert e.coords[b, 0] == 1.0  # all pairwise distances are 1
    for axis in range(e.k):
        col = e.coords[:, axis]
        assert col.max() - col.min() <= 1.0 + 1e-12


def test_embed_anchoring_invariant_random_graphs():
    for i, (n, p) in enumerate([(12, 0.3), (40, 0.1), (25, 0.6)]):
        g = gnp_random_graph(n, p, seed=50 + i)
        e = fastmap_embed(g, 4, seed=i)
        assert np.all(np.isfinite(e.coords))
        for axis, pair in enumerate(e.pivots):
            if pair is None:
                assert np.all(e.coords[:, axis] == 0.0)
                continue
            a, b = pair
            assert e.coords[a, axis] == 0.0
            # recompute the pivot distance at that level independently
            row = graph_distance_row(g, a)
            for lvl in range(axis):
                row = residual_distance(row, e.coords[a, lvl], e.coords[:, lvl])
            assert e.coords[b, axis] == row[b]


def test_embed_residuals_never_negative():
    g = gnp_random_graph(30, 0.25, seed=1)
    e = fastmap_embed(g, 5, seed=2)
    for u in range(g.n):
        row = graph_distance_row(g, u)
        for lvl in range(e.k):
            row = residual_distance(row, e.coords[u, lvl], e.coords[:, lvl])
            assert np.all(row >= 0.0)


def test_embed_deterministic_bit_identical():
    g = gnp_random_graph(60, 0.15, seed=4)
    e1 = fastmap_embed(g, 6, seed=11)
    e2 = fastmap_embed(g, 6, seed=11)
    assert np.array_equal(e1.coords, e2.coords)
    assert e1.pivots == e2.pivots
    e3 = fastmap_embed(g, 6, seed=12)
    assert not np.array_equal(e1.coords, e3.coords)


def test_embed_degenerate_axes_zero_fill(k4_graph):
    # K4 separates in few axes; later ones go degenerate but iteration continues
    e = fastmap_embed(k4_graph, 6, seed=0)
    assert e.coords.shape == (4, 6)
    degenerate = [i for i, p in enumerate(e.pivots) if p is None]
    assert degenerate, "expected at least one degenerate axis on K4 with k=6"
    for axis in degenerate:
        assert np.all(e.coords[:, axis] == 0.0)


@pytest.mark.parametrize("seed", [0, 1])
def test_embed_logs_degenerate_axes(uncertain_pair_graph, caplog, seed):
    # build accepts any k and stores every zero axis: the 6-node graph
    # separates in 3 axes, so k = 50 zero-fills 47
    with caplog.at_level(logging.INFO, logger="fuzzmap.fastmap"):
        e = fastmap_embed(uncertain_pair_graph, 50, seed=seed)
    assert e.pivots.count(None) == 47
    assert [rec.getMessage() for rec in caplog.records] == ["fastmap: n=6 k=50 degenerate_axes=47"]


REAL_DTYPES = (npst.integer_dtypes() | npst.unsigned_integer_dtypes()
               | npst.floating_dtypes(sizes=(16, 32, 64)))
OTHER_DTYPES = (npst.boolean_dtypes() | npst.complex_number_dtypes() | npst.unicode_string_dtypes()
                | npst.byte_string_dtypes() | npst.datetime64_dtypes() | npst.timedelta64_dtypes()
                | st.just(np.dtype(object)))


@st.composite
def real_coords(draw):
    """An (n, k) array of one real dtype, C- or F-ordered, every value
    within the coordinate rule's bound."""
    dtype = draw(REAL_DTYPES)
    bounds = {}  # NaN and inf fail the rule, and only float64 reaches past its bound
    if dtype.kind == "f":
        bounds = dict(allow_nan=False, allow_infinity=False)
    if dtype.kind == "f" and dtype.itemsize == 8:
        bounds.update(min_value=-1e150, max_value=1e150)
    shape = (draw(st.integers(0, 8)), draw(st.integers(1, 4)))
    coords = draw(npst.arrays(dtype, shape, elements=npst.from_dtype(dtype, **bounds)))
    return np.asfortranarray(coords) if draw(st.booleans()) else coords


@settings(max_examples=200, deadline=None)
@given(real_coords())
def test_embedding_holds_real_coords_as_float64(coords):
    # every int and float dtype is held as float64, the dtype a model file
    # holds: a float32 or int64 model computed other distances than its file
    held = Embedding(coords=coords).coords
    assert held.dtype == np.float64 and held.flags.f_contiguous
    assert held.tobytes("F") == coords.astype(np.float64).tobytes("F")


@settings(max_examples=100, deadline=None)
@given(dtype=OTHER_DTYPES, n=st.integers(0, 4), k=st.integers(1, 3))
def test_embedding_refuses_coords_that_are_not_real(dtype, n, k):
    # complex coordinates built a model that saved their real parts alone,
    # bool ones failed in the radii scan with TypeError
    coords = np.zeros((n, k), dtype=dtype)
    message = re.escape(f"coords must be real numbers, not of dtype {dtype}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        Embedding(coords=coords)


def test_embed_validation():
    from fuzzmap import Graph

    g = path_graph(3)
    with pytest.raises(ValueError):
        fastmap_embed(g, 0, seed=0)
    singleton = Graph(n=1, directed=False, indptr=np.zeros(2, dtype=np.int64),
                      indices=np.zeros(0, dtype=np.int64), external_ids=np.array([0], dtype=np.uint64))
    with pytest.raises(ValueError):
        fastmap_embed(singleton, 2, seed=0)


def model_bytes(cg) -> bytes:
    sink = io.BytesIO()
    save(cg, sink)
    return sink.getvalue()


@pytest.mark.parametrize("k, seed, message", [
    (True, 1, "k must be an integer >= 1, not True"),
    (2.0, 1, "k must be an integer >= 1, not 2.0"),
    (np.int64(0), 1, f"k must be an integer >= 1, not {np.int64(0)!r}"),
    (2, True, "seed must be an integer >= 0, not True"),
    (2, 1.0, "seed must be an integer >= 0, not 1.0"),
    (2, -1, "seed must be an integer >= 0, not -1"),
    (2, None, "seed must be an integer >= 0, not None"),
    (np.int32(2), np.uint8(1), None),
], ids=["k-bool", "k-float", "k-zero", "seed-bool", "seed-float", "seed-negative", "seed-none",
        "numpy-integers"])
def test_k_and_seed_follow_id_rule(uncertain_pair_graph, k, seed, message):
    # a bool would build the model of 1 or 0; a float would fail deep inside numpy
    g = uncertain_pair_graph
    if message is None:
        assert np.array_equal(fastmap_embed(g, k, seed).coords, fastmap_embed(g, 2, 1).coords)
        assert model_bytes(build(g, k, seed)) == model_bytes(build(g, 2, 1))
        return
    for embed_or_build in (fastmap_embed, build):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            embed_or_build(g, k, seed)


def test_embed_sixnode_shape(uncertain_pair_graph):
    e = fastmap_embed(uncertain_pair_graph, 2, seed=0)
    assert e.coords.shape == (6, 2)
    assert np.all(np.isfinite(e.coords))


def test_embed_distance_row_queries_linear_in_n(monkeypatch):
    # the linear-time claim, measured structurally: each axis computes one
    # O(n) distance row per distinct node it visits (the pivot hops' nodes,
    # then a and b, which are hops too), never more than 7, at every n
    import fuzzmap.fastmap as fmod

    rows, visited = [], []
    real_row, real_choose = fmod.graph_distance_row, fmod.choose_pivots

    def counting(g, u):
        rows[-1] += 1
        return real_row(g, u)

    def recording(dist_row, n, seed):
        rows.append(0)
        visited.append(set())

        def visit(u):
            visited[-1].add(u)
            return dist_row(u)

        pair = real_choose(visit, n, seed)
        visited[-1].update(pair or ())
        return pair

    monkeypatch.setattr(fmod, "graph_distance_row", counting)
    monkeypatch.setattr(fmod, "choose_pivots", recording)
    for n in (64, 128, 256, 1024):
        rows.clear()
        visited.clear()
        fastmap_embed(gnp_random_graph(n, 8.0 / n, seed=n), 4, seed=0)
        assert rows == [len(nodes) for nodes in visited]
        assert len(rows) == 4 and max(rows) <= 7


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 40),
    p=st.floats(0.0, 1.0),
    directed=st.booleans(),
    graph_seed=st.integers(0, 2**16),
    k=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_embed_matches_reference_bit_for_bit(n, p, directed, graph_seed, k, seed):
    # each row computed once per axis gives the coordinates and pivots of
    # recomputing every row from scratch, bit for bit
    g = gnp_random_graph(n, p, seed=graph_seed, directed=directed)
    e = fastmap_embed(g, k, seed)
    coords, pivots = reference_fastmap(g, k, seed)
    assert e.coords.tobytes() == coords.tobytes()
    assert e.pivots == pivots


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 60),
    p=st.sampled_from([0.02, 0.1, 0.3, 0.6]),
    directed=st.booleans(),
    graph_seed=st.integers(0, 2**16),
    k=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_embedding_collapses_onto_pivot_rows(n, p, directed, graph_seed, k, seed):
    # the 0/1/n distances from the pivots are all a non-pivot node's axes
    # see, so nodes alike in every pivot's (out-)neighbour row share their
    # coordinates bit for bit: at most 4**k points besides the 2k pivots
    g = gnp_random_graph(n, p, seed=graph_seed, directed=directed)
    e = fastmap_embed(g, k, seed)
    pivots = sorted({x for pair in e.pivots if pair is not None for x in pair})
    member = np.zeros((n, len(pivots)), dtype=bool)
    for i, a in enumerate(pivots):
        member[g.neighbors(a), i] = True
    first = {}
    for v in sorted(set(range(n)) - set(pivots)):
        w = first.setdefault(member[v].tobytes(), v)
        assert e.coords[v].tobytes() == e.coords[w].tobytes(), (v, w)
    assert group_points(e.coords).u <= min(n, 4**k + 2 * k)


@settings(max_examples=80, deadline=None)
@given(
    d=st.floats(0.0, 1e6),
    xi=st.floats(-1e6, 1e6),
    xj=st.floats(-1e6, 1e6),
)
def test_residual_property(d, xi, xj):
    value = residual_distance(d, xi, xj)
    assert value >= 0.0
    assert value <= d or np.isclose(value, d)
