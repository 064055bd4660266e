import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzmap import gnp_random_graph, preferential_attachment_graph

from oracles import reference_gnp_random_graph, reference_preferential_attachment_graph


def assert_same_graph(g, ref):
    assert (g.n, g.directed) == (ref.n, ref.directed)
    for name in ("indptr", "indices", "external_ids"):
        got, want = getattr(g, name), getattr(ref, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


# m = 1 and m = n - 1 are the edges of the range; BA(4000, 20, seed=2024)
# rewinds its draws on ~900 of its nodes, and BA(20000, 5) is the benchmark's
@pytest.mark.parametrize("n, m, seed", [
    (2, 1, 0), (10, 1, 3), (500, 1, 9), (10, 9, 1), (50, 49, 7),
    (200, 3, 11), (1000, 7, 2), (4000, 20, 2024), (20000, 5, 1),
])
def test_preferential_attachment_draws_as_one_call_per_target(n, m, seed):
    assert_same_graph(preferential_attachment_graph(n, m, seed),
                      reference_preferential_attachment_graph(n, m, seed))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(2, 80), seed=st.integers(0, 2**32 - 1))
def test_preferential_attachment_draws_property(data, n, seed):
    m = data.draw(st.integers(1, n - 1), label="m")
    assert_same_graph(preferential_attachment_graph(n, m, seed),
                      reference_preferential_attachment_graph(n, m, seed))


@pytest.mark.parametrize("directed", [False, True])
def test_gnp_draws_as_one_call_per_row(directed):
    for n in (2, 3, 4, 9, 30, 101):
        for p in (0.0, 0.05, 0.4, 1.0):
            for seed in range(6):
                assert_same_graph(gnp_random_graph(n, p, seed, directed),
                                  reference_gnp_random_graph(n, p, seed, directed))
    # 499,500 and 1,000,000 draws: several blocks, split inside rows
    assert_same_graph(gnp_random_graph(1000, 0.3, 1, directed),
                      reference_gnp_random_graph(1000, 0.3, 1, directed))


def test_benchmark_edge_text_is_pinned(benchmark_edge_text):
    # the compress benchmark's input: any change to the draws moves this digest
    assert len(benchmark_edge_text) == 997_517
    digest = hashlib.sha256(benchmark_edge_text.encode()).hexdigest()
    assert digest == "df1ae701aa8223f0bf6ab9d6bbce1c0294d329005fec016b35fc1f81ed654c24"


@pytest.mark.parametrize("seed, directed", [(4, False), (48, True)])
def test_gnp_keeps_a_lone_isolated_node_0(seed, directed):
    # node 0 is the only node the draw leaves without an edge
    g = gnp_random_graph(4, 0.4, seed=seed, directed=directed)
    assert_same_graph(g, reference_gnp_random_graph(4, 0.4, seed, directed))
    assert g.n == 4
    assert np.array_equal(g.external_ids, np.arange(4))


@pytest.mark.parametrize("directed", [False, True])
def test_gnp_ids_are_0_to_n_minus_1(directed):
    for n in range(2, 9):
        for p in (0.0, 0.1, 0.3):
            for seed in range(40):
                g = gnp_random_graph(n, p, seed=seed, directed=directed)
                assert g.directed == directed
                assert np.array_equal(g.external_ids, np.arange(n)), (n, p, seed)


@pytest.fixture
def no_draws(monkeypatch):
    """Make any draw fail: a generator must refuse bad arguments before its first."""
    def not_reached(*args, **kwargs):
        raise AssertionError("a generator drew before its arguments were checked")

    monkeypatch.setattr(np.random, "default_rng", not_reached)


@pytest.mark.parametrize("args, message", [
    ((1, 0.5, 0), "n must be an integer >= 2, not 1"),
    ((5, -0.1, 0), r"p must be in \[0, 1\]"),
    ((5, 1.5, 0), r"p must be in \[0, 1\]"),
    ((30.0, 0.5, 0), "n must be an integer >= 2, not 30.0"),
    ((True, 0.5, 0), "n must be an integer >= 2, not True"),
    ((5, True, 0), "p must be a number, not True"),
    ((5, 0.5, None), "seed must be an integer >= 0, not None"),
    ((5, 0.5, 1.0), "seed must be an integer >= 0, not 1.0"),
    ((5, 0.5, -1), "seed must be an integer >= 0, not -1"),
    ((5, 0.5, True), "seed must be an integer >= 0, not True"),
    ((5, 0.5, 0, "no"), "directed must be a bool, not 'no'"),
    ((5, "0.5", 0), "p must be a number, not '0.5'"),
    ((5, None, 0), "p must be a number, not None"),
])
def test_gnp_argument_checks(no_draws, args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        gnp_random_graph(*args)


@pytest.mark.parametrize("args, message", [
    ((10, 0, 0), "m must be an integer >= 1, not 0"),
    ((3, 3, 0), "n must be an integer >= 4, not 3"),
    ((50, 2, True), "seed must be an integer >= 0, not True"),
    ((50, 2, None), "seed must be an integer >= 0, not None"),
    ((50, 2, 1.0), "seed must be an integer >= 0, not 1.0"),
    ((50, 2, -1), "seed must be an integer >= 0, not -1"),
    ((30.0, 2, 0), "n must be an integer >= 3, not 30.0"),
    ((50, True, 0), "m must be an integer >= 1, not True"),
    ((50, 2.0, 0), "m must be an integer >= 1, not 2.0"),
])
def test_preferential_attachment_argument_checks(no_draws, args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        preferential_attachment_graph(*args)


def test_numpy_integer_arguments_give_the_python_integer_graphs():
    # a uint8 n once wrapped in the arc count (G(n, p)) and in 2m(n - m) (preferential attachment)
    assert_same_graph(gnp_random_graph(np.uint8(200), 0.01, np.uint8(1)),
                      gnp_random_graph(200, 0.01, 1))
    assert_same_graph(preferential_attachment_graph(np.uint8(200), np.uint8(3), np.int64(1)),
                      preferential_attachment_graph(200, 3, 1))
