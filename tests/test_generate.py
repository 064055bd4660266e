import numpy as np
import pytest

from fuzzmap import gnp_random_graph, preferential_attachment_graph


@pytest.mark.parametrize("seed, directed", [(4, False), (48, True)])
def test_gnp_keeps_a_lone_isolated_node_0(seed, directed):
    # node 0 is the only node the draw leaves without an edge
    g = gnp_random_graph(4, 0.4, seed=seed, directed=directed)
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


@pytest.mark.parametrize("args, message", [
    ((1, 0.5, 0), "n must be >= 2"),
    ((5, -0.1, 0), r"p must be in \[0, 1\]"),
    ((5, 1.5, 0), r"p must be in \[0, 1\]"),
])
def test_gnp_argument_checks(args, message):
    with pytest.raises(ValueError, match=message):
        gnp_random_graph(*args)


@pytest.mark.parametrize("args, message", [
    ((10, 0, 0), "m must be >= 1"),
    ((3, 3, 0), "n must exceed m"),
])
def test_preferential_attachment_argument_checks(args, message):
    with pytest.raises(ValueError, match=message):
        preferential_attachment_graph(*args)
