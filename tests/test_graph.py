import io
import logging
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from fuzzmap import (
    Graph,
    GraphParseError,
    adjacent,
    canonical_edge_list,
    graph_from_edges,
    parse_edge_list,
)
from fuzzmap.graph import _parse_lines, _parse_plain
from fuzzmap.harness import _edge_keys

from conftest import HIGH_ID_EDGES
from oracles import adjacency_sets_oracle


def test_parse_two_edges_external_ids():
    g = parse_edge_list("1 2\n1 5\n")
    assert g.n == 3
    assert not g.directed
    assert g.num_edges == 2
    one = g.internal_id(1)
    assert {g.external_id(w) for w in g.neighbors(one)} == {2, 5}
    assert list(g.external_ids) == [1, 2, 5]


def test_sixnode_adjacency(uncertain_pair_graph):
    g = uncertain_pair_graph
    one = g.internal_id(1)
    assert {g.external_id(w) for w in g.neighbors(one)} == {2, 5}
    assert adjacent(g, one, g.internal_id(5))
    for other in (3, 4, 6):
        assert not adjacent(g, one, g.internal_id(other))


def test_duplicate_edges_collapse():
    text = "# comment\n7 9\n7 9\n"
    g = parse_edge_list(text)
    # oracle: dedup as a set over parsed pairs
    expected_pairs = {tuple(sorted(map(int, ln.split())))
                      for ln in text.splitlines() if not ln.startswith("#")}
    assert g.num_edges == len(expected_pairs) == 1
    assert g.n == 2


def test_comment_styles_and_separators():
    g = parse_edge_list("% matrix-market style\n# hash style\n\n1,2\n2\t3\n3   4\n 4 , 5 \n")
    assert g.n == 5
    assert g.num_edges == 4


def test_line_order_does_not_matter():
    a = parse_edge_list("5 1\n2 9\n9 5\n")
    b = parse_edge_list("9 5\n5 1\n2 9\n")
    assert a == b


@pytest.mark.parametrize(
    "bad, fragment",
    [
        ("1 2 3\n", "line 1"),
        ("1\n", "line 1"),
        ("a b\n", "line 1"),
        ("1 2\nx y\n", "line 2"),
        ("1,2,3\n", "line 1"),
        ("-1 2\n", "line 1"),
        # defects after plain lines: the plain reader must hand over, not shift the line
        ("1 2\n3 4 5\n", "line 2"),
        ("1 2\n3\n", "line 2"),
        ("1 2\n18446744073709551616 3\n", "line 2"),
    ],
)
def test_malformed_lines_report_line_numbers(bad, fragment):
    with pytest.raises(GraphParseError, match=fragment):
        parse_edge_list(bad)


def test_self_loops_skipped_with_warning(caplog):
    with caplog.at_level(logging.WARNING, logger="fuzzmap.graph"):
        g = parse_edge_list("3 3\n1 2\n3 3\n")
    assert g.n == 2
    assert g.num_edges == 1
    assert any("2 self-loop" in rec.getMessage() for rec in caplog.records)


def test_empty_inputs_rejected():
    with pytest.raises(GraphParseError, match="empty graph"):
        parse_edge_list("")
    with pytest.raises(GraphParseError, match="empty graph"):
        parse_edge_list("# only comments\n\n")
    with pytest.raises(GraphParseError, match="empty graph"):
        parse_edge_list("1 1\n")  # only a self-loop


def test_bytes_and_stream_input(tmp_path):
    g = parse_edge_list(b"1 2\n")
    assert g.n == 2
    path = tmp_path / "g.txt"
    path.write_text("1 2\n2 3\n")
    with open(path, "rb") as f:
        assert parse_edge_list(f).n == 3
    with pytest.raises(GraphParseError, match="input is not UTF-8"):
        parse_edge_list(b"1 2\n\xff 3\n")


def test_directed_arcs_one_way():
    g = parse_edge_list("1 2\n2 3\n", directed=True)
    assert g.directed
    assert adjacent(g, g.internal_id(1), g.internal_id(2))
    assert not adjacent(g, g.internal_id(2), g.internal_id(1))
    assert g.num_edges == 2


def test_adjacency_errors(uncertain_pair_graph):
    with pytest.raises(ValueError, match="self query"):
        adjacent(uncertain_pair_graph, 0, 0)
    with pytest.raises(ValueError, match="out of range"):
        adjacent(uncertain_pair_graph, 0, 99)
    with pytest.raises(ValueError, match="unknown external"):
        uncertain_pair_graph.internal_id(42)


def test_undirected_symmetry_and_degree_sum(uncertain_pair_graph):
    g = uncertain_pair_graph
    for u in range(g.n):
        for v in range(g.n):
            if u != v:
                assert adjacent(g, u, v) == adjacent(g, v, u)
    assert sum(len(g.neighbors(u)) for u in range(g.n)) == 2 * g.num_edges


def test_roundtrip_canonical_edge_list(uncertain_pair_graph):
    text = canonical_edge_list(uncertain_pair_graph)
    assert parse_edge_list(text) == uncertain_pair_graph


def test_roundtrip_directed():
    g = parse_edge_list("5 1\n1 5\n2 5\n", directed=True)
    assert parse_edge_list(canonical_edge_list(g), directed=True) == g


@settings(max_examples=50, deadline=None)
@given(
    edges=st.sets(
        st.tuples(st.integers(0, 30), st.integers(0, 30)).filter(lambda e: e[0] != e[1]),
        min_size=1,
        max_size=60,
    ),
    directed=st.booleans(),
)
def test_roundtrip_property(edges, directed):
    g = graph_from_edges(list(edges), directed=directed)
    assert parse_edge_list(canonical_edge_list(g), directed=directed) == g
    total = sum(len(g.neighbors(u)) for u in range(g.n))
    assert total == (g.num_edges if directed else 2 * g.num_edges)


def test_large_external_ids_remap_densely():
    g = parse_edge_list(f"{2**63} 7\n7 123456789012\n")
    assert g.n == 3
    assert list(g.external_ids) == [7, 123456789012, 2**63]
    assert g.external_ids.dtype == np.uint64


_ext_id = st.one_of(st.integers(0, 12), st.integers(2**64 - 4, 2**64 - 1))


@pytest.mark.parametrize("as_array", [False, True], ids=["tuples", "uint64-array"])
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    edges=st.lists(st.tuples(_ext_id, _ext_id), min_size=1, max_size=40).filter(
        lambda es: any(u != v for u, v in es)
    ),
    directed=st.booleans(),
)
def test_csr_matches_set_reference(caplog, as_array, edges, directed):
    pairs = np.array(edges, dtype=np.uint64) if as_array else edges
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="fuzzmap.graph"):
        g = graph_from_edges(pairs, directed=directed)
    loops = sum(u == v for u, v in edges)
    assert [r.getMessage() for r in caplog.records] == (
        [f"skipped {loops} self-loop edge(s)"] if loops else [])
    ids, adj = adjacency_sets_oracle(edges, directed)
    assert g.external_ids.tolist() == ids
    for u in range(g.n):
        assert g.neighbors(u).tolist() == sorted(adj[u])
        if not directed:
            assert all(u in g.neighbors(v) for v in g.neighbors(u))
    us, vs = g.edges()
    listed = list(zip(us.tolist(), vs.tolist()))
    assert listed == sorted(set(listed))  # ascending, each edge once
    ref_keys = sorted(u * g.n + v for u in range(g.n) for v in adj[u] if directed or u < v)
    assert _edge_keys(g).tolist() == ref_keys


def test_edge_array_shape_and_sign_checked():
    with pytest.raises(ValueError, match=r"shape \(m, 2\), got \(2, 3\)"):
        graph_from_edges(np.zeros((2, 3), dtype=np.uint64))
    with pytest.raises(ValueError, match="negative node id"):
        graph_from_edges(np.array([[1, -1]]))
    assert graph_from_edges(np.array([[1, 7]], dtype=np.int32)) == graph_from_edges([(1, 7)])


@pytest.mark.parametrize("pairs, message", [
    ([(1, 2, 3), (4, 5, 6)], "edge (1, 2, 3) is not a (u, v) pair"),
    ([(1, 2), 3], "edge 3 is not a (u, v) pair"),
    ([(1, 2), (3,)], "edge (3,) is not a (u, v) pair"),
    ([(1.7, 2.2), (3, 4)], "node id 1.7 is not an integer"),
    ([(1, 2), (True, 4)], "node id True is not an integer"),
    (np.array([[1.0, 2.0]]), f"node id {np.float64(1.0)!r} is not an integer"),
    ([(-1, 2)], "node id -1 is outside [0, 2**64)"),
    ([(1, 2**64)], "node id 18446744073709551616 is outside [0, 2**64)"),
], ids=["triples", "scalar", "single", "float", "bool", "float-array", "negative", "2**64"])
def test_edge_list_elements_checked(pairs, message):
    # the list path refuses what the array path and the id lookup refuse,
    # where it once read triples as pairs, truncated floats or overflowed
    with pytest.raises(ValueError, match=re.escape(message)):
        graph_from_edges(pairs)


# plain-reader differential: mostly text the plain reader takes, with every
# condition that must hand it to the line loop mixed in at a lower rate
_id_token = st.sampled_from(["short"] * 24 + ["19 digits", "20 digits", "zeros", "edge"]).flatmap(
    lambda kind: {
        "short": st.integers(0, 99999).map(str),
        "19 digits": st.integers(10**18, 10**19 - 1).map(str),  # the longest plain token
        "20 digits": st.integers(10**19, 2**64 - 1).map(str),  # in range; only the loop reads it
        "zeros": st.tuples(st.integers(1, 19), st.integers(0, 99)).map(
            lambda z: "0" * z[0] + str(z[1])),
        "edge": st.sampled_from(["18446744073709551615", "18446744073709551616",
                                 "99999999999999999999", "9999999999999999999"]),
    }[kind])
_gap = st.sampled_from([" ", "  ", "\t", " \t "])
_decoration = st.sampled_from([",", "#", "%", "+", "-", "\r"])


@st.composite
def _edge_lines(draw):
    lines = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.integers(0, 7)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
            continue
        tokens = [draw(_id_token) for _ in range(draw(st.sampled_from([2] * 16 + [1, 3])))]
        line = draw(st.sampled_from(["", " ", "\t"])) + draw(_gap).join(tokens)
        if draw(st.integers(0, 15)) == 0:
            at = draw(st.integers(0, len(line)))
            line = line[:at] + draw(_decoration) + line[at:]
        lines.append(line)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def _outcome(parse):
    try:
        return parse()
    except Exception as exc:  # the type and message are what the readers must agree on
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(text=_edge_lines(), directed=st.booleans())
def test_plain_reader_matches_line_loop(text, directed):
    data = text.encode("ascii")
    plain = _parse_plain(data)
    event("plain reader" if plain is not None else "line loop")
    if plain is not None:
        reference = _parse_lines(text)
        assert plain.dtype == reference.dtype == np.uint64
        assert np.array_equal(plain, reference)
    expected = _outcome(lambda: graph_from_edges(_parse_lines(text), directed=directed))
    for form in (text, data, bytearray(data), io.BytesIO(data), io.StringIO(text)):
        assert _outcome(lambda: parse_edge_list(form, directed=directed)) == expected


@pytest.mark.parametrize(
    "n, directed, indptr, indices, external_ids, message",
    [
        (2, True, [0, 1], [1], None, r"indptr must hold n \+ 1"),
        (2, True, [1, 1, 2], [1, 0], None, r"indptr must hold n \+ 1"),
        (3, True, [0, 2, 1, 2], [1, 2], None, r"indptr must hold n \+ 1"),
        (2, True, [0, 1, 1], [1, 0], None, r"indptr must hold n \+ 1"),
        # read as node 2, -1 once gave node 0 a definite-yes radius reaching
        # its non-neighbor 2 (coords [[0], [5], [1]])
        (3, True, [0, 1, 1, 1], [-1], None, r"neighbor id out of range \[0, 3\)"),
        (3, True, [0, 1, 1, 1], [3], None, r"neighbor id out of range \[0, 3\)"),
        (3, True, [0, 1, 1, 1], [0], None, "without self-loops or repeats"),
        (3, True, [0, 2, 2, 2], [1, 1], None, "without self-loops or repeats"),
        (3, True, [0, 2, 2, 2], [2, 1], None, "without self-loops or repeats"),
        (3, False, [0, 1, 1, 1], [1], None, "must be symmetric"),
        (3, False, [0, 1, 2, 2], [1, 2], None, "must be symmetric"),
        (2, True, [0, 1, 1], [1], [0], "external_ids must hold n strictly increasing"),
        (2, True, [0, 1, 1], [1], [5, 5], "external_ids must hold n strictly increasing"),
        (2, True, [0, 1, 1], [1], [5, 3], "external_ids must hold n strictly increasing"),
    ],
    ids=["indptr-length", "indptr-start", "indptr-decreasing", "indptr-end", "neighbor-minus-one",
         "neighbor-n", "self-loop", "repeat", "unsorted", "one-way-edge", "one-way-path",
         "ids-length", "ids-repeat", "ids-descending"],
)
def test_malformed_csr_rejected(n, directed, indptr, indices, external_ids, message):
    ids = np.arange(n) if external_ids is None else external_ids
    with pytest.raises(ValueError, match=message):
        Graph(n=n, directed=directed, indptr=np.array(indptr),
              indices=np.array(indices, dtype=np.int64),
              external_ids=np.array(ids, dtype=np.uint64))


def test_csr_arrays_are_read_only(uncertain_pair_graph):
    g = uncertain_pair_graph
    with pytest.raises(ValueError):
        g.indices[0] = 0
    with pytest.raises(ValueError):
        g.neighbors(0)[0] = 0


@pytest.mark.parametrize("absent", [-1, 2**64, 6])
def test_unknown_external_ids_rejected(absent):
    g = graph_from_edges(HIGH_ID_EDGES)
    with pytest.raises(ValueError, match="unknown external node id"):
        g.internal_id(absent)


def test_non_integer_ids_rejected():
    g = graph_from_edges(HIGH_ID_EDGES)
    for external in (1.9, "3", np.float64(7.0), True):
        with pytest.raises(ValueError, match="is not an integer"):
            g.internal_id(external)
    with pytest.raises(ValueError, match="node id 1.5 is not an integer"):
        g.neighbors(1.5)


def test_adjacent_high_ids_resolve_to_distinct_rows():
    g = graph_from_edges(HIGH_ID_EDGES)
    assert g.internal_id(2**63) == 1
    assert g.internal_id(2**63 + 1) == 2
    assert g.external_id(2) == 2**63 + 1
    with pytest.raises(ValueError, match="out of range"):
        g.external_id(-1)
