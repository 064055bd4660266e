import io
import logging
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from fuzzmap import (
    Graph,
    GraphParseError,
    build,
    canonical_edge_list,
    evaluate_model,
    gnp_random_graph,
    graph_from_edges,
    load,
    load_edge_list,
    parse_edge_list,
    save,
)
from fuzzmap import graph
from fuzzmap.graph import _PLAIN_CHUNK, _read_ids
from fuzzmap.harness import _edge_keys

from conftest import HIGH_ID_EDGES, UNCERTAIN_PAIR_EDGES, edgeless_graph
from oracles import adjacency_sets_oracle, reference_edge_list, reference_parse_lines


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
    assert g.internal_id(5) in g.neighbors(one)
    for other in (3, 4, 6):
        assert g.internal_id(other) not in g.neighbors(one)


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
        # defects after plain lines: the line numbers count every line before them
        ("1 2\n3 4 5\n", "line 2"),
        ("1 2\n3\n", "line 2"),
        ("1 2\n18446744073709551616 3\n", "line 2"),
        # an even token count is not enough: each pair of tokens must hold one line
        ("1\n2 3\n4\n", "line 1"),
        ("1 2 3\n4\n", "line 1"),
        ("1 2\n3\n4\n", "line 2"),
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


@pytest.mark.parametrize("chunk", [7, None], ids=["7-byte-pieces", "default-pieces"])
def test_invalid_utf8_is_reported_before_an_earlier_bad_line(monkeypatch, chunk):
    # the bad byte ends the last piece and the first line is malformed: the
    # whole input is checked as UTF-8 before any line
    if chunk is not None:
        monkeypatch.setattr(graph, "_PLAIN_CHUNK", chunk)
    data = b"1 2 3\n" + b"4 5\n" * 20000 + b"\xff"
    with pytest.raises(GraphParseError, match=r"^input is not UTF-8: .* position 80006: "):
        parse_edge_list(data)


@pytest.mark.parametrize("chunk", [7, None], ids=["7-byte-pieces", "default-pieces"])
def test_non_ascii_comment_is_skipped(monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(graph, "_PLAIN_CHUNK", chunk)
    plain = "1 2\n2 3\n" * 3
    for text in ("# h\u00e9llo\n" + plain, plain + "% \u00e9t\u00e9\n" + plain):
        assert parse_edge_list(text) == parse_edge_list(text.encode("utf-8"))
        assert parse_edge_list(text) == parse_edge_list(plain)


def test_memoryview_input_and_non_text_rejected():
    # every bytes-like input is read as bytes; anything else is a TypeError
    # of the library's own, where it was memoryview's
    assert parse_edge_list(memoryview(b"1 2\n")) == parse_edge_list("1 2\n")
    for text, kind in ((12, "int"), (None, "NoneType"), ([b"1 2\n"], "list")):
        stem = "text must be a str, a bytes-like object or a stream"
        with pytest.raises(TypeError, match=rf"^{stem}, not {kind}$"):
            parse_edge_list(text)


def test_grammar_decorations_give_the_plain_graph():
    # a comment header, CRLF line ends, padded commas, signs, leading zeros
    # and blank-only lines all read as the plain text of the same edges
    plain = parse_edge_list("1 2\n2 3\n3 4\n4 0\n")
    decorated = "\t# header\r\n+1,2\r\n 2 ,\t3 \r\n \t\r\n3, 004\n% note\n4\t-0\r\n"
    assert parse_edge_list(decorated) == parse_edge_list(decorated.encode()) == plain


@pytest.mark.parametrize("bad, line", [
    ("1_000 2\n", 1),  # an underscore in an id
    ("1 2\n\uff11 \uff12\n", 2),  # fullwidth digits
    ("\u0663 4\n", 1),  # an Arabic-Indic digit
    ("1\u00a02\n", 1),  # a no-break space
    ("1 2\n3\u30004\n", 2),  # an ideographic space
    ("1 2\x0b3 4\n", 1),
    ("1 2\x0c3 4\n", 1),
    ("1 2\x1c3 4\n", 1),
    ("1 2\x1d3 4\n", 1),
    ("1 2\x1e3 4\n", 1),
    ("1 2\x853 4\n", 1),
    ("1 2\u20283 4\n", 1),
    ("1 2\u20293 4\n", 1),
    ("5 6\n1 2\r3 4\n", 2),  # a lone carriage return
    (",1 2\n", 1),
    ("1 2,\n", 1),
    ("1 2\n3 ,4 ,\n", 2),
], ids=["underscore", "fullwidth", "arabic-indic", "no-break-space", "ideographic-space",
        "vt", "ff", "fs", "gs", "rs", "nel", "line-separator", "paragraph-separator",
        "lone-cr", "leading-comma", "trailing-comma", "two-commas"])
def test_input_outside_the_grammar_names_its_line(bad, line):
    # each is outside the grammar, though str.splitlines, str.strip or int() would take it
    for form in (bad, bad.encode("utf-8")):
        with pytest.raises(GraphParseError, match=f"^line {line}: "):
            parse_edge_list(form)


def test_ids_past_int_digit_limit_read_exactly():
    # leading zeros do not count toward the 20 digits, nor toward int()'s limit
    zeros = "0" * 5000
    g = parse_edge_list(f"{zeros}7 +{zeros}9\n")
    assert g.external_ids.tolist() == [7, 9]
    with pytest.raises(GraphParseError, match="^line 2: "):
        parse_edge_list(f"1 2\n{'1' * 5000} 9\n")


def test_directed_arcs_one_way():
    g = parse_edge_list("1 2\n2 3\n", directed=True)
    assert g.directed
    assert g.internal_id(2) in g.neighbors(g.internal_id(1))
    assert g.internal_id(1) not in g.neighbors(g.internal_id(2))
    assert g.num_edges == 2


def test_adjacency_errors(uncertain_pair_graph):
    with pytest.raises(ValueError, match="out of range"):
        uncertain_pair_graph.neighbors(99)
    with pytest.raises(ValueError, match="unknown external"):
        uncertain_pair_graph.internal_id(42)


def test_undirected_symmetry_and_degree_sum(uncertain_pair_graph):
    g = uncertain_pair_graph
    for u in range(g.n):
        for v in range(g.n):
            if u != v:
                assert (v in g.neighbors(u)) == (u in g.neighbors(v))
    assert sum(len(g.neighbors(u)) for u in range(g.n)) == 2 * g.num_edges


def test_roundtrip_canonical_edge_list(uncertain_pair_graph):
    text = canonical_edge_list(uncertain_pair_graph)
    assert parse_edge_list(text) == uncertain_pair_graph


def test_roundtrip_directed():
    g = parse_edge_list("5 1\n1 5\n2 5\n", directed=True)
    assert parse_edge_list(canonical_edge_list(g), directed=True) == g


@pytest.mark.parametrize("directed", [False, True])
def test_canonical_edge_list_matches_per_edge_join(directed):
    for g in (graph_from_edges(HIGH_ID_EDGES, directed=directed),
              parse_edge_list("5 1\n1 5\n2 5\n", directed=directed),
              edgeless_graph(3)):
        assert canonical_edge_list(g) == reference_edge_list(g)


def test_canonical_edge_list_of_no_edges_does_not_parse():
    # nodes without edges are not written, so an edgeless graph gives a
    # lone newline, which the parser rejects as an empty graph
    text = canonical_edge_list(edgeless_graph(3))
    assert text == "\n"
    with pytest.raises(GraphParseError, match="empty graph"):
        parse_edge_list(text)


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
    assert canonical_edge_list(g) == reference_edge_list(g)
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


# reader differential: text the numpy checks take as it is, with every
# decoration the grammar allows or refuses mixed in at a lower rate
_id_token = st.sampled_from(["short"] * 24 + ["19 digits", "20 digits", "zeros", "edge"]).flatmap(
    lambda kind: {
        "short": st.integers(0, 99999).map(str),
        "19 digits": st.integers(10**18, 10**19 - 1).map(str),  # the longest id under 2**64 - 1
        "20 digits": st.integers(10**19, 2**64 - 1).map(str),  # in range; compared one at a time
        "zeros": st.tuples(st.integers(1, 19), st.integers(0, 99)).map(
            lambda z: "0" * z[0] + str(z[1])),
        "edge": st.sampled_from(["18446744073709551615", "18446744073709551616",
                                 "99999999999999999999", "9999999999999999999"]),
    }[kind])
_gap = st.sampled_from([" "] * 5 + ["  ", "\t", " \t ", ",", " , ", ",\t"])
_decoration = st.sampled_from([",", ", ", "#", "%", "# h\u00e9", "+", "-", "-0", "\r", "\r\n",
                               "\x0b", "\u00e9"])


@st.composite
def _edge_lines(draw):
    lines = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.integers(0, 7)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t", "# h\u00e9llo, 1 2\r", "\t%"])))
            continue
        tokens = [draw(_id_token) for _ in range(draw(st.sampled_from([2] * 32 + [1, 3])))]
        line = draw(st.sampled_from(["", " ", "\t"])) + draw(_gap).join(tokens)
        if draw(st.integers(0, 3)) == 0:
            at = draw(st.integers(0, len(line)))
            line = line[:at] + draw(_decoration) + line[at:]
        lines.append(line)
    return draw(st.sampled_from(["\n", "\n", "\r\n"])).join(lines) + draw(
        st.sampled_from(["", "\n"]))


def _outcome(parse):
    try:
        return parse()
    except Exception as exc:  # the type and message are what the readers must agree on
        return type(exc), str(exc)


@pytest.mark.parametrize("chunk", [1, 7, _PLAIN_CHUNK])
@settings(max_examples=400, deadline=None)
@given(text=_edge_lines(), bad_byte=st.sampled_from([b""] * 9 + [b"\xff"]),
       directed=st.booleans())
def test_reader_matches_reference_line_loop(chunk, text, bad_byte, directed):
    # pieces of 1 or 7 bytes end after every line or every few lines; the
    # reader gives the line loop's ids, or its exception type and message
    data = text.encode("utf-8") + bad_byte
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_PLAIN_CHUNK", chunk)
        ids = _outcome(lambda: _read_ids(data))
        reference = _outcome(lambda: reference_parse_lines(data))
        event("error" if not isinstance(ids, np.ndarray)
              else "ids, plain text" if not data.translate(None, b"0123456789 \t\n")
              else "ids, decorated text")
        if isinstance(reference, np.ndarray):
            assert ids.dtype == reference.dtype == np.uint64
            assert np.array_equal(ids, reference)
        else:
            assert ids == reference
        expected = _outcome(
            lambda: graph_from_edges(reference_parse_lines(data), directed=directed))
        forms = [data, bytearray(data), io.BytesIO(data)]
        forms += [] if bad_byte else [text, io.StringIO(text)]  # a str can hold no '\xff' byte
        for form in forms:
            assert _outcome(lambda: parse_edge_list(form, directed=directed)) == expected


@pytest.mark.parametrize("last, outcome", [
    ("7 8 9", "line 30001: expected two integer tokens, got 3"),
    ("18446744073709551616 7", "line 30001: node id out of 64-bit range"),
    ("18446744073709551615 7", None),  # 20 digits, in range: compared, then read
], ids=["three-tokens", "id-out-of-range", "20-digit-id"])
def test_last_piece_alone_not_plain_goes_to_the_line_loop(last, outcome):
    # every piece but the last holds plain lines of ids under 20 digits; the
    # reader words the last piece's line as the reference line loop does
    text = "".join(f"{i} {i + 1}\n" for i in range(30000)) + last + "\n"
    assert len(text) > 3 * _PLAIN_CHUNK
    data = text.encode("ascii")
    if outcome is not None:
        with pytest.raises(GraphParseError, match=outcome):
            parse_edge_list(text)
        assert _outcome(lambda: _read_ids(data)) == _outcome(lambda: reference_parse_lines(data))
    else:
        g = parse_edge_list(text)
        assert g.n == 30002 and g.num_edges == 30001
        assert g.external_id(g.n - 1) == 2**64 - 1
        assert np.array_equal(_read_ids(data), reference_parse_lines(data))


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reader_memory_is_linear_in_text(benchmark_edge_text):
    # the checks hold one piece of scratch at a time; the (m, 2) ids the
    # reader returns are 1.6 times the text on its own
    data = benchmark_edge_text.encode("ascii")
    assert len(data) > 10 * _PLAIN_CHUNK
    assert _traced_peak(lambda: _read_ids(data)) < 3 * len(data)
    # and the whole parse holds no more than the ids and the graph build's
    # scratch, with a header, CRLF line ends or commas as on the plain text
    ends_bytes = _read_ids(data).nbytes
    for text in (data, b"# header\n" + data, data.replace(b"\n", b"\r\n"),
                 data.replace(b" ", b", ")):
        assert _traced_peak(lambda: parse_edge_list(text)) < ends_bytes + 4 * ends_bytes


def test_loading_drops_the_text_before_the_graph_build(benchmark_edge_text, tmp_path):
    # the graph build sets the load's peak; the ids live through it, the text need not
    path = tmp_path / "ba20k.txt"
    path.write_text(benchmark_edge_text, encoding="ascii")
    ids = _read_ids(path.read_bytes())
    assert ids.shape[0] > 99_000
    build_peak = _traced_peak(lambda: graph_from_edges(ids))
    bound = build_peak + ids.nbytes + len(benchmark_edge_text) // 2
    assert _traced_peak(lambda: load_edge_list(str(path))) < bound


def test_line_loop_memory_is_linear_in_text(benchmark_edge_text):
    # a header line costs one blanked copy of the text, the reference line
    # loop reads the same ids, and the whole parse stays within the plain
    # text's bound
    data = benchmark_edge_text.encode("ascii")
    text = b"# header\n" + data
    ends = _read_ids(data)
    assert np.array_equal(_read_ids(text), ends)
    assert np.array_equal(reference_parse_lines(text), ends)
    assert _traced_peak(lambda: _read_ids(text)) < len(text) + 2 * ends.nbytes
    assert _traced_peak(lambda: parse_edge_list(text)) < ends.nbytes + 4 * ends.nbytes


@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
def test_graph_build_memory_is_linear_in_edges(benchmark_edge_text, directed):
    # one sort of the ids and one of the keys, each in place on a buffer
    # the size of the edge array
    ends = _read_ids(benchmark_edge_text.encode("ascii"))
    assert _traced_peak(lambda: graph_from_edges(ends, directed=directed)) < 4 * ends.nbytes


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
        # a float n would fail inside fastmap and a bool n count as 1
        (2.0, True, [0, 1, 1], [1], [0, 1], r"^n must be an integer >= 0, not 2\.0$"),
        (True, True, [0, 0], [], [0], "^n must be an integer >= 0, not True$"),
        ("2", True, [0, 1, 1], [1], [0, 1], "^n must be an integer >= 0, not '2'$"),
    ],
    ids=["indptr-length", "indptr-start", "indptr-decreasing", "indptr-end", "neighbor-minus-one",
         "neighbor-n", "self-loop", "repeat", "unsorted", "one-way-edge", "one-way-path",
         "ids-length", "ids-repeat", "ids-descending", "n-float", "n-bool", "n-str"],
)
def test_malformed_csr_rejected(n, directed, indptr, indices, external_ids, message):
    ids = np.arange(n) if external_ids is None else external_ids
    with pytest.raises(ValueError, match=message):
        Graph(n=n, directed=directed, indptr=np.array(indptr),
              indices=np.array(indices, dtype=np.int64),
              external_ids=np.array(ids, dtype=np.uint64))


def test_numpy_n_is_held_as_a_python_int():
    # held as a uint8, n(n-1)/2 would wrap to 60 of the 19,900 pairs that evaluation tallies
    source = gnp_random_graph(200, 0.05, seed=1)
    g = Graph(n=np.uint8(200), directed=False, indptr=source.indptr, indices=source.indices,
              external_ids=source.external_ids)
    assert type(g.n) is int and g == source
    assert evaluate_model(build(g, k=2, seed=0), g, sample_size=None).pairs == 19900


@pytest.mark.parametrize("ids", [
    np.array([-5, 3, 7]),  # a model saved with these ids would not load
    np.array([0.5, 3.0, 7.0]),  # save would truncate 0.5 to 0
    np.array([False, True, True]),
    np.array([1, 3, 2**64 - 1], dtype=object),
    np.array(["1", "3", "7"]),
], ids=["negative", "float", "bool", "object", "str"])
def test_external_ids_must_be_u64_integers(ids):
    with pytest.raises(ValueError, match=re.escape("external_ids must be integers in [0, 2**64)")):
        Graph(n=3, directed=True, indptr=np.zeros(4, dtype=np.int64),
              indices=np.zeros(0, dtype=np.int64), external_ids=ids)


@pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint16, np.uint64])
def test_external_ids_are_held_as_read_only_u64(dtype):
    ids = np.array([0, 3, 7], dtype=dtype)
    g = Graph(n=3, directed=True, indptr=np.zeros(4, dtype=np.int64),
              indices=np.zeros(0, dtype=np.int64), external_ids=ids)
    assert g.external_ids.dtype == np.uint64 and g.external_ids.tolist() == [0, 3, 7]
    with pytest.raises(ValueError, match="read-only"):
        g.external_ids[0] = 1
    assert ids.flags.writeable  # the caller's array stays writable


@pytest.mark.parametrize("indptr, indices, name", [
    ([0, 1, 1], np.array([1.7]), "indices"),  # would be truncated to neighbor 1
    (np.array([0, 1.5, 1]), [1], "indptr"),  # would be truncated to [0, 1, 1]
    ([0, 1, 1], np.array([True]), "indices"),  # would be read as neighbor 1
    (np.array([False, True, True]), [1], "indptr"),
    ([0, 0, 0], [], "indices"),  # an empty list is a float64 array
], ids=["float-indices", "float-indptr", "bool-indices", "bool-indptr", "empty-list"])
def test_csr_arrays_must_be_integers(indptr, indices, name):
    with pytest.raises(ValueError, match=f"{name} must be an integer array"):
        Graph(n=2, directed=True, indptr=indptr, indices=indices,
              external_ids=np.arange(2, dtype=np.uint64))


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint16, np.uint64])
def test_csr_arrays_are_held_as_int64(dtype):
    g = Graph(n=2, directed=True, indptr=np.array([0, 1, 1], dtype=dtype),
              indices=np.array([1], dtype=dtype), external_ids=np.arange(2, dtype=np.uint64))
    assert g.indptr.dtype == g.indices.dtype == np.int64
    assert g.neighbors(0).tolist() == [1] and g.neighbors(1).tolist() == []


@pytest.mark.parametrize("directed", [None, 0, 1, "no"], ids=["None", "0", "1", "no"])
def test_directed_must_be_a_bool(directed):
    # None would build a graph unequal to the undirected one, and "no" a directed one
    with pytest.raises(ValueError, match=f"directed must be a bool, not {directed!r}"):
        parse_edge_list("1 2\n", directed=directed)
    with pytest.raises(ValueError, match="directed must be a bool"):
        Graph(n=2, directed=directed, indptr=np.array([0, 1, 1]), indices=np.array([1]),
              external_ids=np.arange(2, dtype=np.uint64))


def test_directed_is_checked_before_any_work(monkeypatch, tmp_path):
    # unchecked, a bad flag would have the whole graph read and built before Graph refused it
    def not_reached(*args, **kwargs):
        raise AssertionError("edges were read before directed was checked")

    monkeypatch.setattr(graph, "_read_ids", not_reached)
    monkeypatch.setattr(graph, "_pairs_to_array", not_reached)
    path = tmp_path / "edges.txt"
    path.write_text("1 2\n")
    for call in (lambda: parse_edge_list("1 2\n", directed="no"),
                 lambda: load_edge_list(str(path), directed="no"),
                 lambda: graph_from_edges([(1, 2)], directed="no")):
        with pytest.raises(ValueError, match="^directed must be a bool, not 'no'$"):
            call()


def test_numpy_bool_directed_is_held_as_bool():
    g = graph_from_edges([(1, 2)], directed=np.True_)
    assert g.directed is True and g == graph_from_edges([(1, 2)], directed=True)


def test_csr_arrays_are_read_only(uncertain_pair_graph):
    g = uncertain_pair_graph
    with pytest.raises(ValueError):
        g.indices[0] = 0
    with pytest.raises(ValueError):
        g.neighbors(0)[0] = 0


def id_maps(edges):
    """(kind, id map): the graph of ``edges``, its model, and that model after save/load."""
    g = graph_from_edges(edges)
    cg = build(g, k=1, seed=0)
    stream = io.BytesIO()
    save(cg, stream)
    stream.seek(0)
    return [("graph", g), ("model", cg), ("loaded", load(stream))]


# HIGH_ID_EDGES' ids 5, 2**63 and 2**63 + 1 are stored one by one; the ids
# 1..6 of UNCERTAIN_PAIR_EDGES are a range, which a file stores as 1 alone
@pytest.mark.parametrize("absent", [-1, 2**64, 6])
def test_unknown_external_ids_rejected(absent):
    # 6 lies between the high ids 5 and 2**63, and 7 just past the range 1..6
    for edges, external in ((HIGH_ID_EDGES, absent),
                            (UNCERTAIN_PAIR_EDGES, 7 if absent == 6 else absent)):
        for kind, ids in id_maps(edges):
            with pytest.raises(ValueError, match="unknown external node id"):
                ids.internal_id(external)


def test_non_integer_ids_rejected():
    for edges in (HIGH_ID_EDGES, UNCERTAIN_PAIR_EDGES):
        for kind, ids in id_maps(edges):
            for external in (1.9, "3", np.float64(7.0), True):
                with pytest.raises(ValueError, match="is not an integer"):
                    ids.internal_id(external)
            with pytest.raises(ValueError, match="node id 1.5 is not an integer"):
                ids.external_id(1.5)
    with pytest.raises(ValueError, match="node id 1.5 is not an integer"):
        graph_from_edges(HIGH_ID_EDGES).neighbors(1.5)


def test_adjacent_high_ids_resolve_to_distinct_rows():
    for kind, ids in id_maps(HIGH_ID_EDGES):
        assert ids.internal_id(2**63) == 1, kind
        assert ids.internal_id(2**63 + 1) == 2, kind
        assert ids.external_id(2) == 2**63 + 1, kind
        with pytest.raises(ValueError, match="out of range"):
            ids.external_id(-1)  # once wrapped to the last node
    # every id of either set maps to its row and back
    for edges in (HIGH_ID_EDGES, UNCERTAIN_PAIR_EDGES):
        external = sorted({e for edge in edges for e in edge})
        for kind, ids in id_maps(edges):
            assert [ids.internal_id(e) for e in external] == list(range(len(external))), kind
            assert [ids.external_id(u) for u in range(len(external))] == external, kind
