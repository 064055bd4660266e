import dataclasses
import io
import itertools
import math
import re
import struct
import tracemalloc
import zlib
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fuzzmap import (
    Answer,
    CompressedGraph,
    FclParseError,
    FuzzySystem,
    Graph,
    ModelFormatError,
    NodeRadii,
    build,
    compute_all_radii,
    default_fcl_text,
    default_system,
    evaluate,
    evaluate_model,
    fastmap_embed,
    gnp_random_graph,
    graph_from_edges,
    load,
    parse_edge_list,
    parse_fcl,
    preferential_attachment_graph,
    query,
    query_arrays,
    save,
    sweep_k,
    to_fcl,
)
from fuzzmap import oracle
from fuzzmap.cli import run
from fuzzmap.fastmap import Embedding
from fuzzmap.radii import _BLOCK, _block_distances, distances_from, group_points, pair_distances

from conftest import UNCERTAIN_PAIR_EDGES, edgeless_graph, manual_model, soundness_corpus
from oracles import answer_oracle, fzg1_size_oracle

# 5-node digraph exhibiting asymmetric definite answers (found by search,
# stable for k=2, seed=0, quantized): arc 1->0 exists, 0->1 does not, and
# node 0's radii push the reverse query to a definite no.
DIGRAPH_ARCS = [(0, 2), (0, 3), (0, 4), (1, 0), (1, 4), (2, 4), (3, 1), (4, 1)]


def remodel(cg: CompressedGraph, **parts) -> CompressedGraph:
    """A model of cg's per-node parts, with some of them replaced."""
    kept = dict(coords=cg.embedding.coords, r=cg.radii.r, R=cg.radii.R, directed=cg.directed,
                quantized=cg.quantized, external_ids=cg.external_ids, fcl_text=cg.fcl_text)
    return manual_model(**{**kept, **parts})


def keyword_model(cg: CompressedGraph, **parts) -> CompressedGraph:
    """The keyword constructor on cg's per-node parts, some replaced, for the tests of its checks."""
    kept = dict(embedding=cg.embedding, radii=cg.radii, directed=cg.directed, fuzzy=cg.fuzzy,
                external_ids=cg.external_ids, fcl_text=cg.fcl_text)
    return CompressedGraph(**{**kept, **parts})


def test_complete_graph_all_definite_yes(k4_graph):
    cg = build(k4_graph, k=3, seed=1, quantize=False)
    for u, v in itertools.combinations(range(4), 2):
        assert query(cg, u, v) == Answer(True, 1.0)


def test_edgeless_graph_all_definite_no():
    g = edgeless_graph(4)
    for quantize in (False, True):
        cg = build(g, k=2, seed=3, quantize=quantize)
        for u, v in itertools.combinations(range(4), 2):
            assert query(cg, u, v) == Answer(True, 0.0)


def test_sample_model_pattern(uncertain_pair_graph):
    cg = build(uncertain_pair_graph, k=2, seed=0, quantize=True)
    one = cg.internal_id(1)
    assert query(cg, one, cg.internal_id(5)) == Answer(True, 1.0)
    for other in (3, 4, 6):
        assert query(cg, one, cg.internal_id(other)) == Answer(True, 0.0)
    uncertain = query(cg, one, cg.internal_id(2))
    assert not uncertain.is_definite
    assert uncertain.value > 0.5  # node 2 sits closer to the smaller circle


def test_query_errors(uncertain_pair_graph):
    cg = build(uncertain_pair_graph, k=2, seed=0)
    with pytest.raises(ValueError, match="self query"):
        query(cg, 2, 2)
    with pytest.raises(ValueError, match="out of range"):
        query(cg, 0, 11)


# (us, vs) batches that must raise, each with the scalar (u, v) query
# that raises the same message, or None where no scalar query can express
# the fault; n = 5
BAD_BATCHES = {
    "minus-one": ([-1], [0], (-1, 0)),
    "n": ([0], [5], (0, 5)),
    "self-pair": ([0, 1], [2, 1], (1, 1)),
    "m-vs-1": ([0, 1], [2], None),
    "1-vs-m": ([2], [0, 1], None),
    "2-d": ([[0], [1]], [[2], [3]], None),
    "float": ([1.5], [0], (1.5, 0)),
    "bool": ([True], [False], (True, False)),
}


@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
@pytest.mark.parametrize("case", sorted(BAD_BATCHES))
def test_query_arrays_rejects_what_scalar_query_rejects(directed, case):
    cg = build(graph_from_edges(DIGRAPH_ARCS, directed=directed), k=2, seed=0)
    assert cg.n == 5
    us, vs, pair = BAD_BATCHES[case]
    with pytest.raises(ValueError) as batch:
        query_arrays(cg, np.array(us), np.array(vs))
    if pair is None:
        assert "1-d and of equal length" in str(batch.value)
    else:
        with pytest.raises(ValueError) as scalar:
            query(cg, *pair)
        assert str(batch.value) == str(scalar.value)


@pytest.mark.parametrize("pair_table", [True, False], ids=["pair_table", "kernel"])
@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
def test_scalar_query_is_the_batch_answer(directed, pair_table):
    # one query for either kind of model: u -> v from the source side when directed
    g = gnp_random_graph(12, 0.3, seed=1, directed=directed)
    us, vs = (np.array(side) for side in zip(*itertools.permutations(range(g.n), 2)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_TABLE_COORD_RATIO", _TABLE_ALWAYS if pair_table else 0)
        cg = build(g, k=2, seed=1)
        definite, value = query_arrays(cg, us, vs)
        assert (cg.pair_table is not None) == pair_table
        for u, v, yes_no, x in zip(us.tolist(), vs.tolist(), definite.tolist(), value.tolist()):
            ans = query(cg, u, v)
            assert ans == Answer(yes_no, x) and ans._fields == ("is_definite", "value")
            assert type(ans.is_definite) is bool and type(ans.value) is float


def test_empty_batch_answers_empty_arrays():
    # np.asarray([]) is float64, which the non-integer id check must let through
    cg = build(graph_from_edges(DIGRAPH_ARCS), k=2, seed=0)
    definite, value = query_arrays(cg, [], [])
    assert definite.shape == value.shape == (0,)


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.uint64])
def test_id_check_names_the_first_bad_id_of_any_integer_dtype(dtype):
    cg = build(graph_from_edges(DIGRAPH_ARCS), k=2, seed=0)
    us, vs = np.array([0, 1, 2, 3], dtype=dtype), np.array([4, 3, 1, 0], dtype=dtype)
    expected = query_arrays(cg, us.astype(np.int64), vs.astype(np.int64))
    answers = query_arrays(cg, us, vs)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(answers, expected))
    assert all(a.shape == (0,) for a in query_arrays(cg, us[:0], vs[:0]))
    info = np.iinfo(dtype)
    bad = [5, info.max] + ([-1, info.min] if info.min < 0 else [2**63])  # 2**63 wraps in int64
    for first in bad:
        for other in bad:  # the first bad id is named, in us before vs
            ids = np.array([0, first, 1, other], dtype=dtype)
            ok = np.array([1, 2, 3, 4], dtype=dtype)
            message = re.escape(f"node id {first} out of range [0, 5)")
            with pytest.raises(ValueError, match=f"^{message}$"):
                query_arrays(cg, ids, ok)
            with pytest.raises(ValueError, match=f"^{message}$"):
                query_arrays(cg, ok, ids)
            with pytest.raises(ValueError, match=f"^{message}$"):
                query_arrays(cg, ids, ids)


def test_undirected_symmetry(uncertain_pair_graph):
    cg = build(uncertain_pair_graph, k=2, seed=5)
    for u, v in itertools.combinations(range(cg.n), 2):
        assert query(cg, u, v) == query(cg, v, u)


def test_fuzzy_likelihood_strictly_inside_unit_interval():
    g = gnp_random_graph(80, 0.12, seed=21)
    cg = build(g, k=3, seed=2, quantize=True)
    us, vs = np.triu_indices(g.n, 1)
    definite, value = query_arrays(cg, us, vs)
    fuzzy_vals = value[~definite]
    assert fuzzy_vals.size
    assert np.all((fuzzy_vals > 0.0) & (fuzzy_vals < 1.0))


def test_fuzzy_monotone_in_distance():
    # only node 0 contributes fuzzy input (other sides are sentinels), so
    # growing d inside (r, R) must never raise the likelihood
    coords = [[0.0], [1.1], [1.5], [2.2], [2.9]]
    r = [1.0, -1.0, -1.0, -1.0, -1.0]
    R = [3.0, np.inf, np.inf, np.inf, np.inf]
    cg = manual_model(coords, r, R)
    likelihoods = [query(cg, 0, v).value for v in (1, 2, 3, 4)]
    assert all(not q.is_definite for q in (query(cg, 0, v) for v in (1, 2, 3, 4)))
    assert likelihoods == sorted(likelihoods, reverse=True)


def test_single_sentinel_side_uses_other_side_alone():
    coords = [[0.0], [2.0]]
    cg = manual_model(coords, r=[-1.0, 0.5], R=[np.inf, 10.0])
    ans = query(cg, 0, 1)
    assert not ans.is_definite
    expected = evaluate(cg.fuzzy, (10.0 - 2.0) / (10.0 - 0.5))
    assert ans.value == expected


def test_both_sentinel_sides_yield_half():
    coords = [[0.0], [2.0]]
    cg = manual_model(coords, r=[-1.0, -1.0], R=[np.inf, np.inf])
    assert query(cg, 0, 1) == Answer(False, 0.5)
    # r sentinel with finite R on one side only: still no contribution
    cg2 = manual_model(coords, r=[-1.0, -1.0], R=[5.0, np.inf])
    ans = query(cg2, 0, 1)
    assert not ans.is_definite
    assert ans.value == 0.5


@pytest.mark.parametrize("pair_table", [False, True], ids=["kernel", "pair-table"])
def test_definite_yes_decides_before_definite_no(pair_table):
    # hand-made radii no build produces: node 0's r says yes, node 1's R says no
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_TABLE_COORD_RATIO", _TABLE_ALWAYS if pair_table else 0)
        cg = manual_model([[0.0], [1.0]], r=[2.0, -1.0], R=[np.inf, 0.5])
        assert (cg.pair_table is not None) == pair_table
        assert query(cg, 0, 1) == query(cg, 1, 0) == Answer(True, 1.0)


def test_sentinel_never_definite_yes_directed():
    coords = [[0.0], [0.5]]
    cg = manual_model(coords, r=[-1.0, 3.0], R=[4.0, 5.0], directed=True)
    ans = query(cg, 0, 1)  # r(0) = -1, d < R(0)
    assert not ans.is_definite
    cg_rev = manual_model(coords, r=[3.0, -1.0], R=[4.0, 5.0], directed=True)
    assert query(cg_rev, 0, 1) == Answer(True, 1.0)


def test_directed_two_cycle_definite_yes_both_ways():
    g = graph_from_edges([(0, 1), (1, 0)], directed=True)
    cg = build(g, k=2, seed=0, quantize=False)
    assert query(cg, 0, 1) == Answer(True, 1.0)
    assert query(cg, 1, 0) == Answer(True, 1.0)


def test_directed_asymmetric_answers():
    g = graph_from_edges(DIGRAPH_ARCS, directed=True)
    cg = build(g, k=2, seed=0, quantize=True)
    assert 0 in g.neighbors(1) and 1 not in g.neighbors(0)
    assert query(cg, 0, 1) == Answer(True, 0.0)
    assert query(cg, 1, 0) != Answer(True, 0.0)
    # definite answers stay sound against arc ground truth
    for u, v in itertools.permutations(range(g.n), 2):
        ans = query(cg, u, v)
        if ans.is_definite:
            assert (ans.value == 1.0) == (v in g.neighbors(u))


def test_build_validation(uncertain_pair_graph):
    with pytest.raises(ValueError, match="^k must be an integer >= 1, not 0$"):
        build(uncertain_pair_graph, k=0, seed=0)
    singleton = edgeless_graph(1)
    with pytest.raises(ValueError, match="graph must have at least 2 nodes"):
        build(singleton, k=2, seed=0)


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("quantize", [True, False])
def test_build_groups_once_and_matches_the_constructor(directed, quantize, monkeypatch):
    # build groups the embedding once, for the radii scan and the model
    # alike, and parses its FCL once; it saves what the keyword constructor
    # over the same embedding and radii saves
    from fuzzmap import fuzzy, radii

    g = gnp_random_graph(80, 0.08, seed=5, directed=directed)
    fcl_text = default_fcl_text()
    e = fastmap_embed(g, 4, seed=3)
    expected = CompressedGraph(embedding=e, radii=compute_all_radii(g, e, quantize=quantize),
                               directed=directed, fuzzy=parse_fcl(fcl_text),
                               external_ids=g.external_ids.copy(), fcl_text=fcl_text)
    calls = Counter()

    def counted(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    for name, modules in (("group_points", (radii, oracle)), ("node_states", (oracle,)),
                          ("parse_fcl", (fuzzy, oracle))):
        call = counted(name, getattr(oracle, name))
        for module in modules:
            monkeypatch.setattr(module, name, call)
    cg = build(g, k=4, seed=3, quantize=quantize, fcl_text=fcl_text)
    assert calls == {"group_points": 1, "node_states": 1, "parse_fcl": 1}
    assert roundtrip(cg)[2] == roundtrip(expected)[2]


# --- persistence -------------------------------------------------------------


def roundtrip(cg: CompressedGraph) -> tuple[CompressedGraph, int, bytes]:
    buf = io.BytesIO()
    nbytes = save(cg, buf)
    blob = buf.getvalue()
    assert nbytes == len(blob)
    return load(io.BytesIO(blob)), nbytes, blob


def test_save_load_roundtrip_exact(uncertain_pair_graph):
    cg = build(uncertain_pair_graph, k=3, seed=9, quantize=True)
    loaded, _, _ = roundtrip(cg)
    assert np.array_equal(loaded.embedding.coords, cg.embedding.coords)
    assert np.array_equal(loaded.radii.r, cg.radii.r)
    assert np.array_equal(loaded.radii.R, cg.radii.R)
    assert loaded.radii.quantized == cg.radii.quantized
    assert loaded.directed == cg.directed
    assert np.array_equal(loaded.external_ids, cg.external_ids)
    assert loaded.fcl_text == cg.fcl_text
    assert loaded.embedding.pivots is None


def test_coords_are_axis_major(uncertain_pair_graph):
    # the kernel reads coords.T row by row: built, loaded and hand-made
    # embeddings all hold Fortran-ordered coords
    e = fastmap_embed(uncertain_pair_graph, 3, seed=9)
    loaded, _, _ = roundtrip(build(uncertain_pair_graph, k=3, seed=9))
    manual = manual_model(np.arange(12.0).reshape(6, 2), r=[-1.0] * 6, R=[np.inf] * 6)
    for coords in (e.coords, loaded.embedding.coords, manual.embedding.coords):
        assert coords.flags.f_contiguous and not coords.flags.c_contiguous
    assert np.array_equal(loaded.embedding.coords, e.coords)


def test_model_parts_must_agree_in_n():
    cg = build(gnp_random_graph(30, 0.2, seed=1), k=3, seed=1)
    short = Embedding(coords=cg.embedding.coords[:29])
    with pytest.raises(ValueError, match="29 coordinate rows, 30 r, 30 R, 30 external ids"):
        keyword_model(cg, embedding=short)
    with pytest.raises(ValueError, match="disagree in n"):
        keyword_model(cg, radii=NodeRadii(cg.radii.r, cg.radii.R[:-1], cg.radii.quantized))
    with pytest.raises(ValueError, match="disagree in n"):
        keyword_model(cg, external_ids=cg.external_ids[1:])


def test_fuzzy_system_must_match_fcl_text(uncertain_pair_graph):
    # save writes only fcl_text, so a disagreeing system would change
    # answers after save/load; the model refuses to hold such a pair
    cg = build(uncertain_pair_graph, k=2, seed=0)
    text = default_fcl_text().replace("DEFAULT := 0.5;", "DEFAULT := 0.25;")
    with pytest.raises(ValueError, match="does not match"):
        keyword_model(cg, fcl_text=text)
    with pytest.raises(ValueError, match="does not match"):
        keyword_model(cg, fuzzy=parse_fcl(text))
    matched = keyword_model(cg, fcl_text=text, fuzzy=parse_fcl(text))
    assert roundtrip(matched)[0].fuzzy == matched.fuzzy


def no_embedding(*args, **kwargs):
    raise AssertionError("embedded the graph before checking the arguments")


@pytest.mark.parametrize("flag", [None, 0, 1, "no"], ids=["None", "0", "1", "no"])
def test_quantize_must_be_a_bool(flag, monkeypatch):
    # quantize="no" built quantized radii in a model that held "no", and its
    # file loaded as quantized; None built exact radii and held None
    g = gnp_random_graph(20, 0.2, seed=1)
    e = fastmap_embed(g, 2, seed=1)
    monkeypatch.setattr(oracle, "fastmap_embed", no_embedding)
    calls = [lambda: build(g, 2, 1, quantize=flag),
             lambda: sweep_k(g, [2], quantize=flag),
             lambda: compute_all_radii(g, e, quantize=flag)]
    for call in calls:
        with pytest.raises(ValueError, match=f"quantize must be a bool, not {flag!r}"):
            call()


@pytest.mark.parametrize("flag", [None, "yes"], ids=["None", "yes"])
def test_keyword_constructor_flags_must_be_bools(flag):
    # directed=None gave a model that no scalar query answered,
    # and each such model saved as a different model
    cg = build(gnp_random_graph(30, 0.2, seed=1), k=3, seed=1)
    with pytest.raises(ValueError, match=f"directed must be a bool, not {flag!r}"):
        keyword_model(cg, directed=flag)
    with pytest.raises(ValueError, match=f"radii.quantized must be a bool, not {flag!r}"):
        keyword_model(cg, radii=NodeRadii(cg.radii.r, cg.radii.R, flag))


def test_numpy_bool_flags_are_held_as_bools(uncertain_pair_graph):
    g = uncertain_pair_graph
    cg = build(g, k=2, seed=1, quantize=np.False_)
    assert cg.quantized is False and cg.radii.quantized is False
    e = fastmap_embed(g, 2, seed=1)
    assert compute_all_radii(g, e, quantize=np.True_).quantized is True
    radii = NodeRadii(cg.radii.r, cg.radii.R, np.False_)
    model = keyword_model(cg, directed=np.False_, radii=radii)
    assert model.directed is False and model.quantized is False
    assert roundtrip(model)[2] == roundtrip(cg)[2]


@pytest.mark.parametrize("wrap", [io.StringIO, str.encode], ids=["stream", "bytes"])
def test_fcl_text_must_be_a_str(wrap, uncertain_pair_graph, monkeypatch):
    # save encodes fcl_text: a model holding a stream failed to save, its
    # stream already read. parse_fcl is the one check, for build and the
    # keyword constructor alike, and reads nothing before it
    cg = build(uncertain_pair_graph, k=2, seed=0)
    fcl = wrap(default_fcl_text())
    monkeypatch.setattr(oracle, "fastmap_embed", no_embedding)
    for call in (lambda: parse_fcl(fcl),
                 lambda: build(uncertain_pair_graph, k=2, seed=0, fcl_text=fcl),
                 lambda: keyword_model(cg, fcl_text=fcl)):
        with pytest.raises(TypeError, match=f"fcl_text must be a str, not {type(fcl).__name__}"):
            call()
        if isinstance(fcl, io.StringIO):
            assert fcl.tell() == 0


def test_bad_fcl_fails_before_the_embedding(uncertain_pair_graph, monkeypatch):
    monkeypatch.setattr(oracle, "fastmap_embed", no_embedding)
    text = "FUNCTION_BLOCK x\nWHATEVER;\nEND_FUNCTION_BLOCK\n"
    with pytest.raises(FclParseError, match="^line 2: unknown keyword 'WHATEVER'$"):
        build(uncertain_pair_graph, k=2, seed=0, fcl_text=text)


def _node_part(cg: CompressedGraph, name: str, node: int, value: float) -> dict:
    """The keyword constructor's part ``name`` of cg, with ``value`` at ``node``."""
    if name == "coords":
        coords = cg.embedding.coords.copy(order="F")
        coords[node, -1] = value
        return {"embedding": Embedding(coords=coords)}
    r, R = cg.radii.r.copy(), cg.radii.R.copy()
    (r if name == "r" else R)[node] = value
    return {"radii": NodeRadii(r, R, cg.quantized)}


@pytest.mark.parametrize("bad, message", [
    (lambda cg: {"external_ids": np.arange(6, 0, -1, dtype=np.uint64)},
     "external_ids must hold n strictly increasing ids"),
    (lambda cg: {"external_ids": np.arange(-1, 5)}, r"external_ids must be integers in \[0, 2\*\*64\)"),
    (lambda cg: _node_part(cg, "coords", 3, np.nan), "non-finite or overflowing coordinate at node 3"),
    (lambda cg: _node_part(cg, "coords", 4, 1e300), "non-finite or overflowing coordinate at node 4"),
    (lambda cg: _node_part(cg, "r", 2, -0.5), "invalid radius r at node 2"),
    (lambda cg: _node_part(cg, "r", 5, np.nan), "invalid radius r at node 5"),
    (lambda cg: {"radii": NodeRadii(cg.radii.r, np.full(6, -5.0), cg.quantized)},
     "invalid radius R at node 0"),
    (lambda cg: _node_part(cg, "R", 1, np.nan), "invalid radius R at node 1"),
    # bool radii were held as bool; complex ones saved their real parts
    (lambda cg: {"radii": NodeRadii(np.zeros(6, dtype=bool), cg.radii.R, cg.quantized)},
     "radii.r must be real numbers, not of dtype bool"),
    (lambda cg: {"radii": NodeRadii(cg.radii.r, cg.radii.R.astype(complex), cg.quantized)},
     "radii.R must be real numbers, not of dtype complex128"),
    # n = 0 saved to a file that save could not write; k = 0 divided by zero
    (lambda cg: {"embedding": Embedding(coords=np.zeros((0, 2))), "external_ids": np.zeros(0, int),
                 "radii": NodeRadii(np.zeros(0), np.zeros(0), cg.quantized)},
     "model must have at least 1 node"),
    (lambda cg: {"embedding": Embedding(coords=np.zeros((6, 0)))},
     "embedding must have k >= 1 dimensions"),
], ids=["unsorted-ids", "negative-id", "nan-coordinate", "1e300-coordinate", "r-minus-half",
        "r-nan", "R-minus-5", "R-nan", "r-bool", "R-complex", "n-zero", "k-zero"])
def test_keyword_constructor_refuses_what_load_refuses(bad, message, uncertain_pair_graph,
                                                       monkeypatch):
    # ids 6..1 gave a model whose internal_id(6) was "unknown", and R = -5 on
    # every node answered the edge (1, 2) with a definite no; save wrote
    # either model to a file that load refused
    cg = build(uncertain_pair_graph, k=2, seed=0)
    assert cg.n == 6 and np.isfinite(cg.embedding.coords).all()

    def no_grouping(*args, **kwargs):
        raise AssertionError("grouped the points before checking the parts")

    monkeypatch.setattr(oracle, "group_points", no_grouping)
    with pytest.raises(ValueError, match=f"^{message}$"):
        keyword_model(cg, **bad(cg))


@pytest.mark.parametrize("gnp, make", [
    # float32 FastMap coordinates, exact radii: the model's float32 kernel
    # answered 193 pairs unlike its file, which gave 4 unsound definite answers
    ((120, 0.1, 10), lambda g: fastmap_embed(g, 4, seed=10).coords.astype(np.float32)),
    # int64 coordinates near +-4e18: the kernel's int64 subtraction wrapped,
    # and 36 of 780 pairs answered unlike the file
    ((40, 0.2, 3), lambda g: np.random.default_rng(0).integers(-4 * 10**18, 4 * 10**18, (g.n, 2))),
], ids=["float32", "int64"])
def test_keyword_model_answers_as_its_file(gnp, make):
    n, p, seed = gnp
    g = gnp_random_graph(n, p, seed=seed)
    embedding = Embedding(coords=make(g))
    text = default_fcl_text()
    cg = CompressedGraph(embedding=embedding, radii=compute_all_radii(g, embedding, quantize=False),
                         directed=False, fuzzy=parse_fcl(text), external_ids=g.external_ids,
                         fcl_text=text)
    loaded = roundtrip(cg)[0]
    us, vs = np.triu_indices(n, 1)
    assert us.size == n * (n - 1) // 2
    (definite, value), (file_definite, file_value) = (query_arrays(m, us, vs) for m in (cg, loaded))
    assert np.count_nonzero((definite != file_definite) | (value != file_value)) == 0
    for model in (cg, loaded):
        rep = evaluate_model(model, g, sample_size=None)
        assert rep.pairs == us.size and rep.definite_correct == rep.definite


def test_no_write_gets_past_the_coordinate_rule():
    # an inf written into e.coords after fastmap_embed gave R = inf on a
    # quarter of the nodes, and the keyword constructor then built a model
    # whose file load refused; any object with .coords passed as well
    g = gnp_random_graph(20, 0.3, seed=1)
    e = fastmap_embed(g, 3, seed=1)
    radii = compute_all_radii(g, e)
    with pytest.raises(ValueError, match="read-only"):
        e.coords[7, 1] = np.inf
    with pytest.raises(dataclasses.FrozenInstanceError):
        e.coords = e.coords.astype(complex)
    coords = e.coords.copy(order="F")
    held = Embedding(coords=coords)
    coords[7, 1] = np.inf  # the caller's array is not the one held
    assert np.array_equal(held.coords, e.coords) and not held.coords.flags.writeable
    assert Embedding(coords=e.coords).coords is e.coords  # a read-only owner is not copied
    again = compute_all_radii(g, held)
    assert np.array_equal(again.r, radii.r) and np.array_equal(again.R, radii.R)
    text = default_fcl_text()
    stub = SimpleNamespace(coords=coords, n=g.n, k=3)
    for call in (lambda: compute_all_radii(g, stub),
                 lambda: CompressedGraph(embedding=stub, radii=radii, directed=False,
                                         fuzzy=parse_fcl(text), external_ids=g.external_ids,
                                         fcl_text=text)):
        with pytest.raises(TypeError, match="^embedding must be an Embedding, not SimpleNamespace$"):
            call()


def caller_held_graph(seed: int) -> tuple[Graph, Graph, dict]:
    """A directed G(60, 0.2), a Graph of copies of its arrays, and those copies."""
    source = gnp_random_graph(60, 0.2, seed=seed, directed=True)
    parts = {name: getattr(source, name).copy() for name in ("indptr", "indices", "external_ids")}
    return source, Graph(n=source.n, directed=True, **parts), parts


@pytest.mark.parametrize("case", ["indptr", "indices", "external_ids", "fields", "model-ids",
                                  "seed-12", "seed-28"])
def test_no_write_gets_past_the_holding_rule(case):
    # Graph and check_external_ids held read-only views of the caller's
    # arrays, and a Graph's fields could be reassigned, so a later write
    # got past every check
    seed = int(case[5:]) if case.startswith("seed-") else 1
    source, g, parts = caller_held_graph(seed)
    if case in parts:
        parts[case][:] = parts[case][::-1].copy()
        assert g == source and not getattr(g, case).flags.writeable
    elif case == "fields":
        for name in ("n", "directed", "indptr", "indices", "external_ids"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(g, name, getattr(source, name))
    elif case == "model-ids":
        # the written ids reached the model, whose saved file load refused
        cg = build(g, k=3, seed=seed)
        ids = cg.external_ids.copy()
        model = keyword_model(cg, external_ids=ids)
        ids[:] = ids[::-1].copy()
        assert np.array_equal(model.external_ids, source.external_ids)
        assert roundtrip(model)[2] == roundtrip(cg)[2]
    else:
        # a repeated neighbor written into every row: on these seeds the
        # model gave one definite answer each that the written graph refuted
        indptr, indices = parts["indptr"], parts["indices"]
        for lo, hi in zip(indptr[:-1], indptr[1:]):
            if hi - lo >= 2:
                indices[lo + 1] = indices[lo]
        report = evaluate_model(build(g, k=3, seed=seed), g, sample_size=None)
        assert report.definite_correct == report.definite > 0


def test_the_build_path_holds_each_graph_array_once():
    # parsed and generated graphs held read-only views of the arrays
    # graph_from_edges made, and build copied the ids into the model
    for g in (parse_edge_list("1 2\n2 3\n3 1\n3 4\n"), preferential_attachment_graph(50, 2, seed=1),
              gnp_random_graph(40, 0.2, seed=1, directed=True)):
        for array in (g.indptr, g.indices, g.external_ids):
            assert array.base is None and not array.flags.writeable
        assert np.shares_memory(build(g, k=2, seed=0).external_ids, g.external_ids)


MODEL_FIELDS = ("points_t", "states", "directed", "quantized", "fuzzy", "external_ids", "fcl_text")


def answers_like_its_file(cg: CompressedGraph) -> bool:
    """Whether every pair answers alike from the model and from its saved file."""
    us, vs = np.nonzero(~np.eye(cg.n, dtype=bool))
    return all(a.tobytes() == b.tobytes()
               for a, b in zip(query_arrays(cg, us, vs), query_arrays(roundtrip(cg)[0], us, vs)))


@pytest.mark.parametrize("case", ["built", "loaded", "keyword", "radii-and-groups",
                                  "reversed-ids", "other-fuzzy", "directed-after-query",
                                  "edited-term"])
def test_every_record_is_frozen(monkeypatch, case):
    # a model's fields could be reassigned, NodeRadii and PointGroups were
    # plain dataclasses, and a FuzzySystem's term dicts could be edited after
    # its rules were compiled, so a model could answer unlike its own file
    g = gnp_random_graph(60, 0.2, seed=3)
    cg = build(g, k=3, seed=1)
    other_adjacent = parse_fcl(default_fcl_text().replace(
        "TERM adjacent := (0.0, 0.0) (1.0, 1.0);",
        "TERM adjacent := (0.0, 0.0) (0.3, 1.0) (1.0, 1.0);"))
    if case in ("built", "loaded", "keyword"):
        monkeypatch.setattr(oracle, "_TABLE_COORD_RATIO", _TABLE_ALWAYS)
        model = {"built": cg, "loaded": roundtrip(cg)[0], "keyword": keyword_model(cg)}[case]
        for name in MODEL_FIELDS:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(model, name, getattr(model, name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(model, name)
        # the derived views are still built once, on first use
        assert model.pair_table is not None and model.pair_table is model.pair_table
        assert model.embedding is model.embedding and model.radii is model.radii
        for name in ("pair_table", "embedding", "radii"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(model, name, None)
        assert answers_like_its_file(model)
    elif case == "radii-and-groups":
        for record in (cg.radii, compute_all_radii(g, cg.embedding),
                       group_points(cg.embedding.coords)):
            for field in dataclasses.fields(record):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(record, field.name, getattr(record, field.name))
    elif case == "reversed-ids":
        # save wrote a file that load refused: external ids not strictly increasing
        with pytest.raises(dataclasses.FrozenInstanceError):
            cg.external_ids = cg.external_ids[::-1].copy()
        assert answers_like_its_file(cg)
    elif case == "other-fuzzy":
        # 222 of the 1,770 pairs answered unlike the saved file
        assert cg.pair_table is None
        with pytest.raises(dataclasses.FrozenInstanceError):
            cg.fuzzy = other_adjacent
        assert answers_like_its_file(cg)
    elif case == "directed-after-query":
        # the pair table of the first query stayed undirected: 50,474 of the
        # 1,999,000 reversed pairs answered unlike the saved file
        big = build(preferential_attachment_graph(2000, 3, seed=1), k=4, seed=1)
        query_arrays(big, [0], [1])
        assert big.pair_table is not None
        with pytest.raises(dataclasses.FrozenInstanceError):
            big.directed = True
        assert not big.directed and not roundtrip(big)[0].directed
    else:
        # the edited system passed the keyword constructor's check, its terms
        # equal to the parse of the text, but evaluated its old compiled rules:
        # 385 of the 1,770 pairs answered unlike the model's file
        system = default_system()
        with pytest.raises(TypeError):
            system.input_terms["close_to_r"] = other_adjacent.output_terms["adjacent"]
        with pytest.raises(TypeError):
            del system.output_terms["adjacent"]
        assert system == parse_fcl(default_fcl_text()) == parse_fcl(to_fcl(system))
        # a system holds copies of the caller's term maps, not the maps
        terms = dict(system.input_terms)
        held = FuzzySystem(system.input_var, system.output_var, terms, system.output_terms,
                           system.rules)
        terms["close_to_r"] = other_adjacent.output_terms["adjacent"]
        assert held == system and to_fcl(held) == to_fcl(system)
        assert answers_like_its_file(keyword_model(cg, fuzzy=system))


def traced_peak(make) -> tuple[object, int]:
    """``make()`` and the peak of the bytes it had allocated at once, as tracemalloc saw them."""
    tracemalloc.start()
    try:
        made = make()
        return made, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_each_per_node_view_is_held_once():
    # the embedding gathered a (k, n) table whose .T view hold copied again
    # (305,065 traced bytes at peak), and Embedding converted float32 or
    # C-ordered coords in check_real before hold copied them (256,681)
    cg = roundtrip(build(preferential_attachment_graph(2000, 5, seed=1), k=8, seed=1))[0]
    table = 8 * cg.n * cg.k
    assert table == 128_000
    embedding, peak = traced_peak(lambda: cg.embedding)
    assert peak < 1.75 * table
    coords = embedding.coords
    assert coords.base is None and coords.flags.f_contiguous and not coords.flags.writeable
    for copy in (coords.astype(np.float32), np.ascontiguousarray(coords)):
        held, peak = traced_peak(lambda: Embedding(coords=copy))
        assert peak < 1.75 * table
        assert np.array_equal(held.coords, copy) and held.coords.flags.f_contiguous
        assert held.coords.base is None and not held.coords.flags.writeable


def test_keyword_constructor_holds_float64_radii(uncertain_pair_graph):
    # NodeStates holds f64 radii, but int radii were held as int64
    cg = build(uncertain_pair_graph, k=2, seed=0, quantize=True)
    r, R = cg.radii.r, cg.radii.R
    for cast in (np.int64, np.int8, np.uint16, np.float32):
        model = keyword_model(cg, radii=NodeRadii(r.astype(cast), R.astype(cast), True))
        assert model.states.r.dtype == model.states.R.dtype == np.float64
        assert np.array_equal(model.radii.r, r) and np.array_equal(model.radii.R, R)
        assert roundtrip(model)[2] == roundtrip(cg)[2]


DEFAULT_FCL = default_fcl_text()
FCL_VARIANTS = {
    "default": DEFAULT_FCL,
    "three_vertex_output": DEFAULT_FCL.replace(
        "TERM adjacent := (0.0, 0.0) (1.0, 1.0);",
        "TERM adjacent := (0.0, 0.0) (0.5, 0.2) (1.0, 1.0);"),
    # crisp inputs in (0.2, 0.4] and [0.6, 1] fire no rule: DEFAULT answers
    "spike_no_rule_fires": DEFAULT_FCL.replace(
        "TERM close_to_r := (0.0, 0.0) (1.0, 1.0);",
        "TERM close_to_r := (0.4, 0.0) (0.5, 1.0) (0.6, 0.0);").replace(
        "TERM close_to_R := (0.0, 1.0) (1.0, 0.0);",
        "TERM close_to_R := (0.0, 1.0) (0.2, 0.0);").replace(
        "DEFAULT := 0.5;", "DEFAULT := 0.25;"),
}


@pytest.mark.parametrize("variant", sorted(FCL_VARIANTS))
def test_answers_survive_roundtrip(variant):
    text = FCL_VARIANTS[variant]
    assert variant == "default" or text != DEFAULT_FCL
    g = gnp_random_graph(40, 0.2, seed=31)
    cg = build(g, k=4, seed=4, fcl_text=text)
    loaded, _, _ = roundtrip(cg)
    us, vs = np.triu_indices(g.n, 1)
    def_a, val_a = query_arrays(cg, us, vs)
    def_b, val_b = query_arrays(loaded, us, vs)
    assert not def_a.all()  # the fuzzy system is exercised
    if variant == "spike_no_rule_fires":
        assert np.any(val_a[~def_a] == 0.25)
    assert np.array_equal(def_a, def_b)
    assert np.array_equal(val_a, val_b)


def test_sentinels_survive_roundtrip():
    g = graph_from_edges([(0, 1), (1, 2)], directed=True)
    cg = build(g, k=2, seed=0, quantize=False)
    assert -1.0 in cg.radii.r  # node without out-neighbors
    loaded, _, _ = roundtrip(cg)
    assert np.array_equal(loaded.radii.r, cg.radii.r)
    assert np.array_equal(np.isinf(loaded.radii.R), np.isinf(cg.radii.R))


def model_size(cg: CompressedGraph) -> int:
    """The version 4 size, from points, states and ids counted independently."""
    return fzg1_size_oracle(cg.embedding.coords.tolist(), cg.radii.r.tolist(), cg.radii.R.tolist(),
                            cg.external_ids, cg.k, len(cg.fcl_text.encode("utf-8")))


def test_file_layout_exact_sizes():
    g = gnp_random_graph(100, 0.08, seed=77)
    cg = build(g, k=4, seed=0)
    _, nbytes, blob = roundtrip(cg)
    fcl_len = len(cg.fcl_text.encode("utf-8"))
    assert group_points(cg.embedding.coords).u == 27  # the embedding collapses
    assert cg.states.t == 49  # and so do the radii on its points
    # ids 0..99: the id block is lo alone; a point index takes 5 bits (u = 27)
    # and a state index 6 (t = 49): ceil(5 * 49 / 8) and 6 * 100 / 8 bytes
    assert nbytes == model_size(cg) == 44 + 8 + 8 * 27 * 4 + 16 * 49 + 31 + 75 + fcl_len + 4
    assert blob[:4] == b"FZG1"
    assert struct.unpack_from("<IQ", blob, 4)[0] == 4  # version
    assert struct.unpack_from("<I", blob, 8)[0] == 4 | 2  # flags: ids are a range, quantized
    assert struct.unpack_from("<QQQ", blob, 28) == (27, 49, 0)  # u, t, lo
    # worst case, every row distinct and ids not a range: u = t = n = 6, so
    # each index takes 3 bits; against version 2, the u32 point index a node
    # goes, the 8-byte t field and two 3-byte packed fields come
    distinct = manual_model(np.arange(12.0).reshape(6, 2), r=[-1.0] * 6, R=[np.inf] * 6,
                            external_ids=[1, 3, 5, 7, 9, 11])
    _, nbytes, blob = roundtrip(distinct)
    assert group_points(distinct.embedding.coords).u == distinct.states.t == 6
    fcl_len = len(distinct.fcl_text.encode("utf-8"))
    assert nbytes == model_size(distinct) == 44 + 8 * 6 + 8 * 6 * 2 + 16 * 6 + 3 + 3 + fcl_len + 4
    assert nbytes == (36 + 28 * 6 + 8 * 6 * 2 + fcl_len + 4) - 4 * 6 + 8 + 2 * 3
    assert struct.unpack_from("<I", blob, 8)[0] == 0  # flags: explicit ids


def stream_node_bytes(blob: bytes) -> int:
    """The per-node part of a saved stream: its length less the header, the
    range id block, the points, the states (radii and packed point
    indices), the FCL text and the CRC, with flags, k, fcl_len, u and t
    read from the stream's own header."""
    _, _, flags, _, k, fcl_len, u, t = struct.unpack_from("<4sIIQIIQQ", blob, 0)
    lo_bytes = 8 if flags & 4 else 0
    point_bytes = -(-t * (u - 1).bit_length() // 8)
    return len(blob) - 44 - lo_bytes - 8 * u * k - 16 * t - point_bytes - fcl_len - 4


def test_linear_growth_in_n():
    node_bytes = {}
    for n in (100, 200, 400):
        g = gnp_random_graph(n, 8.0 / n, seed=n)
        cg = build(g, k=4, seed=0)
        _, _, blob = roundtrip(cg)
        assert 1 <= struct.unpack_from("<Q", blob, 28)[0] == group_points(cg.embedding.coords).u <= n
        assert 33 <= struct.unpack_from("<Q", blob, 36)[0] == cg.states.t <= 64
        node_bytes[n] = stream_node_bytes(blob)
        assert len(blob) == model_size(cg)
        assert node_bytes[n] == 6 * n // 8  # ids 0..n-1: a 6-bit state index a node
    assert node_bytes[200] == 2 * node_bytes[100]
    assert node_bytes[400] == 4 * node_bytes[100]
    # explicit ids add one u64 a node: 8.75n, still linear
    _, _, blob = roundtrip(remodel(cg, external_ids=cg.external_ids * 2))
    assert stream_node_bytes(blob) == 8 * 400 + 6 * 400 // 8


def test_load_errors_name_offending_offsets(uncertain_pair_graph):
    cg = build(uncertain_pair_graph, k=2, seed=0)
    buf = io.BytesIO()
    save(cg, buf)
    blob = bytearray(buf.getvalue())

    bad_magic = bytearray(blob)
    bad_magic[0] ^= 0xFF
    with pytest.raises(ModelFormatError, match="magic.*offset 0"):
        load(io.BytesIO(bytes(bad_magic)))

    bad_version = bytearray(blob)
    bad_version[4] = 99
    with pytest.raises(ModelFormatError, match="version.*offset 4"):
        load(io.BytesIO(bytes(bad_version)))

    with pytest.raises(ModelFormatError, match="truncated"):
        load(io.BytesIO(bytes(blob[: len(blob) // 2])))

    with pytest.raises(ModelFormatError, match="truncated header"):
        load(io.BytesIO(b"FZ"))

    corrupted = bytearray(blob)
    corrupted[60] ^= 0x01  # a point coordinate: the header's own fields are checked before the CRC
    with pytest.raises(ModelFormatError, match="CRC mismatch at offset"):
        load(io.BytesIO(bytes(corrupted)))


def test_loaded_fuzzy_system_behaviorally_equal(uncertain_pair_graph):
    cg = build(uncertain_pair_graph, k=2, seed=0)
    loaded, _, _ = roundtrip(cg)
    grid = np.linspace(0, 1, 101)
    a = [evaluate(cg.fuzzy, float(x)) for x in grid]
    b = [evaluate(loaded.fuzzy, float(x)) for x in grid]
    assert a == b


def _rewritten(blob: bytes, offset: int, fmt: str, value) -> bytes:
    """Blob with one field rewritten and a recomputed, valid CRC."""
    out = bytearray(blob)
    struct.pack_into(fmt, out, offset, value)
    struct.pack_into("<I", out, len(out) - 4, zlib.crc32(bytes(out[:-4])))
    return bytes(out)


# uncertain_pair_graph at k=2: n = u = t = 6 (no two rows coincide) and ids
# 1..6, so the id block is lo alone: lo at 44, points at 52, state radii
# (r, R) at 148, state point indices at 244, state indices at 247, FCL at
# 250. Each index takes 3 bits, so each packed field is 18 bits in 3 bytes,
# and the top 6 bits of its last byte are padding. State s is on point s,
# and the nodes are in states 0, 2, 5, 4, 1, 3
_LO = 44
_POINTS = _LO + 8
_RADII = _POINTS + 8 * 6 * 2
_STATE_POINT = _RADII + 16 * 6
_STATE_INDEX = _STATE_POINT + 3
_FCL = _STATE_INDEX + 3
# the same model with ids 10, 20, ..., 60 (not a range): ids at 44, 52, ...
_IDS = 44


def _saved_uncertain_pair_model(ids: str) -> bytes:
    cg = build(graph_from_edges(UNCERTAIN_PAIR_EDGES), k=2, seed=0)
    if ids == "explicit":
        cg = remodel(cg, external_ids=cg.external_ids * 10)
    return roundtrip(cg)[2]


@pytest.mark.parametrize(
    "ids, offset, fmt, value, message",
    [
        ("explicit", _IDS + 8, "<Q", 10, "external ids not strictly increasing at offset 52"),
        ("explicit", _IDS + 16, "<Q", 0, "external ids not strictly increasing at offset 60"),
        ("range", _LO, "<Q", 2**64 - 5, "id range 18446744073709551611..18446744073709551616 "
                                        "exceeds 2**64 - 1 at offset 44"),
        ("range", _POINTS + 8 * 7, "<d", math.nan, "non-finite or overflowing coordinate at offset 108"),
        ("range", _POINTS, "<d", -math.inf, "non-finite or overflowing coordinate at offset 52"),
        ("range", _POINTS + 8, "<d", 1e300, "non-finite or overflowing coordinate at offset 60"),
        # bits 9..11 of a field, index 3, rewritten from 3 to 6 and from 4 to 6
        ("range", _STATE_POINT + 1, "<B", 0b11001100, "point index out of range at offset 245"),
        ("range", _STATE_INDEX + 1, "<B", 0b10011101, "state index out of range at offset 248"),
        ("range", _RADII + 16 * 2, "<d", math.nan, "invalid radius r at offset 180"),
        ("range", _RADII, "<d", -0.5, "invalid radius r at offset 148"),
        ("range", _RADII + 16, "<d", math.inf, "invalid radius r at offset 164"),
        ("range", _RADII + 8, "<d", math.nan, "invalid radius R at offset 156"),
        ("range", _RADII + 16 * 3 + 8, "<d", -1.0, "invalid radius R at offset 204"),
        ("range", _RADII + 8, "<d", -math.inf, "invalid radius R at offset 156"),
        ("range", _FCL, "<c", b"@", "FCL block at offset 250 does not parse: line 1: "
                                    "unexpected character '@'"),
        ("range", _FCL + 3, "<c", b"\xff", "FCL block is not UTF-8 at offset 253"),
        ("range", 8, "<I", 8, "unknown flag bits 0x8 at offset 8"),
        ("range", 20, "<I", 0, "invalid dimension k=0 at offset 20"),
        ("range", 28, "<Q", 0, "invalid point count u=0 for n=6 at offset 28"),
        ("range", 28, "<Q", 7, "invalid point count u=7 for n=6 at offset 28"),
        ("range", 36, "<Q", 0, "invalid state count t=0 for n=6 at offset 36"),
        ("range", 36, "<Q", 7, "invalid state count t=7 for n=6 at offset 36"),
    ],
    ids=["duplicate-id", "descending-id", "id-range-overflow", "nan-coord", "inf-coord",
         "huge-coord", "index-u", "state-index-t", "nan-r", "negative-r", "inf-r", "nan-R",
         "negative-R", "minus-inf-R", "bad-fcl", "non-utf8-fcl", "unknown-flag", "zero-k", "zero-u", "u-above-n",
         "zero-t", "t-above-n"],
)
def test_load_rejects_invalid_values(tmp_path, ids, offset, fmt, value, message):
    bad = _rewritten(_saved_uncertain_pair_model(ids), offset, fmt, value)
    with pytest.raises(ModelFormatError, match=re.escape(message)):
        load(io.BytesIO(bad))
    path = tmp_path / "bad.fzg"
    path.write_bytes(bad)
    assert run(["info", str(path)]) == 2


def test_load_rejects_nan_vertex_in_fcl_block():
    text = default_fcl_text().replace("(0.0, 0.0) (1.0, 1.0);", "(0.0, 0.0) (0.5, 1.0) (1.0, 1.0);", 1)
    blob = roundtrip(build(graph_from_edges(UNCERTAIN_PAIR_EDGES), k=2, seed=0, fcl_text=text))[2]
    assert blob.count(b"(0.5, 1.0)") == 1
    bad = bytearray(blob.replace(b"(0.5, 1.0)", b"(nan, 1.0)"))
    struct.pack_into("<I", bad, len(bad) - 4, zlib.crc32(bytes(bad[:-4])))
    with pytest.raises(ModelFormatError, match=re.escape("does not parse: line 10: expected number, got 'nan'")):
        load(io.BytesIO(bytes(bad)))


@pytest.mark.parametrize("offset, value, message", [
    # index 2 of the point field, bits 6..8: its top bit, the first of byte
    # 245, set turns 2 into 6, named by byte 244, which holds its first bit
    (_STATE_POINT + 1, 0b11000111, "point index out of range at offset 244"),
    # index 5 of the state field, bits 15..17: bit 1 of the last byte set
    # turns 3 into 7, named by byte 248, which holds its first bit
    (_STATE_INDEX + 2, 0b00000011, "state index out of range at offset 248"),
], ids=["point", "state"])
def test_packed_index_out_of_range_names_its_first_byte(tmp_path, offset, value, message):
    bad = _rewritten(_saved_uncertain_pair_model("range"), offset, "<B", value)
    with pytest.raises(ModelFormatError, match=re.escape(message)):
        load(io.BytesIO(bad))
    path = tmp_path / "bad.fzg"
    path.write_bytes(bad)
    assert run(["info", str(path)]) == 2


@pytest.mark.parametrize("bit", [2, 7])
@pytest.mark.parametrize("offset", [_STATE_POINT + 2, _STATE_INDEX + 2], ids=["point", "state"])
def test_set_padding_bit_rejected(offset, bit):
    # bits 0 and 1 of a packed field's last byte hold its last index; 2..7 are padding
    blob = _saved_uncertain_pair_model("range")
    assert blob[offset] >> 2 == 0
    bad = _rewritten(blob, offset, "<B", blob[offset] | 1 << bit)
    with pytest.raises(ModelFormatError, match=re.escape(f"nonzero padding bits at offset {offset}")):
        load(io.BytesIO(bad))


@pytest.mark.parametrize("u, t", [(u, t) for u, t in itertools.product([1, 2, 3, 256, 257], repeat=2)
                                  if u <= t])
def test_packed_indices_roundtrip_at_width_edges(u, t):
    # state s is on point s % u with r = s, node v in state v % t: the widths
    # (u - 1).bit_length() and (t - 1).bit_length() run 0, 1, 2, 8 and 9
    n = t + 3
    state = np.arange(n) % t
    cg = manual_model(np.column_stack([state % u, np.zeros(n)]), r=state.astype(float),
                      R=[np.inf] * n)
    assert (cg.u, cg.states.t) == (u, t)
    loaded, nbytes, _ = roundtrip(cg)
    assert nbytes == model_size(cg)
    assert loaded.points_t.tobytes() == cg.points_t.tobytes()
    assert [a.tobytes() for a in loaded.states] == [a.tobytes() for a in cg.states]
    assert loaded.states.point.dtype == loaded.states.index.dtype == np.intp


def test_load_accepts_crossed_radii_of_built_models():
    """Quantized radii may cross (R <= r) and stay sound; the loader must accept them."""
    crossed = touching = 0
    for g, i in soundness_corpus(52):
        for k in (2, 4, 8, 16):
            cg = build(g, k=k, seed=i, quantize=True)
            loaded, _, _ = roundtrip(cg)
            r, R = loaded.radii.r, loaded.radii.R
            both = (r != -1.0) & np.isfinite(R)
            crossed += int((both & (R < r)).sum())
            touching += int((both & (R == r)).sum())
    assert crossed > 0 and touching > 0


# 1 to 3 are the retired layouts and 5 a future one; load reads the version
# before any length or CRC check, so a rewritten header takes their path
@pytest.mark.parametrize("version", [0, 1, 2, 3, 5])
def test_other_format_versions_rejected(uncertain_pair_graph, tmp_path, version):
    blob = _rewritten(roundtrip(build(uncertain_pair_graph, k=2, seed=0))[2], 4, "<I", version)
    message = f"unsupported format version {version} at offset 4"
    with pytest.raises(ModelFormatError, match=re.escape(message)):
        load(io.BytesIO(blob))
    path = tmp_path / f"v{version}.fzg"
    path.write_bytes(blob)
    assert run(["info", str(path)]) == 2


@pytest.mark.parametrize("ids, id_range", [
    ([5, 9, 40], False),
    ([2**63, 2**63 + 1, 2**63 + 2], True),
    ([2**64 - 3, 2**64 - 2, 2**64 - 1], True),  # the last range the format holds
], ids=["gaps", "high-range", "top-range"])
def test_ids_survive_roundtrip(ids, id_range):
    cg = build(graph_from_edges([(ids[0], ids[1]), (ids[1], ids[2])]), k=1, seed=0)
    loaded, nbytes, blob = roundtrip(cg)
    assert loaded.external_ids.tolist() == ids and loaded.external_ids.dtype == np.uint64
    assert bool(struct.unpack_from("<I", blob, 8)[0] & 4) == id_range
    assert nbytes == model_size(cg)
    assert struct.unpack_from("<Q", blob, 44)[0] == ids[0]
    assert [loaded.internal_id(e) for e in ids] == [0, 1, 2]


def test_loaded_radii_are_the_built_bytes():
    # states group radii by their bits, so each node gets its own r and R back
    for g, i in soundness_corpus(12):
        for quantize in (False, True):
            cg = build(g, k=4, seed=i, quantize=quantize)
            loaded = roundtrip(cg)[0]
            assert cg.states.t <= cg.n
            assert loaded.radii.r.tobytes() == cg.radii.r.tobytes()
            assert loaded.radii.R.tobytes() == cg.radii.R.tobytes()
            assert np.array_equal(loaded.embedding.coords, cg.embedding.coords)


def test_signed_zero_rows_share_a_point():
    # -0.0 and 0.0 compare equal, so the file stores one point for both
    # rows; the kernel squares every difference, so distances keep their bits
    coords = [[0.0, 1.0], [-0.0, 1.0], [2.0, -0.0], [2.0, 0.0], [0.5, 3.0]]
    cg = manual_model(coords, r=[-1.0] * 5, R=[np.inf] * 5)
    loaded, nbytes, _ = roundtrip(cg)
    assert group_points(cg.embedding.coords).u == 3
    assert nbytes == model_size(cg)
    us, vs = np.triu_indices(5, 1)
    before = pair_distances(cg.embedding.coords, us, vs)
    after = pair_distances(loaded.embedding.coords, us, vs)
    assert before.tobytes() == after.tobytes()
    assert np.array_equal(loaded.embedding.coords, cg.embedding.coords)


def test_save_refuses_more_points_than_u32_indices_address(uncertain_pair_graph):
    cg = build(uncertain_pair_graph, k=2, seed=0)
    # a broadcast view claims 2**32 + 1 points without allocating them; the
    # model is frozen, so the view goes in through its instance dict
    vars(cg)["points_t"] = np.broadcast_to(cg.points_t[:, :1], (cg.k, 2**32 + 1))
    with pytest.raises(ValueError, match=re.escape("4294967297 distinct points exceed")):
        save(cg, io.BytesIO())


@pytest.mark.parametrize("offset, fmt, value", [
    (12, "<Q", 2**64 - 1),  # n
    (20, "<I", 2**32 - 1),  # k
    (24, "<I", 2**32 - 1),  # fcl_len
    (28, "<Q", 5),  # u, still in 1..n
    (36, "<Q", 5),  # t, still in 1..n
])
def test_header_sizes_checked_before_any_array(uncertain_pair_graph, offset, fmt, value):
    # a header claiming more than the stream holds fails on the length
    # check, before a single array is made from it
    buf = io.BytesIO()
    save(build(uncertain_pair_graph, k=2, seed=0), buf)
    bad = _rewritten(buf.getvalue(), offset, fmt, value)
    with pytest.raises(ModelFormatError, match="truncated or oversized stream"):
        load(io.BytesIO(bad))


# --- loader fuzz: a mutant loads as a valid model or raises ModelFormatError --

_FUZZ_CG = build(gnp_random_graph(16, 0.2, seed=1), k=2, seed=0)  # u = 9, t = 11 of n = 16


def _fuzz_base(cg: CompressedGraph, id_count: int) -> tuple[bytes, np.ndarray]:
    """A saved stream and its part boundaries: header, id block, points,
    state radii, state point indices, state indices, FCL (CRC excluded).
    Both index fields take 4 bits an index: 44 bits (6 bytes, the top 4
    bits padding) for the 11 point indices, 64 bits for the 16 state indices."""
    fcl_len = len(cg.fcl_text.encode("utf-8"))
    return roundtrip(cg)[2], np.cumsum([0, 44, 8 * id_count, 8 * 9 * 2, 16 * 11, 6, 8, fcl_len])


# ids 0..15 store lo alone; the same model with ids 3i + 5 stores all 16
_FUZZ_BASES = [_fuzz_base(_FUZZ_CG, 1),
               _fuzz_base(remodel(_FUZZ_CG, external_ids=_FUZZ_CG.external_ids * 3 + 5), 16)]
_HEADER_FIELDS = [(4, "<I"), (8, "<I"), (12, "<Q"), (20, "<I"), (24, "<I"), (28, "<Q"), (36, "<Q")]
# array parts by index into a base's part boundaries, with their element
# format; the packed index fields are rewritten a byte at a time
_ARRAY_FIELDS = [(1, "<Q"), (2, "<d"), (3, "<d"), (4, "<B"), (5, "<B")]
_PACKED_PARTS = [4, 5]


def _with_crc(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


def _field_value(fmt: str):
    if fmt == "<d":
        return st.one_of(st.floats(), st.sampled_from([1e300, -1e154, 5e153, -0.0, -1.0]))
    top = 2 ** (8 * struct.calcsize(fmt)) - 1
    return st.one_of(st.integers(0, min(top, 40)),
                     st.sampled_from([top, top // 2, min(top, 2**32), min(top, 2**32 - 1)]),
                     st.integers(0, top))


@st.composite
def _mutants(draw) -> bytes:
    """A fuzz base stream with byte flips, bit flips in the packed index
    fields (padding included), a truncation, one rewritten header or array
    field, or its id block swapped for the other form (flag bit2 toggled);
    the CRC is recomputed, so value checks run."""
    blob, parts = draw(st.sampled_from(_FUZZ_BASES))
    body = bytearray(blob[:-4])
    kind = draw(st.sampled_from(["flip", "bits", "truncate", "header", "array", "id-form"]))
    if kind == "flip":
        for _ in range(draw(st.integers(1, 4))):
            # header and arrays are small next to the FCL text: pick a part first
            part = draw(st.integers(0, len(parts) - 2))
            lo, hi = int(parts[part]), int(parts[part + 1])
            body[draw(st.integers(lo, hi - 1))] ^= 1 << draw(st.integers(0, 7))
    elif kind == "bits":
        for _ in range(draw(st.integers(1, 3))):
            part = draw(st.sampled_from(_PACKED_PARTS))
            bit = draw(st.integers(8 * int(parts[part]), 8 * int(parts[part + 1]) - 1))
            body[bit // 8] ^= 1 << bit % 8
    elif kind == "truncate":
        del body[draw(st.integers(0, len(body) - 1)):]
    elif kind == "header":
        offset, fmt = draw(st.sampled_from(_HEADER_FIELDS))
        struct.pack_into(fmt, body, offset, draw(_field_value(fmt)))
    elif kind == "array":
        part, fmt = draw(st.sampled_from(_ARRAY_FIELDS))
        size = struct.calcsize(fmt)
        count = (parts[part + 1] - parts[part]) // size
        offset = int(parts[part]) + size * draw(st.integers(0, count - 1))
        struct.pack_into(fmt, body, offset, draw(_field_value(fmt)))
    else:
        flags = struct.unpack_from("<I", body, 8)[0] ^ 4
        struct.pack_into("<I", body, 8, flags)
        if flags & 4:  # now a range: lo alone
            block = [draw(_field_value("<Q"))]
        else:  # now n ids, sorted or not
            block = draw(st.lists(st.integers(0, 2**64 - 1), min_size=16, max_size=16))
            if draw(st.booleans()):
                block.sort()
        body[int(parts[1]):int(parts[2])] = struct.pack(f"<{len(block)}Q", *block)
    return _with_crc(bytes(body))


def _check_loaded_model(cg: CompressedGraph) -> None:
    """Every property the loader promises of a model it returns."""
    assert cg.n == len(cg.radii.r) == len(cg.radii.R) == len(cg.external_ids) >= 1 and cg.k >= 1
    assert np.all(cg.external_ids[1:] > cg.external_ids[:-1])
    assert np.all(np.isfinite(cg.embedding.coords))
    assert cg.embedding.coords.flags.f_contiguous
    r, R = cg.radii.r, cg.radii.R
    assert np.all((r == -1.0) | (np.isfinite(r) & (r >= 0.0)))
    assert np.all((R == np.inf) | (np.isfinite(R) & (R >= 0.0)))
    assert cg.fuzzy == parse_fcl(cg.fcl_text)
    for array in (cg.external_ids, cg.embedding.coords, r, R, cg.points_t, *cg.states):
        assert not array.flags.writeable
    assert cg.states.point.dtype == cg.states.index.dtype == np.intp
    assert_scan_rows_match_kernel(cg)
    assert "pair_table" not in vars(cg)  # load never builds it
    # the loaded points and states are the grouping the constructor makes of
    # the per-node parts, and answer every pair as it does
    rebuilt = remodel(cg)
    assert rebuilt.points_t.tobytes() == cg.points_t.tobytes()
    assert [a.tobytes() for a in rebuilt.states] == [a.tobytes() for a in cg.states]
    if cg.n >= 2:
        us, vs = np.nonzero(~np.eye(cg.n, dtype=bool))
        definite, value = query_arrays(cg, us, vs)
        assert np.all((value >= 0.0) & (value <= 1.0))
        assert np.all(np.isin(value[definite], (0.0, 1.0)))
        assert b"".join(a.tobytes() for a in query_arrays(rebuilt, us, vs)) == \
            definite.tobytes() + value.tobytes()
        t = cg.states.t
        # a 16-node model's side cells hold far fewer than 254 fuzzy values: one-byte codes
        assert (cg.pair_table is None) == (not cg._fits_table(8 * cg.u**2)
                                                or not cg._fits_table(t * t))
        if cg.pair_table is not None:
            assert cg.pair_table.codes.shape == (t, t) and cg.pair_table.codes.dtype == np.uint8
            assert not any(array.flags.writeable for array in cg.pair_table)
    again, _, _ = roundtrip(cg)  # what load accepts, save writes back
    assert np.array_equal(again.embedding.coords, cg.embedding.coords)
    assert np.array_equal(again.external_ids, cg.external_ids)
    assert again.radii.r.tobytes() == r.tobytes() and again.radii.R.tobytes() == R.tobytes()


def test_fuzz_base_model_loads():
    assert group_points(_FUZZ_CG.embedding.coords).u == 9
    assert _FUZZ_CG.states.t == 11
    for blob, parts in _FUZZ_BASES:
        cg = load(io.BytesIO(blob))
        assert len(blob) == model_size(cg) == parts[-1] + 4
        _check_loaded_model(cg)


@settings(max_examples=400, deadline=None)
@given(blob=_mutants(), table=st.booleans())
def test_mutated_streams_fail_cleanly_or_load_valid(blob, table):
    # the base model (u = 9, k = 2, n = 16) is outside the u**2 <= k * n
    # condition; a raised cap gives a mutant a pair table too
    with pytest.MonkeyPatch.context() as mp:
        if table:
            mp.setattr(oracle, "_TABLE_COORD_RATIO", _TABLE_ALWAYS)
        try:
            cg = load(io.BytesIO(blob))
        except ModelFormatError as exc:
            event(f"rejected: {re.match('[A-Za-z ]*', str(exc)).group().strip()}")
            return
        _check_loaded_model(cg)
        event("loaded with a pair table" if cg.pair_table is not None else "loaded")


# --- the loader accepts only the order save writes ---------------------------


def _reordered(cg: CompressedGraph, case: str) -> tuple[CompressedGraph, str]:
    """cg held with its points or states out of node_states order (unchecked),
    and the error load must raise for its stream. save writes a model's
    points and states as held, so the stream has them in that order too.
    The ids of cg are a range, so the points start at offset 52."""
    pts, (point, r, R, index) = cg.points_t, cg.states
    k, u, t = cg.k, cg.u, cg.states.t
    radii_at = 52 + 8 * u * k
    if case in ("reversed", "interleaved"):  # the same nodes, states listed in another order
        if case == "reversed":
            order = np.arange(t)[::-1]
        else:  # the states of point 1, then those of point 0, then the rest
            order = np.concatenate([np.flatnonzero(point == 1), np.flatnonzero(point == 0),
                                    np.flatnonzero(point > 1)])
        first_down = np.flatnonzero(np.diff(order) < 0)[0] + 1
        message = f"node states out of order at offset {radii_at + 16 * first_down}"
        point, r, R, index = point[order], r[order], R[order], np.argsort(order)[index]
    elif case == "duplicated":  # state 0 listed twice
        point, r, R = (np.insert(a, 1, a[0]) for a in (point, r, R))
        index = index + (index >= 1)
        message = f"node states out of order at offset {radii_at + 16}"
    elif case == "unused":  # a last point, with a state no node is in
        pts = np.column_stack([pts, pts[:, -1] + 1.0])
        point, r, R = np.append(point, u), np.append(r, -1.0), np.append(R, np.inf)
        message = f"node state without a node at offset {radii_at + 8 * k + 16 * t}"
    elif case == "stateless point":  # a last point no state is on
        pts = np.column_stack([pts, pts[:, -1] + 1.0])
        message = f"point without a node state at offset {52 + 8 * k * u}"
    elif case == "points swapped":  # points 0 and 1, each state still on its point
        swap = np.array([1, 0, *range(2, u)])
        pts, point = pts[:, swap], swap[point]
        message = f"points out of order at offset {52 + 8 * k}"
    else:  # "point repeated": point 0 twice
        pts = np.insert(pts, 1, pts[:, 0], axis=1)
        point = point + (point >= 1)
        message = f"points out of order at offset {52 + 8 * k}"
    states = oracle.NodeStates(point.astype(np.intp), r.copy(), R.copy(), index.astype(np.intp))
    held = CompressedGraph.from_states(np.array(pts), states, cg.directed, cg.quantized, cg.fuzzy,
                                       cg.external_ids, cg.fcl_text)
    return held, message


@pytest.mark.parametrize("case", ["reversed", "interleaved", "duplicated", "unused",
                                  "stateless point", "points swapped", "point repeated"])
def test_load_accepts_only_the_order_save_writes(case, tmp_path):
    held, message = _reordered(_FUZZ_CG, case)
    blob = io.BytesIO()
    save(held, blob)
    with pytest.raises(ModelFormatError, match=re.escape(message)):
        load(io.BytesIO(blob.getvalue()))
    path = tmp_path / "bad.fzg"
    path.write_bytes(blob.getvalue())
    assert run(["info", str(path)]) == 2


def test_reordered_states_answer_alike_and_do_not_load():
    # G(60, 0.1) at k = 3, held unchecked with its states in reverse, or with
    # the states of point 1 before those of point 0: with or without a pair
    # table, every pair answers the ordered model's bytes; only the file
    # keeps one order
    g = gnp_random_graph(60, 0.1, seed=0)
    us, vs = np.nonzero(~np.eye(g.n, dtype=bool))  # every ordered pair
    answers = set()
    for cap in SOURCES.values():
        cg = build(g, k=3, seed=0)
        held = [_reordered(cg, case)[0] for case in ("reversed", "interleaved")]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_TABLE_COORD_RATIO", cap)
            for model in (cg, *held):
                answers.add(b"".join(a.tobytes() for a in query_arrays(model, us, vs)))
                assert (model.pair_table is None) == (cap == 0)
    assert len(answers) == 1
    for model in held:
        assert not np.array_equal(model.states.point, cg.states.point)
        blob = io.BytesIO()
        save(model, blob)
        with pytest.raises(ModelFormatError, match="node states out of order at offset"):
            load(io.BytesIO(blob.getvalue()))


# --- the pair table's distance source ----------------------------------------

_TABLE_ALWAYS = 2**40  # a cap no test model reaches: every model scores a pair table


def assert_scan_rows_match_kernel(cg: CompressedGraph) -> None:
    """The radii scan's distance rows equal the distances queries use, bit
    for bit: the _block_distances rows of each span of points lo..hi-1 (a
    single point, a span that starts partway, all of them), gathered
    through each node's point, equal distances_from and pair_distances
    both ways round on the nodes' coordinates."""
    coords, index, u = cg.embedding.coords, cg.states.point.take(cg.states.index), cg.u
    ids = np.arange(cg.n)
    rows = [distances_from(coords, v).tobytes() for v in ids]
    for v in ids:
        assert rows[v] == pair_distances(coords, np.full(cg.n, v), ids).tobytes()
        assert rows[v] == pair_distances(coords, ids, np.full(cg.n, v)).tobytes()
    out, tmp = np.empty((2, u, u))
    for lo, hi in itertools.combinations(range(u + 1), 2):
        span = _block_distances(cg.points_t, lo, hi, out, tmp)
        for v in np.flatnonzero((index >= lo) & (index < hi)):
            assert span[index[v] - lo].take(index).tobytes() == rows[v]


# a few values with both zero signs put many nodes on one point (u < n)
POOL_COORD = st.sampled_from([0.0, -0.0, 1.0, -2.5, 3.0])


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(2, 3 * _BLOCK + 1), k=st.integers(1, 8),
       pooled=st.booleans())
def test_side_rows_bitwise_equal_kernel(data, n, k, pooled):
    if pooled:
        coords = data.draw(arrays(np.float64, (n, k), elements=POOL_COORD))
    else:  # unique elements: every row distinct, u = n
        coords = data.draw(arrays(np.float64, (n, k), elements=st.floats(-1e6, 1e6), unique=True))
    cg = manual_model(coords, r=[-1.0] * n, R=[np.inf] * n)
    # the radii a scan derives from its rows are sound only for the distances queries compute
    assert cg.u == group_points(cg.embedding.coords).u and (pooled or cg.u == n)
    assert_scan_rows_match_kernel(cg)


# radii around the pool's distances (0 to ~10), with both sentinels
POOL_r = st.sampled_from([oracle.R_NONE, 0.0, 0.5, 1.0, 3.0])
POOL_R = st.sampled_from([0.5, 2.0, 6.0, 12.0, np.inf])

# disjoint input terms and one-sample output spikes: crisp inputs below 0.4
# answer 0.0, above 0.6 1.0, and from 0.4 to 0.6 no rule fires and DEFAULT
# answers -0.0, so fuzzy sides tie, and 0.0 meets -0.0 until _side_values
# turns every -0.0 into 0.0
ZEROS_AND_ONES_FCL = DEFAULT_FCL.replace(
    "TERM close_to_r := (0.0, 0.0) (1.0, 1.0);",
    "TERM close_to_r := (0.6, 0.0) (0.7, 1.0) (1.0, 1.0);").replace(
    "TERM close_to_R := (0.0, 1.0) (1.0, 0.0);",
    "TERM close_to_R := (0.0, 1.0) (0.3, 1.0) (0.4, 0.0);").replace(
    "TERM adjacent := (0.0, 0.0) (1.0, 1.0);",
    "TERM adjacent := (0.9995, 0.0) (1.0, 1.0);").replace(
    "TERM non_adjacent := (0.0, 1.0) (1.0, 0.0);",
    "TERM non_adjacent := (0.0, 1.0) (0.0005, 0.0);").replace(
    "DEFAULT := 0.5;", "DEFAULT := -0.0;")
TABLE_FCLS = {**FCL_VARIANTS, "zeros_and_ones": ZEROS_AND_ONES_FCL}

# each answer source as the cap at the model's first query, which builds the
# pair table when the cap leaves room for it
SOURCES = {"kernel": 0, "pair table": _TABLE_ALWAYS}


def test_zeros_and_ones_system_answers_both_zeros_and_one():
    system = parse_fcl(ZEROS_AND_ONES_FCL)
    out = oracle.evaluate_many(system, [0.0, 0.2, 0.35, 0.5, 0.65, 0.8, 1.0])
    assert out.tolist() == [0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0]
    assert np.signbit(out).tolist() == [False, False, False, True, False, False, False]


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_a_negative_zero_output_answers_zero(source):
    # d = 1 between r = 0 and R = 2: the crisp input 0.5 fires no rule, so
    # the system answers its DEFAULT, -0.0
    cap = SOURCES[source]
    cg = manual_model([[0.0], [1.0]], r=[0.0, 0.0], R=[2.0, 2.0], fcl_text=ZEROS_AND_ONES_FCL)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_TABLE_COORD_RATIO", cap)
        definite, value = query_arrays(cg, [0, 1], [1, 0])
    assert (cg.pair_table is None) == (cap == 0)
    assert not definite.any() and value.tobytes() == np.zeros(2).tobytes()


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(2, 30), k=st.integers(1, 4), directed=st.booleans(),
       quantize=st.booleans(), handmade=st.booleans(), fcl=st.sampled_from(sorted(TABLE_FCLS)),
       side_block=st.sampled_from([1, 7, oracle._SIDE_BLOCK]))
def test_pair_table_answers_equal_the_middle_path_bytes(data, n, k, directed, quantize, handmade,
                                                        fcl, side_block):
    text = TABLE_FCLS[fcl]
    if handmade:  # pooled points and radii: d == r and d == R ties, both sentinels
        coords = data.draw(arrays(np.float64, (n, k), elements=POOL_COORD))
        r = data.draw(arrays(np.float64, n, elements=POOL_r))
        R = data.draw(arrays(np.float64, n, elements=POOL_R))
        make = lambda: manual_model(coords, r, R, directed=directed, fcl_text=text)
    else:
        g = gnp_random_graph(n, data.draw(st.sampled_from([0.1, 0.3, 0.6])),
                             seed=data.draw(st.integers(0, 999)), directed=directed)
        seed = data.draw(st.integers(0, 999))
        make = lambda: build(g, k=k, seed=seed, quantize=quantize, fcl_text=text)
    us, vs = np.nonzero(~np.eye(n, dtype=bool))  # every ordered pair
    answers = set()
    for source, cap in SOURCES.items():
        cg = make()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_TABLE_COORD_RATIO", cap)
            # side blocks of one cell up to all of them: one state a block up to
            # all states, so a block boundary may split one point's states
            mp.setattr(oracle, "_SIDE_BLOCK", side_block)
            definite, value = query_arrays(cg, us, vs)
        assert (cg.pair_table is None) == (cap == 0)
        # one pair a call runs numpy's scalar loops, a batch its SIMD loops
        for i in range(0, len(us), max(1, len(us) // 16)):
            one = query_arrays(cg, us[i:i + 1], vs[i:i + 1])
            assert one[0].tobytes() + one[1].tobytes() == \
                definite[i:i + 1].tobytes() + value[i:i + 1].tobytes()
        answers.add(definite.tobytes() + value.tobytes())
    fuzzy = value[~definite]
    event(f"fuzzy answers of 0.0: {np.any(fuzzy == 0.0)}, 1.0: {np.any(fuzzy == 1.0)}")
    assert len(answers) == 1
    assert not np.any(np.signbit(value))  # a -0.0 output answers 0.0


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(2, 12), k=st.integers(1, 3), directed=st.booleans(),
       fcl=st.sampled_from(sorted(TABLE_FCLS)))
def test_answers_follow_the_rule_from_either_source(data, n, k, directed, fcl):
    # pooled points and radii: d == r and d == R ties, both sentinels, and
    # with the zeros-and-ones system fuzzy sides of 0.0, -0.0 and 1.0
    coords = data.draw(arrays(np.float64, (n, k), elements=POOL_COORD))
    r = data.draw(arrays(np.float64, n, elements=POOL_r))
    R = data.draw(arrays(np.float64, n, elements=POOL_R))
    text = TABLE_FCLS[fcl]
    us, vs = np.nonzero(~np.eye(n, dtype=bool))  # every ordered pair
    system = parse_fcl(text)
    rows, r_list, R_list = coords.tolist(), r.tolist(), R.tolist()
    expected = [answer_oracle(system, rows, r_list, R_list, directed, u, v)
                for u, v in zip(us.tolist(), vs.tolist())]
    definite, value = zip(*expected)
    want = np.array(definite).tobytes() + np.array(value).tobytes()
    for source, cap in SOURCES.items():
        cg = manual_model(coords, r, R, directed=directed, fcl_text=text)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_TABLE_COORD_RATIO", cap)
            definite, value = query_arrays(cg, us, vs)
        assert (cg.pair_table is None) == (cap == 0)
        assert definite.tobytes() + value.tobytes() == want, source
    event(f"definite: {0 < definite.sum()}, fuzzy: {definite.sum() < definite.size}")


def test_side_codes_do_not_depend_on_the_block_size():
    # 6 points holding 1 to 4 states each, so blocks of every size from one
    # state to all of them start partway through the points and split a point
    counts = [3, 1, 4, 2, 1, 3]
    point = np.repeat(np.arange(6), counts)
    state = np.concatenate([np.arange(c) for c in counts])
    coords = np.random.default_rng(3).uniform(0.0, 10.0, (6, 2))[point]
    cg = manual_model(coords, r=0.5 * state, R=12.0 + state)
    states = cg.states
    assert (cg.u, states.t) == (6, 14)
    sides = set()
    for rows in range(1, states.t + 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_SIDE_BLOCK", rows * cg.u)
            codes, decode = oracle._side_codes(cg.points_t, states, cg.fuzzy, 2**16)
        sides.add(codes.tobytes() + decode.tobytes())
    assert len(sides) == 1 and decode.size > 10  # one coding, of many fuzzy values


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(2, 30), k=st.integers(1, 4), directed=st.booleans(),
       handmade=st.booleans(), fcl=st.sampled_from(sorted(TABLE_FCLS)),
       block_states=st.sampled_from([1, 7, None]))
def test_side_codes_are_the_ranks_of_the_side_keys(data, n, k, directed, handmade, fcl,
                                                   block_states):
    text = TABLE_FCLS[fcl]
    if handmade:  # pooled points and radii: d == r and d == R ties, both sentinels
        coords = data.draw(arrays(np.float64, (n, k), elements=POOL_COORD))
        r = data.draw(arrays(np.float64, n, elements=POOL_r))
        R = data.draw(arrays(np.float64, n, elements=POOL_R))
        cg = manual_model(coords, r, R, directed=directed, fcl_text=text)
    else:
        g = gnp_random_graph(n, data.draw(st.sampled_from([0.1, 0.3, 0.6])),
                             seed=data.draw(st.integers(0, 999)), directed=directed)
        cg = build(g, k=k, seed=data.draw(st.integers(0, 999)), fcl_text=text)
    states, u = cg.states, cg.u
    # every side key in one piece: each state against each point
    d = pair_distances(cg.points_t.T, states.point.repeat(u), np.tile(np.arange(u), states.t))
    keys = oracle._side_values(d.reshape(1, states.t, u), states.r[None, :, None],
                               states.R[None, :, None], cg.fuzzy)[0]
    fixed = [oracle._KEY_YES, oracle._KEY_NO, oracle._KEY_UNSCORED]
    ranked, rank = np.unique(np.concatenate([fixed, keys.ravel()]), return_inverse=True)
    assert rank[:3].tolist() == [0, 1, ranked.size - 1]
    block = oracle._SIDE_BLOCK if block_states is None else block_states * u
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_SIDE_BLOCK", block)
        codes, decode = oracle._side_codes(cg.points_t, states, cg.fuzzy, ranked.size)
        assert oracle._side_codes(cg.points_t, states, cg.fuzzy, ranked.size - 1) is None
    assert codes.dtype == np.min_scalar_type(ranked.size - 1)
    assert np.array_equal(codes, rank[3:].reshape(states.t, u))
    assert decode.tobytes() == oracle._answers(ranked)[1].tobytes()


def test_pair_table_is_kept_up_to_the_coordinates_bytes():
    # k = 1, n = 8: 8 node states on 2 points, one-byte codes: 64 bytes = 8 * k * n
    at_cap = manual_model([[0.0]] * 4 + [[5.0]] * 4, r=[-1.0, 0.0, 1.0, 2.0] * 2, R=[np.inf] * 8)
    # k = 1, n = 10: 9 node states, 81 bytes, one cell over the 80-byte cap
    over_cap = manual_model([[0.0]] * 5 + [[5.0]] * 5, R=[np.inf] * 10,
                            r=[-1.0, 0.0, 1.0, 2.0, 3.0, -1.0, 0.0, 1.0, 2.0, 2.0])
    for cg, t in ((at_cap, 8), (over_cap, 9)):
        assert cg.states.t == t and cg._fits_table(8 * cg.u**2)
    table = at_cap.pair_table
    assert table.codes.shape == (8, 8) and table.codes.dtype == np.uint8
    assert table.codes.nbytes == at_cap.embedding.coords.nbytes == 64
    assert over_cap.pair_table is None


def test_pair_table_gives_up_once_its_codes_outgrow_the_cap():
    # k = 1, n = 400: 20 points (u**2 = k * n), 50 states of distinct radii, so
    # hundreds of distinct fuzzy sides; 50**2 codes fit the 3,200-byte cap in
    # one byte each, not in two
    n, t = 400, 50
    state = np.arange(n) % t
    coords = np.random.default_rng(5).uniform(0.0, 100.0, 20)[state % 20, None]
    make = lambda: manual_model(coords, r=0.5 + 0.01 * state, R=200.0 + state)
    scored = []

    def counting(*args):
        scored.append(args)
        return side_values(*args)

    side_values = oracle._side_values
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_SIDE_BLOCK", 20)  # one state a block
        mp.setattr(oracle, "_side_values", counting)
        capped = make()
        assert capped.u == 20 and capped.states.t == t
        assert capped._fits_table(8 * capped.u**2) and capped.pair_table is None
        assert len(scored) < t  # gave up before scoring every state
        mp.setattr(oracle, "_TABLE_COORD_RATIO", 2)  # room for two-byte codes
        wide = make()
        codes = wide.pair_table.codes
    assert codes.dtype == np.uint16 and codes.max() > 255
    # the scoring gives up exactly when the unscored code would not fit under max_codes
    states = wide.states
    count = wide.pair_table.decode.size
    for max_codes, fits in ((count, True), (count - 1, False)):
        sides = oracle._side_codes(wide.points_t, states, wide.fuzzy, max_codes)
        assert (sides is not None) == fits
    us, vs = np.nonzero(~np.eye(n, dtype=bool))
    assert b"".join(a.tobytes() for a in query_arrays(capped, us, vs)) == \
        b"".join(a.tobytes() for a in query_arrays(wide, us, vs))


def test_pair_table_is_built_on_the_first_query_only(uncertain_pair_graph, tmp_path, monkeypatch):
    def unexpected(*args):
        raise AssertionError("side keys scored")

    # the six-node model at k = 2 has u = 6 points, outside the u**2 <= k * n
    # = 12 condition; a raised cap gives it a pair table
    monkeypatch.setattr(oracle, "_TABLE_COORD_RATIO", _TABLE_ALWAYS)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_side_values", unexpected)  # the table is made of side keys
        cg = build(uncertain_pair_graph, k=2, seed=0)
        path = tmp_path / "model.fzg"
        oracle.save_file(cg, str(path))
        loaded = oracle.load_file(str(path))
        assert "pair_table" not in vars(cg) and "pair_table" not in vars(loaded)
    # the table is derived from the points and states, so neither a built nor
    # a loaded model lets them change under it; the per-node gathers are
    # read-only too
    for model in (cg, loaded):
        for array in (model.points_t, *model.states, model.external_ids, model.embedding.coords,
                      model.radii.r, model.radii.R):
            assert not array.flags.writeable
    for model in (cg, loaded):
        query(model, 0, 1)
        table = vars(model)["pair_table"]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_side_values", unexpected)
            query(model, 1, 2)
        assert table is model.pair_table  # built once, then cached
        assert not any(array.flags.writeable for array in table)
        for array in (table.codes, table.decode):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0


@pytest.mark.parametrize("quantize", [False, True], ids=["exact", "quantized"])
@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
def test_table_and_kernel_paths_answer_the_same_bytes(directed, quantize):
    g = gnp_random_graph(120, 0.05, seed=11, directed=directed)
    us, vs = np.nonzero(~np.eye(g.n, dtype=bool))  # every ordered pair
    answers = set()
    for source, cap in SOURCES.items():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_TABLE_COORD_RATIO", cap)
            cg = build(g, k=4, seed=3, quantize=quantize)
            loaded = roundtrip(cg)[0]
            for model in (cg, loaded):
                assert (model.pair_table is None) == (cap == 0)
            if cap:  # tables built: a batch computes no distance and scores no side
                mp.setattr(oracle, "pair_distances", None)
                mp.setattr(oracle, "_side_values", None)
            for model in (cg, loaded):
                definite, value = query_arrays(model, us, vs)
                answers.add(definite.tobytes() + value.tobytes())
    assert 0 < definite.sum() < definite.size  # definite and fuzzy answers both occur
    assert len(answers) == 1


def _model_on_points(points, n: int, directed: bool) -> CompressedGraph:
    """n nodes spread round-robin over the given distinct points."""
    points = np.asarray(points, dtype=float)
    return manual_model(points[np.arange(n) % len(points)], r=[-1.0] * n, R=[np.inf] * n,
                        directed=directed)


@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
def test_first_query_outside_the_u2_condition_scores_no_side(directed):
    # sides are scored only while 8 * u**2 <= 8 * k * n bytes. k = 2, n = 8:
    # up to u = 4 points
    points = [[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [3.0, 3.0], [5.0, 5.0]]
    at_cap = _model_on_points(points[:4], 8, directed)
    assert at_cap.u == 4 and at_cap.pair_table is not None
    over_cap = _model_on_points(points, 8, directed)
    distinct = _model_on_points(np.arange(12.0).reshape(6, 2), 6, directed)
    # G(120, 0.05) at k = 4: u**2 = 484 > k * n = 480
    built = build(gnp_random_graph(120, 0.05, seed=11, directed=directed), k=4, seed=3)
    assert (over_cap.u, distinct.u, built.u) == (5, 6, 22)

    def unexpected(*args):
        raise AssertionError("node states scored")

    for cg in (over_cap, distinct, built):
        # t**2 one-byte codes would fit the 8 * k * n-byte cap
        assert cg._fits_table(cg.states.t ** 2)
        us, vs = np.nonzero(~np.eye(cg.n, dtype=bool))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_side_codes", unexpected)
            definite, value = query_arrays(cg, us, vs)
            assert cg.pair_table is None
        assert np.all((value >= 0.0) & (value <= 1.0))
    assert 0 < definite.sum() < definite.size  # the built model answers both kinds
    for cg in (at_cap, over_cap, distinct, built):
        assert not any(array.flags.writeable for array in (cg.points_t, *cg.states))
        assert cg.states.point.dtype == cg.states.index.dtype == np.intp


def held_arrays(cg: CompressedGraph) -> list[np.ndarray]:
    """The arrays in the model's fields, and in the tuples among them."""
    values = [v for value in vars(cg).values()
              for v in (value if isinstance(value, tuple) else (value,))]
    return [v for v in values if isinstance(v, np.ndarray)]


def test_benchmark_model_keeps_its_pair_table(benchmark_model, tmp_path):
    # the query benchmark's model, BA(20000, 5) at k = 8: u = 148 points, far
    # inside u**2 <= k * n (u up to 400), so its first query scores a pair table
    cg = benchmark_model
    assert cg.u == 148
    assert cg._fits_table(8 * 400**2) and not cg._fits_table(8 * 401**2)
    loaded = roundtrip(cg)[0]
    assert loaded.points_t.tobytes() == cg.points_t.tobytes()
    assert [a.tobytes() for a in loaded.states] == [a.tobytes() for a in cg.states]
    # t = 522 node states, 2,527 codes in two bytes each,
    # 544,968 bytes of a cap of 8 * k * n = 1,280,000
    assert cg.states.t == 522
    for model in (cg, loaded):
        codes = model.pair_table.codes
        assert codes.shape == (522, 522) and codes.dtype == np.uint16 and codes.nbytes == 544968
    # the cap counts the code width: a byte under it drops the table, though
    # 522**2 one-byte codes would fit
    with pytest.MonkeyPatch.context() as mp:
        for nbytes, kept in ((544968, True), (544967, False)):
            mp.setattr(oracle, "_TABLE_COORD_RATIO", Fraction(nbytes, 8 * cg.k * cg.n))
            assert (roundtrip(cg)[0].pair_table is not None) == kept

    # load, the first query and save read the file's points and states as
    # they are: they never regroup the nodes or gather per-node arrays
    def regrouped(*args):
        raise AssertionError("nodes regrouped")

    path, again = tmp_path / "model.fzg", tmp_path / "again.fzg"
    oracle.save_file(cg, str(path))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "group_points", regrouped)
        mp.setattr(oracle, "node_states", regrouped)
        held = oracle.load_file(str(path))
        query_arrays(held, [0], [1])
        oracle.save_file(held, str(again))
    assert again.read_bytes() == path.read_bytes()
    assert "embedding" not in vars(held) and "radii" not in vars(held)
    assert "pair_table" in vars(held)
    # each array owns its buffer, so its nbytes is what it holds: the file's
    # points, states and ids, and the pair table
    arrays = held_arrays(held)
    assert all(a.base is None for a in arrays)
    assert all(a.size != held.n * held.k for a in arrays)
    assert sum(a.nbytes for a in arrays) <= 910_000
