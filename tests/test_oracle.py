import dataclasses
import io
import itertools
import math
import re
import struct
import zlib

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fuzzmap import (
    Answer,
    CompressedGraph,
    ModelFormatError,
    NodeRadii,
    adjacent,
    build,
    default_fcl_text,
    default_system,
    evaluate,
    fastmap_embed,
    gnp_random_graph,
    graph_from_edges,
    load,
    parse_fcl,
    preferential_attachment_graph,
    query,
    query_arrays,
    query_directed,
    save,
    to_fcl,
)
from fuzzmap import oracle
from fuzzmap.cli import run
from fuzzmap.fastmap import Embedding
from fuzzmap.radii import _BLOCK, _block_distances, distances_from, group_points, pair_distances

from conftest import HIGH_ID_EDGES, edgeless_graph, soundness_corpus

# 5-node digraph exhibiting asymmetric definite answers (found by search,
# stable for k=2, seed=0, quantized): arc 1->0 exists, 0->1 does not, and
# node 0's radii push the reverse query to a definite no.
DIGRAPH_ARCS = [(0, 2), (0, 3), (0, 4), (1, 0), (1, 4), (2, 4), (3, 1), (4, 1)]


def manual_model(coords, r, R, directed=False, quantized=False) -> CompressedGraph:
    coords = np.asarray(coords, dtype=float)
    sys = default_system()
    return CompressedGraph(
        embedding=Embedding(coords=coords),
        radii=NodeRadii(r=np.asarray(r, float), R=np.asarray(R, float), quantized=quantized),
        directed=directed,
        fuzzy=sys,
        external_ids=np.arange(coords.shape[0], dtype=np.uint64),
        fcl_text=to_fcl(sys),
    )


def test_complete_graph_all_definite_yes(k4_graph):
    cg = build(k4_graph, k=3, seed=1, quantize=False)
    for u, v in itertools.combinations(range(4), 2):
        assert query(cg, u, v) == Answer.definite(True)


def test_edgeless_graph_all_definite_no():
    g = edgeless_graph(4)
    for quantize in (False, True):
        cg = build(g, k=2, seed=3, quantize=quantize)
        for u, v in itertools.combinations(range(4), 2):
            assert query(cg, u, v) == Answer.definite(False)


def test_sample_model_pattern(uncertain_pair_graph):
    cg = build(uncertain_pair_graph, k=2, seed=0, quantize=True)
    one = cg.internal_id(1)
    assert query(cg, one, cg.internal_id(5)) == Answer.definite(True)
    for other in (3, 4, 6):
        assert query(cg, one, cg.internal_id(other)) == Answer.definite(False)
    uncertain = query(cg, one, cg.internal_id(2))
    assert uncertain.kind == "fuzzy"
    assert uncertain.value > 0.5  # node 2 sits closer to the smaller circle


def test_query_errors(uncertain_pair_graph):
    cg = build(uncertain_pair_graph, k=2, seed=0)
    with pytest.raises(ValueError, match="self query"):
        query(cg, 2, 2)
    with pytest.raises(ValueError, match="out of range"):
        query(cg, 0, 11)
    with pytest.raises(ValueError, match="use query_directed"):
        dg = build(graph_from_edges([(0, 1)], directed=True), k=1, seed=0)
        query(dg, 0, 1)
    with pytest.raises(ValueError, match="use query"):
        query_directed(cg, 0, 1)


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
            (query_directed if directed else query)(cg, *pair)
        assert str(batch.value) == str(scalar.value)


def test_empty_batch_answers_empty_arrays():
    # np.asarray([]) is float64, which the non-integer id check must let through
    cg = build(graph_from_edges(DIGRAPH_ARCS), k=2, seed=0)
    definite, value = query_arrays(cg, [], [])
    assert definite.shape == value.shape == (0,)


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
    assert all(q.kind == "fuzzy" for q in (query(cg, 0, v) for v in (1, 2, 3, 4)))
    assert likelihoods == sorted(likelihoods, reverse=True)


def test_single_sentinel_side_uses_other_side_alone():
    coords = [[0.0], [2.0]]
    cg = manual_model(coords, r=[-1.0, 0.5], R=[np.inf, 10.0])
    ans = query(cg, 0, 1)
    assert ans.kind == "fuzzy"
    expected = evaluate(cg.fuzzy, (10.0 - 2.0) / (10.0 - 0.5))
    assert ans.value == expected


def test_both_sentinel_sides_yield_half():
    coords = [[0.0], [2.0]]
    cg = manual_model(coords, r=[-1.0, -1.0], R=[np.inf, np.inf])
    assert query(cg, 0, 1) == Answer.fuzzy(0.5)
    # r sentinel with finite R on one side only: still no contribution
    cg2 = manual_model(coords, r=[-1.0, -1.0], R=[5.0, np.inf])
    ans = query(cg2, 0, 1)
    assert ans.kind == "fuzzy"
    assert ans.value == 0.5


def test_sentinel_never_definite_yes_directed():
    coords = [[0.0], [0.5]]
    cg = manual_model(coords, r=[-1.0, 3.0], R=[4.0, 5.0], directed=True)
    ans = query_directed(cg, 0, 1)  # r(0) = -1, d < R(0)
    assert ans.kind == "fuzzy"
    cg_rev = manual_model(coords, r=[3.0, -1.0], R=[4.0, 5.0], directed=True)
    assert query_directed(cg_rev, 0, 1) == Answer.definite(True)


def test_directed_two_cycle_definite_yes_both_ways():
    g = graph_from_edges([(0, 1), (1, 0)], directed=True)
    cg = build(g, k=2, seed=0, quantize=False)
    assert query_directed(cg, 0, 1) == Answer.definite(True)
    assert query_directed(cg, 1, 0) == Answer.definite(True)


def test_directed_asymmetric_answers():
    g = graph_from_edges(DIGRAPH_ARCS, directed=True)
    cg = build(g, k=2, seed=0, quantize=True)
    assert adjacent(g, 1, 0) and not adjacent(g, 0, 1)
    assert query_directed(cg, 0, 1) == Answer.definite(False)
    assert query_directed(cg, 1, 0) != Answer.definite(False)
    # definite answers stay sound against arc ground truth
    for u, v in itertools.permutations(range(g.n), 2):
        ans = query_directed(cg, u, v)
        if ans.is_definite:
            assert (ans.value == 1.0) == adjacent(g, u, v)


def test_build_validation(uncertain_pair_graph):
    with pytest.raises(ValueError, match="k must be >= 1"):
        build(uncertain_pair_graph, k=0, seed=0)
    singleton = edgeless_graph(1)
    with pytest.raises(ValueError, match="graph must have at least 2 nodes"):
        build(singleton, k=2, seed=0)


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
    assert loaded.embedding.pivots is None and loaded.embedding.seed is None


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
        dataclasses.replace(cg, embedding=short)
    with pytest.raises(ValueError, match="disagree in n"):
        dataclasses.replace(cg, radii=NodeRadii(cg.radii.r, cg.radii.R[:-1], cg.radii.quantized))
    with pytest.raises(ValueError, match="disagree in n"):
        dataclasses.replace(cg, external_ids=cg.external_ids[1:])


def test_fuzzy_system_must_match_fcl_text(uncertain_pair_graph):
    # save writes only fcl_text, so a disagreeing system would change
    # answers after save/load; the model refuses to hold such a pair
    cg = build(uncertain_pair_graph, k=2, seed=0)
    text = default_fcl_text().replace("DEFAULT := 0.5;", "DEFAULT := 0.25;")
    with pytest.raises(ValueError, match="does not match"):
        dataclasses.replace(cg, fcl_text=text)
    with pytest.raises(ValueError, match="does not match"):
        dataclasses.replace(cg, fuzzy=parse_fcl(text))
    matched = dataclasses.replace(cg, fcl_text=text, fuzzy=parse_fcl(text))
    assert roundtrip(matched)[0].fuzzy == matched.fuzzy


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
    """36-byte header, per node an id, a point index and two radii, u
    distinct points of k coordinates, the FCL text and the CRC."""
    u = group_points(cg.embedding.coords).u
    return 36 + 28 * cg.n + 8 * u * cg.k + len(cg.fcl_text.encode("utf-8")) + 4


def test_file_layout_exact_sizes():
    g = gnp_random_graph(100, 0.08, seed=77)
    cg = build(g, k=4, seed=0)
    _, nbytes, blob = roundtrip(cg)
    fcl_len = len(cg.fcl_text.encode("utf-8"))
    assert group_points(cg.embedding.coords).u == 27  # the embedding collapses
    assert nbytes == model_size(cg) == 36 + 28 * 100 + 8 * 27 * 4 + fcl_len + 4
    assert blob[:4] == b"FZG1"
    assert struct.unpack_from("<IQ", blob, 4)[0] == 2  # version
    assert struct.unpack_from("<Q", blob, 28)[0] == 27  # u
    # worst case, every row distinct: u = n, 4 bytes a node more than one
    # row per node
    distinct = manual_model(np.arange(12.0).reshape(6, 2), r=[-1.0] * 6, R=[np.inf] * 6)
    _, nbytes, _ = roundtrip(distinct)
    assert group_points(distinct.embedding.coords).u == 6
    assert nbytes == 36 + 28 * 6 + 8 * 6 * 2 + len(distinct.fcl_text.encode("utf-8")) + 4


def stream_node_bytes(blob: bytes) -> int:
    """The per-node part of a saved stream: its length less the header, the
    points, the FCL text and the CRC, with k, fcl_len and u read from the
    stream's own header."""
    _, _, _, _, k, fcl_len, u = struct.unpack_from("<4sIIQIIQ", blob, 0)
    return len(blob) - 36 - 8 * u * k - fcl_len - 4


def test_linear_growth_in_n():
    node_bytes = {}
    for n in (100, 200, 400):
        g = gnp_random_graph(n, 8.0 / n, seed=n)
        cg = build(g, k=4, seed=0)
        _, _, blob = roundtrip(cg)
        assert 1 <= struct.unpack_from("<Q", blob, 28)[0] == group_points(cg.embedding.coords).u <= n
        node_bytes[n] = stream_node_bytes(blob)
        assert len(blob) == model_size(cg)
    assert node_bytes[200] == 2 * node_bytes[100]
    assert node_bytes[400] == 4 * node_bytes[100]


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
    corrupted[40] ^= 0x01
    with pytest.raises(ModelFormatError, match="CRC mismatch at offset"):
        load(io.BytesIO(bytes(corrupted)))


def test_loaded_fuzzy_system_behaviorally_equal(uncertain_pair_graph):
    cg = build(uncertain_pair_graph, k=2, seed=0)
    loaded, _, _ = roundtrip(cg)
    grid = np.linspace(0, 1, 101)
    a = [evaluate(cg.fuzzy, float(x)) for x in grid]
    b = [evaluate(loaded.fuzzy, float(x)) for x in grid]
    assert a == b


def test_external_id_mapping(uncertain_pair_graph):
    cg = build(uncertain_pair_graph, k=2, seed=0)
    for ext in (1, 2, 3, 4, 5, 6):
        assert cg.external_id(cg.internal_id(ext)) == ext
    with pytest.raises(ValueError, match="unknown external"):
        cg.internal_id(99)


@pytest.mark.parametrize("absent", [-1, 2**64, 6])
def test_model_unknown_external_ids_rejected(absent):
    cg = build(graph_from_edges(HIGH_ID_EDGES), k=1, seed=0)
    with pytest.raises(ValueError, match="unknown external node id"):
        cg.internal_id(absent)


def test_model_adjacent_high_ids_resolve_to_distinct_rows():
    cg = build(graph_from_edges(HIGH_ID_EDGES), k=1, seed=0)
    assert cg.internal_id(2**63) == 1
    assert cg.internal_id(2**63 + 1) == 2
    assert cg.external_id(2) == 2**63 + 1
    with pytest.raises(ValueError, match="out of range"):
        cg.external_id(-1)  # once wrapped to the last node


def _rewritten(blob: bytes, offset: int, fmt: str, value) -> bytes:
    """Blob with one field rewritten and a recomputed, valid CRC."""
    out = bytearray(blob)
    struct.pack_into(fmt, out, offset, value)
    struct.pack_into("<I", out, len(out) - 4, zlib.crc32(bytes(out[:-4])))
    return bytes(out)


# uncertain_pair_graph at k=2: n=6 and u=6 (no two rows coincide); ids
# at 36, points at 84, point indices at 180, radii (r, R) at 204, FCL at 300
_IDS, _POINTS = 36, 36 + 8 * 6
_INDEX = _POINTS + 8 * 6 * 2
_RADII = _INDEX + 4 * 6
_FCL = _RADII + 16 * 6


@pytest.mark.parametrize(
    "offset, fmt, value, message",
    [
        (_IDS + 8, "<Q", 1, "external ids not strictly increasing at offset 44"),
        (_IDS + 16, "<Q", 0, "external ids not strictly increasing at offset 52"),
        (_POINTS + 8 * 7, "<d", math.nan, "non-finite or overflowing coordinate at offset 140"),
        (_POINTS, "<d", -math.inf, "non-finite or overflowing coordinate at offset 84"),
        (_POINTS + 8, "<d", 1e300, "non-finite or overflowing coordinate at offset 92"),
        (_INDEX + 4 * 2, "<I", 6, "point index out of range at offset 188"),
        (_RADII + 16 * 2, "<d", math.nan, "invalid radius r at offset 236"),
        (_RADII, "<d", -0.5, "invalid radius r at offset 204"),
        (_RADII + 16, "<d", math.inf, "invalid radius r at offset 220"),
        (_RADII + 8, "<d", math.nan, "invalid radius R at offset 212"),
        (_RADII + 16 * 3 + 8, "<d", -1.0, "invalid radius R at offset 260"),
        (_RADII + 8, "<d", -math.inf, "invalid radius R at offset 212"),
        (_FCL, "<c", b"@", "FCL block at offset 300 does not parse: line 1: "
                           "unexpected character '@'"),
        (8, "<I", 4, "unknown flag bits 0x4 at offset 8"),
        (20, "<I", 0, "invalid dimension k=0 at offset 20"),
        (28, "<Q", 0, "invalid point count u=0 for n=6 at offset 28"),
        (28, "<Q", 7, "invalid point count u=7 for n=6 at offset 28"),
    ],
    ids=["duplicate-id", "descending-id", "nan-coord", "inf-coord", "huge-coord",
         "index-u", "nan-r", "negative-r", "inf-r", "nan-R", "negative-R", "minus-inf-R",
         "bad-fcl", "unknown-flag", "zero-k", "zero-u", "u-above-n"],
)
def test_load_rejects_invalid_values(uncertain_pair_graph, tmp_path, offset, fmt, value, message):
    buf = io.BytesIO()
    save(build(uncertain_pair_graph, k=2, seed=0), buf)
    bad = _rewritten(buf.getvalue(), offset, fmt, value)
    with pytest.raises(ModelFormatError, match=re.escape(message)):
        load(io.BytesIO(bad))
    path = tmp_path / "bad.fzg"
    path.write_bytes(bad)
    assert run(["info", str(path)]) == 2


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


def _v1_stream(cg: CompressedGraph) -> bytes:
    """The version 1 layout: a 28-byte header and one coordinate row per node."""
    fcl = cg.fcl_text.encode("utf-8")
    blob = b"".join([
        struct.pack("<4sIIQII", b"FZG1", 1, 0, cg.n, cg.k, len(fcl)),
        cg.external_ids.astype("<u8").tobytes(),
        np.ascontiguousarray(cg.embedding.coords, dtype="<f8").tobytes(),
        np.column_stack([cg.radii.r, cg.radii.R]).astype("<f8").tobytes(),
        fcl,
    ])
    return blob + struct.pack("<I", zlib.crc32(blob))


def test_version_1_stream_rejected(uncertain_pair_graph, tmp_path):
    blob = _v1_stream(build(uncertain_pair_graph, k=2, seed=0))
    with pytest.raises(ModelFormatError, match=re.escape("unsupported format version 1 at offset 4")):
        load(io.BytesIO(blob))
    path = tmp_path / "v1.fzg"
    path.write_bytes(blob)
    assert run(["info", str(path)]) == 2


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
    # a broadcast view claims 2**32 + 1 points without allocating them
    cg.points_t = np.broadcast_to(cg.points_t[:, :1], (cg.k, 2**32 + 1))
    with pytest.raises(ValueError, match=re.escape("4294967297 distinct points exceed")):
        save(cg, io.BytesIO())


@pytest.mark.parametrize("offset, fmt, value", [
    (12, "<Q", 2**64 - 1),  # n
    (20, "<I", 2**32 - 1),  # k
    (24, "<I", 2**32 - 1),  # fcl_len
    (28, "<Q", 5),  # u, still in 1..n
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

_FUZZ_CG = build(gnp_random_graph(16, 0.2, seed=1), k=2, seed=0)  # u = 9 of n = 16
_FUZZ_BLOB = roundtrip(_FUZZ_CG)[2]
# part boundaries: header, ids, points, point indices, radii, FCL (CRC excluded)
_FUZZ_PARTS = np.cumsum([0, 36, 8 * 16, 8 * 9 * 2, 4 * 16, 16 * 16,
                         len(_FUZZ_CG.fcl_text.encode("utf-8"))])
_HEADER_FIELDS = [(4, "<I"), (8, "<I"), (12, "<Q"), (20, "<I"), (24, "<I"), (28, "<Q")]
# array parts by index into _FUZZ_PARTS, with their element format
_ARRAY_FIELDS = [(1, "<Q"), (2, "<d"), (3, "<I"), (4, "<d")]


def _with_crc(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


def _field_value(fmt: str):
    if fmt == "<d":
        return st.one_of(st.floats(), st.sampled_from([1e300, -1e154, 5e153, -0.0, -1.0]))
    top = 2 ** (8 * struct.calcsize(fmt)) - 1
    return st.one_of(st.integers(0, 40), st.sampled_from([top, top // 2, min(top, 2**32), 2**32 - 1]),
                     st.integers(0, top))


@st.composite
def _mutants(draw) -> bytes:
    """The fuzz base stream with byte flips, a truncation or one rewritten
    header or array field; the CRC is recomputed, so value checks run."""
    body = bytearray(_FUZZ_BLOB[:-4])
    kind = draw(st.sampled_from(["flip", "truncate", "header", "array"]))
    if kind == "flip":
        for _ in range(draw(st.integers(1, 4))):
            # header and arrays are small next to the FCL text: pick a part first
            part = draw(st.integers(0, len(_FUZZ_PARTS) - 2))
            lo, hi = int(_FUZZ_PARTS[part]), int(_FUZZ_PARTS[part + 1])
            body[draw(st.integers(lo, hi - 1))] ^= 1 << draw(st.integers(0, 7))
    elif kind == "truncate":
        del body[draw(st.integers(0, len(body) - 1)):]
    elif kind == "header":
        offset, fmt = draw(st.sampled_from(_HEADER_FIELDS))
        struct.pack_into(fmt, body, offset, draw(_field_value(fmt)))
    else:
        part, fmt = draw(st.sampled_from(_ARRAY_FIELDS))
        size = struct.calcsize(fmt)
        count = (_FUZZ_PARTS[part + 1] - _FUZZ_PARTS[part]) // size
        offset = int(_FUZZ_PARTS[part]) + size * draw(st.integers(0, count - 1))
        struct.pack_into(fmt, body, offset, draw(_field_value(fmt)))
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
    for array in (cg.external_ids, cg.embedding.coords, r, R, cg.points_t, cg.point_index):
        assert not array.flags.writeable
    assert (cg.point_table is None) == (cg.u**2 > oracle._TABLE_CELLS_PER_COORD * cg.k * cg.n)
    if cg.point_table is not None:
        assert not cg.point_table.flags.writeable
        assert_table_matches_kernel(cg)
    if cg.n >= 2:
        us = np.arange(cg.n)
        definite, value = query_arrays(cg, us, np.roll(us, 1))
        assert np.all((value >= 0.0) & (value <= 1.0))
        assert np.all(np.isin(value[definite], (0.0, 1.0)))
    again, _, _ = roundtrip(cg)  # what load accepts, save writes back
    assert np.array_equal(again.embedding.coords, cg.embedding.coords)


def test_fuzz_base_model_loads():
    assert group_points(_FUZZ_CG.embedding.coords).u == 9
    assert len(_FUZZ_BLOB) == model_size(_FUZZ_CG) == _FUZZ_PARTS[-1] + 4
    _check_loaded_model(load(io.BytesIO(_FUZZ_BLOB)))


@settings(max_examples=400, deadline=None)
@given(blob=_mutants(), table=st.booleans())
def test_mutated_streams_fail_cleanly_or_load_valid(blob, table):
    # the base model (u = 9, k = 2, n = 16) is above the table cap; a raised
    # cap gives a mutant a point table too, checked against the kernel
    with pytest.MonkeyPatch.context() as mp:
        if table:
            mp.setattr(oracle, "_TABLE_CELLS_PER_COORD", _TABLE_ALWAYS)
        try:
            cg = load(io.BytesIO(blob))
        except ModelFormatError as exc:
            event(f"rejected: {re.match('[A-Za-z ]*', str(exc)).group().strip()}")
            return
        event("loaded with a point table" if cg.point_table is not None else "loaded")
        _check_loaded_model(cg)


# --- the point-distance table ------------------------------------------------

_TABLE_ALWAYS = 2**40  # a cap no test model reaches: every model keeps its table


def assert_table_matches_kernel(cg: CompressedGraph) -> None:
    """Every table entry a query can read equals the kernel on the pair's
    coordinates, bit for bit, and so do the radii scan's block rows."""
    coords, table, index, u = cg.embedding.coords, cg.point_table, cg.point_index, cg.u
    ids = np.arange(cg.n)
    for v in range(cg.n):
        row = table[index[v]][index].tobytes()
        assert row == table.take(index[v] * u + index).tobytes()  # the query's flat take
        assert row == distances_from(coords, v).tobytes()
        assert row == pair_distances(coords, np.full(cg.n, v), ids).tobytes()
        assert row == pair_distances(coords, ids, np.full(cg.n, v)).tobytes()
    out, tmp = np.empty((2, _BLOCK, u))
    for lo in range(0, u, _BLOCK):
        hi = min(lo + _BLOCK, u)
        assert _block_distances(cg.points_t, lo, hi, out, tmp).tobytes() == table[lo:hi].tobytes()


# a few values with both zero signs put many nodes on one point (u < n)
POOL_COORD = st.sampled_from([0.0, -0.0, 1.0, -2.5, 3.0])


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(2, 3 * _BLOCK + 1), k=st.integers(1, 8),
       pooled=st.booleans())
def test_point_table_bitwise_equals_kernel(data, n, k, pooled):
    if pooled:
        coords = data.draw(arrays(np.float64, (n, k), elements=POOL_COORD))
    else:  # unique elements: every row distinct, u = n
        coords = data.draw(arrays(np.float64, (n, k), elements=st.floats(-1e6, 1e6), unique=True))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_TABLE_CELLS_PER_COORD", _TABLE_ALWAYS)
        cg = manual_model(coords, r=[-1.0] * n, R=[np.inf] * n)
    assert cg.u == group_points(cg.embedding.coords).u and (pooled or cg.u == n)
    assert_table_matches_kernel(cg)
    capped = manual_model(coords, r=[-1.0] * n, R=[np.inf] * n)
    if cg.u**2 <= k * n:
        assert capped.point_table.tobytes() == cg.point_table.tobytes()
        assert capped.point_table.nbytes <= capped.embedding.coords.nbytes
    else:
        assert capped.point_table is None


@pytest.mark.parametrize("quantize", [False, True], ids=["exact", "quantized"])
@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
def test_table_and_kernel_paths_answer_the_same_bytes(directed, quantize):
    g = gnp_random_graph(120, 0.05, seed=11, directed=directed)
    us, vs = np.nonzero(~np.eye(g.n, dtype=bool))
    answers = set()
    for cells in (0, _TABLE_ALWAYS):  # the kernel path, then the table path
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_TABLE_CELLS_PER_COORD", cells)
            cg = build(g, k=4, seed=3, quantize=quantize)
            loaded = roundtrip(cg)[0]
            if cells:  # a model with a table never runs the kernel in a query
                mp.setattr(oracle, "pair_distances", None)
            for model in (cg, loaded):
                assert (model.point_table is None) == (cells == 0)
                definite, value = query_arrays(model, us, vs)
                answers.add(definite.tobytes() + value.tobytes())
    assert 0 < definite.sum() < definite.size  # definite and fuzzy answers both occur
    assert len(answers) == 1


def _model_on_points(points, n: int) -> CompressedGraph:
    """n nodes spread round-robin over the given distinct points."""
    points = np.asarray(points, dtype=float)
    return manual_model(points[np.arange(n) % len(points)], r=[-1.0] * n, R=[np.inf] * n)


def test_point_table_never_outgrows_the_coordinates():
    # k = 2, n = 8: the table is kept up to u**2 = k * n = 16 cells, where it
    # is exactly as large as the coordinates
    points = [[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [3.0, 3.0], [5.0, 5.0]]
    at_cap = _model_on_points(points[:4], 8)
    assert at_cap.u == 4 and at_cap.point_table.shape == (4, 4)
    assert at_cap.point_table.nbytes == at_cap.embedding.coords.nbytes
    over_cap = _model_on_points(points, 8)
    assert over_cap.u == 5 and over_cap.point_table is None
    distinct = manual_model(np.arange(12.0).reshape(6, 2), r=[-1.0] * 6, R=[np.inf] * 6)
    assert distinct.u == distinct.n and distinct.point_table is None
    for cg in (at_cap, over_cap, distinct):
        assert not cg.points_t.flags.writeable and not cg.point_index.flags.writeable
        assert cg.point_index.dtype == np.intp
    assert not at_cap.point_table.flags.writeable


def test_benchmark_model_keeps_its_point_table():
    # the query benchmark's model, BA(20000, 5) at k = 8: u = 148 points, far
    # under the cap of sqrt(k * n) = 400, so queries take the table path
    cg = build(preferential_attachment_graph(20000, 5, seed=1), k=8, seed=1)
    assert cg.u == 148
    assert cg.point_table is not None and cg.point_table.shape == (148, 148)
    loaded = roundtrip(cg)[0]
    assert loaded.point_table.tobytes() == cg.point_table.tobytes()
    assert np.array_equal(loaded.point_index, cg.point_index)
