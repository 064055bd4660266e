import dataclasses
import io
import itertools
import math
import re
import struct
import zlib

import numpy as np
import pytest

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
    query,
    query_arrays,
    query_directed,
    save,
    to_fcl,
)
from fuzzmap.cli import run
from fuzzmap.fastmap import Embedding

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
    with pytest.raises(ValueError):
        build(uncertain_pair_graph, k=0, seed=0)
    singleton = edgeless_graph(1)
    with pytest.raises(ValueError):
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


def test_file_layout_exact_sizes():
    g = gnp_random_graph(100, 0.08, seed=77)
    cg = build(g, k=4, seed=0)
    _, nbytes, blob = roundtrip(cg)
    fcl_len = len(cg.fcl_text.encode("utf-8"))
    body = 100 * (4 * 8 + 16)
    assert body == 4800
    assert nbytes == 28 + 8 * 100 + body + fcl_len + 4
    assert blob[:4] == b"FZG1"


def test_linear_growth_in_n():
    sizes = {}
    for n in (100, 200, 400):
        g = gnp_random_graph(n, 8.0 / n, seed=n)
        cg = build(g, k=4, seed=0)
        buf = io.BytesIO()
        save(cg, buf)
        fcl_len = len(cg.fcl_text.encode("utf-8"))
        sizes[n] = len(buf.getvalue()) - 28 - fcl_len - 4
    assert sizes[200] == 2 * sizes[100]
    assert sizes[400] == 4 * sizes[100]


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


# uncertain_pair_graph at k=2: n=6, ids at 28, coords at 76, radii (r, R) at 172
_IDS, _COORDS, _RADII = 28, 28 + 8 * 6, 28 + 8 * 6 + 8 * 6 * 2


@pytest.mark.parametrize(
    "offset, fmt, value, message",
    [
        (_IDS + 8, "<Q", 1, "external ids not strictly increasing at offset 36"),
        (_IDS + 16, "<Q", 0, "external ids not strictly increasing at offset 44"),
        (_COORDS + 8 * 7, "<d", math.nan, "non-finite coordinate at offset 132"),
        (_COORDS, "<d", -math.inf, "non-finite coordinate at offset 76"),
        (_RADII + 16 * 2, "<d", math.nan, "invalid radius r at offset 204"),
        (_RADII, "<d", -0.5, "invalid radius r at offset 172"),
        (_RADII + 16, "<d", math.inf, "invalid radius r at offset 188"),
        (_RADII + 8, "<d", math.nan, "invalid radius R at offset 180"),
        (_RADII + 16 * 3 + 8, "<d", -1.0, "invalid radius R at offset 228"),
        (_RADII + 8, "<d", -math.inf, "invalid radius R at offset 180"),
        (8, "<I", 4, "unknown flag bits 0x4 at offset 8"),
        (20, "<I", 0, "invalid dimension k=0 at offset 20"),
    ],
    ids=["duplicate-id", "descending-id", "nan-coord", "inf-coord", "nan-r", "negative-r",
         "inf-r", "nan-R", "negative-R", "minus-inf-R", "unknown-flag",
         "zero-k"],
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
