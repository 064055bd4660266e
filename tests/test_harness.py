import copy
import itertools
import re
import tracemalloc

import numpy as np
import pytest

from fuzzmap import (
    build,
    evaluate_model,
    gnp_random_graph,
    graph_from_edges,
    preferential_attachment_graph,
    query,
    query_arrays,
    reports_to_csv,
    save_file,
    sweep_k,
)
from fuzzmap import harness, oracle
from fuzzmap.cli import run
from fuzzmap.harness import _EVAL_BLOCK, CSV_HEADER, _decode_pairs, _pair_indices

from conftest import edgeless_graph
from oracles import state_pair_counts, state_pair_nodes


def sample_pairs(n, directed, sample_size, seed):
    """The pairs evaluate_model queries: its pair indices, decoded."""
    total, idx = _pair_indices(n, directed, sample_size, seed)
    return _decode_pairs(np.arange(total, dtype=np.int64) if idx is None else idx, n, directed)


@pytest.fixture
def k5_graph():
    return graph_from_edges([(u, v) for u in range(5) for v in range(u + 1, 5)])


def test_complete_graph_report(k5_graph):
    cg = build(k5_graph, k=2, seed=0, quantize=False)
    rep = evaluate_model(cg, k5_graph, sample_size=None, seed=0)
    assert rep.pairs == 10
    assert rep.definite_pct == 100.0
    assert rep.definite_correct_pct == 100.0
    assert rep.fuzzy_pairs == 0
    assert rep.fuzzy_sound_yes_pct is None  # absent, not 0/0
    assert rep.fuzzy_sound_no_pct is None


def test_edgeless_graph_report():
    g = edgeless_graph(5)
    rep = evaluate_model(build(g, k=2, seed=0), g, sample_size=None, seed=0)
    assert rep.definite_pct == 100.0
    assert rep.definite == 10
    assert rep.definite_correct == 10


def test_random_graph_soundness_and_determinism():
    g = gnp_random_graph(100, 0.1, seed=41)
    cg = build(g, k=4, seed=6)
    rep1 = evaluate_model(cg, g, sample_size=None, seed=3)
    rep2 = evaluate_model(cg, g, sample_size=None, seed=3)
    assert rep1 == rep2
    assert rep1.definite_correct_pct == 100.0
    # brute-force ground truth for the definite tally
    us, vs = np.triu_indices(g.n, 1)
    definite, value = query_arrays(cg, us, vs)
    truth = np.array([v in g.neighbors(u) for u, v in zip(us, vs)])
    assert int(definite.sum()) == rep1.definite
    assert np.all((value[definite] == 1.0) == truth[definite])


def test_report_tally_identities():
    g = gnp_random_graph(60, 0.2, seed=12)
    cg = build(g, k=3, seed=1)
    rep = evaluate_model(cg, g, sample_size=None, seed=0)
    assert rep.definite + rep.fuzzy_pairs == rep.pairs
    assert rep.definite_pct + 100.0 * rep.fuzzy_pairs / rep.pairs == pytest.approx(100.0)
    assert rep.fuzzy_true + rep.fuzzy_false == rep.fuzzy_pairs
    if rep.fuzzy_true:
        assert rep.fuzzy_sound_yes_pct == 100.0 * rep.fuzzy_sound_yes / rep.fuzzy_true
    if rep.fuzzy_false:
        assert rep.fuzzy_sound_no_pct == 100.0 * rep.fuzzy_sound_no / rep.fuzzy_false


def test_exact_half_counts_unsound():
    # force likelihood 0.5 via double-sentinel sides: a directed pair of
    # mutually isolated nodes lands at exactly 0.5 -> unsound both ways
    g = graph_from_edges([(0, 1), (2, 3)], directed=True)
    cg = build(g, k=1, seed=0, quantize=False)
    us, vs = sample_pairs(g.n, True, None, 0)
    definite, value = query_arrays(cg, us, vs)
    half = ~definite & (value == 0.5)
    if half.any():
        rep = evaluate_model(cg, g, sample_size=None, seed=0)
        assert rep.fuzzy_sound_yes + rep.fuzzy_sound_no < rep.fuzzy_pairs


def test_sampling_without_replacement_deterministic():
    for directed in (False, True):
        us1, vs1 = sample_pairs(50, directed, 100, seed=9)
        us2, vs2 = sample_pairs(50, directed, 100, seed=9)
        assert np.array_equal(us1, us2) and np.array_equal(vs1, vs2)
        keys = us1 * 50 + vs1
        assert len(np.unique(keys)) == 100  # no replacement
        assert np.all(us1 != vs1 if directed else us1 < vs1)
        us3, _ = sample_pairs(50, directed, 100, seed=10)
        assert not np.array_equal(us1, us3)


@pytest.mark.parametrize("directed", [False, True])
def test_full_enumeration_yields_each_pair_once(directed):
    for n in range(2, 41):
        us, vs = sample_pairs(n, directed, None, 0)
        if not directed:
            assert np.all(us < vs)
        pairs = itertools.permutations(range(n), 2) if directed else itertools.combinations(range(n), 2)
        assert sorted(zip(us.tolist(), vs.tolist())) == sorted(pairs)


@pytest.mark.parametrize("directed", [False, True])
def test_sampling_memory_is_bounded_by_sample(directed):
    # a permutation of all ~4.5M (9M directed) pair indices would peak at 35+ MiB
    tracemalloc.start()
    try:
        us, _ = sample_pairs(3000, directed, 100, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(us) == 100
    assert peak < 4 * 2**20


def test_sampling_covers_all_pairs_when_small():
    us, vs = sample_pairs(6, False, None, seed=0)
    assert len(us) == 15
    us, vs = sample_pairs(6, True, None, seed=0)
    assert len(us) == 30
    assert np.all(us != vs)
    us, vs = sample_pairs(6, False, 10**9, seed=0)
    assert len(us) == 15  # sample larger than population: all pairs


def test_sampled_subset_matches_scalar_queries():
    g = gnp_random_graph(30, 0.25, seed=2)
    cg = build(g, k=2, seed=2)
    us, vs = sample_pairs(g.n, False, 40, seed=5)
    definite, value = query_arrays(cg, us, vs)
    for u, v, is_def, val in zip(us, vs, definite, value):
        ans = query(cg, int(u), int(v))
        assert ans.is_definite == bool(is_def)
        assert ans.value == val


def test_permutation_invariance_of_tallies():
    g = gnp_random_graph(25, 0.3, seed=77)
    cg = build(g, k=2, seed=0)
    us, vs = sample_pairs(g.n, False, None, seed=0)
    perm = np.random.default_rng(1).permutation(len(us))
    d1, v1 = query_arrays(cg, us, vs)
    d2, v2 = query_arrays(cg, us[perm], vs[perm])
    assert d1.sum() == d2.sum()
    assert sorted(v1.tolist()) == sorted(v2.tolist())


@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
@pytest.mark.parametrize("sample_size", [None, 150], ids=["all-pairs", "sampled"])
def test_report_does_not_depend_on_the_block_size(directed, sample_size):
    for n, p, seed in ((30, 0.2, 1), (45, 0.08, 2)):
        g = gnp_random_graph(n, p, seed=seed, directed=directed)
        cg = build(g, k=3, seed=seed)
        reports = []
        for block in (1, 7, _EVAL_BLOCK):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(harness, "_EVAL_BLOCK", block)
                reports.append(evaluate_model(cg, g, sample_size=sample_size, seed=seed))
        assert reports[0] == reports[1] == reports[2]
        # and the one-batch tally over the same pairs
        us, vs = sample_pairs(g.n, directed, sample_size, seed)
        definite, value = query_arrays(cg, us, vs)
        truth = np.array([v in g.neighbors(u) for u, v in zip(us.tolist(), vs.tolist())], bool)
        fuzzy_true, fuzzy_val = truth[~definite], value[~definite]
        assert (reports[0].pairs, reports[0].definite, reports[0].definite_correct,
                reports[0].fuzzy_true, reports[0].fuzzy_sound_yes, reports[0].fuzzy_sound_no) == (
            len(us), definite.sum(), ((value[definite] == 1.0) == truth[definite]).sum(),
            fuzzy_true.sum(), (fuzzy_val[fuzzy_true] > 0.5).sum(),
            (fuzzy_val[~fuzzy_true] < 0.5).sum())


def test_all_pairs_evaluation_memory_is_bounded_by_the_block():
    # all 4,498,500 pairs queried at once would peak at ~532 MiB; one block
    # of 2**18 pairs at a time peaks at ~40 MiB
    g = preferential_attachment_graph(3000, 5, seed=1)
    cg = build(g, k=8, seed=1)
    cg.pair_table  # built on the first query, not part of the tally's scratch
    tracemalloc.start()
    try:
        rep = evaluate_model(cg, g, sample_size=None, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.pairs == 3000 * 2999 // 2
    assert peak < 64 * 2**20


def test_mismatched_model_and_graph(tmp_path):
    g = gnp_random_graph(20, 0.2, seed=0)
    other = gnp_random_graph(21, 0.2, seed=0)
    cg = build(g, k=2, seed=0)
    with pytest.raises(ValueError, match="nodes"):
        evaluate_model(cg, other)
    directed = gnp_random_graph(20, 0.2, seed=0, directed=True)
    if directed.n == cg.n:
        with pytest.raises(ValueError, match="directed"):
            evaluate_model(cg, directed)
    # the same n and direction, but the model is on ids 1000..1299 and the graph on 0..299
    path = gnp_random_graph(300, 0.02, seed=4)
    us, vs = path.edges()
    shifted = graph_from_edges(list(zip((us + 1000).tolist(), (vs + 1000).tolist())))
    assert shifted.external_ids[0] == 1000 and path.n == shifted.n == 300
    with pytest.raises(ValueError, match="model node 0 has id 1000 but graph node 0 has id 0"):
        evaluate_model(build(shifted, k=2, seed=0), path)
    model, edges = tmp_path / "shifted.fzg", tmp_path / "graph.txt"
    save_file(build(shifted, k=2, seed=0), str(model))
    edges.write_text("".join(f"{u} {v}\n" for u, v in zip(us.tolist(), vs.tolist())))
    assert run(["evaluate", "--model", str(model), "--graph", str(edges)]) == 2


def test_csv_format(k5_graph):
    cg = build(k5_graph, k=2, seed=0, quantize=False)
    rep = evaluate_model(cg, k5_graph, sample_size=None, seed=4)
    text = reports_to_csv([rep])
    lines = text.split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[1] == "2,10,100.0000,100.0000,0,,,4,ALL"
    assert text.endswith("\n") and "\r" not in text


def test_csv_sample_size_field():
    g = gnp_random_graph(30, 0.2, seed=1)
    rep = evaluate_model(build(g, k=2, seed=0), g, sample_size=50, seed=2)
    row = reports_to_csv([rep]).splitlines()[1]
    assert row.endswith(",2,50")
    assert row.split(",")[1] == "50"


def test_sweep_complete_graph(k4_graph):
    reports = sweep_k(k4_graph, list(range(2, 11)), quantize=True, seed=7, sample_size=None)
    assert len(reports) == 9
    assert [r.k for r in reports] == list(range(2, 11))
    assert all(r.definite_pct == 100.0 for r in reports)


def test_sweep_byte_identical(k4_graph):
    g = gnp_random_graph(50, 0.15, seed=15)
    a = reports_to_csv(sweep_k(g, [2, 4, 8], seed=3, sample_size=200))
    b = reports_to_csv(sweep_k(g, [2, 4, 8], seed=3, sample_size=200))
    assert a.encode() == b.encode()


def test_sweep_k_variation_keeps_soundness():
    g = gnp_random_graph(120, 0.05, seed=8)
    reports = sweep_k(g, [2, 4, 8], seed=1, sample_size=None)
    assert all(r.definite_correct_pct == 100.0 for r in reports)
    assert len({r.definite_pct for r in reports}) > 1  # coverage moves with k


def test_sweep_validation(monkeypatch, k4_graph):
    with pytest.raises(ValueError):
        evaluate_model(build(k4_graph, k=2, seed=0), k4_graph, sample_size=0)

    def not_reached(*args, **kwargs):
        raise AssertionError("a model was built before every k was checked")

    monkeypatch.setattr(harness, "build", not_reached)
    negative = np.arange(-1, 3)
    for k_values, message in (([], "k_values must be non-empty"),
                              (np.arange(0), "k_values must be non-empty"),
                              (range(0), "k_values must be non-empty"),
                              ([2, 0], "k must be an integer >= 1, not 0"),
                              (negative, f"k must be an integer >= 1, not {negative[0]!r}"),
                              ([2, 3.0], "k must be an integer >= 1, not 3.0"),
                              ((2, True), "k must be an integer >= 1, not True")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sweep_k(k4_graph, k_values, seed=0)
    monkeypatch.undo()
    # numpy integers are ks: an array of them is a sequence of k values
    reports = sweep_k(k4_graph, np.arange(1, 3), seed=0, sample_size=None)
    assert [rep.k for rep in reports] == [1, 2]


@pytest.mark.parametrize("sample_size", [10_000.5, 2.5, np.float64(50.0), True, 0, -3, "100"],
                         ids=["10000.5", "2.5", "float64", "True", "0", "-3", "str"])
def test_sample_size_is_none_or_an_integer_from_1(monkeypatch, sample_size):
    # 10_000.5 would tally all 780 pairs of G(40, 0.1) and write 10000.5 to the CSV
    g = gnp_random_graph(40, 0.1, seed=1)
    cg = build(g, k=2, seed=0)

    def not_reached(*args, **kwargs):
        raise AssertionError("a model was built or queried before the sample size was checked")

    monkeypatch.setattr(harness, "query_arrays", not_reached)
    monkeypatch.setattr(harness, "build", not_reached)
    message = f"sample_size must be an integer >= 1, not {sample_size!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        evaluate_model(cg, g, sample_size=sample_size)
    with pytest.raises(ValueError, match=re.escape(message)):
        sweep_k(g, [2], sample_size=sample_size)


@pytest.mark.parametrize("seed", [True, 1.0, None, -1], ids=["bool", "float", "None", "negative"])
def test_evaluation_seed_follows_the_seed_rule(monkeypatch, seed):
    # True sampled the seed-1 pairs but recorded True, None sampled from OS
    # entropy, and 1.0 and -1 failed inside numpy
    g = gnp_random_graph(30, 0.2, seed=1)
    cg = build(g, k=2, seed=1)

    def not_reached(*args, **kwargs):
        raise AssertionError("pairs were sampled before the seed was checked")

    monkeypatch.setattr(harness, "_pair_indices", not_reached)
    message = f"seed must be an integer >= 0, not {seed!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        evaluate_model(cg, g, sample_size=50, seed=seed)
    with pytest.raises(ValueError, match=re.escape(message)):
        sweep_k(g, [2], sample_size=50, seed=seed)


def test_numpy_integer_sample_size_is_written_as_an_integer():
    # a numpy integer seed passes the seed rule too
    g = gnp_random_graph(40, 0.1, seed=1)
    rep = evaluate_model(build(g, k=2, seed=0), g, sample_size=np.int64(50), seed=np.uint8(2))
    assert rep.pairs == 50 and reports_to_csv([rep]).splitlines()[1].endswith(",2,50")


# the pair table's cap (oracle._TABLE_COORD_RATIO) is raised to give BA(3000, 5)
# a table and dropped to 0 to take directed G(3000, 0.004)'s away
@pytest.mark.parametrize("make, ratio, has_table", [
    (lambda: preferential_attachment_graph(3000, 5, seed=1), 2, True),
    (lambda: preferential_attachment_graph(3000, 5, seed=1), 1, False),
    (lambda: gnp_random_graph(3000, 0.004, seed=1, directed=True), 1, True),
    (lambda: gnp_random_graph(3000, 0.004, seed=1, directed=True), 0, False),
], ids=["ba-table", "ba-kernel", "gnp-directed-table", "gnp-directed-kernel"])
def test_every_pair_is_sound(monkeypatch, make, ratio, has_table):
    g = make()
    monkeypatch.setattr(oracle, "_TABLE_COORD_RATIO", ratio)
    cg = build(g, k=8, seed=1)
    assert (cg.pair_table is not None) == has_table
    rep = evaluate_model(cg, g, sample_size=None)
    assert rep.pairs == (g.n * (g.n - 1) if g.directed else g.n * (g.n - 1) // 2)
    assert rep.definite > 0
    assert rep.definite_correct == rep.definite
    if has_table:
        # the table must not vouch for itself: every ordered state pair answers
        # alike through it and through a copy of the model that has none
        bare = copy.copy(cg)
        vars(bare)["pair_table"] = None  # the model is frozen; cached_property writes here too
        us, vs = state_pair_nodes(cg.states)
        assert us.size >= cg.states.t * (cg.states.t - 1)
        for got, want in zip(query_arrays(cg, us, vs), query_arrays(bare, us, vs)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def report_from_state_pairs(counts: dict) -> dict:
    """The every-pair tallies of ``evaluate_model``, derived from ``state_pair_counts``."""
    definite = counts["yes"] + counts["no"]
    return {
        "pairs": counts["pairs"],
        "definite": definite,
        # a yes is right on an edge, a no on a non-edge
        "definite_correct": counts["edges_yes"] + counts["no"] - counts["edges_no"],
        "fuzzy_pairs": counts["pairs"] - definite,
        "fuzzy_true": counts["edges"] - counts["edges_yes"] - counts["edges_no"],
        "fuzzy_sound_yes": counts["edges_above"],
        "fuzzy_sound_no": counts["below"] - counts["edges_below"],
    }


# the pair table's cap at test_oracle's _TABLE_ALWAYS (2**40, every model scores
# a table) and at 0 (none does)
@pytest.mark.parametrize("ratio", [2**40, 0], ids=["table", "kernel"])
@pytest.mark.parametrize("quantize", [True, False], ids=["quantized", "exact"])
@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
@pytest.mark.parametrize("n, p, seed", [(40, 0.15, 1), (90, 0.05, 2), (150, 0.03, 3)])
def test_every_pair_tallies_match_the_state_pair_counts(monkeypatch, n, p, seed, directed,
                                                       quantize, ratio):
    # every pair's answer depends only on its two node states, so the tallies
    # over all pairs follow from one query per ordered state pair and one per edge
    monkeypatch.setattr(oracle, "_TABLE_COORD_RATIO", ratio)
    g = gnp_random_graph(n, p, seed=seed, directed=directed)
    cg = build(g, k=4, seed=seed, quantize=quantize)
    assert (cg.pair_table is not None) == (ratio > 0)
    rep = evaluate_model(cg, g, sample_size=None)
    want = report_from_state_pairs(state_pair_counts(cg, g))
    assert {field: getattr(rep, field) for field in want} == want
    assert rep.fuzzy_pairs > 0 and rep.definite > 0
