"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete. Criteria 1 and 7 carry wall-clock budgets and are asserted.
"""

import io
import struct
import time

import numpy as np
import pytest

from fuzzmap import (
    Answer,
    build,
    compute_all_radii,
    default_system,
    evaluate,
    evaluate_many,
    fastmap_embed,
    graph_distance_row,
    graph_from_edges,
    parse_fcl,
    preferential_attachment_graph,
    query,
    query_arrays,
    reports_to_csv,
    residual_distance,
    save,
    sweep_k,
    to_fcl,
)
from fuzzmap.fuzzy import FclParseError
from fuzzmap.radii import distances_from, group_points

from conftest import UNCERTAIN_PAIR_EDGES, manual_model, soundness_corpus
from oracles import fzg1_size_oracle, mamdani_centroid_oracle, radii_sort_scan


def _report(num: int, name: str, ok: bool) -> None:
    print(f"\n[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")


def _all_pairs(n: int, directed: bool):
    if directed:
        us, vs = np.nonzero(~np.eye(n, dtype=bool))
        return us.astype(np.int64), vs.astype(np.int64)
    us, vs = np.triu_indices(n, 1)
    return us.astype(np.int64), vs.astype(np.int64)


CORPUS = soundness_corpus(52)


def test_criterion_1_definite_soundness():
    """Every definite answer equals ground truth: 100%, zero tolerance."""
    ok = False
    start = time.time()
    wrong = 0
    models = 0
    try:
        for g, i in CORPUS:
            us, vs = _all_pairs(g.n, g.directed)
            truth = np.fromiter(
                (v in g.neighbors(u) for u, v in zip(us, vs)), bool, len(us)
            )
            for quantize in (True, False):
                cg = build(g, k=3, seed=i, quantize=quantize)
                definite, value = query_arrays(cg, us, vs)
                wrong += int((definite & ((value == 1.0) != truth)).sum())
                models += 1
        elapsed = time.time() - start
        assert models == 104
        assert wrong == 0, f"{wrong} unsound definite answers"
        assert elapsed < 60.0, f"soundness sweep took {elapsed:.1f}s"
        ok = True
    finally:
        _report(1, "definite-answer soundness", ok)


def test_criterion_2_radii_oracle_equivalence():
    """compute_all_radii matches the sort-and-scan oracle exactly, every node."""
    ok = False
    try:
        for g, i in CORPUS:
            e = fastmap_embed(g, 3, seed=i)
            every = {quantize: compute_all_radii(g, e, quantize=quantize)
                     for quantize in (True, False)}
            for v in range(g.n):
                d = distances_from(e.coords, v)
                labelled = [(float(d[u]), u in g.neighbors(v))
                            for u in range(g.n) if u != v]
                for quantize in (True, False):
                    got = (every[quantize].r[v], every[quantize].R[v])
                    want = radii_sort_scan(labelled, quantize)
                    assert got == want, f"graph {i} node {v} quantize={quantize}"
        ok = True
    finally:
        _report(2, "radii oracle equivalence", ok)


def test_criterion_3_fastmap_invariants():
    """Exact pivot anchoring, non-negative residuals, seeded determinism."""
    ok = False
    try:
        for g, i in CORPUS[:12]:
            e1 = fastmap_embed(g, 4, seed=i)
            e2 = fastmap_embed(g, 4, seed=i)
            assert np.array_equal(e1.coords, e2.coords), "not bit-identical"
            assert e1.pivots == e2.pivots
            for axis, pair in enumerate(e1.pivots):
                if pair is None:
                    assert np.all(e1.coords[:, axis] == 0.0)
                    continue
                a, b = pair
                assert e1.coords[a, axis] == 0.0
                row = graph_distance_row(g, a)
                for lvl in range(axis):
                    row = residual_distance(row, e1.coords[a, lvl], e1.coords[:, lvl])
                assert e1.coords[b, axis] == row[b]
            for u in range(0, g.n, 7):
                row = graph_distance_row(g, u)
                for lvl in range(e1.k):
                    row = residual_distance(row, e1.coords[u, lvl], e1.coords[:, lvl])
                    assert np.all(row >= 0.0)
        ok = True
    finally:
        _report(3, "fastmap invariants", ok)


def test_criterion_4_fuzzy_engine():
    """Fixed point, monotonicity, symmetry, and the integration oracle."""
    ok = False
    try:
        sys = default_system()
        assert abs(evaluate(sys, 0.5) - 0.5) <= 1e-9
        grid = np.round(np.arange(0.0, 1.0005, 0.001), 9)
        values = evaluate_many(sys, grid)
        assert np.all(np.diff(values) >= 0.0), "not monotone non-decreasing"
        assert np.max(np.abs(values + values[::-1] - 1.0)) <= 1e-6, "asymmetric"
        for x in (0.1, 0.25, 0.75, 0.9):
            want = mamdani_centroid_oracle(x, samples=10**6)
            assert abs(evaluate(sys, x) - want) <= 1e-4, f"oracle mismatch at {x}"
        ok = True
    finally:
        _report(4, "fuzzy engine", ok)


def test_criterion_5_fcl_round_trip():
    """Serialize/parse round trip within 1e-9 plus the malformed cases."""
    ok = False
    try:
        sys = default_system()
        again = parse_fcl(to_fcl(sys))
        grid = np.round(np.arange(0.0, 1.0005, 0.001), 9)
        diff = np.abs(evaluate_many(sys, grid) - evaluate_many(again, grid))
        assert diff.max() <= 1e-9

        base = to_fcl(sys)
        with pytest.raises(FclParseError, match="near"):
            parse_fcl(base.replace("IS close_to_r ", "IS near "))
        with pytest.raises(FclParseError, match="non-increasing x"):
            parse_fcl(base.replace("(0.0, 0.0) (1.0, 1.0)", "(0.2, 0.0) (0.1, 1.0)"))
        with pytest.raises(FclParseError, match="missing RULEBLOCK"):
            parse_fcl("\n".join(
                ln for ln in base.splitlines()
                if not any(t in ln for t in ("RULE", "AND", "ACT", "ACCU"))
            ))
        with pytest.raises(FclParseError, match="unknown keyword"):
            parse_fcl(base.replace("    FUZZIFY", "    FROBNIFY", 1))
        ok = True
    finally:
        _report(5, "FCL round trip", ok)


def test_criterion_6_linear_storage():
    """Bytes = 44 + 8 + 8uk + 16t + ceil(w_u t / 8) + ceil(w_t n / 8) + fcl_len + 4
    exactly for ids 0..n-1, u the distinct points, t the distinct (point, r, R)
    states (u <= t <= n), and w_u = (u - 1).bit_length() and w_t = (t - 1).bit_length()
    the bits of a packed point and state index; the per-node part is ceil(w_t n / 8),
    and w_t = 4 at both sizes, so 10x nodes = exactly 10x of it."""
    ok = False
    try:
        node_bytes = {}
        for n in (1000, 10000):
            g = graph_from_edges([(i, i + 1) for i in range(n - 1)])
            cg = build(g, k=4, seed=0)
            buf = io.BytesIO()
            save(cg, buf)
            blob = buf.getvalue()
            # the per-node part of the stream, from the header's own k, fcl_len, u and t
            _, _, flags, _, k, fcl_len, u, t = struct.unpack_from("<4sIIQIIQQ", blob, 0)
            w_u, w_t = (u - 1).bit_length(), (t - 1).bit_length()
            node_bytes[n] = len(blob) - 44 - 8 - 8 * u * k - 16 * t - -(-w_u * t // 8) - fcl_len - 4
            assert flags & 4  # ids 0..n-1: the id block is lo alone
            assert 1 <= u == group_points(cg.embedding.coords).u <= t == cg.states.t <= n
            assert (k, fcl_len, w_t) == (4, len(cg.fcl_text.encode("utf-8")), 4)
            assert len(blob) == (44 + 8 + 8 * u * 4 + 16 * t + -(-w_u * t // 8) + -(-w_t * n // 8)
                                 + fcl_len + 4), f"size off at n={n}"
            assert len(blob) == fzg1_size_oracle(cg.embedding.coords.tolist(), cg.radii.r.tolist(),
                                                 cg.radii.R.tolist(), cg.external_ids, 4, fcl_len)
        assert node_bytes[10000] == 10 * node_bytes[1000] == 10 * 1000 // 2
        # worst case, every row distinct: u = t = n, 14 bits for each index
        distinct = manual_model(np.arange(4.0 * n).reshape(n, 4), cg.radii.r, cg.radii.R,
                                cg.directed, cg.quantized, cg.external_ids, cg.fcl_text)
        total = save(distinct, io.BytesIO())
        assert total == 44 + 8 + n * (8 * 4 + 16) + 2 * (14 * n // 8) + fcl_len + 4
        ok = True
    finally:
        _report(6, "linear storage", ok)


def test_criterion_7_experiment_harness():
    """k = 2..10 sweep on a 4000-node social-style graph, twice, < 10 min."""
    ok = False
    start = time.time()
    try:
        g = preferential_attachment_graph(4000, 20, seed=2024)
        avg_degree = 2 * g.num_edges / g.n
        assert 35.0 <= avg_degree <= 45.0
        ks = list(range(2, 11))
        csv1 = reports_to_csv(sweep_k(g, ks, quantize=True, seed=11, sample_size=1_000_000))
        csv2 = reports_to_csv(sweep_k(g, ks, quantize=True, seed=11, sample_size=1_000_000))
        elapsed = time.time() - start
        assert csv1.encode() == csv2.encode(), "sweep not byte-identical"
        rows = csv1.strip().split("\n")
        assert len(rows) == 10  # header + 9 k rows
        for row in rows[1:]:
            fields = row.split(",")
            assert fields[3] == "100.0000", f"unsound row: {row}"
            assert fields[5] != "" and fields[6] != ""  # fuzzy soundness emitted
        assert elapsed < 600.0, f"sweep took {elapsed:.0f}s"
        # fuzzy-soundness-vs-k is graph-dependent; record it, don't assert it
        yes_by_k = {int(r.split(",")[0]): r.split(",")[5] for r in rows[1:]}
        print(f"\n[acceptance] fuzzy sound-yes% by k: {yes_by_k}")
        ok = True
    finally:
        _report(7, "experiment harness", ok)


def test_criterion_8_worked_example_scenario():
    """Some seed in 0..31 reproduces the worked definite/fuzzy pattern."""
    ok = False
    try:
        g = graph_from_edges(UNCERTAIN_PAIR_EDGES)
        one = g.internal_id(1)
        assert {g.external_id(w) for w in g.neighbors(one)} == {2, 5}
        hits = []
        for seed in range(32):
            cg = build(g, k=2, seed=seed, quantize=True)
            u1 = cg.internal_id(1)
            answers = {x: query(cg, u1, cg.internal_id(x)) for x in (2, 3, 4, 5, 6)}
            if (
                answers[5] == Answer(True, 1.0)
                and all(answers[x] == Answer(True, 0.0) for x in (3, 4, 6))
                and not answers[2].is_definite
            ):
                hits.append(seed)
        assert hits, "no seed in 0..31 reproduced the pattern"
        ok = True
    finally:
        _report(8, "worked-example scenario", ok)
