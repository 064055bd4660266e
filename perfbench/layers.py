"""Traced run: per-layer metrics from spans around calls into each module.

fuzzmap is not instrumented, so each workload's steps are replayed
in-process (the CLI ones as the CLI takes them), and spans wrap each call
from here:

- compress: load_edge_list -> fastmap_embed -> compute_all_radii -> save_file
- evaluate: load_file -> evaluate_model
- query:    rounds of scalar query calls and one query_arrays batch

Every traced run replays all three on its workload's graph; the query
rounds also run on a model of a dense G(1000, 0.3), where most answers go
through the fuzzy system (metrics prefixed ``dense.``). The workload's own
replay also runs untraced, just before and just after; the difference is
the tracing overhead.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np
from fuzzmap.radii import distances_from, pair_distances

from answers import Tally, check_answers, check_scalar, random_pairs
from environment import fuzzmap_cli, run_child
from query_loop import BATCH_PAIRS
from tracing import Tracer
from workloads import EVAL_SAMPLE, K, generate_graph

QUERY_BATCHES = 10  # fixed, so the answer-mix counts repeat exactly per seed
SCALAR_PER_BATCH = 500  # scalar calls ask the first pairs of each batch
DISTANCE_NODES = 256  # fixed seeded node set for the per-node kernel time
LOAD_REPEATS = 3
FCL_REPEATS = 5
STARTUP_REPEATS = 3
SPAN_PROBES = 10_000  # empty spans timed to cost one span

OWN_REPLAY = {
    "compress-ba20k": "replay.compress",
    "query-ba20k": "replay.query",
    "evaluate-ba20k": "replay.evaluate",
}


def replay_compress(fm, t: Tracer, edges: Path, model: Path, seed: int):
    """The steps of `fuzzmap compress` (what oracle.build does, call by call)."""
    with t.span("graph.parse"):
        g = fm.load_edge_list(str(edges))
    with t.span("fastmap.embed"):
        embedding = fm.fastmap_embed(g, K, seed)
    with t.span("radii.scan"):
        radii = fm.compute_all_radii(g, embedding, quantize=True)
    system = fm.default_system()
    cg = fm.CompressedGraph(
        embedding=embedding, radii=radii, directed=g.directed, fuzzy=system,
        external_ids=g.external_ids.copy(), fcl_text=fm.to_fcl(system),
    )
    with t.span("oracle.save"):
        fm.save_file(cg, str(model))
    return g, embedding


def replay_evaluate(fm, t: Tracer, g, model: Path, seed: int):
    """The steps of `fuzzmap evaluate` after the graph is parsed."""
    with t.span("oracle.load"):
        cg = fm.load_file(str(model))
    with t.span("harness.evaluate_model"):
        report = fm.evaluate_model(cg, g, sample_size=EVAL_SAMPLE, seed=seed)
    return cg, report


def crisp_inputs(cg, us, vs, d, definite) -> tuple[np.ndarray, np.ndarray]:
    """The fuzzy system's inputs for undecided pairs, as query_arrays forms them.

    Returns the crisp inputs of every non-sentinel side, and per pair
    whether any side was scored (False means the 0.5 fallback).
    """
    r, R = cg.radii.r, cg.radii.R
    undecided = ~definite
    xs, scored = [], np.zeros(us.shape[0], dtype=bool)
    for side in (us, vs):
        ok = undecided & (r[side] != -1.0) & np.isfinite(R[side])
        x = (R[side[ok]] - d[ok]) / (R[side[ok]] - r[side[ok]])
        xs.append(np.clip(x, 0.0, 1.0))
        scored |= ok
    return np.concatenate(xs), scored


def replay_query(fm, t: Tracer, cg, seed: int, prefix: str = "") -> list[tuple]:
    """Rounds of scalar query calls and one query_arrays batch, fixed in number."""
    rng = np.random.default_rng([seed, 1])
    rounds = []
    for _ in range(QUERY_BATCHES):
        us, vs = random_pairs(cg.n, BATCH_PAIRS, rng)
        scalar = []
        for u, v in zip(us[:SCALAR_PER_BATCH].tolist(), vs[:SCALAR_PER_BATCH].tolist()):
            with t.span(prefix + "oracle.query"):
                scalar.append(fm.query(cg, u, v))
        with t.span(prefix + "oracle.query_arrays"):
            definite, value = fm.query_arrays(cg, us, vs)
        rounds.append((us, vs, definite, value, scalar))
    return rounds


def query_probes(fm, t: Tracer, cg, truth, rounds, tally: Tally, prefix: str = "") -> dict:
    """Check the rounds' answers, then time each layer under them on the same pairs."""
    mix = dict.fromkeys(("definite_yes", "definite_no", "fuzzy_scored", "fuzzy_fallback"), 0)
    evals = 0
    for us, vs, definite, value, scalar in rounds:
        check_scalar(scalar, definite[:len(scalar)], value[:len(scalar)], tally)
        with t.span(prefix + "radii.pair_distances"):
            d = pair_distances(cg.embedding.coords, us, vs)
        xs, scored = crisp_inputs(cg, us, vs, d, definite)
        with t.span(prefix + "fuzzy.evaluate_many"):
            fm.evaluate_many(cg.fuzzy, xs)
        for x in xs[:SCALAR_PER_BATCH].tolist():
            with t.span(prefix + "fuzzy.evaluate"):
                fm.evaluate(cg.fuzzy, x)
        evals += xs.shape[0]
        fallback = ~definite & ~scored
        mix["definite_yes"] += int((definite & (value == 1.0)).sum())
        mix["definite_no"] += int((definite & (value == 0.0)).sum())
        mix["fuzzy_scored"] += int(scored.sum())
        mix["fuzzy_fallback"] += int(fallback.sum())
        tally.add("fallback answers are 0.5", int(fallback.sum()), int((fallback & (value != 0.5)).sum()))

    check = check_answers(truth, *(np.concatenate([r[i] for r in rounds]) for i in range(4)))
    tally.add("batched answer", check.pairs, check.wrong)
    metrics = {
        "oracle.query_us": (t.median(prefix + "oracle.query") * 1e6, "us"),
        "oracle.query_arrays_s": (t.median(prefix + "oracle.query_arrays"), "s"),
        "radii.pair_distances_us": (t.median(prefix + "radii.pair_distances") * 1e6, "us"),
        "fuzzy.evaluate_us": (t.median(prefix + "fuzzy.evaluate") * 1e6, "us"),
        "fuzzy.evaluate_many_s": (t.median(prefix + "fuzzy.evaluate_many"), "s"),
        "fuzzy.evals": (float(evals), "count"),
        **{f"oracle.{name}": (float(count), "count") for name, count in mix.items()},
        "oracle.definite_pct": (check.definite_pct, "%"),
        "oracle.fuzzy_sound_pct": (check.fuzzy_sound_pct, "%"),
        "radii.r_sentinel_frac": (float((cg.radii.r == -1.0).mean()), "fraction"),
        "radii.R_inf_frac": (float(np.isinf(cg.radii.R).mean()), "fraction"),
    }
    return {prefix + name: value for name, value in metrics.items()}


def _wall(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def traced_run(fm, workload: str, work: Path, seed: int, tally: Tally, run_id: str):
    """Replay every layer on this workload's inputs; per-layer metrics and the tracer."""
    inputs = generate_graph(fm, "ba20k", seed, work)
    model = work / "ba20k.fzg"
    off, t = Tracer(run_id, enabled=False), Tracer(run_id)

    # The own replay runs untraced just before and just after the traced one,
    # so first-call effects (cold page cache, fresh memory) fall on both sides.
    untraced = []

    def compress(tracer):
        return replay_compress(fm, tracer, inputs.edges, model, seed)

    if workload == "compress-ba20k":
        untraced.append(_wall(lambda: compress(off)))
    with t.span("replay.compress"):
        g, embedding = compress(t)
    if workload == "compress-ba20k":
        untraced.append(_wall(lambda: compress(off)))

    def evaluate(tracer):
        return replay_evaluate(fm, tracer, g, model, seed)

    if workload == "evaluate-ba20k":
        untraced.append(_wall(lambda: evaluate(off)))
    with t.span("replay.evaluate"):
        cg, report = evaluate(t)
    if workload == "evaluate-ba20k":
        untraced.append(_wall(lambda: evaluate(off)))
    tally.add("evaluate_model definite answers sound", 1, int(report.definite_correct != report.definite))

    threads = os.environ["FUZZMAP_THREADS"]
    os.environ["FUZZMAP_THREADS"] = "1"
    try:
        with t.span("radii.scan.threads1"):
            fm.compute_all_radii(g, embedding, quantize=True)
    finally:
        os.environ["FUZZMAP_THREADS"] = threads
    nodes = np.random.default_rng([seed, 3]).choice(g.n, DISTANCE_NODES, replace=False)
    for v in nodes.tolist():
        with t.span("radii.distances_from"):
            distances_from(embedding.coords, v)
    for _ in range(LOAD_REPEATS):
        with t.span("oracle.load"):
            fm.load_file(str(model))
    for _ in range(FCL_REPEATS):
        with t.span("fuzzy.parse_fcl"):
            fm.parse_fcl(cg.fcl_text)
    startup = []  # the call's own wall time; the span also covers launch.py
    for _ in range(STARTUP_REPEATS):
        with t.span("cli.startup"):
            run = run_child(fuzzmap_cli("info", str(model)), work)
        startup.append(run.wall_s)
        tally.add("info exit 0", 1, int(run.returncode != 0))

    if workload == "query-ba20k":
        untraced.append(_wall(lambda: replay_query(fm, off, cg, seed)))
    with t.span("replay.query"):
        rounds = replay_query(fm, t, cg, seed)
    if workload == "query-ba20k":
        untraced.append(_wall(lambda: replay_query(fm, off, cg, seed)))
    untraced_s = sum(untraced) / len(untraced)
    metrics = query_probes(fm, t, cg, inputs.truth, rounds, tally)
    dense = generate_graph(fm, "dense", seed, work, model=True)
    dense_cg = fm.load_file(str(dense.model))
    dense_rounds = replay_query(fm, t, dense_cg, seed, "dense.")
    metrics.update(query_probes(fm, t, dense_cg, dense.truth, dense_rounds, tally, "dense."))

    own_index = next(i for i, s in enumerate(t.spans) if s.name == OWN_REPLAY[workload])
    own, own_self = t.spans[own_index], t.self_times()[own_index]
    own_spans = sum(1 for s in t.spans[own_index:] if s.start <= own.end)
    scan, scan1 = t.median("radii.scan"), t.median("radii.scan.threads1")
    metrics.update({
        "graph.parse_s": (t.median("graph.parse"), "s"),
        "fastmap.embed_s": (t.median("fastmap.embed"), "s"),
        "fastmap.degenerate_axes": (float(sum(p is None for p in embedding.pivots)), "count"),
        "radii.scan_s": (scan, "s"),
        "radii.scan_s.threads1": (scan1, "s"),
        "radii.thread_speedup": (scan1 / scan, "ratio"),
        "radii.distances_from_us": (t.median("radii.distances_from") * 1e6, "us"),
        "oracle.save_s": (t.median("oracle.save"), "s"),
        "oracle.load_s": (t.median("oracle.load"), "s"),
        "fuzzy.parse_fcl_ms": (t.median("fuzzy.parse_fcl") * 1e3, "ms"),
        "harness.evaluate_model_s": (t.median("harness.evaluate_model"), "s"),
        "harness.pairs": (float(report.pairs), "count"),
        "cli.startup_s": (float(np.median(startup)), "s"),
        "trace.replay_s": (own.duration, "s"),
        "trace.replay_untraced_s": (untraced_s, "s"),
        "trace.overhead_pct": (100.0 * (own.duration - untraced_s) / untraced_s, "%"),
        "trace.overhead_est_pct": (100.0 * own_spans * _span_cost(run_id) / untraced_s, "%"),
        "trace.replay_self_s": (own_self, "s"),
    })
    return metrics, t


def _span_cost(run_id: str) -> float:
    """Seconds to record one empty span: the overhead the replay's spans add."""
    probe = Tracer(run_id)
    start = time.perf_counter()
    for _ in range(SPAN_PROBES):
        with probe.span("probe"):
            pass
    return (time.perf_counter() - start) / SPAN_PROBES
