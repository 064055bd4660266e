"""The workloads: seeded set-up, the timed part, and output checks.

Each workload is one closed loop: a single caller waits for every reply.
Set-up generates the inputs from the seed with ``fuzzmap.generate`` and
writes them as files; the program under test sees only those files and
node ids. The timed part is the CLI, run in a child process, so its peak
RSS is its own. Outputs are checked after the timed part, never inside it.
"""

from __future__ import annotations

import csv
import io
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Callable, Optional, TypeVar

import numpy as np

from answers import AnswerCheck, Tally, Truth, balanced_pct, check_answers, check_scalar
from environment import ROOT, fuzzmap_cli, run_child

K = 8
BA_N, BA_M = 20_000, 5
DENSE_N, DENSE_P = 1000, 0.3
# Each set-up builds the O(n^2) model (~12 s); two keep a run well inside
# the time the whole benchmark may take.
SETUP_REPEATS = 2
SCALAR_CHECKS = 1000  # scalar query vs query_arrays comparisons in the compress check
# The evaluate CSV as the spec defines it; checked literally, not against fuzzmap's constant.
CSV_HEADER = (
    "k,pairs,definite_pct,definite_correct_pct,fuzzy_pairs,"
    "fuzzy_sound_yes_pct,fuzzy_sound_no_pct,seed,sample_size"
)
EVAL_SAMPLE = 1_000_000  # `fuzzmap evaluate` default --sample

Metrics = dict[str, tuple[float, str]]
T = TypeVar("T")


@dataclass(frozen=True)
class Inputs:
    edges: Path
    truth: Truth
    model: Optional[Path] = None


class BenchError(RuntimeError):
    """An output the checks need is missing; the run cannot report metrics."""


def generate_graph(fm, kind: str, seed: int, work: Path, model: bool = False) -> Inputs:
    """Seeded graph written as a canonical edge file, and optionally its model.

    The model is what `fuzzmap compress --k 8 --seed <seed>` writes for
    that file. Truth is read back from the edge text.
    """
    if kind == "ba20k":
        g = fm.preferential_attachment_graph(BA_N, BA_M, seed=seed)
    else:
        g = fm.gnp_random_graph(DENSE_N, DENSE_P, seed=seed)
    if not np.array_equal(g.external_ids, np.arange(g.n, dtype=np.uint64)):
        raise BenchError(f"generated {kind} graph does not use ids 0..n-1")
    text = fm.canonical_edge_list(g)
    edges = work / f"{kind}-{seed}.txt"
    edges.write_text(text, encoding="utf-8")
    inputs = Inputs(edges=edges, truth=Truth.from_edge_text(text, g.n))
    if not model:
        return inputs
    path = work / f"{kind}-{seed}.fzg"
    fm.save_file(fm.build(g, k=K, seed=seed, quantize=True), str(path))
    return Inputs(edges=edges, truth=inputs.truth, model=path)


def timed_setup(make: Callable[[], T]) -> tuple[float, T]:
    """Median wall time of SETUP_REPEATS identical set-ups, and the last one's result."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        result = make()
        times.append(time.perf_counter() - start)
    return median(times), result


def _quality(check: AnswerCheck, tally: Tally, what: str) -> dict:
    """Answer mix for the run record. These vary from model to model by more
    than any bound allows, so they are reported, not bounded."""
    tally.add(what, check.pairs, check.wrong)
    return {"definite_pct": check.definite_pct, "fuzzy_sound_pct": check.fuzzy_sound_pct}


def _cli_loop(argv_for: Callable[[int], list[str]], seconds: float, min_calls: int, work: Path):
    runs = []
    start = time.perf_counter()
    while len(runs) < min_calls or time.perf_counter() - start < seconds:
        runs.append(run_child(argv_for(len(runs)), work))
    return runs


def _call_metrics(runs, setup_s: float, model: Path) -> Metrics:
    return {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (median(r.wall_s for r in runs) * 1e3, "ms"),
        "peak_rss_mb": (max(r.maxrss_mb for r in runs), "MB"),
        "model_bytes": (float(model.stat().st_size), "bytes"),
    }


def _scalar_check(fm, cg, us, vs, definite, value, rng: np.random.Generator, tally: Tally) -> None:
    """Scalar `query` on SCALAR_CHECKS seeded pairs of a checked query_arrays call."""
    picks = rng.choice(us.shape[0], SCALAR_CHECKS, replace=False)
    answers = [fm.query(cg, int(us[i]), int(vs[i])) for i in picks]
    check_scalar(answers, definite[picks], value[picks], tally)


def compress_ba20k(fm, work: Path, seed: int, seconds: float, tally: Tally) -> tuple[Metrics, dict]:
    # Set-up also builds the model with the library: the reference the CLI's output must equal.
    setup_s, inputs = timed_setup(lambda: generate_graph(fm, "ba20k", seed, work, model=True))
    runs = _cli_loop(
        lambda i: fuzzmap_cli("compress", "--input", str(inputs.edges), "--k", str(K),
                              "--seed", str(seed), "--output", str(work / f"compressed{i}.fzg")),
        seconds, 1, work,
    )
    models = [work / f"compressed{i}.fzg" for i in range(len(runs))]
    for run, model in zip(runs, models):
        tally.add("compress exit 0", 1, int(run.returncode != 0 or not model.is_file()))
    if not models[0].is_file():
        raise BenchError(f"compress wrote no model: {runs[0].stderr.strip()}")
    reference = inputs.model.read_bytes()
    for model in models:
        same = model.is_file() and model.read_bytes() == reference
        tally.add("compress output == fuzzmap.build + save_file", 1, int(not same))

    # Out of the timed region: every edge plus as many seeded non-edges.
    cg = fm.load_file(str(models[0]))
    rng = np.random.default_rng([seed, 2])
    eu, ev = inputs.truth.edges()
    nu, nv = inputs.truth.non_edges(inputs.truth.num_edges, rng)
    us, vs = np.concatenate([eu, nu]), np.concatenate([ev, nv])
    definite, value = fm.query_arrays(cg, us, vs)
    metrics = _call_metrics(runs, setup_s, models[0])
    quality = _quality(check_answers(inputs.truth, us, vs, definite, value), tally, "probe pair")

    _scalar_check(fm, cg, us, vs, definite, value, rng, tally)
    return metrics, {"calls_ms": [r.wall_s * 1e3 for r in runs], "probe_pairs": int(us.shape[0]), **quality}


def query_ba20k(fm, work: Path, seed: int, seconds: float, tally: Tally) -> tuple[Metrics, dict]:
    setup_s, inputs = timed_setup(lambda: generate_graph(fm, "ba20k", seed, work, model=True))
    out = work / "answers.npz"
    run = run_child(
        [sys.executable, str(ROOT / "perfbench" / "query_loop.py"), "--model", str(inputs.model),
         "--seed", str(seed), "--seconds", str(seconds), "--out", str(out)],
        work,
    )
    tally.add("query loop exit 0", 1, int(run.returncode != 0))
    if run.returncode != 0 or not out.is_file():
        raise BenchError(f"query loop failed: {run.stderr.strip()}")
    with np.load(out) as saved:
        us, vs, definite, value, batch_ns = (saved[k] for k in ("us", "vs", "definite", "value", "batch_ns"))

    quality = _quality(check_answers(inputs.truth, us, vs, definite, value), tally, "batched answer")
    cg = fm.load_file(str(inputs.model))
    _scalar_check(fm, cg, us, vs, definite, value, np.random.default_rng([seed, 2]), tally)
    metrics: Metrics = {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (float(np.median(batch_ns)) / 1e6, "ms"),
        "peak_rss_mb": (run.maxrss_mb, "MB"),
        "model_bytes": (float(inputs.model.stat().st_size), "bytes"),
    }
    return metrics, {"batches": int(batch_ns.shape[0]), "checked_pairs": int(us.shape[0]),
                     "batch_p99_ms": float(np.percentile(batch_ns, 99)) / 1e6, **quality}


def evaluate_ba20k(fm, work: Path, seed: int, seconds: float, tally: Tally) -> tuple[Metrics, dict]:
    setup_s, inputs = timed_setup(lambda: generate_graph(fm, "ba20k", seed, work, model=True))
    runs = _cli_loop(
        lambda i: fuzzmap_cli("evaluate", "--model", str(inputs.model), "--graph", str(inputs.edges),
                              "--seed", str(seed), "--out", str(work / f"report{i}.csv")),
        seconds, 2, work,  # two calls, so the CSV can be compared across runs
    )
    reports = [work / f"report{i}.csv" for i in range(len(runs))]
    texts = []
    for run, report in zip(runs, reports):
        text = report.read_text(encoding="utf-8") if report.is_file() else ""
        tally.add("evaluate exit 0 with a valid CSV", 1, int(run.returncode != 0 or not _csv_ok(text)))
        texts.append(text)
    for text in texts[1:]:
        tally.add("evaluate CSV identical per seed", 1, int(text != texts[0]))
    if not _csv_ok(texts[0]):
        raise BenchError(f"evaluate wrote no valid CSV: {runs[0].stderr.strip()}")

    row = next(csv.DictReader(io.StringIO(texts[0])))
    yes, no = row["fuzzy_sound_yes_pct"], row["fuzzy_sound_no_pct"]
    quality = {
        "definite_pct": float(row["definite_pct"]),
        "fuzzy_sound_pct": balanced_pct(float(yes) if yes else None, float(no) if no else None),
    }
    return _call_metrics(runs, setup_s, inputs.model), {"calls_ms": [r.wall_s * 1e3 for r in runs], "csv": texts[0], **quality}


def _csv_ok(text: str) -> bool:
    lines = text.split("\n")
    if len(lines) != 3 or lines[0] != CSV_HEADER or lines[2] != "":
        return False
    fields = lines[1].split(",")
    return (
        len(fields) == 9
        and fields[0] == str(K)
        and fields[1] == str(EVAL_SAMPLE)
        and fields[3] == "100.0000"
        and fields[8] == str(EVAL_SAMPLE)
    )


# evaluate_ba20k is kept for `--workload evaluate-ba20k` by hand but is not
# in BENCHMARK.json: over ten seeds on a shared 2-CPU host its call time
# had a spread of 0.26, wider than any bound of at most 0.25.
WORKLOADS = {
    "compress-ba20k": compress_ba20k,
    "query-ba20k": query_ba20k,
    "evaluate-ba20k": evaluate_ba20k,
}
