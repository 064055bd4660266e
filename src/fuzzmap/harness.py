"""Accuracy measurements: definite-answer coverage and fuzzy soundness vs k.

Definite answers are sound by construction, so definite_correct_pct must
always be 100; the interesting quantities are how many pairs stay
definite after compression and how often fuzzy likelihoods fall on the
right side of 0.5. A likelihood of exactly 0.5 counts as unsound for
both classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .graph import Graph, check_int
from .oracle import CompressedGraph, build, query_arrays

DEFAULT_SAMPLE = 1_000_000
# pairs queried and tallied at a time: ~124 bytes of scratch each, ~32 MiB a block
_EVAL_BLOCK = 1 << 18

CSV_HEADER = (
    "k,pairs,definite_pct,definite_correct_pct,fuzzy_pairs,"
    "fuzzy_sound_yes_pct,fuzzy_sound_no_pct,seed,sample_size"
)


@dataclass(frozen=True)
class EvalReport:
    """Tallies for one model; percentages derive exactly from the counts."""

    k: int
    pairs: int
    definite: int
    definite_correct: int
    fuzzy_pairs: int
    fuzzy_true: int  # fuzzy-queried pairs that are real neighbors
    fuzzy_sound_yes: int  # of fuzzy_true, likelihood > 0.5
    fuzzy_sound_no: int  # of fuzzy_pairs - fuzzy_true, likelihood < 0.5
    seed: int
    sample_size: Optional[int]  # None = ALL

    @property
    def definite_pct(self) -> float:
        return 100.0 * self.definite / self.pairs

    @property
    def definite_correct_pct(self) -> float:
        # vacuously 100 when no definite answers exist
        return 100.0 * self.definite_correct / self.definite if self.definite else 100.0

    @property
    def fuzzy_false(self) -> int:
        return self.fuzzy_pairs - self.fuzzy_true

    @property
    def fuzzy_sound_yes_pct(self) -> Optional[float]:
        if self.fuzzy_true == 0:
            return None
        return 100.0 * self.fuzzy_sound_yes / self.fuzzy_true

    @property
    def fuzzy_sound_no_pct(self) -> Optional[float]:
        if self.fuzzy_false == 0:
            return None
        return 100.0 * self.fuzzy_sound_no / self.fuzzy_false


def _pair_indices(
    n: int, directed: bool, sample_size: Optional[int], seed: int
) -> tuple[int, Optional[np.ndarray]]:
    """(total, idx): the pair count, and the sampled pair indices or None for all.

    A sample is uniform without replacement over the total pair indices,
    seeded, in the order drawn: every tally is a sum. Memory is O(sample),
    not O(n^2).
    """
    total = n * (n - 1) if directed else n * (n - 1) // 2
    if sample_size is None or sample_size >= total:
        return total, None
    rng = np.random.default_rng(seed)
    return total, rng.choice(total, sample_size, replace=False, shuffle=False)


def _decode_pairs(idx: np.ndarray, n: int, directed: bool) -> tuple[np.ndarray, np.ndarray]:
    """The node pairs of pair indices.

    Pair index i is (u, (u + 1 + i // n) mod n) with u = i mod n: over
    i < n(n-1) that is every ordered pair once, and over i < n(n-1)/2
    every unordered pair once, given as u < v.
    """
    us = idx % n
    vs = (us + 1 + idx // n) % n
    if directed:
        return us, vs
    return np.minimum(us, vs), np.maximum(us, vs)


def _edge_keys(g: Graph) -> np.ndarray:
    """Ascending pair keys u * n + v, one per edge (u < v when undirected)."""
    us, vs = g.edges()
    return us * np.int64(g.n) + vs


def evaluate_model(
    cg: CompressedGraph,
    g: Graph,
    sample_size: Optional[int] = DEFAULT_SAMPLE,
    seed: int = 0,
) -> EvalReport:
    """Query sampled pairs and tally the report against ground truth.

    The pairs are queried and tallied in blocks of ``_EVAL_BLOCK``, so
    scratch is O(block + sample + m) however many pairs are tallied.
    ``sample_size`` (None for every pair, else an integer >= 1) and
    ``seed`` (an integer >= 0) are checked first by ``graph.check_int``,
    and the report holds the Python ints it returns.
    """
    if sample_size is not None:
        sample_size = check_int("sample_size", sample_size, 1)
    seed = check_int("seed", seed, 0)
    if cg.n != g.n:
        raise ValueError(f"model has {cg.n} nodes but graph has {g.n}")
    if cg.directed != g.directed:
        raise ValueError("model and graph disagree on directedness")
    differ = np.flatnonzero(cg.external_ids != g.external_ids)
    if differ.size:
        raise ValueError(f"model node {differ[0]} has id {cg.external_ids[differ[0]]} but graph "
                         f"node {differ[0]} has id {g.external_ids[differ[0]]}")

    total, idx = _pair_indices(g.n, g.directed, sample_size, seed)
    pairs = total if idx is None else idx.size
    # the edge keys and one key past them all, which every searchsorted lands on or below
    edge_keys = np.append(_edge_keys(g), np.int64(g.n) * g.n)
    # definite, definite_correct, fuzzy_pairs, fuzzy_true, fuzzy_sound_yes, fuzzy_sound_no
    counts = np.zeros(6, dtype=np.int64)
    for lo in range(0, pairs, _EVAL_BLOCK):
        hi = min(lo + _EVAL_BLOCK, pairs)
        block = np.arange(lo, hi, dtype=np.int64) if idx is None else idx[lo:hi]
        us, vs = _decode_pairs(block, g.n, g.directed)
        definite, value = query_arrays(cg, us, vs)
        keys = us * np.int64(g.n) + vs
        truth = edge_keys[np.searchsorted(edge_keys, keys)] == keys
        fuzzy = ~definite
        fuzzy_true, fuzzy_val = truth[fuzzy], value[fuzzy]
        counts += (definite.sum(), ((value[definite] == 1.0) == truth[definite]).sum(),
                   fuzzy.sum(), fuzzy_true.sum(), (fuzzy_val[fuzzy_true] > 0.5).sum(),
                   (fuzzy_val[~fuzzy_true] < 0.5).sum())

    return EvalReport(cg.k, pairs, *counts.tolist(), seed=seed, sample_size=sample_size)


def sweep_k(
    g: Graph,
    k_values: Sequence[int],
    quantize: bool = True,
    seed: int = 0,
    sample_size: Optional[int] = DEFAULT_SAMPLE,
) -> list[EvalReport]:
    """Build one model per k (same seed) and evaluate each.

    ``k_values`` is any sized sequence (a list, a range, a numpy array),
    not empty; every k in it (an integer >= 1) and ``sample_size`` (as
    in ``evaluate_model``) are checked by ``graph.check_int``, with
    ValueError, before the first build.
    """
    if len(k_values) == 0:
        raise ValueError("k_values must be non-empty")
    k_values = [check_int("k", k, 1) for k in k_values]
    if sample_size is not None:
        sample_size = check_int("sample_size", sample_size, 1)
    reports = []
    for k in k_values:
        cg = build(g, k=k, seed=seed, quantize=quantize)
        reports.append(evaluate_model(cg, g, sample_size=sample_size, seed=seed))
    return reports


def _pct_field(value: Optional[float]) -> str:
    return "" if value is None else f"{value:.4f}"


def reports_to_csv(reports: Sequence[EvalReport]) -> str:
    """CSV with one row per report; '\\n' endings, 4 decimal places."""
    lines = [CSV_HEADER]
    for rep in reports:
        sample = "ALL" if rep.sample_size is None else str(rep.sample_size)
        lines.append(
            f"{rep.k},{rep.pairs},{rep.definite_pct:.4f},{rep.definite_correct_pct:.4f},"
            f"{rep.fuzzy_pairs},{_pct_field(rep.fuzzy_sound_yes_pct)},"
            f"{_pct_field(rep.fuzzy_sound_no_pct)},{rep.seed},{sample}"
        )
    return "\n".join(lines) + "\n"
