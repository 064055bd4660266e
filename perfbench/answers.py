"""Ground truth from the generated edge files, and the checks on answers.

Truth comes from the edge text the benchmark wrote, not from fuzzmap's
Graph, so a change to the graph layer cannot change what counts as
correct. Generated graphs have external ids 0..n-1, which equal the
internal ids a model uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Tally:
    """Operations checked and operations whose output was wrong."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, what: str, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"{what}: {failed} of {attempted} failed")


@dataclass(frozen=True)
class Truth:
    n: int
    keys: np.ndarray  # sorted u * n + v with u < v, one per undirected edge

    @classmethod
    def from_edge_text(cls, text: str, n: int) -> "Truth":
        pairs = np.array(text.split(), dtype=np.int64).reshape(-1, 2)
        lo, hi = pairs.min(axis=1), pairs.max(axis=1)
        return cls(n=n, keys=np.unique(lo * n + hi))

    @property
    def num_edges(self) -> int:
        return int(self.keys.shape[0])

    def is_edge(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        keys = np.minimum(us, vs) * np.int64(self.n) + np.maximum(us, vs)
        pos = np.minimum(np.searchsorted(self.keys, keys), self.keys.shape[0] - 1)
        return self.keys[pos] == keys

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        return self.keys // self.n, self.keys % self.n

    def non_edges(self, count: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """count distinct seeded pairs u < v that are not edges."""
        found = np.empty(0, dtype=np.int64)
        while found.shape[0] < count:
            us = rng.integers(0, self.n, 2 * count)
            vs = rng.integers(0, self.n, 2 * count)
            keep = (us != vs) & ~self.is_edge(us, vs)
            keys = np.minimum(us, vs)[keep] * np.int64(self.n) + np.maximum(us, vs)[keep]
            found = np.union1d(found, keys)
        found = rng.permutation(found)[:count]
        return found // self.n, found % self.n


def random_pairs(n: int, count: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """count seeded ordered pairs with u != v (repeats allowed)."""
    us = rng.integers(0, n, count)
    vs = rng.integers(0, n - 1, count)
    return us, vs + (vs >= us)


@dataclass(frozen=True)
class AnswerCheck:
    """Soundness tallies for one set of answers against ground truth."""

    pairs: int
    definite: int
    wrong: int  # definite answers that disagree with the graph, or malformed values
    fuzzy_true: int
    fuzzy_false: int
    sound_yes: int  # fuzzy answers > 0.5 on real edges
    sound_no: int  # fuzzy answers < 0.5 on non-edges

    @property
    def definite_pct(self) -> float:
        return 100.0 * self.definite / self.pairs

    @property
    def fuzzy_sound_pct(self) -> float:
        """Class-balanced: the mean of the two per-class rates the CSV reports."""
        return balanced_pct(
            100.0 * self.sound_yes / self.fuzzy_true if self.fuzzy_true else None,
            100.0 * self.sound_no / self.fuzzy_false if self.fuzzy_false else None,
        )


def balanced_pct(yes_pct: float | None, no_pct: float | None) -> float:
    rates = [p for p in (yes_pct, no_pct) if p is not None]
    return sum(rates) / len(rates) if rates else float("nan")


def check_answers(
    truth: Truth, us: np.ndarray, vs: np.ndarray, definite: np.ndarray, value: np.ndarray
) -> AnswerCheck:
    """Zero-tolerance check of definite answers; soundness of the fuzzy ones."""
    edge = truth.is_edge(us, vs)
    malformed = ~np.isfinite(value) | (value < 0.0) | (value > 1.0)
    malformed |= definite & (value != 0.0) & (value != 1.0)
    wrong = malformed | (definite & ((value == 1.0) != edge))
    fuzzy = ~definite & ~malformed
    return AnswerCheck(
        pairs=int(us.shape[0]),
        definite=int(definite.sum()),
        wrong=int(wrong.sum()),
        fuzzy_true=int((fuzzy & edge).sum()),
        fuzzy_false=int((fuzzy & ~edge).sum()),
        sound_yes=int((fuzzy & edge & (value > 0.5)).sum()),
        sound_no=int((fuzzy & ~edge & (value < 0.5)).sum()),
    )


def check_scalar(answers: list, definite: np.ndarray, value: np.ndarray, tally: Tally) -> None:
    """Count scalar ``query`` answers that are not bit-equal to the
    ``query_arrays`` answers (definite, value) on the same pairs."""
    scalar_definite = np.array([a.is_definite for a in answers])
    scalar_value = np.array([a.value for a in answers])
    mismatch = (scalar_definite != definite) | ~same_bits(scalar_value, value)
    tally.add("scalar query == query_arrays", len(answers), int(mismatch.sum()))


def same_bits(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise bit equality of two float64 arrays (NaN equals its own bits)."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64) == np.ascontiguousarray(
        b, dtype=np.float64
    ).view(np.uint64)
