"""Edge-list ingestion and exact adjacency ground truth.

Graphs are simple (no self-loops, no duplicate edges) with dense internal
ids 0..n-1. External ids from edge-list files may be arbitrary non-negative
64-bit integers; they are remapped densely in sorted order, so the parsed
graph does not depend on the order of lines in the input.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

log = logging.getLogger(__name__)

_MAX_ID = 2**64 - 1

# token split: runs of spaces/tabs, or a single comma (optionally padded)
_SPLIT = re.compile(r"\s*,\s*|[ \t]+")


class GraphParseError(ValueError):
    """Raised when an edge-list input cannot be parsed."""


@dataclass(eq=False)
class Graph:
    """Compressed-sparse-row (CSR) graph over dense internal ids.

    Row u, ``indices[indptr[u]:indptr[u + 1]]``, holds u's sorted neighbors
    (out-neighbors when directed); other modules read it only through
    ``neighbors`` and ``edges``. ``external_ids[u]`` is the original id of
    internal node u; sorted ascending, so the mapping is canonical.
    Instances are immutable and safe for concurrent readers.

    Construction rejects, with ValueError, arrays that are not such a
    graph: offsets that are not n + 1 non-decreasing values from 0 to
    len(indices), neighbor ids outside [0, n), rows that are not strictly
    increasing or hold their own node, undirected rows that are not
    symmetric, and external ids that are not n strictly increasing values.
    The radii scan's neighbor counts rely on these.
    """

    n: int
    directed: bool
    indptr: np.ndarray  # (n + 1,) int64 row offsets
    indices: np.ndarray  # (indptr[n],) int64 neighbor ids, sorted per row
    external_ids: np.ndarray  # (n,) uint64, internal id -> external id

    def __post_init__(self) -> None:
        # read-only int64 views; an array the caller passed in stays writable
        self.indptr = np.asarray(self.indptr, dtype=np.int64).view()
        self.indices = np.asarray(self.indices, dtype=np.int64).view()
        self.indptr.flags.writeable = self.indices.flags.writeable = False
        n, indptr, indices = self.n, self.indptr, self.indices
        if (n < 0 or indptr.shape != (n + 1,) or indices.ndim != 1 or indptr[0] != 0
                or indptr[-1] != indices.shape[0] or np.any(np.diff(indptr) < 0)):
            raise ValueError("indptr must hold n + 1 non-decreasing offsets from 0 to len(indices)")
        if indices.size and not 0 <= indices.min() <= indices.max() < n:
            raise ValueError(f"neighbor id out of range [0, {n})")
        owner = np.repeat(np.arange(n), np.diff(indptr))
        if np.any(indices == owner) or np.any(
                (np.diff(indices) <= 0) & (owner[1:] == owner[:-1])):
            raise ValueError("graph rows must hold sorted neighbors without self-loops or repeats")
        # the keys u * n + v are ascending by now; symmetric rows give the same keys for (v, u)
        if not self.directed and not np.array_equal(np.sort(indices * n + owner),
                                                    owner * n + indices):
            raise ValueError("undirected graph rows must be symmetric")
        ids = np.asarray(self.external_ids)
        if ids.shape != (n,) or np.any(ids[1:] <= ids[:-1]):
            raise ValueError("external_ids must hold n strictly increasing ids")

    @property
    def num_edges(self) -> int:
        return len(self.indices) if self.directed else len(self.indices) // 2

    def neighbors(self, u: int) -> np.ndarray:
        """Sorted neighbor ids of u (out-neighbors when directed)."""
        self._check_id(u)
        return self.indices[self.indptr[u] : self.indptr[u + 1]]

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """(us, vs): each edge once, in ascending (u, v) order; u < v if undirected."""
        us = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        vs = self.indices
        if not self.directed:
            keep = us < vs
            us, vs = us[keep], vs[keep]
        return us, vs

    def internal_id(self, external: int) -> int:
        return lookup_internal_id(self.external_ids, external)

    def external_id(self, internal: int) -> int:
        self._check_id(internal)
        return int(self.external_ids[internal])

    def _check_id(self, u: int) -> None:
        check_node_id(u, self.n)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and self.directed == other.directed
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.external_ids, other.external_ids)
        )


def _is_integer(value) -> bool:
    """A Python or numpy integer; bools are not ids (they would answer as 1/0)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_node_id(u: int, n: int) -> None:
    """Raise ValueError unless u is an integer internal id in [0, n)."""
    if not _is_integer(u):
        raise ValueError(f"node id {u!r} is not an integer")
    if not 0 <= u < n:
        raise ValueError(f"node id {u} out of range [0, {n})")


def lookup_internal_id(external_ids: np.ndarray, external: int) -> int:
    """Binary search over sorted ids; range-checked before the uint64 cast."""
    if not _is_integer(external):
        raise ValueError(f"external node id {external!r} is not an integer")
    e = int(external)
    if 0 <= e <= _MAX_ID:
        i = int(np.searchsorted(external_ids, np.uint64(e)))
        if i < external_ids.shape[0] and int(external_ids[i]) == e:
            return i
    raise ValueError(f"unknown external node id {external}")


def adjacent(g: Graph, u: int, v: int) -> bool:
    """Exact adjacency: true iff edge (u, v) exists (arc u->v when directed).

    Internal ids; self queries are rejected.
    """
    g._check_id(u)
    g._check_id(v)
    if u == v:
        raise ValueError("self query")
    return v in g.neighbors(u)


def graph_from_edges(pairs: Iterable[tuple[int, int]], directed: bool = False) -> Graph:
    """Build a Graph from (external_u, external_v) pairs.

    Deduplicates edges and drops self-loops; nodes are the union of
    endpoint ids, remapped densely in sorted order.
    """
    ends = np.array(list(pairs), dtype=np.uint64).reshape(-1, 2)
    loops = ends[:, 0] == ends[:, 1]
    if loops.any():
        log.warning("skipped %d self-loop edge(s)", int(loops.sum()))
        ends = ends[~loops]
    if not ends.size:
        raise GraphParseError("empty graph")
    ids, inverse = np.unique(ends.ravel(), return_inverse=True)
    src, dst = inverse.astype(np.int64).reshape(-1, 2).T
    if not directed:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    n = ids.shape[0]
    rows, indices = np.divmod(np.unique(src * n + dst), n)  # sorted, deduplicated
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return Graph(n=n, directed=directed, indptr=indptr, indices=indices, external_ids=ids)


def parse_edge_list(text: str | bytes | IO, directed: bool = False) -> Graph:
    """Parse edge-list text into a Graph.

    One edge per line, two non-negative integer tokens split on runs of
    spaces/tabs or a single comma. Blank lines and lines starting with '#'
    or '%' are ignored. Self-loop lines are skipped (with a logged warning
    count); duplicate edges collapse.
    """
    if hasattr(text, "read"):
        text = text.read()
    if isinstance(text, (bytes, bytearray)):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise GraphParseError(f"input is not UTF-8: {exc}") from None

    pairs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", "%")):
            continue
        if line.count(",") > 1:
            raise GraphParseError(f"line {lineno}: more than one comma: {raw!r}")
        tokens = [t for t in _SPLIT.split(line) if t]
        if len(tokens) != 2:
            raise GraphParseError(
                f"line {lineno}: expected two integer tokens, got {len(tokens)}: {raw!r}"
            )
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise GraphParseError(f"line {lineno}: non-integer token in {raw!r}") from None
        if u < 0 or v < 0 or u > _MAX_ID or v > _MAX_ID:
            raise GraphParseError(f"line {lineno}: node id out of 64-bit range: {raw!r}")
        pairs.append((u, v))

    return graph_from_edges(pairs, directed=directed)


def load_edge_list(path: str, directed: bool = False) -> Graph:
    """Parse an edge-list file from disk."""
    with open(path, "rb") as f:
        return parse_edge_list(f, directed=directed)


def canonical_edge_list(g: Graph) -> str:
    """Emit the canonical edge list (external ids, sorted, one edge per line).

    Re-parsing the result with the same directed flag reproduces the Graph
    exactly.
    """
    us, vs = g.edges()  # internal order == ascending external order
    ext = g.external_ids
    lines = [f"{a} {b}" for a, b in zip(ext[us].tolist(), ext[vs].tolist())]
    return "\n".join(lines) + "\n"
