"""FastMap embedding of graph nodes into k-dimensional Euclidean space.

The distance fed to FastMap is the implicit graph distance: 0 to self, 1
to a neighbor, n to anything else. It is produced on demand, one row at a
time, so the n x n matrix is never materialized. Each axis picks a far
pivot pair, projects every node onto the pivot line, and recurses on the
residual distances.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .graph import Graph, check_int

PIVOT_SEARCH_ITERATIONS = 5  # classic FastMap heuristic constant

DistRow = Callable[[int], np.ndarray]


@dataclass(eq=False)
class Embedding:
    """n x k coordinate table with the pivot pair recorded per axis.

    ``coords`` is kept axis-major: the (n, k) array in Fortran order, so
    ``coords.T`` is the C-contiguous (k, n) table the distance kernel
    reads one axis at a time. ``pivots[i]`` is (a, b) for axis i, or None
    for a degenerate (zero-filled) axis. ``CompressedGraph.embedding``
    gathers a model's coords only; its pivots are None. ValueError for
    coords that are not 2-d.
    """

    coords: np.ndarray  # (n, k) float64, Fortran order
    pivots: Optional[list[Optional[tuple[int, int]]]] = None

    def __post_init__(self) -> None:
        if np.ndim(self.coords) != 2:
            raise ValueError(f"coords must be 2-d (n, k), not of shape {np.shape(self.coords)}")
        self.coords = np.asfortranarray(self.coords)

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def k(self) -> int:
        return self.coords.shape[1]


def graph_distance_row(g: Graph, u: int) -> np.ndarray:
    """Graph distances from u to every v: 0 to self, 1 to a neighbor, n otherwise.

    O(n) time and space; u must pass ``check_node_id``.
    """
    row = np.full(g.n, float(g.n))
    row[g.neighbors(u)] = 1.0
    row[u] = 0.0
    return row


def project(d_ai, d_ab, d_bi):
    """Coordinate of node i on the axis through pivots a, b.

    x = (d_ai^2 + d_ab^2 - d_bi^2) / (2 d_ab). Accepts scalars or arrays
    for d_ai/d_bi. Raises on a zero pivot distance; the caller zero-fills
    the axis in that case.
    """
    if not d_ab > 0.0:
        raise ValueError("degenerate axis: pivot distance is zero")
    if not (np.all(np.isfinite(d_ai)) and np.isfinite(d_ab) and np.all(np.isfinite(d_bi))):
        raise ValueError("projection inputs must be finite")
    if np.any(np.asarray(d_ai) < 0.0) or np.any(np.asarray(d_bi) < 0.0):
        raise ValueError("projection inputs must be non-negative")
    return (d_ai * d_ai + d_ab * d_ab - d_bi * d_bi) / (2.0 * d_ab)


def residual_distance(d_ij, x_i, x_j):
    """Distance remaining after projecting out one axis.

    sqrt(max(0, d_ij^2 - (x_i - x_j)^2)); the clamp absorbs negative
    residuals, which occur freely because the 0/1/n graph distance is not
    a metric. Accepts scalars or arrays.
    """
    diff = x_i - x_j
    return np.sqrt(np.maximum(0.0, d_ij * d_ij - diff * diff))


def choose_pivots(dist_row: DistRow, n: int, seed: int) -> Optional[tuple[int, int]]:
    """Pick a far pivot pair by iterated farthest-point hops.

    Starts from a seed-chosen node and hops to the farthest node five
    times; the last two candidates form the pair (a, b). Returns None (the
    degenerate-axis marker) when the pair distance is zero. Deterministic
    given the seed; argmax ties resolve to the lowest id. Before the draw,
    ValueError unless ``n`` is an integer >= 2 and ``seed`` an integer
    >= 0 (``graph.check_int``): a ``seed`` of None would draw from OS
    entropy, and True would act as 1.
    """
    n, seed = check_int("n", n, 2), check_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    cur = int(rng.integers(n))
    prev = cur
    d_ab = 0.0
    for _ in range(PIVOT_SEARCH_ITERATIONS):
        row = dist_row(cur)
        nxt = int(np.argmax(row))
        d_ab = float(row[nxt])
        prev, cur = cur, nxt
    if prev == cur or d_ab == 0.0:
        return None
    return prev, cur


def fastmap_embed(g: Graph, k: int, seed: int) -> Embedding:
    """Embed the graph's nodes as n x k coordinates.

    Per axis: pivot search, projection of every node, then residual
    wrapping of the distance function for the next axis. The pivot search
    revisits nodes and ends on the pivots, so each node's distance row is
    computed once per axis and reused. Pivot a anchors at coordinate 0 and
    pivot b at the pivot distance, exactly. Degenerate axes are
    zero-filled and iteration continues. ``k``, an integer >= 1, and
    ``seed``, an integer >= 0, are checked by ``graph.check_int``, with
    ValueError, before any work.
    """
    k, seed = check_int("k", k, 1), check_int("seed", seed, 0)
    if g.n < 2:
        raise ValueError("graph must have at least 2 nodes")

    n = g.n
    coords = np.zeros((n, k), order="F")
    pivots: list[Optional[tuple[int, int]]] = []
    axis_seeds = np.random.SeedSequence(seed).generate_state(k)

    for axis in range(k):

        @functools.cache
        def dist_row(u: int, _level: int = axis) -> np.ndarray:
            row = graph_distance_row(g, u)
            for lvl in range(_level):
                row = residual_distance(row, coords[u, lvl], coords[:, lvl])
            return row

        pair = choose_pivots(dist_row, n, int(axis_seeds[axis]))
        if pair is None:
            pivots.append(None)
            continue  # axis stays zero-filled
        a, b = pair
        row_a = dist_row(a)
        row_b = dist_row(b)
        d_ab = float(row_a[b])
        x = project(row_a, d_ab, row_b)
        x[a] = 0.0  # anchor exactly, avoiding round-off in the formula
        x[b] = d_ab
        coords[:, axis] = x
        pivots.append((a, b))

    return Embedding(coords=coords, pivots=pivots)
