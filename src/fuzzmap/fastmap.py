"""FastMap embedding of graph nodes into k-dimensional Euclidean space.

The distance fed to FastMap is the implicit graph distance: 0 to self, 1
to a neighbor, n to anything else. It is produced on demand, one row at a
time, so the n x n matrix is never materialized. Each axis picks a far
pivot pair, projects every node onto the pivot line, and recurses on the
residual distances.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .graph import Graph, check_int, check_real, hold

PIVOT_SEARCH_ITERATIONS = 5  # classic FastMap heuristic constant

DistRow = Callable[[int], np.ndarray]
# what Embedding and load say of a coordinate failing _coordinates_ok
_BAD_COORDINATE = "non-finite or overflowing coordinate"

log = logging.getLogger(__name__)


def _coordinates_ok(coords: np.ndarray) -> np.ndarray:
    """Per coordinate of (rows, k) float64 ``coords``: whether no k-axis
    distance can overflow from it; NaN and inf fail. Two comparisons make
    bool temporaries only, where np.abs would copy the f64 table."""
    bound = np.sqrt(np.finfo(np.float64).max / coords.shape[1]) / 4
    return (coords >= -bound) & (coords <= bound)


@dataclass(eq=False, frozen=True)
class Embedding:
    """n x k coordinate table with the pivot pair recorded per axis.

    Per-node coordinates enter a model here alone, so this is where the
    coordinate rule is stated once, for ``build``, the keyword
    constructor and ``CompressedGraph.embedding`` alike: ValueError, in
    this order, for coords of a dtype that is not a real number
    (``graph.check_real``), not 2-d, with k = 0 axes, or with a
    coordinate failing ``_coordinates_ok`` (naming its node). ``coords``
    is held as float64, the dtype a model file holds, so a model and its
    file compute the same distances; and axis-major: the (n, k) array in
    Fortran order, so ``coords.T`` is the C-contiguous (k, n) table the
    distance kernel reads one axis at a time. The Embedding follows the
    holding rule (``graph.hold``), so no later write gets past the checks.
    ``pivots[i]`` is (a, b) for axis i, or None for a degenerate
    (zero-filled) axis. ``CompressedGraph.embedding`` gathers a model's
    coords only; its pivots are None.
    """

    coords: np.ndarray  # (n, k) float64, Fortran order
    pivots: Optional[list[Optional[tuple[int, int]]]] = None

    def __post_init__(self) -> None:
        coords = hold(check_real("coords", self.coords), np.float64)
        if coords.ndim != 2:
            raise ValueError(f"coords must be 2-d (n, k), not of shape {coords.shape}")
        if coords.shape[1] < 1:
            raise ValueError("embedding must have k >= 1 dimensions")
        bad = np.flatnonzero(~_coordinates_ok(coords).all(axis=1))
        if bad.size:
            raise ValueError(f"{_BAD_COORDINATE} at node {bad[0]}")
        object.__setattr__(self, "coords", coords)

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def k(self) -> int:
        return self.coords.shape[1]


def check_embedding(e) -> Embedding:
    """``e`` if it is an Embedding; TypeError otherwise, since only an
    Embedding's coordinates have passed the coordinate rule."""
    if not isinstance(e, Embedding):
        raise TypeError(f"embedding must be an Embedding, not {type(e).__name__}")
    return e


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
    zero-filled and iteration continues, and one INFO line on this
    module's logger counts them. ``k``, an integer >= 1, and ``seed``, an
    integer >= 0, are checked by ``graph.check_int``, with ValueError,
    before any work.
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

    log.info("fastmap: n=%d k=%d degenerate_axes=%d", n, k, pivots.count(None))
    coords.flags.writeable = False  # no other name holds it, so hold need not copy it
    return Embedding(coords=coords, pivots=pivots)
