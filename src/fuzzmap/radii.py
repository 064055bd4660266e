"""Per-node definite-yes radius r and definite-no radius R.

For node v, every node within Euclidean distance r(v) is guaranteed a
neighbor and every node at distance R(v) or beyond is guaranteed a
non-neighbor. Sentinels: r = -1 means no distance triggers a definite
yes; R = +inf means no distance triggers a definite no. Quantization
rounds each radius to an integer in the direction that preserves these
guarantees.

Every distance comes from one kernel, ``_axis_distances``: it takes one
(a_j, b_j) operand pair per axis, adds the squared differences axis by
axis, j = 0..k-1, then takes the square root. The radii scan,
``distances_from``, the query side's ``pair_distances`` and the model's
u x u point-distance table (one ``_block_distances`` call over all
points, kept while u**2 <= k * n; queries fall back to
``pair_distances`` above that cap) therefore agree bit for bit, which
the soundness of definite answers rests on.
Coordinates are axis-major (``Embedding.coords`` is Fortran-ordered), so
``coords.T`` is the C-contiguous (k, n) table and each caller hands the
kernel contiguous axis rows, or one gather per axis for m pairs: no row
gather of (m, k) and no transposed copy.

FastMap often puts many nodes on one point, so the scan works on the u
distinct points of the embedding, not on the n nodes. The kernel fills
point-to-point distance rows, _BLOCK points per call, into a reused
buffer that holds a span of points. A node v on point p reads its
neighbor distances from row p; a point q still holds a non-neighbor of
v exactly when cnt[q] - #{neighbors of v on q} - [q == p] > 0, and every
other point is masked out. The rule then runs on a chunk of nodes at
once; ``compute_radii`` runs the same path for one node. Spans and
chunks hold at most max(_BLOCK * u, _CHUNK) elements, so a thread's
scratch is O(_BLOCK * u + _CHUNK). The gain depends on the collapse:
with all points distinct (u = n) the scan costs O(n^2 k) as before.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._parallel import thread_count, usable_cpus
from .fastmap import Embedding
from .graph import Graph

log = logging.getLogger(__name__)

R_NONE = -1.0  # definite-yes sentinel: never triggers
_BLOCK = 4  # points per kernel call in the radii scan
_CHUNK = 1 << 18  # scratch elements (nodes x u) per rule call


@dataclass(eq=False)
class NodeRadii:
    r: np.ndarray  # (n,) float64, -1.0 sentinel
    R: np.ndarray  # (n,) float64, +inf sentinel
    quantized: bool


def _axis_distances(axes, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The one distance kernel: sqrt of (a_j - b_j)**2 summed into ``out``
    axis by axis, over the (a_j, b_j) pairs of ``axes`` for j = 0..k-1.
    a_j and b_j broadcast to out's shape.

    Soundness needs build-time and query-time distances bitwise equal, so
    every distance goes through here and sums its axes in this order.
    """
    for j, (a, b) in enumerate(axes):
        np.subtract(a, b, out=tmp)
        if j == 0:
            np.multiply(tmp, tmp, out=out)
        else:
            np.multiply(tmp, tmp, out=tmp)
            np.add(out, tmp, out=out)
    return np.sqrt(out, out=out)


def distances_from(coords: np.ndarray, v: int) -> np.ndarray:
    """Euclidean distances from node v to every node (self included, 0)."""
    n = coords.shape[0]
    return _axis_distances(zip(coords.T, coords[v]), np.empty(n), np.empty(n))


def pair_distances(coords: np.ndarray, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Euclidean distances for aligned id arrays; same kernel as distances_from.

    Gathers one axis at a time, so temporaries are O(m), not O(m * k).
    """
    m = np.shape(us)[0]
    return _axis_distances(((c[us], c[vs]) for c in coords.T), np.empty(m), np.empty(m))


def euclidean_distance(e: Embedding, u: int, v: int) -> float:
    if not (0 <= u < e.n and 0 <= v < e.n):
        raise ValueError(f"node id out of range [0, {e.n})")
    return float(pair_distances(e.coords, np.array([u]), np.array([v]))[0])


def _check_inputs(g: Graph, e: Embedding) -> None:
    if g.n < 2:
        raise ValueError("graph must have at least 2 nodes")
    if e.n != g.n:
        raise ValueError(f"embedding has {e.n} rows but graph has {g.n} nodes")
    if e.k < 1:
        raise ValueError("embedding must have k >= 1 dimensions")
    bad = np.flatnonzero(~np.isfinite(e.coords).all(axis=1))
    if bad.size:
        raise ValueError(f"non-finite coordinate at node {bad[0]}")


@dataclass(eq=False)
class PointGroups:
    """The distinct points of an embedding and the nodes on each.

    ``points_t`` is the (k, u) axis-major table of distinct points,
    ``inv[v]`` the point of node v and ``cnt[q]`` the number of nodes on
    point q. ``order`` lists the nodes grouped by point, so the nodes on
    points lo..hi-1 are ``order[offsets[lo]:offsets[hi]]``.
    """

    points_t: np.ndarray
    inv: np.ndarray
    cnt: np.ndarray
    order: np.ndarray
    offsets: np.ndarray

    @property
    def u(self) -> int:
        return self.cnt.shape[0]


def group_points(coords: np.ndarray) -> PointGroups:
    """Group nodes by equal coordinate rows, in one lexicographic sort.

    0.0 and -0.0 compare equal and share a point; the kernel squares
    every difference, so either sign gives the same distance bits.
    """
    order = np.lexsort(coords.T[::-1])
    ranked_t = coords.T.take(order, axis=1)  # take keeps the (k, n) table C-contiguous
    new = np.ones(order.size, dtype=bool)
    np.any(ranked_t[:, 1:] != ranked_t[:, :-1], axis=0, out=new[1:])
    starts = np.flatnonzero(new)
    inv = np.empty(order.size, dtype=np.intp)
    inv[order] = np.cumsum(new) - 1
    offsets = np.append(starts, order.size)
    return PointGroups(points_t=ranked_t.take(starts, axis=1), inv=inv,
                       cnt=np.diff(offsets), order=order, offsets=offsets)


def _block_distances(
    points_t: np.ndarray, lo: int, hi: int, out: np.ndarray, tmp: np.ndarray
) -> np.ndarray:
    """Distance rows of points lo..hi-1 to every point, in one kernel call.

    points_t is a (k, u) axis-major point table; out and tmp are reusable
    buffers with at least hi - lo rows of u.
    """
    return _axis_distances(zip(points_t, points_t[:, lo:hi, None]), out[: hi - lo], tmp[: hi - lo])


def _segment_max(values: np.ndarray, sizes: np.ndarray, empty: float) -> np.ndarray:
    """Max of each consecutive run of sizes[i] values; ``empty`` for an empty run."""
    out = np.full(sizes.shape[0], empty)
    full = sizes > 0
    if values.size:
        out[full] = np.maximum.reduceat(values, (np.cumsum(sizes) - sizes)[full])
    return out


def _radii_rule(
    g: Graph, groups: PointGroups, nodes: np.ndarray, rows: np.ndarray, quantize: bool
) -> tuple[np.ndarray, np.ndarray]:
    """(r, R) for ``nodes``, given the distance row of each node's point.

    ``rows`` is (len(nodes), u) and is overwritten. m = nearest
    non-neighbor distance, M = farthest neighbor distance. r is the
    largest neighbor distance strictly below m; R the smallest
    non-neighbor distance strictly above M. Quantized, in one rounding
    step: r = ceil(m) - 1 and R = floor(M) + 1. These integer candidates
    are exact and sound below 2**53; where one is not (at or above 2**53,
    m = +inf, or no neighbors), the unquantized radius is kept, r rounded
    down to an integer.
    The count mask needs CSR rows free of self-loops and repeats;
    ``Graph`` guarantees that.
    """
    c, u = rows.shape
    first = g.indptr[nodes]
    deg = g.indptr[nodes + 1] - first
    owner = np.repeat(np.arange(c), deg)  # row of each flat neighbor entry
    flat = np.arange(owner.size) + np.repeat(first - (np.cumsum(deg) - deg), deg)
    nb_point = groups.inv[g.indices[flat]]
    nbd = rows[owner, nb_point]

    # a point holds no non-neighbor of a node when every node on it is a
    # neighbor or the node itself; count (node, point) pairs by sorting keys
    keys, taken = np.unique(np.concatenate([owner * u + nb_point,
                                            np.arange(c) * u + groups.inv[nodes]]),
                            return_counts=True)
    np.put(rows, keys[groups.cnt[keys % u] <= taken], np.inf)

    m = rows.min(axis=1)
    M = _segment_max(nbd, deg, -np.inf)
    r = _segment_max(np.where(nbd < m[owner], nbd, R_NONE), deg, R_NONE)
    np.putmask(rows, rows <= M[:, None], np.inf)
    R = rows.min(axis=1)  # m itself when m > M; +inf when nothing lies beyond M

    if not quantize:
        return r, R

    # q < m: no non-neighbor within q; Q > M: every neighbor below Q. Where
    # a test fails, floor(r) is still sound: r is -1 or lies in [0, m).
    q, Q = np.ceil(m) - 1.0, np.floor(M) + 1.0
    return np.where(q < m, q, np.floor(r)), np.where(Q > M, Q, R)


def compute_radii(g: Graph, e: Embedding, v: int, quantize: bool = True) -> tuple[float, float]:
    """(r, R) for one node. Uses out-neighbors when the graph is directed."""
    _check_inputs(g, e)
    g._check_id(v)
    groups = group_points(e.coords)
    p = int(groups.inv[v])
    rows = _block_distances(groups.points_t, p, p + 1, *np.empty((2, 1, groups.u)))
    r, R = _radii_rule(g, groups, np.array([v]), rows, quantize)
    return float(r[0]), float(R[0])


def compute_all_radii(g: Graph, e: Embedding, quantize: bool = True) -> NodeRadii:
    """Radii for every node; equals the per-node op applied sequentially.

    Points are taken a span of max(_BLOCK, _CHUNK // u) at a time: the
    kernel fills the span's distance rows _BLOCK points per call, then
    the nodes on those points go through the rule max(1, _CHUNK // u) at
    a time. Points are independent, so contiguous runs of point blocks
    go to a thread pool no larger than FUZZMAP_THREADS, the number of
    blocks or the usable CPUs; results do not depend on the pool size.
    """
    _check_inputs(g, e)
    n = g.n
    groups = group_points(e.coords)
    u = groups.u
    chunk = max(1, _CHUNK // u)
    span = max(_BLOCK, chunk // _BLOCK * _BLOCK)
    r = np.empty(n)
    R = np.empty(n)

    def fill(lo: int, hi: int) -> None:
        d = np.empty((min(span, hi - lo), u))
        tmp = np.empty((_BLOCK, u))
        for start in range(lo, hi, span):
            stop = min(start + span, hi)
            for b in range(start, stop, _BLOCK):
                _block_distances(groups.points_t, b, min(b + _BLOCK, stop), d[b - start :], tmp)
            last = groups.offsets[stop]
            for a in range(groups.offsets[start], last, chunk):
                nodes = groups.order[a : min(a + chunk, last)]
                r[nodes], R[nodes] = _radii_rule(
                    g, groups, nodes, d[groups.inv[nodes] - start], quantize)

    blocks = -(-u // _BLOCK)
    workers = min(thread_count(), blocks, usable_cpus())
    if workers <= 1:
        fill(0, u)
    else:
        step = -(-blocks // workers) * _BLOCK
        bounds = [(lo, min(lo + step, u)) for lo in range(0, u, step)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda b: fill(*b), bounds))

    log.info("radii: n=%d distinct_points=%d largest_group=%d r_sentinel_frac=%.4f "
             "R_inf_frac=%.4f", n, u, groups.cnt.max(), np.mean(r == R_NONE),
             np.mean(R == np.inf))
    return NodeRadii(r=r, R=R, quantized=quantize)
