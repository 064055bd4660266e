"""Per-node definite-yes radius r and definite-no radius R.

For node v, every node within Euclidean distance r(v) is guaranteed a
neighbor and every node at distance R(v) or beyond is guaranteed a
non-neighbor. Sentinels: r = -1 means no distance triggers a definite
yes; R = +inf means no distance triggers a definite no. Quantization
rounds each radius to an integer in the direction that preserves these
guarantees.

Every distance comes from one kernel, ``_axis_distances``: it takes one
(a_j, b_j) operand pair per axis, adds the squared differences axis by
axis, j = 0..k-1, then takes the square root. The radii scan's
``_block_distances`` rows and the query side's ``pair_distances``, which
the model's pair table is scored from too and ``distances_from`` calls,
therefore agree bit for bit, which the soundness of definite answers
rests on. The kernel subtracts in its operands' dtype, so every caller
passes float64, the dtype a model file holds, as ``Embedding`` holds
its coordinates.
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
once, reading the span's rows in place, by one rule for either kind of
radius: m is 0 while p holds a non-neighbor of v, else the distance to
p's nearest other point while that one does. Only nodes failing both,
and rows that need the exact R, copy and mask their point's row. An
unquantized model needs the exact R on every row; quantization only
narrows that to the rows where floor(M) + 1 fails, and rounds at the end.
A node's radii read only its own point's row and its own neighbors,
so the span and chunk it falls in do not change them. Spans and chunks
hold at most max(_BLOCK * u, _CHUNK) elements, so the scratch is
O(_BLOCK * u + _CHUNK). The gain depends on the collapse: with all
points distinct (u = n) the scan costs O(n^2 k) as before. The scan
runs on the calling thread.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .fastmap import Embedding, check_embedding
from .graph import Graph, _group_columns, check_bool

log = logging.getLogger(__name__)

R_NONE = -1.0  # definite-yes sentinel: never triggers
_BLOCK = 4  # points per kernel call in the radii scan
_CHUNK = 1 << 18  # scratch elements (nodes x u) per rule call


@dataclass(eq=False, frozen=True)
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
    """Euclidean distances from node v to every node (self included, 0).

    It is ``pair_distances`` of v against every node; fl(a - b) is
    -fl(b - a), so the bits equal those of every node against v. No build
    or query calls it.
    """
    return pair_distances(coords, v, np.arange(coords.shape[0]))


def pair_distances(coords: np.ndarray, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Euclidean distances for id arrays that broadcast together.

    Gathers one axis at a time, so temporaries are the size of the output,
    not k times it: a (rows, 1) index against a (u,) one gives (rows, u)
    distances from rows + u gathered values an axis. The kernel subtracts
    in its operands' dtype, so callers pass float64 coordinates.
    """
    shape = np.broadcast_shapes(np.shape(us), np.shape(vs))
    return _axis_distances(((c[us], c[vs]) for c in coords.T), np.empty(shape), np.empty(shape))


@dataclass(eq=False, frozen=True)
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
    """Group nodes by equal coordinate rows, numbered by ``graph._group_columns``.

    0.0 and -0.0 compare equal and share a point, which keeps the bits of
    its lowest-numbered node; the kernel squares every difference, so
    either sign gives the same distance bits.
    """
    order, new, inv = _group_columns(coords.T)
    starts = np.flatnonzero(new)
    offsets = np.append(starts, order.size)
    return PointGroups(points_t=coords.T.take(order[starts], axis=1), inv=inv,
                       cnt=np.diff(offsets), order=order, offsets=offsets)


def _block_distances(
    points_t: np.ndarray, lo: int, hi: int, out: np.ndarray, tmp: np.ndarray
) -> np.ndarray:
    """Distance rows of points lo..hi-1 to every point, in one kernel call.

    points_t is a (k, u) axis-major table of points; out and tmp are reusable
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


def _nearest_other(d: np.ndarray, first: int) -> np.ndarray:
    """The nearest other point of each point first + i, whose distance row
    is d[i]; the point itself when it is the only one."""
    diagonal = np.arange(d.shape[0]), np.arange(first, first + d.shape[0])
    d[diagonal] = np.inf
    near = d.argmin(axis=1)
    d[diagonal] = 0.0  # the kernel's distance from a point to itself
    return near


def _radii_rule(
    g: Graph, groups: PointGroups, nodes: np.ndarray, d: np.ndarray, first: int,
    near: np.ndarray, quantize: bool
) -> tuple[np.ndarray, np.ndarray]:
    """(r, R) for ``nodes``, whose points have distance rows in ``d``.

    Row i of ``d`` is point first + i, and ``near[i]`` its nearest other
    point (``_nearest_other``). m = nearest non-neighbor distance, M =
    farthest neighbor distance. r is the largest neighbor distance
    strictly below m; R the smallest non-neighbor distance strictly above
    M. m is 0 while a node's own point holds a non-neighbor, else the
    distance to the nearest other point while that one does; only nodes
    failing both gather their point's row, mask it and take its minimum.
    Rows that need the exact R are gathered and masked too: unquantized,
    every row; quantized, the rows where Q = floor(M) + 1 is not above M.
    Quantization only rounds, at the end: r = ceil(m) - 1, and R = Q
    where Q > M. These integer candidates are exact and sound below
    2**53; where one is not (at or above 2**53, m = +inf, or no
    neighbors), the unquantized radius is kept, r rounded down to an
    integer.
    The count mask needs CSR rows free of self-loops and repeats;
    ``Graph`` guarantees that.
    """
    c, u = nodes.shape[0], groups.u
    point = groups.inv[nodes]
    pos = point - first  # each node's row of d
    start = g.indptr[nodes]
    deg = g.indptr[nodes + 1] - start
    owner = np.repeat(np.arange(c), deg)  # node of each flat neighbor entry
    flat = np.arange(owner.size) + np.repeat(start - (np.cumsum(deg) - deg), deg)
    nb_point = groups.inv[g.indices[flat]]
    nbd = d[pos[owner], nb_point]

    # a point holds no non-neighbor of a node when every node on it is a
    # neighbor or the node itself; count (node, point) pairs by sorting keys
    own = np.arange(c) * u + point
    keys, taken = np.unique(np.concatenate([owner * u + nb_point, own]), return_counts=True)
    spent = groups.cnt[keys % u] <= taken

    M = _segment_max(nbd, deg, -np.inf)
    # m is 0 while the own point holds a non-neighbor (every own key is
    # among the keys), else the distance to the nearest other point while
    # that one does; the nodes failing both scan their whole row
    nearest = near[pos]
    own_spent = spent[np.searchsorted(keys, own)]
    m = np.where(own_spent, d[pos, nearest], 0.0)
    other = own - point + nearest
    at = np.minimum(np.searchsorted(keys, other), keys.size - 1)
    scan = own_spent & spent[at] & (keys[at] == other)
    # R starts as Q = floor(M) + 1, every neighbor below it while Q > M;
    # where that fails, or unquantized, R is the exact one
    R = np.floor(M) + 1.0
    exact = ~(R > M) | (not quantize)
    need = np.flatnonzero(scan | exact)
    # copies of the rows that scan or need the exact R, their spent points masked
    rows = d[pos[need]]
    row_of = np.full(c, -1)
    row_of[need] = np.arange(need.size)
    spent_keys = keys[spent]
    at = row_of[spent_keys // u]
    np.put(rows, (at * u + spent_keys % u)[at >= 0], np.inf)
    m[scan] = rows[scan[need]].min(axis=1)

    r = _segment_max(np.where(nbd < m[owner], nbd, R_NONE), deg, R_NONE)
    np.putmask(rows, rows <= M[need, None], np.inf)
    beyond = rows.min(axis=1)  # m itself when m > M; +inf when nothing lies beyond M
    R[need[exact[need]]] = beyond[exact[need]]
    if quantize:
        # q < m: no non-neighbor within q. Where it fails, floor(r) is still
        # sound: r is -1 or lies in [0, m)
        q = np.ceil(m) - 1.0
        r = np.where(q < m, q, np.floor(r))
    return r, R


def compute_all_radii(g: Graph, e: Embedding, quantize: bool = True) -> NodeRadii:
    """Radii for every node; each node's come from its point's row and
    its neighbors alone, whatever span or chunk it falls in.

    Points are taken a span of max(_BLOCK, _CHUNK // u) at a time: the
    kernel fills the span's distance rows _BLOCK points per call, then
    the nodes on those points go through the rule max(1, _CHUNK // u) at
    a time, all on the calling thread. ``quantize`` must pass ``check_bool``
    and ``e`` ``check_embedding``; then ValueError, in this order, for a
    graph of fewer than 2 nodes and an embedding whose row count is not
    the graph's n.
    """
    quantize, e = check_bool("quantize", quantize), check_embedding(e)
    if g.n < 2:
        raise ValueError("graph must have at least 2 nodes")
    if e.n != g.n:
        raise ValueError(f"embedding has {e.n} rows but graph has {g.n} nodes")
    return _grouped_radii(g, group_points(e.coords), quantize)


def _grouped_radii(g: Graph, groups: PointGroups, quantize: bool) -> NodeRadii:
    """compute_all_radii over the grouped points of a checked embedding."""
    n = g.n
    u = groups.u
    chunk = max(1, _CHUNK // u)
    span = max(_BLOCK, chunk // _BLOCK * _BLOCK)
    r = np.empty(n)
    R = np.empty(n)
    d = np.empty((min(span, u), u))
    tmp = np.empty((_BLOCK, u))
    for start in range(0, u, span):
        stop = min(start + span, u)
        for b in range(start, stop, _BLOCK):
            _block_distances(groups.points_t, b, min(b + _BLOCK, stop), d[b - start :], tmp)
        rows = d[: stop - start]
        near = _nearest_other(rows, start)
        last = groups.offsets[stop]
        for a in range(groups.offsets[start], last, chunk):
            nodes = groups.order[a : min(a + chunk, last)]
            r[nodes], R[nodes] = _radii_rule(g, groups, nodes, rows, start, near, quantize)

    log.info("radii: n=%d distinct_points=%d largest_group=%d r_sentinel_frac=%.4f "
             "R_inf_frac=%.4f", n, u, groups.cnt.max(), np.mean(r == R_NONE), np.mean(R == np.inf))
    return NodeRadii(r=r, R=R, quantized=quantize)
