"""Per-node definite-yes radius r and definite-no radius R.

For node v, every node within Euclidean distance r(v) is guaranteed a
neighbor and every node at distance R(v) or beyond is guaranteed a
non-neighbor. Sentinels: r = -1 means no distance triggers a definite
yes; R = +inf means no distance triggers a definite no. Quantization
rounds each radius to an integer in the direction that preserves these
guarantees.

Every distance comes from one kernel, ``_axis_distances``: it adds the
squared coordinate differences axis by axis, j = 0..k-1, then takes the
square root. The all-nodes scan, ``distances_from`` and the query side's
``pair_distances`` therefore agree bit for bit, which the soundness of
definite answers rests on. The scan transposes the coords once to a
(k, n) array and fills the distance rows of _BLOCK nodes per kernel call
into two reused (_BLOCK, n) buffers, so each thread holds O(_BLOCK * n)
memory; there is no (_BLOCK, n, k) temporary.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._parallel import thread_count, usable_cpus
from .fastmap import Embedding
from .graph import Graph

R_NONE = -1.0  # definite-yes sentinel: never triggers
_BLOCK = 4  # nodes per kernel call in the all-nodes scan


@dataclass(eq=False)
class NodeRadii:
    r: np.ndarray  # (n,) float64, -1.0 sentinel
    R: np.ndarray  # (n,) float64, +inf sentinel
    quantized: bool

    @property
    def n(self) -> int:
        return self.r.shape[0]


def _axis_distances(a, b, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The one distance kernel: sqrt of (a[j] - b[j])**2 summed into ``out``
    axis by axis, j = 0..k-1. a[j] and b[j] broadcast to out's shape.

    Soundness needs build-time and query-time distances bitwise equal, so
    every distance goes through here and sums its axes in this order.
    """
    for j in range(len(a)):
        np.subtract(a[j], b[j], out=tmp)
        if j == 0:
            np.multiply(tmp, tmp, out=out)
        else:
            np.multiply(tmp, tmp, out=tmp)
            np.add(out, tmp, out=out)
    return np.sqrt(out, out=out)


def distances_from(coords: np.ndarray, v: int) -> np.ndarray:
    """Euclidean distances from node v to every node (self included, 0)."""
    n = coords.shape[0]
    return _axis_distances(coords.T, coords[v], np.empty(n), np.empty(n))


def pair_distances(coords: np.ndarray, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Euclidean distances for aligned id arrays; same kernel as distances_from."""
    m = np.shape(us)[0]
    return _axis_distances(coords[us].T, coords[vs].T, np.empty(m), np.empty(m))


def euclidean_distance(e: Embedding, u: int, v: int) -> float:
    if not (0 <= u < e.n and 0 <= v < e.n):
        raise ValueError(f"node id out of range [0, {e.n})")
    return float(pair_distances(e.coords, np.array([u]), np.array([v]))[0])


def _radii_from_distances(
    d: np.ndarray, neighbors: np.ndarray, v: int, quantize: bool
) -> tuple[float, float]:
    """Core rule for node v, given its distance row ``d`` (overwritten).

    m = nearest non-neighbor distance, M = farthest neighbor distance.
    r is the largest neighbor distance strictly below m; R the smallest
    non-neighbor distance strictly above M. Quantized: r = ceil(m) - 1 and
    R = floor(M) + 1, each falling back to the sound unquantized-derived
    value if the integer candidate ever failed its soundness check.
    """
    nbd = d[neighbors]
    d[neighbors] = math.inf  # masked: d now holds only non-neighbor distances
    d[v] = math.inf
    m = float(d.min())
    M = float(nbd.max()) if nbd.size else -math.inf

    below = nbd[nbd < m]
    r = float(below.max()) if below.size else R_NONE
    # the masked entries are inf, so the min over d > M is never empty
    R = m if m > M else float(d[d > M].min())

    if not quantize:
        return r, R

    if math.isfinite(m):
        q = math.ceil(m) - 1.0
        if q < m:  # no non-neighbor within q: yes-sound
            rq = q
        else:
            fq = float(math.floor(r))
            rq = fq if 0.0 <= fq < m else R_NONE
    else:
        rq = float(math.floor(r))  # no non-neighbors at all; any value is sound

    if math.isfinite(M):
        Q = math.floor(M) + 1.0
        Rq = Q if Q > M else R  # Q exceeds every neighbor distance: no-sound
    else:
        Rq = R  # no neighbors: R is already the nearest non-neighbor distance

    return rq, Rq


def _check_inputs(g: Graph, e: Embedding) -> None:
    if g.n < 2:
        raise ValueError("graph must have at least 2 nodes")
    if e.n != g.n:
        raise ValueError(f"embedding has {e.n} rows but graph has {g.n} nodes")


def _block_distances(
    coords_t: np.ndarray, lo: int, hi: int, out: np.ndarray, tmp: np.ndarray
) -> np.ndarray:
    """Distance rows of nodes lo..hi-1 to every node, in one kernel call.

    coords_t is the (k, n) transposed embedding; out and tmp are reusable
    buffers with at least hi - lo rows of n.
    """
    return _axis_distances(coords_t[:, None, :], coords_t[:, lo:hi, None],
                           out[: hi - lo], tmp[: hi - lo])


def _scan_block(
    g: Graph, coords_t: np.ndarray, lo: int, hi: int, quantize: bool,
    out: np.ndarray, tmp: np.ndarray,
) -> list[tuple[float, float]]:
    """(r, R) for nodes lo..hi-1."""
    d = _block_distances(coords_t, lo, hi, out, tmp)
    return [_radii_from_distances(d[i], g.neighbors(v), v, quantize)
            for i, v in enumerate(range(lo, hi))]


def compute_radii(g: Graph, e: Embedding, v: int, quantize: bool = True) -> tuple[float, float]:
    """(r, R) for one node. Uses out-neighbors when the graph is directed."""
    _check_inputs(g, e)
    g._check_id(v)
    buffers = np.empty((2, 1, g.n))
    return _scan_block(g, e.coords.T, v, v + 1, quantize, *buffers)[0]


def compute_all_radii(g: Graph, e: Embedding, quantize: bool = True) -> NodeRadii:
    """Radii for every node; equals the per-node op applied sequentially.

    Nodes are scanned _BLOCK at a time against a (k, n) copy of the
    coords, into two (_BLOCK, n) buffers per thread. Nodes are
    independent, so contiguous runs of blocks go to a thread pool no
    larger than FUZZMAP_THREADS, the number of blocks or the usable CPUs;
    results do not depend on the pool size.
    """
    _check_inputs(g, e)
    n = g.n
    coords_t = np.ascontiguousarray(e.coords.T)
    r = np.empty(n)
    R = np.empty(n)

    def fill(lo: int, hi: int) -> None:
        buffers = np.empty((2, _BLOCK, n))
        for start in range(lo, hi, _BLOCK):
            stop = min(start + _BLOCK, hi)
            r[start:stop], R[start:stop] = zip(
                *_scan_block(g, coords_t, start, stop, quantize, *buffers))

    blocks = -(-n // _BLOCK)
    workers = min(thread_count(), blocks, usable_cpus())
    if workers <= 1:
        fill(0, n)
    else:
        step = -(-blocks // workers) * _BLOCK
        bounds = [(lo, min(lo + step, n)) for lo in range(0, n, step)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda b: fill(*b), bounds))

    return NodeRadii(r=r, R=R, quantized=quantize)
