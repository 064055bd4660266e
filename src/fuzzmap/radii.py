"""Per-node definite-yes radius r and definite-no radius R.

For node v, every node within Euclidean distance r(v) is guaranteed a
neighbor and every node at distance R(v) or beyond is guaranteed a
non-neighbor. Sentinels: r = -1 means no distance triggers a definite
yes; R = +inf means no distance triggers a definite no. Quantization
rounds each radius to an integer in the direction that preserves these
guarantees.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._parallel import thread_count
from .fastmap import Embedding
from .graph import Graph

R_NONE = -1.0  # definite-yes sentinel: never triggers


@dataclass(eq=False)
class NodeRadii:
    r: np.ndarray  # (n,) float64, -1.0 sentinel
    R: np.ndarray  # (n,) float64, +inf sentinel
    quantized: bool

    @property
    def n(self) -> int:
        return self.r.shape[0]


def _row_norms(diff: np.ndarray) -> np.ndarray:
    """The one distance kernel. Soundness needs build-time and query-time
    distances bitwise equal, so every distance goes through here."""
    return np.sqrt((diff * diff).sum(axis=1))


def distances_from(coords: np.ndarray, v: int) -> np.ndarray:
    """Euclidean distances from node v to every node (self included, 0)."""
    return _row_norms(coords - coords[v])


def pair_distances(coords: np.ndarray, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Euclidean distances for aligned id arrays; same kernel as distances_from."""
    return _row_norms(coords[us] - coords[vs])


def euclidean_distance(e: Embedding, u: int, v: int) -> float:
    if not (0 <= u < e.n and 0 <= v < e.n):
        raise ValueError(f"node id out of range [0, {e.n})")
    return float(pair_distances(e.coords, np.array([u]), np.array([v]))[0])


def _neighbor_mask(g: Graph, v: int) -> np.ndarray:
    mask = np.zeros(g.n, dtype=bool)
    mask[g.neighbors(v)] = True
    return mask


def _radii_from_distances(
    d: np.ndarray, neighbor: np.ndarray, v: int, quantize: bool
) -> tuple[float, float]:
    """Core rule, shared by the per-node op and the all-nodes builder.

    m = nearest non-neighbor distance, M = farthest neighbor distance.
    r is the largest neighbor distance strictly below m; R the smallest
    non-neighbor distance strictly above M. Quantized: r = ceil(m) - 1 and
    R = floor(M) + 1, each falling back to the sound unquantized-derived
    value if the integer candidate ever failed its soundness check.
    """
    others = np.ones(d.shape[0], dtype=bool)
    others[v] = False
    nbd = d[neighbor & others]
    nnd = d[~neighbor & others]
    m = float(nnd.min()) if nnd.size else math.inf
    M = float(nbd.max()) if nbd.size else -math.inf

    below = nbd[nbd < m]
    r = float(below.max()) if below.size else R_NONE
    above = nnd[nnd > M]
    R = float(above.min()) if above.size else math.inf

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


def compute_radii(g: Graph, e: Embedding, v: int, quantize: bool = True) -> tuple[float, float]:
    """(r, R) for one node. Uses out-neighbors when the graph is directed."""
    if g.n < 2:
        raise ValueError("graph must have at least 2 nodes")
    if e.n != g.n:
        raise ValueError(f"embedding has {e.n} rows but graph has {g.n} nodes")
    g._check_id(v)
    d = distances_from(e.coords, v)
    return _radii_from_distances(d, _neighbor_mask(g, v), v, quantize)


def compute_all_radii(g: Graph, e: Embedding, quantize: bool = True) -> NodeRadii:
    """Radii for every node; equals the per-node op applied sequentially.

    Nodes are independent, so the O(n^2) distance work is chunked across
    threads (FUZZMAP_THREADS caps the pool; results do not depend on it).
    """
    if g.n < 2:
        raise ValueError("graph must have at least 2 nodes")
    if e.n != g.n:
        raise ValueError(f"embedding has {e.n} rows but graph has {g.n} nodes")

    n = g.n
    r = np.empty(n)
    R = np.empty(n)

    def fill(lo: int, hi: int) -> None:
        for v in range(lo, hi):
            d = distances_from(e.coords, v)
            r[v], R[v] = _radii_from_distances(d, _neighbor_mask(g, v), v, quantize)

    workers = min(thread_count(), n)
    if workers <= 1 or n < 256:
        fill(0, n)
    else:
        step = -(-n // workers)
        bounds = [(lo, min(lo + step, n)) for lo in range(0, n, step)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda b: fill(*b), bounds))

    return NodeRadii(r=r, R=R, quantized=quantize)
