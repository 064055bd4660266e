"""Independent oracles for cross-checking the library.

Deliberately written with different algorithms and plain Python so they
share no code path with the implementations they check.
"""

from __future__ import annotations

import math
from itertools import groupby


def norm_oracle(p, q) -> float:
    """Euclidean norm, plain math."""
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(p, q)))


def radii_sort_scan(labelled: list[tuple[float, bool]], quantize: bool) -> tuple[float, float]:
    """(r, R) by sorting (distance, is_neighbor) pairs and scanning tie groups.

    Ascending scan: r is the last all-neighbor distance seen strictly
    before the first group containing a non-neighbor. Descending scan
    mirrors it for R. Ties resolve against coverage (a mixed group stops
    both scans). Distances are taken as given so the check isolates the
    radii-selection rule, not float summation order.
    """
    labelled = sorted(labelled)
    groups = [(d, [nb for _, nb in grp]) for d, grp in groupby(labelled, key=lambda t: t[0])]

    r = -1.0
    for d, nbs in groups:
        if not all(nbs):
            break
        r = d
    R = math.inf
    for d, nbs in reversed(groups):
        if any(nbs):
            break
        R = d

    if not quantize:
        return r, R

    non_nb = [d for d, nbs in groups if not all(nbs)]
    nb = [d for d, nbs in groups if any(nbs)]
    m = min(non_nb) if non_nb else math.inf
    M = max(nb) if nb else -math.inf

    if math.isfinite(m):
        q = math.ceil(m) - 1.0
        if q < m:
            rq = q
        else:
            fq = float(math.floor(r))
            rq = fq if 0.0 <= fq < m else -1.0
    else:
        rq = float(math.floor(r))

    if math.isfinite(M):
        Q = math.floor(M) + 1.0
        Rq = Q if Q > M else R
    else:
        Rq = R
    return rq, Rq


def adjacency_sets_oracle(pairs, directed: bool) -> tuple[list[int], list[set[int]]]:
    """(sorted external ids, per-node neighbor sets) by plain set building.

    Drops self-loops and collapses duplicates; nodes are the endpoints of
    the remaining pairs, numbered densely in ascending external order.
    """
    pairs = [(u, v) for u, v in pairs if u != v]
    ids = sorted({e for pair in pairs for e in pair})
    ext2int = {e: i for i, e in enumerate(ids)}
    adj: list[set[int]] = [set() for _ in ids]
    for eu, ev in pairs:
        u, v = ext2int[eu], ext2int[ev]
        adj[u].add(v)
        if not directed:
            adj[v].add(u)
    return ids, adj


def farthest_pair_distance(dist, n: int) -> float:
    """Max pairwise distance by exhaustive search."""
    return max(dist(u, w) for u in range(n) for w in range(n) if u != w)


def mamdani_centroid_oracle(x: float, samples: int = 1_000_000) -> float:
    """Default-system likelihood by brute-force numeric integration.

    Membership shapes written out inline: input ramps x and 1 - x, output
    ramps y and 1 - y, min truncation, max accumulation, centroid by
    midpoint-rule integration over ``samples`` cells.
    """
    act_adjacent = x
    act_non_adjacent = 1.0 - x
    num = 0.0
    den = 0.0
    h = 1.0 / samples
    for i in range(samples):
        y = (i + 0.5) * h
        mu = max(min(act_adjacent, y), min(act_non_adjacent, 1.0 - y))
        num += y * mu
        den += mu
    if den == 0.0:
        return 0.5
    return num / den
