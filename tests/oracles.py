"""Independent oracles for cross-checking the library.

Deliberately written with different algorithms and plain Python so they
share no code path with the implementations they check. The one exception
is ``reference_fastmap``: it builds on fuzzmap's own distance rows, so it
checks how ``fastmap_embed`` schedules them, not the row arithmetic.
``answer_oracle`` scores a fuzzy side with fuzzmap's own ``evaluate``, so
it checks the answer rule, not the inference. The reference generators
hand their pairs to ``graph_from_edges``, so they check which pairs the
bulk generators draw, not how a graph is built. ``reference_parse_lines``
is the edge-list reader as a loop over lines, one regex match a line.
"""

from __future__ import annotations

import math
import re
import struct
from array import array
from itertools import groupby

import numpy as np

from fuzzmap.fastmap import graph_distance_row, residual_distance
from fuzzmap.fuzzy import evaluate
from fuzzmap.graph import GraphParseError, graph_from_edges


def norm_oracle(p, q) -> float:
    """Euclidean norm, plain math."""
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(p, q)))


def answer_oracle(system, coords, r, R, directed: bool, u: int, v: int) -> tuple[bool, float]:
    """(definite, value) of the pair (u, v) by the README rule, side by side.

    The side of node a against node b, at d = norm_oracle of their
    coordinate rows (axes summed in the kernel's order): yes if d <= r[a],
    else no if d >= R[a], else none where r[a] is -1 or R[a] infinite,
    else ``evaluate`` of min(max((R - d) / (R - r), 0), 1). The pair: yes
    if a side says yes, else no if a side says no, else the lesser fuzzy
    value (-0.0 read as 0.0), else 0.5. Directed pairs read u's side alone.
    """
    def side(a, b):
        d = norm_oracle(coords[a], coords[b])
        if d <= r[a]:
            return "yes"
        if d >= R[a]:
            return "no"
        if r[a] == -1.0 or R[a] == math.inf:
            return None
        return evaluate(system, min(max((R[a] - d) / (R[a] - r[a]), 0.0), 1.0)) + 0.0

    sides = [side(u, v)] if directed else [side(u, v), side(v, u)]
    if "yes" in sides:
        return True, 1.0
    if "no" in sides:
        return True, 0.0
    fuzzy = [x for x in sides if x is not None]
    return False, min(fuzzy) if fuzzy else 0.5


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


def fzg1_size_oracle(coords, r, R, external_ids, k: int, fcl_len: int) -> int:
    """Expected FZG1 version 4 file size, counted with plain sets.

    A 44-byte header; the id block, lo alone when the ids are consecutive;
    each distinct point (k f64); each distinct (point, r, R) state, radii
    compared by their f64 bytes (r and R: 16 bytes), then one point index
    a state in the bits that number the points, packed; one state index
    a node in the bits that number the states, packed; the FCL text and a
    4-byte CRC. Points compare as Python floats, so 0.0 and -0.0 share one.
    """
    points = [tuple(row) for row in coords]
    ids = [int(e) for e in external_ids]
    n = len(ids)
    id_block = 8 if ids == list(range(ids[0], ids[0] + n)) else 8 * n
    states = {(p, struct.pack("<d", a), struct.pack("<d", b)) for p, a, b in zip(points, r, R)}
    u, t = len(set(points)), len(states)

    def packed(count, items):  # bits for one of `items` values: 0 for one item
        bits = 0
        while 2**bits < items:
            bits += 1
        return (count * bits + 7) // 8

    return 44 + id_block + 8 * k * u + 16 * t + packed(t, u) + packed(n, t) + fcl_len + 4


def reference_fastmap(g, k: int, seed: int):
    """(coords, pivots) of textbook FastMap, every distance row computed from scratch.

    The row of node u on axis L is u's graph distance row after L residual
    passes, recomputed at every request: nothing is cached. The pivot
    search is written out: a start drawn from the axis seed, five
    farthest-point hops (argmax ties to the lowest id), and the last two
    hops as (a, b), or None where they coincide or lie at distance 0.
    coords is the C-ordered (n, k) table.
    """
    n = g.n
    coords = np.zeros((n, k))
    pivots = []

    def row(u, axis):
        d = graph_distance_row(g, u)
        for lvl in range(axis):
            d = residual_distance(d, coords[u, lvl], coords[:, lvl])
        return d

    for axis, axis_seed in enumerate(np.random.SeedSequence(seed).generate_state(k)):
        hops = [int(np.random.default_rng(int(axis_seed)).integers(n))]
        for _ in range(5):
            hops.append(int(np.argmax(row(hops[-1], axis))))
        a, b = hops[-2:]
        d_ab = float(row(a, axis)[b])
        if a == b or d_ab == 0.0:
            pivots.append(None)
            continue
        d_a, d_b = row(a, axis), row(b, axis)
        x = (d_a * d_a + d_ab * d_ab - d_b * d_b) / (2.0 * d_ab)
        x[a], x[b] = 0.0, d_ab
        coords[:, axis] = x
        pivots.append((a, b))
    return coords, pivots


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


def reference_gnp_random_graph(n: int, p: float, seed: int, directed: bool = False):
    """G(n, p) as ``gnp_random_graph`` draws it, one ``rng.random`` call per row."""
    rng = np.random.default_rng(seed)
    pairs: list[tuple[int, int]] = []
    for u in range(n):
        if directed:
            hits = np.flatnonzero(rng.random(n) < p)
            pairs.extend((u, int(v)) for v in hits if v != u)
        else:
            hits = np.flatnonzero(rng.random(n - u - 1) < p)
            pairs.extend((u, u + 1 + int(v)) for v in hits)
    if not pairs:
        pairs = [(0, 1)]
    g = graph_from_edges(pairs, directed=directed)
    if g.n == n:
        return g
    # isolated nodes cannot come from an edge list; re-anchor them to node 0,
    # and node 0 itself to node 1 when it is the only one missing
    present = set(int(e) for e in g.external_ids)
    extra = [(0, u) for u in range(1, n) if u not in present] or [(0, 1)]
    return graph_from_edges(pairs + extra, directed=directed)


def reference_preferential_attachment_graph(n: int, m: int, seed: int):
    """BA(n, m) as ``preferential_attachment_graph`` draws it, one ``rng.integers`` call per target."""
    rng = np.random.default_rng(seed)
    pairs: list[tuple[int, int]] = []
    # endpoints repeated by degree; seeded with a star on the first m+1 nodes
    repeated: list[int] = []
    for v in range(1, m + 1):
        pairs.append((0, v))
        repeated.extend((0, v))
    for v in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(repeated[int(rng.integers(len(repeated)))])
        for t in targets:
            pairs.append((v, t))
            repeated.extend((v, t))
    return graph_from_edges(pairs)


def reference_edge_list(g) -> str:
    """Canonical edge text joined from one f-string per edge."""
    us, vs = g.edges()
    ext = g.external_ids
    lines = [f"{a} {b}" for a, b in zip(ext[us].tolist(), ext[vs].tolist())]
    return "\n".join(lines) + "\n"


_MAX_ID = 2**64 - 1
# one line of an edge list, its '\n' cut off (the README grammar); an id is a sign,
# leading zeros and at most 20 digits more, so int() never meets its digit limit
_ID = r"([+-]?)0*([0-9]{1,20})"
_LINE = re.compile(rf"[ \t]*(?:{_ID}(?:[ \t]*,[ \t]*|[ \t]+){_ID}[ \t]*|[#%].*)?\r?")
_CHUNK = 1 << 16


def reference_parse_lines(data: bytes) -> np.ndarray:
    """(m, 2) uint64 ids of any edge list, one ``_LINE`` match a line; raises on bad lines.

    ``data`` is UTF-8 bytes, decoded here. Lines end at '\n' alone, so a
    vertical tab, a form feed, a lone carriage return or a Unicode line
    break is a character of its line, which then fails the match. The
    text is split one piece of whole lines of at least _CHUNK characters
    at a time, and the ids go to one u64 array.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise GraphParseError(f"input is not UTF-8: {exc}") from None
    ids = array("Q")
    lineno = start = 0
    while start <= len(text):
        stop = text.find("\n", start + _CHUNK - 1)
        if stop < 0:
            stop = len(text)
        for line in text[start:stop].split("\n"):
            lineno += 1
            match = _LINE.fullmatch(line)
            if match is None:
                tokens = len(re.findall(r"[^ \t,]+", line))
                if tokens != 2:
                    raise GraphParseError(
                        f"line {lineno}: expected two integer tokens, got {tokens}: {line!r}")
                raise GraphParseError(f"line {lineno}: expected two ids of ASCII digits below "
                                      f"2**64, split by spaces, tabs or one comma: {line!r}")
            sign_u, u, sign_v, v = match.groups()
            if u is None:  # a blank or comment line
                continue
            u, v = int(u), int(v)
            if u > _MAX_ID or v > _MAX_ID or (sign_u == "-" and u) or (sign_v == "-" and v):
                raise GraphParseError(f"line {lineno}: node id out of 64-bit range: {line!r}")
            ids.append(u)
            ids.append(v)
        start = stop + 1
    return np.frombuffer(ids, dtype=np.uint64).reshape(-1, 2)
