"""The compressed-graph model: build, query, persist.

A CompressedGraph holds only linear-in-n state: the n x k embedding, two
radii per node, the id map, and the fuzzy system's FCL source. From the
embedding it derives the u distinct FastMap points, the point of each
node and, while u**2 <= k * n, the u x u table of point-to-point
distances. That cap keeps the table no larger than the n x k coordinates
the model already holds. Queries read each pair's distance from the
table, or run the distance kernel on the pair's coordinates above the
cap; both give the same bits. They answer definite yes/no when a radius
guarantees the truth, otherwise a fuzzy likelihood. Models persist in the
FZG1 binary format with a CRC32 trailer; the file stores each of the u
distinct FastMap points once and one u32 point index per node.
"""

from __future__ import annotations

import math
import struct
import sys
import zlib
from dataclasses import dataclass, field
from typing import IO, Optional

import numpy as np

from .fastmap import Embedding, fastmap_embed
from .fuzzy import FclParseError, FuzzySystem, default_system, evaluate_many, parse_fcl, to_fcl
from .graph import Graph, check_node_id, lookup_internal_id
from .radii import (R_NONE, NodeRadii, _block_distances, compute_all_radii, group_points,
                    pair_distances)

MAGIC = b"FZG1"
FORMAT_VERSION = 2
_FLAG_DIRECTED = 1
_FLAG_QUANTIZED = 2
_HEADER = struct.Struct("<4sIIQIIQ")  # magic, version, flags, n, k, fcl_len, u
_MAX_POINTS = 2**32  # point indices are u32
# the u x u distance table may hold this many cells per model coordinate:
# kept while u**2 <= k * n, it is never larger than the n x k coordinates
_TABLE_CELLS_PER_COORD = 1

DEFINITE = "definite"
FUZZY = "fuzzy"


class ModelFormatError(ValueError):
    """Raised when an FZG1 stream is malformed."""


@dataclass(frozen=True)
class Answer:
    """Query verdict: Definite 1/0, or a fuzzy likelihood in [0, 1]."""

    kind: str  # DEFINITE or FUZZY
    value: float

    @classmethod
    def definite(cls, yes: bool) -> "Answer":
        return cls(DEFINITE, 1.0 if yes else 0.0)

    @classmethod
    def fuzzy(cls, likelihood: float) -> "Answer":
        return cls(FUZZY, float(likelihood))

    @property
    def is_definite(self) -> bool:
        return self.kind == DEFINITE


@dataclass(eq=False)
class CompressedGraph:
    """Embedding + radii + fuzzy system: the persisted adjacency oracle.

    The point fields are derived from ``embedding.coords`` on construction
    and are read-only: ``points_t`` the (k, u) distinct points in
    ``group_points`` order, ``point_index`` the point of each node, and
    ``point_table`` the (u, u) point distances, or None when u**2 > k * n.
    """

    embedding: Embedding
    radii: NodeRadii
    directed: bool
    fuzzy: FuzzySystem
    external_ids: np.ndarray  # (n,) uint64, sorted ascending
    fcl_text: str
    points_t: np.ndarray = field(init=False, repr=False)
    point_index: np.ndarray = field(init=False, repr=False)  # (n,) intp
    point_table: Optional[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        sizes = (self.embedding.n, len(self.radii.r), len(self.radii.R), len(self.external_ids))
        if len(set(sizes)) != 1:
            raise ValueError("model parts disagree in n: {} coordinate rows, {} r, {} R, "
                             "{} external ids".format(*sizes))
        # save writes only fcl_text, so a system that differs from its
        # parse would answer differently after a save/load round trip
        if parse_fcl(self.fcl_text) != self.fuzzy:
            raise ValueError("fuzzy system does not match the parse of fcl_text")
        groups = group_points(self.embedding.coords)
        self.points_t, self.point_index = groups.points_t, groups.inv
        u = groups.u
        self.point_table = None
        if u * u <= _TABLE_CELLS_PER_COORD * self.k * self.n:
            # a point's coordinates are its nodes' coordinates, and the kernel
            # squares every difference: entries equal pair_distances bit for bit
            out, tmp = np.empty((u, u)), np.empty((u, u))
            self.point_table = _block_distances(self.points_t, 0, u, out, tmp)
        for array in (self.points_t, self.point_index, self.point_table):
            if array is not None:
                array.flags.writeable = False

    @property
    def n(self) -> int:
        return self.embedding.n

    @property
    def k(self) -> int:
        return self.embedding.k

    @property
    def u(self) -> int:
        """Number of distinct points in the embedding."""
        return self.points_t.shape[1]

    def internal_id(self, external: int) -> int:
        return lookup_internal_id(self.external_ids, external)

    def external_id(self, internal: int) -> int:
        check_node_id(internal, self.n)
        return int(self.external_ids[internal])


def build(
    g: Graph,
    k: int,
    seed: int,
    quantize: bool = True,
    fcl_text: Optional[str] = None,
) -> CompressedGraph:
    """Embed the graph, compute all radii, and attach the fuzzy system.

    The fuzzy system is exactly ``fcl_text`` parsed (default: the built-in
    system serialized), and the model embeds that text, so a saved file
    is self-contained and loads back to the same system. Bad FCL raises
    FclParseError before any embedding work.
    """
    if g.n < 2:
        raise ValueError("graph must have at least 2 nodes")
    if k < 1:
        raise ValueError("k must be >= 1")
    if fcl_text is None:
        fcl_text = to_fcl(default_system())
    system = parse_fcl(fcl_text)
    embedding = fastmap_embed(g, k, seed)
    radii = compute_all_radii(g, embedding, quantize=quantize)
    return CompressedGraph(
        embedding=embedding,
        radii=radii,
        directed=g.directed,
        fuzzy=system,
        external_ids=g.external_ids.copy(),
        fcl_text=fcl_text,
    )


def query_arrays(
    cg: CompressedGraph, us: np.ndarray, vs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized adjacency decision over aligned id arrays.

    Returns (definite, value): a bool mask and, per pair, 1.0/0.0 for
    definite answers or the fuzzy likelihood. Directed models use only
    the source side; undirected combine both sides with minimum. This is
    the one validated entry: the scalar query ops delegate here, so all
    paths agree bit for bit. Raises ValueError for id arrays that are not
    1-d or differ in length, an id that is not an integer (floats and bools
    included), an id outside [0, n) and a self pair.
    """
    us, vs = np.asarray(us), np.asarray(vs)
    if us.ndim != 1 or us.shape != vs.shape:
        raise ValueError(f"us and vs must be 1-d and of equal length, got shapes "
                         f"{us.shape} and {vs.shape}")
    for ids in (us, vs):  # before the int64 cast, which would truncate or wrap
        if ids.dtype.kind not in "iu":  # float, bool, or object holding big ints
            for u in ids.tolist():
                check_node_id(u, cg.n)
        bad = ids[(ids < 0) | (ids >= cg.n)]
        if bad.size:
            check_node_id(bad[0], cg.n)
    us, vs = us.astype(np.int64, copy=False), vs.astype(np.int64, copy=False)
    if np.any(us == vs):
        raise ValueError("self query")

    sides = us[None, :] if cg.directed else np.stack([us, vs])
    side_r, side_R = cg.radii.r[sides], cg.radii.R[sides]
    if cg.point_table is None:
        d = pair_distances(cg.embedding.coords, us, vs)
    else:  # one flat take; the same bits as the kernel on the pair's coordinates
        d = cg.point_table.take(cg.point_index[us] * cg.u + cg.point_index[vs])
    d = np.broadcast_to(d, sides.shape)
    yes = (d <= side_r).any(axis=0)
    no = ~yes & (d >= side_R).any(axis=0)

    fuzzy_mask = ~(yes | no)
    ok = fuzzy_mask & (side_r != R_NONE) & np.isfinite(side_R)  # sentinel sides contribute nothing
    x = (side_R[ok] - d[ok]) / (side_R[ok] - side_r[ok])
    outs = np.full(sides.shape, np.nan)
    # one call for every side: evaluate_many reduces per row, so batching is bit-exact
    outs[ok] = evaluate_many(cg.fuzzy, np.clip(x, 0.0, 1.0))
    combined = np.fmin.reduce(outs, axis=0)  # NaN (sentinel) sides drop out
    fuzzy = np.where(np.isnan(combined), 0.5, combined)  # all sides degenerate
    return ~fuzzy_mask, np.where(yes, 1.0, np.where(no, 0.0, fuzzy))


def _query_pair(cg: CompressedGraph, u: int, v: int, directed: bool) -> Answer:
    if cg.directed != directed:
        hint = "directed; use query_directed" if cg.directed else "undirected; use query"
        raise ValueError(f"model is {hint}")
    definite, value = query_arrays(cg, [u], [v])
    return Answer(DEFINITE if definite[0] else FUZZY, float(value[0]))


def query(cg: CompressedGraph, u: int, v: int) -> Answer:
    """Adjacency query on an undirected model.

    Definite 1 when d <= r on either side, Definite 0 when d >= R on
    either side, otherwise the minimum of the two sides' fuzzy outputs.
    Internal ids; u != v.
    """
    return _query_pair(cg, u, v, directed=False)


def query_directed(cg: CompressedGraph, u: int, v: int) -> Answer:
    """Arc query u -> v on a directed model; uses r(u), R(u) only."""
    return _query_pair(cg, u, v, directed=True)


# --- FZG1 persistence --------------------------------------------------------


def save(cg: CompressedGraph, sink: IO[bytes]) -> int:
    """Write the FZG1 stream; returns the byte count.

    Layout (little-endian): 36-byte header (magic, version, flags, n, k,
    fcl_len, u), n x u64 external ids, u x k f64 distinct points (row-major,
    in ``group_points`` order), n x u32 point index, n x (f64 r, f64 R),
    fcl_len bytes of UTF-8 FCL, CRC32 of everything preceding; in all
    36 + 28n + 8uk + fcl_len + 4 bytes. The points and indices are the
    model's own ``points_t`` and ``point_index``. Raises ValueError when the
    embedding has more than 2**32 distinct points.
    """
    n, k, u = cg.n, cg.k, cg.u
    if u > _MAX_POINTS:
        raise ValueError(f"{u} distinct points exceed the format's limit of 2**32")
    fcl = cg.fcl_text.encode("utf-8")
    flags = (_FLAG_DIRECTED if cg.directed else 0) | (_FLAG_QUANTIZED if cg.radii.quantized else 0)
    parts = [
        _HEADER.pack(MAGIC, FORMAT_VERSION, flags, n, k, len(fcl), u),
        np.ascontiguousarray(cg.external_ids, dtype="<u8").tobytes(),
        np.ascontiguousarray(cg.points_t.T, dtype="<f8").tobytes(),
        cg.point_index.astype("<u4").tobytes(),
        np.ascontiguousarray(np.column_stack([cg.radii.r, cg.radii.R]), dtype="<f8").tobytes(),
        fcl,
    ]
    blob = b"".join(parts)
    blob += struct.pack("<I", zlib.crc32(blob))
    sink.write(blob)
    return len(blob)


def _coordinate_limit(k: int) -> float:
    """Largest |coordinate| for which no k-axis distance can overflow."""
    return math.sqrt(sys.float_info.max / k) / 4


def load(source: IO[bytes]) -> CompressedGraph:
    """Read an FZG1 stream back into a model; errors name the byte offset.

    The header is checked against the stream length before any array is
    made. The model's coordinates are the file's points gathered through
    the point indices, and the model regroups them into its point fields;
    its id, coordinate, radius and point arrays are read-only.
    """
    blob = source.read()
    if len(blob) < _HEADER.size:
        raise ModelFormatError(f"truncated header: {len(blob)} bytes (offset {len(blob)})")
    magic, version, flags, n, k, fcl_len, u = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise ModelFormatError(f"bad magic {magic!r} at offset 0")
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported format version {version} at offset 4")
    if flags & ~(_FLAG_DIRECTED | _FLAG_QUANTIZED):
        raise ModelFormatError(f"unknown flag bits {flags:#x} at offset 8")
    if k < 1:
        raise ModelFormatError(f"invalid dimension k={k} at offset 20")
    if not 1 <= u <= min(n, _MAX_POINTS):
        raise ModelFormatError(f"invalid point count u={u} for n={n} at offset 28")
    expected = _HEADER.size + 28 * n + 8 * u * k + fcl_len + 4  # Python ints: no overflow
    if len(blob) != expected:
        raise ModelFormatError(
            f"truncated or oversized stream: expected {expected} bytes, got {len(blob)}"
            f" (offset {min(len(blob), expected)})"
        )
    (crc,) = struct.unpack_from("<I", blob, expected - 4)
    if crc != zlib.crc32(memoryview(blob)[:-4]):
        raise ModelFormatError(f"CRC mismatch at offset {expected - 4}")

    off = _HEADER.size
    external_ids = np.frombuffer(blob, dtype="<u8", count=n, offset=off).astype(np.uint64)
    increasing = external_ids[1:] > external_ids[:-1]
    _reject_first(increasing, off + 8, 8, "external ids not strictly increasing")
    off += 8 * n
    points = np.frombuffer(blob, dtype="<f8", count=u * k, offset=off).reshape(u, k)
    # NaN and inf fail the comparison too
    _reject_first((np.abs(points) <= _coordinate_limit(k)).ravel(), off, 8,
                  "non-finite or overflowing coordinate")
    off += 8 * u * k
    index = np.frombuffer(blob, dtype="<u4", count=n, offset=off)
    _reject_first(index < u, off, 4, "point index out of range")
    off += 4 * n
    radii_flat = np.frombuffer(blob, dtype="<f8", count=2 * n, offset=off).reshape(n, 2)
    r, R = radii_flat[:, 0].copy(), radii_flat[:, 1].copy()
    _reject_first((r == R_NONE) | (np.isfinite(r) & (r >= 0.0)), off, 16, "invalid radius r")
    _reject_first((R == np.inf) | (np.isfinite(R) & (R >= 0.0)), off + 8, 16, "invalid radius R")
    off += 16 * n
    try:
        fcl_text = blob[off : off + fcl_len].decode("utf-8")
        fuzzy = parse_fcl(fcl_text)
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"FCL block is not UTF-8 at offset {off + exc.start}") from None
    except FclParseError as exc:
        raise ModelFormatError(f"FCL block at offset {off} does not parse: {exc}") from None

    # one gather through the index: (k, u) -> C-ordered (k, n), whose .T is axis-major
    coords = points.T.take(index, axis=1).T
    for array in (external_ids, coords, r, R):
        array.flags.writeable = False
    return CompressedGraph(
        embedding=Embedding(coords=coords, pivots=None, seed=None),
        radii=NodeRadii(r=r, R=R, quantized=bool(flags & _FLAG_QUANTIZED)),
        directed=bool(flags & _FLAG_DIRECTED),
        fuzzy=fuzzy,
        external_ids=external_ids,
        fcl_text=fcl_text,
    )


def _reject_first(ok: np.ndarray, base: int, stride: int, what: str) -> None:
    """Raise naming the byte offset of the first False in ``ok``.

    Element i of ``ok`` describes the field at ``base + stride * i``.
    """
    bad = np.flatnonzero(~ok)
    if bad.size:
        raise ModelFormatError(f"{what} at offset {base + stride * int(bad[0])}")


def save_file(cg: CompressedGraph, path: str) -> int:
    with open(path, "wb") as f:
        return save(cg, f)


def load_file(path: str) -> CompressedGraph:
    with open(path, "rb") as f:
        return load(f)
