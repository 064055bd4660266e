"""The compressed-graph model: build, query, persist.

A CompressedGraph holds what its FZG1 file stores: the u distinct
FastMap points, the t distinct node states (point, r, R), each node's
state, the id map and the fuzzy system's FCL source; per-node
coordinates and radii are gathered only for a caller that asks.

A query answers definite yes/no when a radius guarantees the truth,
otherwise a fuzzy likelihood. Each endpoint of a pair contributes one
side key, which depends only on that endpoint's node state (point, r, R)
and on the other endpoint's point; the keys rank the answer rule, so a
pair's answer is its least side key, and it depends only on the two node
states. A batch runs the kernel on the points of each pair's states,
scores its undecided sides and maps each least key to an answer. The
pair table caches that path: on the first query the model ranks the side
keys of every state against every point, from the same ``pair_distances``
and ``_side_values``, into one answer code per ordered pair of its t node
states, while the table is no larger than n x k f64 coordinates would be;
a batch is then one gather per pair, with no fuzzy inference.

Models persist in the FZG1 binary format with a CRC32 trailer, written
and read as held: each of the u points once, each of the t node states
once, and one state index per node; external ids that are a range
lo..lo+n-1 take only lo. Point and state indices are bit-packed, each in
just the bits its count needs: (u - 1).bit_length() for a point index,
(t - 1).bit_length() for a state index.
"""

from __future__ import annotations

import functools
import struct
import zlib
from dataclasses import FrozenInstanceError
from typing import IO, NamedTuple, Optional

import numpy as np

from .fastmap import _BAD_COORDINATE, Embedding, _coordinates_ok, check_embedding, fastmap_embed
from .fuzzy import FclParseError, FuzzySystem, default_system, evaluate_many, parse_fcl, to_fcl
from .graph import Graph, _IdMap, check_bool, check_external_ids, check_node_id, check_real
from .radii import R_NONE, NodeRadii, _group_columns, _grouped_radii, group_points, pair_distances

MAGIC = b"FZG1"
FORMAT_VERSION = 4
_FLAG_DIRECTED = 1
_FLAG_QUANTIZED = 2
_FLAG_ID_RANGE = 4  # external ids are lo..lo+n-1; the id block holds lo alone
_HEADER = struct.Struct("<4sIIQIIQQ")  # magic, version, flags, n, k, fcl_len, u, t
_MAX_INDEXED = 2**32  # point and state indices take at most 32 bits: at most this many of each
# a derived table may take this many bytes per byte of n x k f64 coordinates, which
# the model does not hold: the t x t pair table is kept while itemsize * t**2 <= 8 * k * n.
# Its sides are scored only while 8 * u**2 <= 8 * k * n, as if a u x u f64
# distance table had to fit too: beyond that the many distinct distances
# make the first query's fuzzy inference far costlier, often only to give up
_TABLE_COORD_RATIO = 1
# side keys, ranked as the answer rule ranks them: yes, no, a fuzzy output in [0, 1], unscored
_KEY_YES, _KEY_NO, _KEY_UNSCORED = -2.0, -1.0, 2.0
_NO = 1  # the pair table's codes of yes (0) and no (1); fuzzy codes follow
_SIDE_BLOCK = 1 << 15  # (state, point) cells scored at a time while the pair table is built
# what load and the keyword constructor say of a radius that fails its rule
_BAD_YES_RADIUS, _BAD_NO_RADIUS = "invalid radius r", "invalid radius R"


class ModelFormatError(ValueError):
    """Raised when an FZG1 stream is malformed."""


class Answer(NamedTuple):
    """One pair's ``query_arrays`` answer: definite 1.0/0.0, or a fuzzy likelihood in [0, 1]."""

    is_definite: bool
    value: float


class NodeStates(NamedTuple):
    """The t distinct (point, r, R) states of a model's nodes.

    State s sits on point ``point[s]`` with radii ``r[s]`` and ``R[s]``;
    node v is in state ``index[v]``. In ``node_states`` order, the FZG1
    file's canonical form, which save writes and load checks: strictly
    increasing in (point, r bits, R bits), each point holding a state and
    each state a node. Queries and the pair table answer alike in any order.
    """

    point: np.ndarray  # (t,) intp
    r: np.ndarray  # (t,) f64
    R: np.ndarray  # (t,) f64
    index: np.ndarray  # (n,) intp: in u32, index * t would wrap once t**2 > 2**32

    @property
    def t(self) -> int:
        return len(self.point)


def node_states(point_index: np.ndarray, r: np.ndarray, R: np.ndarray) -> NodeStates:
    """Group nodes by (point, r, R), in one lexicographic sort.

    Radii are compared by their bit patterns, so every node of a state
    has that state's r and R byte for byte.
    """
    r_bits, R_bits = (np.ascontiguousarray(a, dtype=np.float64).view(np.uint64) for a in (r, R))
    keys = np.stack([point_index.astype(np.uint64), r_bits, R_bits])
    order, _, new, index = _group_columns(keys)
    first = order[new]  # one node of each state
    return NodeStates(point=point_index[first], r=r[first], R=R[first], index=index)


class CompressedGraph(_IdMap):
    """The persisted adjacency oracle, held as its FZG1 file holds it.

    ``points_t`` is the (k, u) table of distinct points in ``group_points``
    order and ``states`` the node states; with the external ids, which
    ``_IdMap`` maps both ways as for a Graph, nothing else is held per
    node. The model follows the holding rule (``graph.hold``): it is
    frozen, so it answers as its file does. The constructor refuses any
    part that ``load`` would refuse in a file, by the checks ``__init__``
    calls, before it groups the per-node parts once.
    ``from_states`` takes the parts grouped.
    ``embedding`` and ``radii`` gather per-node arrays for a caller that
    reads them; no query, save or load does.
    ``pair_table`` is derived on first use.
    """

    def __init__(self, embedding: Embedding, radii: NodeRadii, directed: bool,
                 fuzzy: FuzzySystem, external_ids: np.ndarray, fcl_text: str) -> None:
        embedding, directed = check_embedding(embedding), check_bool("directed", directed)
        quantized = check_bool("radii.quantized", radii.quantized)
        r, R = (np.asarray(check_real(f"radii.{x}", getattr(radii, x)), np.float64) for x in "rR")
        sizes = (embedding.n, len(r), len(R), len(external_ids))
        if len(set(sizes)) != 1:
            raise ValueError("model parts disagree in n: {} coordinate rows, {} r, {} R, "
                             "{} external ids".format(*sizes))
        if embedding.n < 1:
            raise ValueError("model must have at least 1 node")
        external_ids = check_external_ids(external_ids, embedding.n)
        for ok, what in ((_r_ok(r), _BAD_YES_RADIUS), (_R_ok(R), _BAD_NO_RADIUS)):
            bad = np.flatnonzero(~ok)
            if bad.size:
                raise ValueError(f"{what} at node {int(bad[0])}")
        # save writes only fcl_text, so a system that differs from its
        # parse would answer differently after a save/load round trip
        if parse_fcl(fcl_text) != fuzzy:
            raise ValueError("fuzzy system does not match the parse of fcl_text")
        groups = group_points(embedding.coords)
        vars(self).update(vars(self.from_states(groups.points_t, node_states(groups.inv, r, R),
                                                directed, quantized, fuzzy, external_ids, fcl_text)))

    @classmethod
    def from_states(cls, points_t: np.ndarray, states: NodeStates, directed: bool, quantized: bool,
                    fuzzy: FuzzySystem, external_ids: np.ndarray, fcl_text: str) -> CompressedGraph:
        """The model of points and states already in ``node_states`` order; unchecked.

        Sets the fields once, in the instance dict, and takes the arrays as
        its own under the holding rule (``graph.hold``) without a copy, so
        only ``build``, ``load`` and the keyword constructor call it, with
        arrays they made or a Graph holds.
        """
        cg = cls.__new__(cls)
        vars(cg).update(points_t=points_t, states=states, directed=directed, quantized=quantized,
                        fuzzy=fuzzy, external_ids=external_ids, fcl_text=fcl_text)
        for array in (points_t, *states, external_ids):  # the pair table would not follow an edit
            array.flags.writeable = False
        return cg

    def _frozen(self, name: str, *value) -> None:
        raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")

    __setattr__ = __delattr__ = _frozen

    @property
    def n(self) -> int:
        return len(self.states.index)

    @property
    def k(self) -> int:
        return self.points_t.shape[0]

    @property
    def u(self) -> int:
        """Number of distinct points in the embedding."""
        return self.points_t.shape[1]

    @functools.cached_property
    def embedding(self) -> Embedding:
        """The n x k coordinates, gathered through the states; no pivots."""
        coords = np.empty((self.n, self.k), order="F")  # axis-major, so hold keeps it as is
        # every index is in range; take buffers ``out`` in its default mode, not in "clip"
        self.points_t.take(self.states.point[self.states.index], axis=1, out=coords.T, mode="clip")
        coords.flags.writeable = False
        return Embedding(coords=coords)

    @functools.cached_property
    def radii(self) -> NodeRadii:
        """Each node's r and R, read-only, gathered through the states."""
        r, R = self.states.r.take(self.states.index), self.states.R.take(self.states.index)
        r.flags.writeable = R.flags.writeable = False
        return NodeRadii(r=r, R=R, quantized=self.quantized)

    def _fits_table(self, nbytes: int) -> bool:
        """Whether a derived table of this many bytes stays under the cap."""
        return nbytes <= _TABLE_COORD_RATIO * 8 * self.k * self.n

    @functools.cached_property
    def pair_table(self) -> Optional[PairTable]:
        """Every answer a query can give, one code per ordered pair of node states.

        ``codes[s, s']`` answers a node in state s against a node in state
        s' with ``decode[codes[s, s']]``, and is definite exactly when below
        2. A side's code is the rank of its key among the distinct side keys
        of every state against every point, with yes, no and unscored
        always among them (``_side_codes``), and a pair's code is the lesser
        of its two sides' codes, or the source side's alone when directed:
        the rank of the least side key the table-less path answers from. The
        pair table is None when itemsize * t**2 bytes exceed the cap,
        8 * k * n bytes, and when 8 * u**2 bytes exceed it (see
        _TABLE_COORD_RATIO). Built on the first query, not by build, save
        or load; its arrays are read-only. Where cached_property takes no
        lock (Python 3.12 and later), two threads that race on the first
        query may both build it; they build identical tables.
        """
        if not self._fits_table(8 * self.u * self.u):
            return None
        states = self.states
        t = states.t
        # the widest code the cap leaves room for
        width = next((w for w in (8, 4, 2, 1) if self._fits_table(w * t * t)), 0)
        if not width:
            return None
        sides = _side_codes(self.points_t, states, self.fuzzy, max_codes=256**width)
        if sides is None:
            return None
        side_codes, decode = sides
        codes = side_codes.take(states.point, axis=1)  # s's side against a node in state s'
        if not self.directed:
            codes = np.minimum(codes, codes.T)
        table = PairTable(codes=codes, decode=decode)
        for array in table:
            array.flags.writeable = False
        return table


class PairTable(NamedTuple):
    """Answer codes per ordered pair of node states; see CompressedGraph.pair_table."""

    codes: np.ndarray  # (t, t), the smallest unsigned dtype that holds every code
    decode: np.ndarray  # (codes,) f64: the answer value of each code


def _side_values(d: np.ndarray, r: np.ndarray, R: np.ndarray, system: FuzzySystem) -> np.ndarray:
    """Side keys of distances and radii that broadcast to (sides, pairs...).

    A side's key is _KEY_YES where d <= r, else _KEY_NO where d >= R, else
    the fuzzy output of clip((R - d) / (R - r), 0, 1) where r != R_NONE
    and R is finite, else _KEY_UNSCORED. The keys rank the answer rule, so
    a pair's least side key is its answer (``_answers``). Only the sides of
    pairs that no side decides are scored; the undecided sides of a decided
    pair stay unscored, which cannot change that pair's least key.
    Each distinct crisp input is evaluated once: evaluate_many reduces row
    by row, so that gives the same bits as evaluating every side.
    """
    d, r, R = np.broadcast_arrays(d, r, R)
    keys = np.where(d <= r, _KEY_YES, np.where(d >= R, _KEY_NO, _KEY_UNSCORED))
    scored = ~(keys < 0.0).any(axis=0) & (r != R_NONE) & np.isfinite(R)
    r, R, d = r[scored], R[scored], d[scored]
    xs, inverse = np.unique(np.clip((R - d) / (R - r), 0.0, 1.0), return_inverse=True)
    # + 0.0 turns a -0.0 output into 0.0, so equal fuzzy values have equal bits
    keys[scored] = (evaluate_many(system, xs) + 0.0).take(inverse)
    return keys


def _answers(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(definite, value) of least side keys: 1.0 for a yes, 0.0 for a no,
    the fuzzy output, and 0.5 when no side was scored."""
    rule = [keys == _KEY_YES, keys == _KEY_NO, keys == _KEY_UNSCORED]
    return keys < 0.0, np.select(rule, [1.0, 0.0, 0.5], keys)


def _side_codes(points_t: np.ndarray, states: NodeStates, system: FuzzySystem,
                max_codes: int) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """The code of every (state, point) side, and the answer value of each code.

    The side of a node in state s against a node on point p has the key of
    ``_side_values`` at the ``pair_distances`` distance between points
    ``states.point[s]`` and p of the (k, u) ``points_t``, the distance the
    table-less path computes for such a pair. Its code is the rank of that
    key among the distinct side keys together with _KEY_YES, _KEY_NO and
    _KEY_UNSCORED: yes is 0, no is 1, the distinct fuzzy outputs follow
    in ascending order and unscored is last. ``decode`` is ``_answers`` of
    those keys, so the lesser code of two sides is the code of their least
    key. States are ranked about _SIDE_BLOCK cells at a time, so no (t, u)
    float array is made: the distinct points of a block get one distance
    row each, and each block is ranked among its own keys, sorting only its
    fuzzy outputs. A running union
    of every block's keys gives up early; at the end each block is recoded
    by its keys' places in that union. Any order of the states gives the
    same codes, row for row. None as soon as the codes would number more
    than max_codes; else they take the smallest unsigned dtype that holds
    them.
    """
    u = points_t.shape[1]
    rows = max(1, _SIDE_BLOCK // u)
    blocks = []
    union = np.array([_KEY_YES, _KEY_NO, _KEY_UNSCORED])  # every side key so far, sorted
    for lo in range(0, states.t, rows):
        s = slice(lo, lo + rows)
        points, row = np.unique(states.point[s], return_inverse=True)
        d = pair_distances(points_t.T, points[:, None], np.arange(u)).take(row, axis=0)
        keys = _side_values(d[None], states.r[None, s, None], states.R[None, s, None], system)[0]
        # only the fuzzy outputs take a sort: most keys are no or unscored,
        # which rank second and last, as yes ranks first
        fuzzy = (keys >= 0.0) & (keys <= 1.0)
        xs, inverse = np.unique(keys[fuzzy], return_inverse=True)
        values = np.concatenate(([_KEY_YES, _KEY_NO], xs, [_KEY_UNSCORED]))
        local = (keys == _KEY_NO).astype(np.min_scalar_type(values.size - 1))
        local[keys == _KEY_UNSCORED] = values.size - 1
        local[fuzzy] = 2 + inverse
        blocks.append((values, local))
        # a sort, not np.union1d: numpy >= 2.3's hashing np.unique imports
        # numpy.ma on first use, ~1.5 MB of a query process's peak RSS
        union = np.sort(np.concatenate((union, values)))
        union = union[np.diff(union, prepend=-np.inf) > 0]
        if union.size > max_codes:
            return None
    out = np.empty((states.t, u), dtype=np.min_scalar_type(union.size - 1))
    for lo, (values, local) in zip(range(0, states.t, rows), blocks):
        out[lo : lo + rows] = np.searchsorted(union, values).take(local)
    return out, _answers(union)[1]


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
    FclParseError, FCL that is not a str TypeError, and a ``quantize``
    that fails ``check_bool`` ValueError, before any embedding work. The embedding is grouped
    into distinct points once, and the radii scan and the model share
    that grouping: the model keeps the points and node states, not the
    per-node arrays; like a loaded model, its arrays are read-only.
    """
    quantize = check_bool("quantize", quantize)
    if fcl_text is None:
        fcl_text = to_fcl(default_system())
    system = parse_fcl(fcl_text)
    groups = group_points(fastmap_embed(g, k, seed).coords)
    radii = _grouped_radii(g, groups, quantize)
    return CompressedGraph.from_states(
        groups.points_t, node_states(groups.inv, radii.r, radii.R), g.directed, quantize,
        system, g.external_ids, fcl_text)


def query_arrays(
    cg: CompressedGraph, us: np.ndarray, vs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized adjacency decision over aligned id arrays.

    Returns (definite, value): a bool mask and, per pair, 1.0/0.0 for
    definite answers or the fuzzy likelihood. Directed models use only
    the source side; undirected take the least of both sides' keys. The
    kernel gives each pair's distance, the sides of undecided pairs are
    scored in the batch, and ``_answers`` maps the least key to the
    answer; a model with a pair table reads the same answer from its
    cache with one gather. This is the one validated entry: the scalar
    ``query`` delegates here, so all paths agree bit for bit.
    Raises ValueError for id arrays that are not 1-d or differ in length,
    an id that is not an integer (floats and bools included), an id
    outside [0, n) and a self pair.
    """
    us, vs = np.asarray(us), np.asarray(vs)
    if us.ndim != 1 or us.shape != vs.shape:
        raise ValueError(f"us and vs must be 1-d and of equal length, got shapes "
                         f"{us.shape} and {vs.shape}")
    us, vs = _checked_ids(us, cg.n), _checked_ids(vs, cg.n)
    if np.any(us == vs):
        raise ValueError("self query")

    table, states = cg.pair_table, cg.states
    su, sv = states.index.take(us), states.index.take(vs)
    if table is not None:  # the code of (state of u, state of v)
        code = table.codes.take(su * states.t + sv)
        return code <= _NO, table.decode.take(code)
    d = pair_distances(cg.points_t.T, states.point.take(su), states.point.take(sv))
    sides = su[None, :] if cg.directed else np.stack([su, sv])
    keys = _side_values(d, states.r.take(sides), states.R.take(sides), cg.fuzzy)
    return _answers(keys.min(axis=0))


def _checked_ids(ids: np.ndarray, n: int) -> np.ndarray:
    """The ids as int64; ValueError names the first that is not an integer in [0, n)."""
    if ids.dtype.kind not in "iu":  # float, bool, or object holding big ints
        for u in ids.tolist():
            check_node_id(u, n)
    elif ids.size:
        # unsigned ids before the int64 cast, which would wrap them; signed ids
        # after it, viewed as unsigned, so a negative id reads as one >= n
        wide = ids if ids.dtype.kind == "u" else ids.astype(np.int64, copy=False).view(np.uint64)
        if wide.max() >= n:
            check_node_id(ids[wide >= n][0], n)
    return ids.astype(np.int64, copy=False)


def query(cg: CompressedGraph, u: int, v: int) -> Answer:
    """Adjacency query u -> v on either kind of model: ``query_arrays``'s
    answer for the one pair, as ``Answer(is_definite, value)``.

    Definite 1 when d <= r, Definite 0 when d >= R, otherwise the fuzzy
    output; an undirected model takes the least key of both sides, a
    directed one the source side alone (r(u), R(u)). Internal ids; u != v.
    """
    definite, value = query_arrays(cg, [u], [v])
    return Answer(bool(definite[0]), float(value[0]))


# --- FZG1 persistence --------------------------------------------------------


def save(cg: CompressedGraph, sink: IO[bytes]) -> int:
    """Write the FZG1 stream; returns the byte count.

    Layout (little-endian): 44-byte header (magic, version, flags, n, k,
    fcl_len, u, t); the id block, lo alone (u64) when the external ids are
    lo..lo+n-1 (flag bit2), else n x u64 ids; u x k f64 distinct points
    (row-major, in ``group_points`` order); the t node states, in
    ``node_states`` order, as t x (f64 r, f64 R) then t point indices of
    w_u = (u - 1).bit_length() bits each; n state indices of w_t =
    (t - 1).bit_length() bits each; fcl_len bytes of UTF-8 FCL; CRC32 of
    everything preceding. Each index field is packed little-endian (see
    _pack_bits), its unused high bits zero. In all 44 + 8 * (1 or n) +
    8uk + 16t + ceil(w_u * t / 8) + ceil(w_t * n / 8) + fcl_len + 4 bytes,
    written as held, with no sort. Raises ValueError for more than 2**32
    distinct points or node states.
    """
    n, k, u, states = cg.n, cg.k, cg.u, cg.states
    for count, what in ((u, "distinct points"), (states.t, "node states")):
        if count > _MAX_INDEXED:
            raise ValueError(f"{count} {what} exceed the format's limit of 2**32")
    ids = np.ascontiguousarray(cg.external_ids, dtype="<u8")
    id_range = ids_are_range(ids)
    fcl = cg.fcl_text.encode("utf-8")
    flags = ((_FLAG_DIRECTED if cg.directed else 0) | (_FLAG_QUANTIZED if cg.quantized else 0)
             | (_FLAG_ID_RANGE if id_range else 0))
    parts = [
        _HEADER.pack(MAGIC, FORMAT_VERSION, flags, n, k, len(fcl), u, states.t),
        (ids[:1] if id_range else ids).tobytes(),
        np.ascontiguousarray(cg.points_t.T, dtype="<f8").tobytes(),
        np.ascontiguousarray(np.column_stack([states.r, states.R]), dtype="<f8").tobytes(),
        _pack_bits(states.point, _index_bits(u)),
        _pack_bits(states.index, _index_bits(states.t)),
        fcl,
    ]
    blob = b"".join(parts)
    blob += struct.pack("<I", zlib.crc32(blob))
    sink.write(blob)
    return len(blob)


def ids_are_range(ids: np.ndarray) -> bool:
    """Whether external ids are lo..lo+n-1, which ``save`` stores as lo alone."""
    return bool(np.array_equal(ids, ids[0] + np.arange(ids.shape[0], dtype=np.uint64)))


def _index_bits(count: int) -> int:
    """Bits per index into ``count`` items: 0 when there is one item."""
    return (count - 1).bit_length()


def _packed_size(count: int, w: int) -> int:
    """Bytes of ``count`` packed fields of ``w`` bits."""
    return -(-count * w // 8)


def _pack_bits(values: np.ndarray, w: int) -> bytes:
    """Values below 2**w, w <= 32, as consecutive w-bit fields, little-endian.

    Field i holds bits i*w .. i*w + w - 1 of the output, least significant
    bit first, and the unused high bits of the last byte are zero. Only
    the low ceil(w / 8) bytes of each value are unpacked, a byte a bit, so
    scratch is 4 + w bytes a value, not 32.
    """
    cells = values.astype("<u4").view(np.uint8).reshape(-1, 4)[:, : -(-w // 8)]
    bits = np.unpackbits(cells, axis=1, count=w, bitorder="little")
    return np.packbits(bits, bitorder="little").tobytes()


def _unpack_bits(buf, count: int, w: int) -> np.ndarray:
    """The ``count`` w-bit fields at the start of ``buf``, as u32; see _pack_bits."""
    bits = np.unpackbits(np.frombuffer(buf, dtype=np.uint8), count=count * w, bitorder="little")
    return bits.reshape(count, w) @ (np.uint32(1) << np.arange(w, dtype=np.uint32))


def _r_ok(r: np.ndarray) -> np.ndarray:
    """Per radius r: whether it is the R_NONE sentinel or finite and >= 0."""
    return (r == R_NONE) | (np.isfinite(r) & (r >= 0.0))


def _R_ok(R: np.ndarray) -> np.ndarray:
    """Per radius R: whether it is inf or finite and >= 0."""
    return (R == np.inf) | (np.isfinite(R) & (R >= 0.0))


def load(source: IO[bytes]) -> CompressedGraph:
    """Read an FZG1 stream back into a model; errors name the byte offset.

    The header is checked against the stream length before any array is
    made, and each state's radii once per state. The widths of the packed
    point and state indices follow from the header's u and t; each index
    must be below its count and each field's padding bits zero. Points and
    states must be in the order save writes (see NodeStates), so each
    model has one file. The model holds read-only copies of the file's
    arrays, the indices unpacked to intp: no sort, no gather and one FCL
    parse.
    """
    blob = source.read()
    if len(blob) < _HEADER.size:
        raise ModelFormatError(f"truncated header: {len(blob)} bytes (offset {len(blob)})")
    magic, version, flags, n, k, fcl_len, u, t = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise ModelFormatError(f"bad magic {magic!r} at offset 0")
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported format version {version} at offset 4")
    if flags & ~(_FLAG_DIRECTED | _FLAG_QUANTIZED | _FLAG_ID_RANGE):
        raise ModelFormatError(f"unknown flag bits {flags:#x} at offset 8")
    if k < 1:
        raise ModelFormatError(f"invalid dimension k={k} at offset 20")
    if not 1 <= u <= min(n, _MAX_INDEXED):
        raise ModelFormatError(f"invalid point count u={u} for n={n} at offset 28")
    if not 1 <= t <= min(n, _MAX_INDEXED):
        raise ModelFormatError(f"invalid state count t={t} for n={n} at offset 36")
    id_count = 1 if flags & _FLAG_ID_RANGE else n
    w_u, w_t = _index_bits(u), _index_bits(t)
    # Python ints: no overflow
    expected = (_HEADER.size + 8 * id_count + 8 * u * k + 16 * t + _packed_size(t, w_u)
                + _packed_size(n, w_t) + fcl_len + 4)
    if len(blob) != expected:
        raise ModelFormatError(
            f"truncated or oversized stream: expected {expected} bytes, got {len(blob)}"
            f" (offset {min(len(blob), expected)})"
        )
    (crc,) = struct.unpack_from("<I", blob, expected - 4)
    if crc != zlib.crc32(memoryview(blob)[:-4]):
        raise ModelFormatError(f"CRC mismatch at offset {expected - 4}")

    off = _HEADER.size
    ids = np.frombuffer(blob, dtype="<u8", count=id_count, offset=off).astype(np.uint64)
    if flags & _FLAG_ID_RANGE:
        lo = int(ids[0])
        if lo + n - 1 >= 2**64:
            raise ModelFormatError(f"id range {lo}..{lo + n - 1} exceeds 2**64 - 1 at offset {off}")
        external_ids = ids[0] + np.arange(n, dtype=np.uint64)
    else:
        external_ids = ids
        increasing = external_ids[1:] > external_ids[:-1]
        _reject_first(increasing, off + 8, 8, "external ids not strictly increasing")
    points_at = off + 8 * id_count
    points = np.frombuffer(blob, dtype="<f8", count=u * k, offset=points_at).reshape(u, k)
    _reject_first(_coordinates_ok(points).ravel(), points_at, 8, _BAD_COORDINATE)
    _reject_first(_increasing(points), points_at + 8 * k, 8 * k, "points out of order")
    radii_at = points_at + 8 * u * k
    state_radii = np.frombuffer(blob, dtype="<f8", count=2 * t, offset=radii_at).reshape(t, 2)
    state_r, state_R = state_radii[:, 0], state_radii[:, 1]
    _reject_first(_r_ok(state_r), radii_at, 16, _BAD_YES_RADIUS)
    _reject_first(_R_ok(state_R), radii_at + 8, 16, _BAD_NO_RADIUS)
    off = radii_at + 16 * t
    state_point = _read_indices(blob, off, t, u, "point index")
    # a state is named by the offset of its r
    keys = np.column_stack([state_point.astype(np.uint64), state_radii.view("<u8")])
    _reject_first(_increasing(keys), radii_at + 16, 16, "node states out of order")
    held = np.zeros(u, dtype=bool)
    held[state_point] = True
    _reject_first(held, points_at, 8 * k, "point without a node state")
    off += _packed_size(t, w_u)
    state_index = _read_indices(blob, off, n, t, "state index")
    _reject_first(np.bincount(state_index, minlength=t) > 0, radii_at, 16,
                  "node state without a node")
    off += _packed_size(n, w_t)
    try:
        fcl_text = blob[off : off + fcl_len].decode("utf-8")
        fuzzy = parse_fcl(fcl_text)
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"FCL block is not UTF-8 at offset {off + exc.start}") from None
    except FclParseError as exc:
        raise ModelFormatError(f"FCL block at offset {off} does not parse: {exc}") from None

    states = NodeStates(point=state_point.astype(np.intp), r=state_r.astype(np.float64),
                        R=state_R.astype(np.float64), index=state_index.astype(np.intp))
    return CompressedGraph.from_states(
        points_t=points.T.astype(np.float64, order="C"), states=states,
        directed=bool(flags & _FLAG_DIRECTED), quantized=bool(flags & _FLAG_QUANTIZED),
        fuzzy=fuzzy, external_ids=external_ids, fcl_text=fcl_text)


def _read_indices(blob: bytes, off: int, count: int, bound: int, what: str) -> np.ndarray:
    """The ``count`` packed indices into ``bound`` items at ``off``, checked.

    Nonzero padding bits name the field's last byte; an index of ``bound``
    or more names the byte that holds its first bit.
    """
    w = _index_bits(bound)
    end = off + _packed_size(count, w)
    used = count * w % 8  # bits of the last byte that hold a field
    if used and blob[end - 1] >> used:
        raise ModelFormatError(f"nonzero padding bits at offset {end - 1}")
    values = _unpack_bits(memoryview(blob)[off:end], count, w)
    bad = np.flatnonzero(values >= bound)
    if bad.size:
        raise ModelFormatError(f"{what} out of range at offset {off + int(bad[0]) * w // 8}")
    return values


def _increasing(rows: np.ndarray) -> np.ndarray:
    """Whether each row is lexicographically above the one before (-0.0 == 0.0)."""
    above, differ = rows[1:] > rows[:-1], rows[1:] != rows[:-1]
    return np.take_along_axis(above, differ.argmax(axis=1)[:, None], axis=1)[:, 0]


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
