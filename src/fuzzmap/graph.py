"""Edge-list ingestion into CSR graphs, whose rows are the exact adjacency ground truth.

Graphs are simple (no self-loops, no duplicate edges) with dense internal
ids 0..n-1. External ids from edge-list files may be arbitrary non-negative
64-bit integers; they are remapped densely in sorted order, so the parsed
graph does not depend on the order of lines in the input.

One reader takes every edge list: it checks the text in line-aligned
pieces of about 64 KiB (``_PLAIN_CHUNK``), turning comments, carriage
returns, commas and signs into blanks where a piece has them, and then
converts every id with one ``np.fromstring``. Scratch stays in proportion
to the input: the checks hold one piece at a time, and the CSR build
sorts the ids and the edge keys in buffers the size of the (m, 2) edge
array, in place.
"""

from __future__ import annotations

import itertools
import logging
import re
from dataclasses import dataclass
from typing import IO, Iterable, NoReturn

import numpy as np

log = logging.getLogger(__name__)

_MAX_ID = 2**64 - 1

# one line of an edge list, its '\n' cut off: blank, a '#' or '%' comment, or two
# ids split by spaces/tabs or one comma; an id is a sign, leading zeros and at most
# 20 digits more (its groups: sign, digits), so int() never meets its digit limit
_ID = r"([+-]?)0*([0-9]{1,20})"
_LINE = re.compile(rf"[ \t]*(?:{_ID}(?:[ \t]*,[ \t]*|[ \t]+){_ID}[ \t]*|[#%].*)?\r?")
# the same grammar over a piece of whole lines, in bytes; an id may have any
# number of digits, which _read_ids bounds, but a '-' id can only be zero
_BYTES_ID = rb"(?:\+?[0-9]+|-0+)"
_BYTES_LINE = rb"[ \t]*(?:%s(?:[ \t]+,?|,)[ \t]*%s[ \t]*|[#%%][^\n]*)?\r?" % (_BYTES_ID, _BYTES_ID)
# one lookahead a line: a (?:line\n)* match of a piece would hold ~1.6 KB of backtrack state a line
_BAD_LINE = re.compile(rb"^(?!%s$)" % _BYTES_LINE, re.M)
_COMMENT = re.compile(rb"[#%][^\n]*")
# the bytes np.fromstring is given: digits, blanks and '\n'; in a piece with
# no _BAD_LINE, '\r', ',', '+' and '-' become blanks, and comments go
_PLAIN_BYTES = b"0123456789 \t\n"
_BLANKS = bytes.maketrans(b"\r,+-", b"    ")
# bytes per piece of _read_ids' checks; a piece runs on to the end of its last line
_PLAIN_CHUNK = 1 << 16


class GraphParseError(ValueError):
    """Raised when an edge-list input cannot be parsed."""


class _IdMap:
    """The id map of Graph and CompressedGraph: external id <-> internal id.

    A subclass holds ``n`` and ``external_ids``, the n strictly increasing
    u64 ids that ``check_external_ids`` passed, so internal id u names
    ``external_ids[u]``.
    """

    def internal_id(self, external: int) -> int:
        """Binary search over the sorted ids; range-checked before the uint64 cast."""
        if not _is_integer(external):
            raise ValueError(f"external node id {external!r} is not an integer")
        e = int(external)
        if _in_id_range(e):
            i = int(np.searchsorted(self.external_ids, np.uint64(e)))
            if i < self.n and int(self.external_ids[i]) == e:
                return i
        raise ValueError(f"unknown external node id {external}")

    def external_id(self, internal: int) -> int:
        check_node_id(internal, self.n)
        return int(self.external_ids[internal])


@dataclass(eq=False, frozen=True)
class Graph(_IdMap):
    """Compressed-sparse-row (CSR) graph over dense internal ids.

    Row u, ``indices[indptr[u]:indptr[u + 1]]``, holds u's sorted neighbors
    (out-neighbors when directed); the radii scan reads the rows of many
    nodes at once from ``indptr`` and ``indices``, other modules through
    ``neighbors`` and ``edges``. ``external_ids[u]`` is the original id of
    internal node u; sorted ascending, so the mapping is canonical, and
    ``_IdMap`` maps ids both ways. The Graph follows the holding rule
    (``hold``), so no later write gets past the checks; instances are
    safe for concurrent readers.

    Construction rejects, with ValueError, arrays that are not such a
    graph: offsets or neighbor ids of a dtype that is not an integer one
    (bool included), offsets that are not n + 1 non-decreasing values
    from 0 to len(indices), neighbor ids outside [0, n), rows that are
    not strictly increasing or hold their own node, undirected rows that
    are not symmetric, and external ids that fail ``check_external_ids``.
    The radii scan's neighbor counts rely on these, and a saved model on
    the ids. ``n`` must pass ``check_int`` (an integer >= 0, held as a
    Python int, so no pair count over it wraps) and ``directed``
    ``check_bool``.
    """

    n: int
    directed: bool
    indptr: np.ndarray  # (n + 1,) int64 row offsets
    indices: np.ndarray  # (indptr[n],) int64 neighbor ids, sorted per row
    external_ids: np.ndarray  # (n,) uint64, internal id -> external id

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", check_int("n", self.n, 0))
        object.__setattr__(self, "directed", check_bool("directed", self.directed))
        for name in ("indptr", "indices"):
            values = np.asarray(getattr(self, name))
            if values.dtype.kind not in "iu":  # a float would be truncated, a bool read as 0/1
                raise ValueError(f"{name} must be an integer array, not {values.dtype}")
            object.__setattr__(self, name, hold(values, np.int64))
        n, indptr, indices = self.n, self.indptr, self.indices
        if (indptr.shape != (n + 1,) or indices.ndim != 1 or indptr[0] != 0
                or indptr[-1] != indices.shape[0] or np.any(np.diff(indptr) < 0)):
            raise ValueError("indptr must hold n + 1 non-decreasing offsets from 0 to len(indices)")
        if indices.size and not 0 <= indices.min() <= indices.max() < n:
            raise ValueError(f"neighbor id out of range [0, {n})")
        owner = np.repeat(np.arange(n), np.diff(indptr))
        if np.any(indices == owner) or np.any(
                (indices[1:] <= indices[:-1]) & (owner[1:] == owner[:-1])):
            raise ValueError("graph rows must hold sorted neighbors without self-loops or repeats")
        # the keys u * n + v are ascending by now; symmetric rows give the same keys for (v, u)
        if not self.directed:
            flipped = indices * n
            flipped += owner
            flipped.sort()
            owner *= n
            owner += indices
            if not np.array_equal(flipped, owner):
                raise ValueError("undirected graph rows must be symmetric")
        object.__setattr__(self, "external_ids", check_external_ids(self.external_ids, n))

    @property
    def num_edges(self) -> int:
        return len(self.indices) if self.directed else len(self.indices) // 2

    def neighbors(self, u: int) -> np.ndarray:
        """Sorted neighbor ids of u (out-neighbors when directed)."""
        check_node_id(u, self.n)
        return self.indices[self.indptr[u] : self.indptr[u + 1]]

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """(us, vs): each edge once, in ascending (u, v) order; u < v if undirected."""
        us = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        vs = self.indices
        if not self.directed:
            keep = us < vs
            us, vs = us[keep], vs[keep]
        return us, vs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and self.directed == other.directed
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.external_ids, other.external_ids)
        )


def _is_integer_type(t: type) -> bool:
    """Python and numpy integer types; bool is not an id type (it would answer as 1/0)."""
    return issubclass(t, (int, np.integer)) and not issubclass(t, bool)


def _is_integer(value) -> bool:
    return _is_integer_type(type(value))


def _in_id_range(e: int) -> bool:
    """External ids are u64: [0, 2**64)."""
    return 0 <= e <= _MAX_ID


def check_bool(name: str, value) -> bool:
    """``value`` as a Python bool; ValueError unless it is a bool (numpy's included).

    A flag of None or "no" would pass as false or true without it.
    """
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a bool, not {value!r}")
    return bool(value)


def check_int(name: str, value, least: int) -> int:
    """``value`` as a Python int; ValueError unless it is an integer >= ``least``.

    The count rule of every seed, k, n, m and sample size: numpy integers
    are taken, bools and floats are not (a bool would count as 1 or 0, a
    float fail deep inside numpy), and a numpy integer comes back as a
    Python int, whose arithmetic does not wrap.
    """
    if not (_is_integer(value) and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, not {value!r}")
    return int(value)


def check_real(name: str, values) -> np.ndarray:
    """``values`` as an array, unconverted (``hold`` converts it); ValueError
    naming the dtype unless it is a real number (numpy kinds i, u and f:
    no bool, complex, object, str, bytes or datetime)."""
    values = np.asarray(values)
    if values.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be real numbers, not of dtype {values.dtype}")
    return values


def hold(values: np.ndarray, dtype: type) -> np.ndarray:
    """``values`` as a read-only, Fortran-ordered ``dtype`` array that is its
    holder's own: the array itself when it already is one and owns its
    memory, else one read-only copy, converted in the same step.

    The holding rule of fuzzmap's records: every record it hands out is
    frozen (a Graph, an Embedding, a model, a FuzzySystem and its term
    maps, NodeRadii, PointGroups, EvalReport and the named tuples),
    and every array a Graph, an Embedding or a model keeps is held here,
    so no later write through a name the caller keeps reaches what was
    checked. A caller that passes a read-only array owning its memory
    hands it over, as ``graph_from_edges`` and ``fastmap_embed`` do theirs.
    """
    held = values.astype(dtype, order="F", copy=values.flags.writeable or values.base is not None)
    held.flags.writeable = False
    return held


def check_external_ids(ids, n: int) -> np.ndarray:
    """``ids`` as uint64, held by ``hold``.

    ValueError unless they are n strictly increasing values of an integer
    dtype (bool excluded) in [0, 2**64): ``_IdMap.internal_id`` searches
    them, and a saved model's file holds them so.
    """
    ids = np.asarray(ids)
    if ids.dtype.kind not in "iu" or (ids.dtype.kind == "i" and ids.size and ids.min() < 0):
        raise ValueError("external_ids must be integers in [0, 2**64)")
    ids = hold(ids, np.uint64)
    if ids.shape != (n,) or np.any(ids[1:] <= ids[:-1]):
        raise ValueError("external_ids must hold n strictly increasing ids")
    return ids


def check_node_id(u: int, n: int) -> None:
    """Raise ValueError unless u is an integer internal id in [0, n)."""
    if not _is_integer(u):
        raise ValueError(f"node id {u!r} is not an integer")
    if not 0 <= u < n:
        raise ValueError(f"node id {u} out of range [0, {n})")


def graph_from_edges(pairs: Iterable[tuple[int, int]] | np.ndarray,
                     directed: bool = False) -> Graph:
    """Build a Graph from (external_u, external_v) pairs.

    ``pairs`` is an iterable of pairs or an (m, 2) integer array, which is
    used as is. Deduplicates edges and drops self-loops; nodes are the
    union of endpoint ids, remapped densely in sorted order. Raises
    ValueError for a ``directed`` that fails ``check_bool`` (before any
    work), for an element that is not a pair and for an id that is not
    an integer (floats and bools included) or lies outside [0, 2**64).
    """
    directed = check_bool("directed", directed)
    if isinstance(pairs, np.ndarray) and pairs.dtype.kind in "iu":
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(f"edge array must have shape (m, 2), got {pairs.shape}")
        if pairs.dtype.kind == "i" and pairs.size and pairs.min() < 0:
            raise ValueError("edge array holds a negative node id")
        ends = pairs.astype(np.uint64, copy=False)
    else:
        ends = _pairs_to_array(pairs)
    loops = ends[:, 0] == ends[:, 1]
    if loops.any():
        log.warning("skipped %d self-loop edge(s)", int(loops.sum()))
        ends = ends[~loops]
    if not ends.size:
        raise GraphParseError("empty graph")
    # scratch is a few arrays the size of ``ends``, each dropped once used
    flat = ends.ravel()
    order = flat.argsort()
    ranks = flat[order]  # the sorted ids, overwritten by their dense ranks
    new = ranks[1:] != ranks[:-1]
    ids = np.concatenate((ranks[:1], ranks[1:][new]))
    n = ids.shape[0]
    ranks = ranks.view(np.int64)
    ranks[0] = 0
    np.cumsum(new, out=ranks[1:])
    del new
    dense = np.empty(flat.shape[0], dtype=np.int64)
    dense[order] = ranks
    del order, ranks
    src, dst = dense[0::2], dense[1::2]
    # the key u * n + v of each arc; undirected, both directions' keys overwrite dense
    keys = src * n
    keys += dst
    if not directed:
        dst *= n
        dst += src
        src[...] = keys
        keys = dense
    del dense, src, dst
    # not np.unique: without return_* flags numpy >= 2.3 hashes, ~30x slower than a sort here
    keys.sort()
    keep = np.concatenate(([True], keys[1:] != keys[:-1]))
    if not keep.all():
        keys = keys[keep]
    del keep
    indptr = np.searchsorted(keys, np.arange(n + 1) * n)
    keys %= n  # sorted, deduplicated rows of neighbor ids
    indptr.flags.writeable = keys.flags.writeable = ids.flags.writeable = False  # Graph holds them
    return Graph(n=n, directed=directed, indptr=indptr, indices=keys, external_ids=ids)


def _pairs_to_array(pairs: Iterable) -> np.ndarray:
    """The (m, 2) uint64 array of checked (u, v) pairs.

    Each check is one pass at C speed (map, set, min, max); only a failed
    check walks the pairs in Python, to name the first bad one.
    """
    rows = list(pairs)
    try:
        pairs_only = set(map(len, rows)) <= {2}
    except TypeError:  # an element without a length
        pairs_only = False
    if not pairs_only:
        bad = next(p for p in rows if not (hasattr(p, "__len__") and len(p) == 2))
        raise ValueError(f"edge {bad!r} is not a (u, v) pair")
    ids = list(itertools.chain.from_iterable(rows))
    if not all(map(_is_integer_type, set(map(type, ids)))):
        bad = next(x for x in ids if not _is_integer(x))
        raise ValueError(f"node id {bad!r} is not an integer")
    if ids and not (_in_id_range(min(ids)) and _in_id_range(max(ids))):
        bad = min(ids) if min(ids) < 0 else max(ids)
        raise ValueError(f"node id {bad} is outside [0, 2**64)")
    return np.array(ids, dtype=np.uint64).reshape(-1, 2)


def parse_edge_list(text: str | bytes | IO, directed: bool = False) -> Graph:
    """Parse edge-list text into a Graph.

    ``text`` is a stream, which is read, a str, which is encoded as UTF-8,
    or any bytes-like object; anything else raises TypeError. ``_read_ids``
    takes those bytes.

    One edge per line, each line ending at '\n' (a carriage return before
    it is dropped): two ids of ASCII digits with an optional sign, below
    2**64, split by spaces/tabs or by one comma with optional spaces/tabs
    around it, and spaces/tabs at either end. Lines of only spaces/tabs,
    and lines whose first other byte is '#' or '%', are skipped. Self-loop
    lines are skipped (with a logged warning count); duplicate edges
    collapse. Input that is not UTF-8, and the first line outside this
    grammar (named by its number), raise GraphParseError. A ``directed``
    that fails ``check_bool`` raises ValueError before the text is read.
    """
    directed = check_bool("directed", directed)
    if hasattr(text, "read"):
        text = text.read()
    if isinstance(text, str):
        text = text.encode("utf-8", "surrogatepass")  # a lone surrogate fails the UTF-8 check
    try:
        data = text if isinstance(text, bytes) else memoryview(text).tobytes()
    except TypeError:
        raise TypeError("text must be a str, a bytes-like object or a stream, "
                        f"not {type(text).__name__}") from None
    return graph_from_edges(_read_ids(data), directed=directed)


def _read_ids(data: bytes) -> np.ndarray:
    """(m, 2) uint64 ids of an edge list, with every id from one ``np.fromstring``.

    The text is checked one piece of whole lines at a time. A piece of
    only digits, spaces, tabs and '\n' goes straight to the numpy checks:
    0 or 2 tokens a line, and each token of 20 or more digits compared
    with 2**64. Any other piece must first hold no ``_BAD_LINE``; then its
    comments, carriage returns, commas and signs become blanks, and it
    takes the same checks. A piece that fails has its first bad line
    worded by ``_raise_bad_line``. Scratch beyond the text and the ids is
    O(_PLAIN_CHUNK) unless one line is longer, plus a blanked copy of the
    text when a piece held decorations.
    """
    try:
        data.decode("utf-8")  # first, so that no bad line is reported ahead of a bad byte
    except UnicodeDecodeError as exc:
        raise GraphParseError(f"input is not UTF-8: {exc}") from None
    # once a piece is blanked: the text up to it and the blanked pieces, in order
    view, blanked, done = memoryview(data), [], 0
    tokens = start = 0
    while start < len(data):
        # whole lines of at least _PLAIN_CHUNK bytes, or the rest of the text
        stop = data.find(b"\n", start + _PLAIN_CHUNK - 1) + 1 or len(data)
        piece = raw = data[start:stop]
        if raw.translate(None, _PLAIN_BYTES):
            if _BAD_LINE.search(raw):
                _raise_bad_line(raw, data.count(b"\n", 0, start))
            piece = _COMMENT.sub(b"", raw).translate(_BLANKS)
            blanked += (view[done:start], piece)
            done = stop
        buf = np.frombuffer(piece, dtype=np.uint8)
        # digits are the only bytes >= '0' left; +1 where a run of them starts, -1 one past its end
        steps = np.diff((buf >= ord("0")).view(np.int8), prepend=0, append=0)
        starts, stops = np.flatnonzero(steps == 1), np.flatnonzero(steps == -1)
        # token starts and newlines in text order; the tokens of a line are the
        # events between its newline and the one before, and there are 0 or 2
        events = np.flatnonzero((steps[:-1] == 1) | (buf == ord("\n")))
        lines = np.flatnonzero(buf[events] == ord("\n"))
        per_line = np.diff(lines, prepend=-1, append=events.size) - 1
        if np.any((per_line != 0) & (per_line != 2)) or any(
                _over_max(piece[starts[i]:stops[i]]) for i in np.flatnonzero(stops - starts >= 20)):
            _raise_bad_line(raw, data.count(b"\n", 0, start))
        tokens += starts.size
        start = stop
    if not tokens:  # np.fromstring reads a text of only blanks as one 0
        return np.empty((0, 2), dtype=np.uint64)
    data = b"".join(blanked + [view[done:]]) if blanked else data
    # one C pass over checked text, exact to 2**64 - 1
    return np.fromstring(data, dtype=np.uint64, sep=" ").reshape(-1, 2)


def _over_max(digits: bytes) -> bool:
    """Whether a token of ASCII digits reads above 2**64 - 1 (leading zeros allowed)."""
    digits = digits.lstrip(b"0")
    return len(digits) > 20 or int(digits or 0) > _MAX_ID


def _raise_bad_line(piece: bytes, lineno: int) -> NoReturn:
    """Raise the GraphParseError of the first bad line of a piece after ``lineno`` lines.

    A line is bad when ``_LINE`` does not match it or an id lies outside
    [0, 2**64). Only a piece that failed ``_read_ids``' checks, which
    holds such a line, comes here, so only the failing piece is decoded.
    """
    for line in piece.decode("utf-8").split("\n"):
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
        if u is not None and not (_in_id_range(int(sign_u + u)) and _in_id_range(int(sign_v + v))):
            raise GraphParseError(f"line {lineno}: node id out of 64-bit range: {line!r}")
    raise AssertionError("a piece that failed the edge-list checks holds no bad line")


def load_edge_list(path: str, directed: bool = False) -> Graph:
    """Parse an edge-list file from disk."""
    with open(path, "rb") as f:
        return parse_edge_list(f, directed=directed)


def canonical_edge_list(g: Graph) -> str:
    """Emit the canonical edge list (external ids, sorted, one edge per line).

    Re-parsing the result with the same directed flag reproduces the Graph
    exactly when every node has an edge, as in any graph the parser or
    ``graph_from_edges`` makes. A node without edges is not written, and a
    graph with no edges gives "\n", which ``parse_edge_list`` rejects as an
    empty graph (GraphParseError).
    """
    us, vs = g.edges()  # internal order == ascending external order
    ends = np.column_stack((g.external_ids[us], g.external_ids[vs]))
    # tolist gives Python ints, which %d writes exactly beyond int64
    return ("%d %d\n" * us.shape[0]) % tuple(ends.ravel().tolist()) or "\n"
