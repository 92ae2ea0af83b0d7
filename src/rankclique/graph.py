"""Undirected graph container and input formats.

Graphs are simple and undirected: no self-loops, no duplicate edges,
0-based vertex indices internally.  Constructors accept dirty edge input
(duplicates, swapped endpoints, self-loops) and canonicalize it through
the flat keys src*n + dst of both orientations: marked in one n x n
bitmap when that takes no more bytes than a sort's two key arrays (n² at
most 8 bytes per pair), else sorted once.  One helper (_structure) turns
the ascending keys into the CSR arrays, for these graphs, for random
graphs (whose draws are written straight into a bitmap's upper
triangle) and for the non-edges that adj_matvec may store.  Co-occurrence
graphs are read straight off the sorted CSR arrays of X X^T.  The DIMACS
reader and the coordinate-matrix reader share one line tokenizer (_records),
which reports malformed lines by line number, a non-ASCII character
outside a comment line included.  Files are read as bytes, so a comment
line in a file may hold any bytes.  DIMACS files use 1-based vertex
labels on disk.

Each format has a standard layout that is read in one vectorised pass
over its bytes: comment lines, one header line, then only lines of
ASCII-digit fields with single spaces and LF or CRLF endings, `e u v`
for DIMACS as serialize_dimacs writes it and `row col count` for a
coordinate matrix as a count writer produces it.  Both passes go through
one scanner (_standard_fields).  Every other layout, and every
malformed file, goes through the line-by-line reader, which gives the
same result or names the first bad line.  Both readers refuse a header
asking for more than MAX_VERTICES vertices (or rows or columns) before
any graph array is allocated.

Graph.adj_matvec, the one adjacency product the solver, the baselines
and the clique checks use, makes one pass over one of three stored
forms, chosen by entry counts alone: the dense 0/1 matrix of A when the
sparser of A and the non-edge adjacency Ā still holds at least 9/20 of
the n² entries, else the CSR of whichever of A and Ā has fewer entries.
The 9/20 comes from a crossover table (tools/operator_crossover.py,
committed in BENCH_9.json) of dense against sparse passes for n from 100
to 4000: at that share the dense pass is faster up to n = 1000, while
at n = 2000 and 4000 it ranges from 3% slower to 14% faster over two
runs of the table.  The operator is built on the first pass, not at
ingest.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np
import scipy.sparse as sp


# Largest vertex count a reader accepts: a header asking for more is
# refused before the graph's (n + 1)-entry row index is allocated.
MAX_VERTICES = 10_000_000


class EdgeRangeError(ValueError):
    """An edge names a vertex outside [0, n)."""

    def __init__(self, pair: tuple[int, int], n: int):
        self.pair = pair
        self.n = n
        super().__init__(f"edge {pair} out of range for graph with {n} vertices")


class _LineError(ValueError):
    """A line of a text format failed to parse; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class DimacsFormatError(_LineError):
    """A DIMACS line failed to parse; carries the 1-based line number."""


class CoordinateFormatError(_LineError):
    """A coordinate-matrix line failed to parse; carries the 1-based line number."""


class DimacsWarning(UserWarning):
    """Recoverable oddity in a DIMACS file (e.g. declared edge count is off)."""


class EdgelessGraphError(ValueError):
    """Raised by iterative methods that need at least one edge to work on."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph in compressed sparse adjacency form.

    Fields
    ------
    n          : number of vertices
    indptr     : int64 array, length n + 1; neighbor list of vertex i is
                 indices[indptr[i]:indptr[i+1]], sorted ascending
    indices    : int64 array of concatenated neighbor lists
    edge_count : number of undirected edges
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    edge_count: int

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor indices of v (a read-only view)."""
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def edges(self) -> np.ndarray:
        """(edge_count, 2) array of edges with u < v, sorted lexicographically."""
        src = np.repeat(np.arange(self.n), np.diff(self.indptr))
        keep = src < self.indices
        return np.column_stack([src[keep], self.indices[keep]])

    @cached_property
    def _stored_operator(self) -> tuple[np.ndarray | sp.csr_matrix, bool]:
        """(stored operator, whether it is Ā), built on the first pass.

        Of the three stored forms this keeps one by entry counts alone:

        * the dense float64 0/1 matrix of A, once the sparser of A and Ā
          still holds at least 9/20 of the n² entries.  A dgemv reads 8
          bytes per entry in order, a CSR pass 12 per stored entry plus a
          gather of u through them.  In the crossover table of
          BENCH_9.json (n from 100 to 4000, BLAS on one thread, two
          runs) the dense pass at 9/20 is 1.08-2.15x as fast for
          n <= 1000, but from 3% slower to 14% faster at n = 2000 and
          4000, so near the lower edge of the band it is not always the
          faster form; at 7/20 it is up to 24% slower.  Its memory, 8n²
          bytes, stays within 1.5x of the CSR it replaces;
        * else the 0/1 CSR of Ā when it has fewer entries than A
          (4·edge_count > n(n-1));
        * else the 0/1 CSR of A (a tie between A and Ā keeps A).
        """
        n, stored = self.n, 2 * self.edge_count
        non_edges = n * (n - 1) - stored
        if 20 * min(stored, non_edges) >= 9 * n * n:
            return _dense_adjacency(self), False
        if non_edges < stored:
            return _csr(n, *_complement_structure(self)), True
        return _csr(n, self.indptr, self.indices), False

    def adj_matvec(self, u: np.ndarray) -> np.ndarray:
        """Adjacency-matrix product A @ u in one pass over the stored
        operator (see _stored_operator): a dense dgemv over A on half-dense
        graphs, else a sparse pass over whichever of A and Ā has fewer
        entries.

        A = J - I - Ā, so on the complement side A u = (sum(u) - u) - Ā u.
        For a 0/1 vector u every form gives exact integer counts.
        """
        u = np.asarray(u, dtype=np.float64)
        if u.shape != (self.n,):
            raise ValueError(f"vector has shape {u.shape}, expected ({self.n},)")
        if self.n == 0:
            return np.zeros(0)
        op, complement = self._stored_operator
        au = _dense_pass(op, u) if isinstance(op, np.ndarray) else op @ u
        if complement:
            return np.subtract(float(u.sum()) - u, au, out=au)
        return au


# Largest dgemv of the dense pass, in matrix entries.  The OpenBLAS in
# numpy's wheels splits a dgemv of 460,800 entries or more (a square one
# from n = 679) across its threads, and the split changes how some rows'
# sums are grouped; a smaller one runs on the calling thread.
_GEMV_ENTRIES = 1 << 18


def _dense_pass(a: np.ndarray, u: np.ndarray) -> np.ndarray:
    """a @ u by one dgemv per block of rows, each below the size at which
    BLAS starts threads, so the result does not depend on the thread
    count (at n <= 512 the block is the whole matrix)."""
    out = np.empty(len(a))
    rows = max(1, _GEMV_ENTRIES // len(a))
    for lo in range(0, len(a), rows):
        np.matmul(a[lo:lo + rows], u, out=out[lo:lo + rows])
    return out


def _csr(n: int, indptr: np.ndarray, indices: np.ndarray) -> sp.csr_matrix:
    data = np.ones(len(indices), dtype=np.float64)
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def _flat_keys(g: Graph) -> np.ndarray:
    """The flat positions v*n + w of g's 2m stored entries, ascending."""
    keys = np.repeat(np.arange(g.n, dtype=np.int64) * g.n, np.diff(g.indptr))
    keys += g.indices
    return keys


def _dense_adjacency(g: Graph) -> np.ndarray:
    """A as a dense float64 0/1 matrix, written in one scatter."""
    a = np.zeros((g.n, g.n))
    a.reshape(-1)[_flat_keys(g)] = 1.0
    return a


def _complement_structure(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """indptr and indices of Ā, the non-edges of g without the diagonal.

    Marks the non-edges in an n x n bitmap through the flat keys of g's
    entries.  Taken only when Ā has fewer entries than A, so neither the
    key array nor Ā's own is longer than g.indices.
    """
    n = g.n
    mask = np.ones((n, n), dtype=bool)
    np.fill_diagonal(mask, False)
    mask.reshape(-1)[_flat_keys(g)] = False
    return _structure(n, np.flatnonzero(mask))


# _structure reduces the keys mod n this many at a time.  numpy divides
# int64 by a scalar through libdivide in floor_divide but not in
# remainder; a block's quotient stays in cache, where one whole-array
# quotient would cost more than remainder saves.
_REMAINDER_BLOCK = 1 << 14


def _structure(n: int, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """indptr and indices, read-only int64, of the n x n 0/1 matrix whose
    ones sit at the ascending distinct flat positions keys = v*n + w, as
    np.flatnonzero reads them off a bitmap.  keys becomes the indices."""
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    for lo in range(0, len(keys), _REMAINDER_BLOCK):
        block = keys[lo:lo + _REMAINDER_BLOCK]
        q = block // n
        q *= n
        block -= q
    indptr.setflags(write=False)
    keys.setflags(write=False)
    return indptr, keys


def _graph_of_keys(n: int, keys: np.ndarray) -> Graph:
    """The graph whose symmetric adjacency has its ones at keys (see _structure)."""
    indptr, indices = _structure(n, keys)
    return Graph(n=n, indptr=indptr, indices=indices, edge_count=len(indices) // 2)


def _sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of keys, ascending (np.unique without its overhead)."""
    keys = np.sort(keys, axis=None)
    if keys.size:
        fresh = np.empty(keys.size, dtype=bool)
        fresh[0] = True
        np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
        keys = keys[fresh]
    return keys


# _graph_from_pairs marks the pairs in an n x n bitmap when n² is at most
# this many times their count, and sorts their keys otherwise.  At 8 the
# bitmap's n² bytes stay below the 16 bytes per pair of the sort's two
# key arrays.  In the build table of tools/operator_crossover.py (random
# dirty pairs, n = 400 to 4000) the sort takes 1.56-1.76x as long there;
# at n²/pairs = 16 it still takes 1.06-1.29x as long, but the bitmap
# then needs as many bytes as the keys.
_BITMAP_PAIRS = 8


def _graph_from_pairs(n: int, pairs: np.ndarray) -> Graph:
    # pairs: (m, 2) int array, already validated in-range; dedups, drops
    # self-loops, normalizes orientation
    a, b = pairs[:, 0], pairs[:, 1]
    build = _marked_keys if n * n <= _BITMAP_PAIRS * len(pairs) else _sorted_keys
    return _graph_of_keys(n, build(n, a, b))


def _marked_keys(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The distinct flat keys v*n + w of both orientations of the pairs
    (a, b), self-loops dropped, ascending: marked in an n x n bitmap and
    read back by np.flatnonzero."""
    mask = np.zeros((n, n), dtype=bool)
    flat = mask.reshape(-1)
    key = np.multiply(a, n, dtype=np.int64)
    key += b
    flat[key] = True
    np.multiply(b, n, out=key)
    key += a
    flat[key] = True
    del key
    np.fill_diagonal(mask, False)
    return np.flatnonzero(mask)


def _sorted_keys(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """_marked_keys by one sort of the keys: it orders the neighbour lists
    and exposes the repeats; each undirected edge leaves exactly two
    distinct keys."""
    loop = a == b
    if loop.any():
        a, b = a[~loop], b[~loop]
    key = np.concatenate([a, b]).astype(np.int64, copy=False)
    key *= n
    key += np.concatenate([b, a])
    return _sorted_distinct(key)


def graph_from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from 0-based edge pairs.

    Input may contain duplicates, self-loops, and either endpoint order;
    all of that is sanitized away.  Raises ValueError for an endpoint
    that is not an integer (1.7, nan, inf) and EdgeRangeError for
    endpoints outside [0, n).
    """
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    pairs = np.asarray(edges)
    if pairs.dtype.kind not in "biu":
        # a cast to int64 would truncate 1.7 to 1
        pairs = pairs.astype(np.float64).reshape(-1, 2)
        whole = (np.isfinite(pairs) & (pairs == np.round(pairs))).all(axis=1)
        if not whole.all():
            i = int(np.nonzero(~whole)[0][0])
            raise ValueError(f"edge {tuple(pairs[i].tolist())} has a non-integer endpoint")
    pairs = pairs.astype(np.int64, copy=False).reshape(-1, 2)
    if pairs.size:
        bad = (pairs < 0) | (pairs >= n)
        if bad.any():
            i = int(np.nonzero(bad.any(axis=1))[0][0])
            raise EdgeRangeError((int(pairs[i, 0]), int(pairs[i, 1])), n)
    return _graph_from_pairs(n, pairs)


def parse_dimacs(text: str | bytes) -> Graph:
    """Parse DIMACS ASCII clique format.

    Expects comment lines starting with `c`, exactly one problem line
    `p edge <n> <m>` before any edge line, and edge lines `e <u> <v>`
    with 1-based endpoints.  The declared edge count m is advisory: if
    it disagrees with the parsed count a DimacsWarning is issued and the
    parsed count wins.  More than MAX_VERTICES vertices is an error.

    Bytes are read as ASCII, so a comment line may hold any bytes; a
    non-ASCII character anywhere else is an error naming its line.  Text
    in the standard layout (see _standard_dimacs), LF or CRLF ends
    alike, is read in one vectorised pass over its bytes; any other
    text, including every malformed one, goes through the line-by-line
    reader, which names the offending line.
    """
    # UTF-8 puts no ASCII byte inside a non-ASCII character, so a str
    # has the same lines and ASCII fields as its encoding
    data = text.encode("utf-8", errors="surrogatepass") if isinstance(text, str) else text
    parsed = _standard_dimacs(data)
    if parsed is None:
        parsed = _dimacs_lines(text)
    n, declared_m, pairs = parsed
    g = _graph_from_pairs(n, pairs)
    if g.edge_count != declared_m:
        warnings.warn(
            f"problem line declares {declared_m} edges, parsed {g.edge_count}",
            DimacsWarning,
            stacklevel=2,
        )
    return g


# The line breaks of the line readers: those of str.splitlines that are
# ASCII.  U+0085, U+2028 and U+2029 stay inside their line, where the
# non-ASCII check finds them.
_LINE_BREAK = re.compile(r"\r\n|[\n\r\x0b\x0c\x1c-\x1e]")
# What str.strip removes from ASCII text.  Stripping only these leaves a
# line's non-ASCII whitespace (U+00A0, U+3000) in place to be refused.
_ASCII_SPACE = " \t\n\x0b\x0c\r\x1c\x1d\x1e\x1f"
# The headers of the standard layouts: comment lines starting at column 0
# (holding no _LINE_BREAK), then the DIMACS problem line or the
# coordinate size line, with single spaces.
# A field of at most 18 decimal digits cannot overflow int64.  A longer
# one (leading zeros aside) is at least _TOO_LARGE: out of range as a
# label or index, too large as a count.
_MAX_DIGITS = 18
_TOO_LARGE = 10**_MAX_DIGITS
_COMMENT_REST = rb"[^\n\r\x0b\x0c\x1c-\x1e]*\n"
_COUNT = rb"([0-9]{1,%d})" % _MAX_DIGITS
_DIMACS_HEADER = re.compile(rb"(?:c%s)*p edge %s %s\n" % (_COMMENT_REST, _COUNT, _COUNT))
_COORDINATE_HEADER = re.compile(rb"(?:[%%#]%s)*%s %s %s\n" % (_COMMENT_REST, _COUNT, _COUNT, _COUNT))


def _records(
    text: str | bytes, comment: str | tuple[str, ...], error: type[_LineError]
) -> Iterator[tuple[int, str, list[str]]]:
    """(1-based line number, line, its fields) for each line of text that
    is neither blank nor a comment (a line starting with `comment`).

    Lines are stripped of ASCII whitespace only, and a non-ASCII
    character outside a comment line raises `error` naming its line.
    Bytes are decoded as ASCII with each other byte kept as a lone
    surrogate, which is no line break, so lines are numbered as in the
    bytes and a comment line may hold any bytes.
    """
    if isinstance(text, bytes):
        text = text.decode("ascii", errors="surrogateescape")
    for line_no, raw in enumerate(_LINE_BREAK.split(text), start=1):
        line = raw.strip(_ASCII_SPACE)
        if line.startswith(comment):
            continue
        if not line.isascii():
            raise error(line_no, f"non-ASCII character in {line!r}")
        if line:
            yield line_no, line, line.split()


def _integer(token: str) -> int | None:
    """The value of a field of ASCII digits with an optional leading `-`,
    else None; ±_TOO_LARGE for a field longer than Python's int reads
    (4300 digits).  Python's int also reads forms that no writer
    produces, such as `+2` and `1_0`.  Fields come from _records, so they
    are ASCII, where str.isdigit means the digits 0-9."""
    if token.isdigit() or (token[:1] == "-" and token[1:].isdigit()):
        try:
            return int(token)
        except ValueError:
            return -_TOO_LARGE if token[0] == "-" else _TOO_LARGE
    return None


def _standard_fields(
    data: bytes, header: re.Pattern[bytes], lead: bytes, fields: int
) -> tuple[re.Match[bytes], np.ndarray] | None:
    """(header match, the body's fields as an int64 array of one row per
    line) if data is in a standard layout, else None.

    A standard layout is text matching `header`, then only lines made of
    `lead` and `fields` fields of 1 to _MAX_DIGITS ASCII digits joined by
    single spaces, each ending in LF or CRLF.  Ranges are the caller's to
    check.
    """
    if b"\r" in data:
        # the line reader splits at CRLF as at LF; a lone CR is left in
        # place, to fail the checks below
        data = data.replace(b"\r\n", b"\n")
    head = header.match(data)
    if head is None:
        return None
    body = np.frombuffer(data, dtype=np.uint8, offset=head.end())
    if body.size == 0:
        return head, np.zeros((0, fields), dtype=np.int64)
    ends = np.flatnonzero(body == ord("\n"))
    if ends.size == 0 or ends[-1] != body.size - 1:
        return None
    starts = np.concatenate([[0], ends[:-1] + 1])
    lead_spaces = lead.count(b" ")
    spaces = np.flatnonzero(body == ord(" "))
    if spaces.size != (lead_spaces + fields - 1) * ends.size:
        return None
    # each field lies between the previous separator (the lead's last
    # byte, or the LF before the line) and the next (a space, or the
    # LF); fromstring would shift the fields past an empty one and
    # saturates an overflowing one without a warning
    prev = starts + (len(lead) - 1)
    for sep in (*spaces.reshape(ends.size, -1)[:, lead_spaces:].T, ends):
        width = sep - prev  # one more than the field's width
        if width.min() < 2 or width.max() > _MAX_DIGITS + 1:
            return None
        prev = sep
    # so every line is longer than its lead and holds fields - 1 spaces
    # after it; with the lead's own, the count above leaves it no other
    # space, and the digit count below no other byte
    for offset, byte in enumerate(lead):
        if not np.all(body[offset:][starts] == byte):
            return None
    # uint8 arithmetic wraps the bytes below "0" past 9
    if np.count_nonzero(body - ord("0") < 10) != body.size - (len(lead) + fields) * ends.size:
        return None
    text = data[head.end():]
    if lead:
        # the lead's bytes occur nowhere else; blanked, fromstring reads
        # them as part of the separator
        text = text.translate(bytes.maketrans(lead, b" " * len(lead)))
    return head, np.fromstring(text, dtype=np.int64, sep=" ").reshape(-1, fields)


def _standard_dimacs(data: bytes) -> tuple[int, int, np.ndarray] | None:
    """(n, declared m, 0-based pairs) if data is in the standard layout, else None.

    The standard layout is the header above (comment lines, then the
    problem line), then only `e <digits> <digits>` lines, single spaces,
    each ending in LF or CRLF, every endpoint in 1..n.  serialize_dimacs
    writes text in this layout, with no comment lines and LF ends.  For
    such data the answer is what _dimacs_lines returns.
    """
    scanned = _standard_fields(data, _DIMACS_HEADER, b"e ", 2)
    if scanned is None:
        return None
    header, labels = scanned
    n, declared_m = int(header[1]), int(header[2])
    if n > MAX_VERTICES or (labels.size and (labels.min() < 1 or labels.max() > n)):
        return None
    # in place: on hamming10_2 a copy here left the graph build about
    # 7 MB of fresh pages to fault in
    labels -= 1
    return n, declared_m, labels


def _dimacs_lines(text: str | bytes) -> tuple[int, int, np.ndarray]:
    """(n, declared m, 0-based pairs) read line by line, for any layout
    the format allows; raises DimacsFormatError naming the first bad line."""
    n = None
    declared_m = None
    pairs: list[tuple[int, int]] = []
    for line_no, line, tokens in _records(text, "c", DimacsFormatError):
        if tokens[0] == "p":
            if n is not None:
                raise DimacsFormatError(line_no, "duplicate problem line")
            if len(tokens) != 4 or tokens[1] != "edge":
                raise DimacsFormatError(line_no, f"malformed problem line {line!r}")
            n, declared_m = _integer(tokens[2]), _integer(tokens[3])
            if n is None or declared_m is None:
                raise DimacsFormatError(line_no, f"non-integer problem line {line!r}")
            if n < 0 or declared_m < 0:
                raise DimacsFormatError(line_no, "negative counts in problem line")
            if max(n, declared_m) >= _TOO_LARGE:
                raise DimacsFormatError(line_no, "count too large in problem line")
            if n > MAX_VERTICES:
                raise DimacsFormatError(line_no, f"{n} vertices exceed the limit of {MAX_VERTICES}")
        elif tokens[0] == "e":
            if n is None:
                raise DimacsFormatError(line_no, "edge line before problem line")
            if len(tokens) != 3:
                raise DimacsFormatError(line_no, f"malformed edge line {line!r}")
            u, v = _integer(tokens[1]), _integer(tokens[2])
            if u is None or v is None:
                raise DimacsFormatError(line_no, f"non-integer edge line {line!r}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise DimacsFormatError(line_no, f"endpoint out of range in {line!r} (n = {n})")
            pairs.append((u - 1, v - 1))
        else:
            raise DimacsFormatError(line_no, f"unrecognized line {line!r}")
    if n is None:
        raise DimacsFormatError(0, "missing problem line")
    return n, declared_m, np.asarray(pairs, dtype=np.int64).reshape(-1, 2)


def read_dimacs(path: str | Path) -> Graph:
    return parse_dimacs(Path(path).read_bytes())


def serialize_dimacs(g: Graph) -> str:
    """Render a graph in DIMACS clique format (1-based, u < v, sorted)."""
    # every edge line is first laid out at the full label width w as
    # "e " u " " v "\n", each label right-aligned in its field behind NUL
    # bytes, and one translate then deletes the NULs
    head = f"p edge {g.n} {g.edge_count}\n".encode("ascii")
    w = len(str(g.n))
    out = np.empty(len(head) + g.edge_count * (2 * w + 4), dtype=np.uint8)
    out[:len(head)] = np.frombuffer(head, dtype=np.uint8)
    lines = out[len(head):].reshape(g.edge_count, 2 * w + 4)
    lines[:, 0] = ord("e")
    lines[:, 1] = lines[:, w + 2] = ord(" ")
    lines[:, -1] = ord("\n")
    # a label is one w-byte record, so each field is filled by one gather
    labels = _label_digits(g.n, w).view(f"V{w}")[:, 0]
    edges = g.edges()
    for field, ends in ((lines[:, 2:w + 2], edges[:, 0]), (lines[:, w + 3:-1], edges[:, 1])):
        field.view(f"V{w}")[:, 0] = labels[ends]
    return out.tobytes().translate(None, b"\0").decode("ascii")


def _label_digits(n: int, w: int) -> np.ndarray:
    """(n, w) uint8 table whose row v holds the ASCII digits of the label
    v + 1, right-aligned, with NUL bytes before them."""
    table = np.empty((n, w), dtype=np.uint8)
    rest = np.arange(1, n + 1, dtype=np.int64)
    for col in range(w - 1, -1, -1):
        table[:, col] = np.where(rest > 0, rest % 10 + ord("0"), 0)
        rest //= 10
    return table


def random_graph(n: int, density: float, seed: int) -> Graph:
    """Bernoulli random graph: each of the n(n-1)/2 pairs is an edge
    independently with probability `density`.  Same (n, density, seed)
    always yields the same graph.

    Pair (v, w), v < w, takes the draw at its place in the row-major
    order of the upper triangle.  Memory: the 8-byte draws, then an n²
    byte bitmap, then the graph's own arrays.
    """
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must lie in [0, 1], got {density}")
    rng = np.random.default_rng(seed)
    upper = rng.random(n * (n - 1) // 2) < density
    mask = np.zeros((n, n), dtype=bool)
    # a boolean-mask assignment fills the strict upper triangle in
    # row-major order
    mask[~np.tri(n, dtype=bool)] = upper
    del upper
    mask |= mask.T
    return _graph_of_keys(n, np.flatnonzero(mask))


def parse_coordinate_matrix(text: str | bytes) -> sp.csr_matrix:
    """Parse a sparse nonnegative matrix in coordinate text format.

    First non-comment line is a header `n_rows n_cols nnz`; each later
    line is a triple `row col value` with 1-based indices.  Lines
    starting with `%` or `#` are comments.  Counts and indices are
    ASCII digits; a value is any finite nonnegative float written
    without `_`.  Repeated (row, col) entries are summed.  Malformed
    lines raise CoordinateFormatError with the line number.

    Bytes are read as ASCII, so a comment line may hold any bytes.  Text
    in the standard layout (see _standard_coordinates), LF or CRLF ends
    alike, is read in one vectorised pass over its bytes; any other
    text, including every malformed one, goes through the line-by-line
    reader, which gives the same matrix or names the offending line.
    """
    # as in parse_dimacs, a str has the same lines and ASCII fields as
    # its encoding
    data = text.encode("utf-8", errors="surrogatepass") if isinstance(text, str) else text
    parsed = _standard_coordinates(data)
    if parsed is None:
        parsed = _coordinate_lines(text)
    shape, rows, cols, vals = parsed
    # tocsr sums repeated entries
    return sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()


def _standard_coordinates(data: bytes) -> tuple[tuple[int, int], np.ndarray, np.ndarray, np.ndarray] | None:
    """(shape, 0-based rows, 0-based cols, values) if data is in the
    standard layout, else None.

    The standard layout is the one a count writer produces: the header
    above, then only `<digits> <digits> <digits>` lines, single spaces,
    each ending in LF or CRLF, every row in 1..n_rows and every column
    in 1..n_cols.  For such data the answer is what _coordinate_lines
    returns.
    """
    scanned = _standard_fields(data, _COORDINATE_HEADER, b"", 3)
    if scanned is None:
        return None
    header, entries = scanned
    n_rows, n_cols = int(header[1]), int(header[2])
    if max(n_rows, n_cols) > MAX_VERTICES:
        return None
    rows, cols, vals = entries.T
    if entries.size and not (1 <= rows.min() and rows.max() <= n_rows and 1 <= cols.min() and cols.max() <= n_cols):
        return None
    return (n_rows, n_cols), rows - 1, cols - 1, vals.astype(np.float64)


def _coordinate_lines(text: str | bytes) -> tuple[tuple[int, int], np.ndarray, np.ndarray, np.ndarray]:
    """(shape, 0-based rows, 0-based cols, values) read line by line, for
    any layout the format allows; raises CoordinateFormatError naming
    the first bad line."""
    header = None
    rows: list[int] = []  # 1-based until the end
    cols: list[int] = []
    vals: list[float] = []
    for line_no, line, tokens in _records(text, ("%", "#"), CoordinateFormatError):
        if header is None:
            if len(tokens) != 3:
                raise CoordinateFormatError(line_no, f"malformed header {line!r}")
            header = tuple(map(_integer, tokens))
            if None in header:
                raise CoordinateFormatError(line_no, f"non-integer header {line!r}")
            if any(x < 0 for x in header):
                raise CoordinateFormatError(line_no, "negative header counts")
            if max(header) >= _TOO_LARGE:
                raise CoordinateFormatError(line_no, "header count too large")
            n_rows, n_cols = header[0], header[1]
            if max(n_rows, n_cols) > MAX_VERTICES:
                raise CoordinateFormatError(
                    line_no, f"{n_rows} x {n_cols} matrix exceeds the limit of {MAX_VERTICES} per side"
                )
            continue
        if len(tokens) != 3:
            raise CoordinateFormatError(line_no, f"malformed entry {line!r}")
        rt, ct, xt = tokens
        # a leading - is read, to be refused as out of range below
        r, c = _integer(rt), _integer(ct)
        if r is None or c is None:
            raise CoordinateFormatError(line_no, f"non-numeric entry {line!r}")
        try:
            # float also reads `1_0`, as 10, a form no writer produces
            if "_" in xt:
                raise ValueError(xt)
            x = float(xt)
        except ValueError:
            raise CoordinateFormatError(line_no, f"non-numeric entry {line!r}") from None
        if not (1 <= r <= n_rows and 1 <= c <= n_cols):
            raise CoordinateFormatError(line_no, f"index out of range in {line!r}")
        if not 0.0 <= x < math.inf:
            what = "negative" if x < 0.0 else "non-finite"
            raise CoordinateFormatError(line_no, f"{what} value in {line!r}")
        rows.append(r)
        cols.append(c)
        vals.append(x)
    if header is None:
        raise CoordinateFormatError(0, "missing header line")
    rows_0 = np.asarray(rows, dtype=np.int64) - 1
    cols_0 = np.asarray(cols, dtype=np.int64) - 1
    return (n_rows, n_cols), rows_0, cols_0, np.asarray(vals, dtype=np.float64)


def _least_threshold(p_values: list[int]) -> int:
    """The smallest of the co-occurrence thresholds p_values; ValueError
    for an empty list or a threshold below 1."""
    if not p_values:
        raise ValueError("at least one co-occurrence threshold is needed")
    p_min = min(p_values)
    if p_min < 1:
        raise ValueError(f"co-occurrence threshold must be >= 1, got {p_min}")
    return p_min


def _shared_term_counts(
    doc_term_text: str | bytes, p_min: int
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """(n, indptr, indices, counts) of the off-diagonal entries of at
    least p_min in X X^T, X the binarized doc-term matrix: entry (i, j)
    counts the distinct words documents i and j share.  Each row's
    columns are ascending; indptr and indices are int64."""
    x = parse_coordinate_matrix(doc_term_text)
    # tocsr has summed repeated (row, col) entries
    x.data = (x.data != 0).astype(np.float64)
    shared = x @ x.T
    n = shared.shape[0]
    rows = np.repeat(np.arange(n), np.diff(shared.indptr))
    shared.data[(shared.data < p_min) | (shared.indices == rows)] = 0.0
    shared.eliminate_zeros()
    # X X^T stays symmetric, so its CSC arrays are its CSR arrays with
    # each row's columns sorted, in one linear pass
    shared = shared.tocsc()
    return n, shared.indptr.astype(np.int64), shared.indices.astype(np.int64), shared.data


def _cooccurrence_from_counts(counts: tuple[int, np.ndarray, np.ndarray, np.ndarray], p: int) -> Graph:
    """The graph joining the documents that share at least p words, read
    off counts that _shared_term_counts formed at a p_min <= p."""
    n, indptr, indices, shared = counts
    kept = np.flatnonzero(shared >= p)
    indices = indices.take(kept)
    indptr = np.searchsorted(kept, indptr)
    indptr.setflags(write=False)
    indices.setflags(write=False)
    return Graph(n=n, indptr=indptr, indices=indices, edge_count=len(indices) // 2)


def cooccurrence_graph(doc_term_text: str | bytes, p: int) -> Graph:
    """Build a document co-occurrence graph from a doc-term matrix.

    The matrix is binarized (any nonzero entry counts as word presence);
    two distinct documents are joined by an edge when they share at
    least p words.  p must be >= 1.
    """
    return _cooccurrence_from_counts(_shared_term_counts(doc_term_text, _least_threshold([p])), p)


@dataclass(frozen=True)
class CliqueSet:
    """A vertex subset held as a sorted tuple; meant to name a clique.

    The container itself does not know a graph; completeness is checked
    where cliques are produced (is_clique / is_maximal_clique).
    """

    vertices: tuple[int, ...]

    def __post_init__(self):
        vs = tuple(sorted(set(int(v) for v in self.vertices)))
        if vs != self.vertices:
            object.__setattr__(self, "vertices", vs)

    @property
    def size(self) -> int:
        return len(self.vertices)

    @classmethod
    def from_indicator(cls, u: np.ndarray) -> "CliqueSet":
        """Vertices where the binary indicator is positive."""
        return cls(tuple(int(i) for i in np.nonzero(np.asarray(u) > 0)[0]))

    def indicator(self, n: int) -> np.ndarray:
        u = np.zeros(n)
        u[list(self.vertices)] = 1.0
        return u


def _as_vertex_array(g: Graph, s: Iterable[int]) -> np.ndarray:
    arr = _sorted_distinct(np.asarray(list(s), dtype=np.int64))
    if arr.size and (arr[0] < 0 or arr[-1] >= g.n):
        bad = int(arr[0] if arr[0] < 0 else arr[-1])
        raise ValueError(f"vertex {bad} out of range for graph with {g.n} vertices")
    return arr


def _clique_check(g: Graph, s: Iterable[int]) -> tuple[bool, np.ndarray]:
    """(s is a clique, mask of the vertices adjacent to every member of s).

    Both come from one count, A @ 1_s, taken in a single pass of
    adj_matvec (the counts are exact integers on every stored form): s
    is a clique when every member has |s| - 1 neighbours in s.  A member
    has at most |s| - 1, so a count of |s| marks exactly the outside
    vertices that would extend s.
    """
    arr = _as_vertex_array(g, s)
    indicator = np.zeros(g.n)
    indicator[arr] = 1.0
    counts = g.adj_matvec(indicator)
    k = len(arr)
    return bool(np.all(counts[arr] == k - 1)), counts == k


def is_clique(g: Graph, s: Iterable[int]) -> bool:
    """True iff s induces a complete subgraph (empty and singleton sets count)."""
    return _clique_check(g, s)[0]


def is_maximal_clique(g: Graph, s: Iterable[int]) -> bool:
    """True iff s is a clique and no outside vertex is adjacent to all of s.

    The empty set is maximal only on the empty graph (any vertex extends
    it); a singleton is maximal only for an isolated vertex.
    """
    clique, extenders = _clique_check(g, s)
    return clique and not extenders.any()
