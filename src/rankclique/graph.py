"""Undirected graph container and input formats.

Graphs are simple and undirected: no self-loops, no duplicate edges,
0-based vertex indices internally; DIMACS files use 1-based labels on
disk.  Constructors accept dirty edge input (duplicates, swapped
endpoints, self-loops) and canonicalize it through the flat keys
v*n + w of both orientations (_graph_from_pairs), which one helper
(_structure) turns into CSR arrays.

Files are read as bytes, so a comment line may hold any bytes.  A file
in its format's standard layout is read in vectorised passes over
chunks of its body (_standard_chunks); every other layout, and every
malformed file, goes through the line-by-line reader (_records), which
gives the same result or names the first bad line.  Both readers refuse
a header asking for more than MAX_VERTICES vertices (or rows or
columns) before any graph array is allocated.

Graph.adj_matvec is the one adjacency product that the solver, the
baselines and the clique checks use; Graph._pass chooses its stored form.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass
from functools import cached_property, partial
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec


# Largest vertex count a reader accepts: a header asking for more is
# refused before the graph's (n + 1)-entry row index is allocated.
MAX_VERTICES = 10_000_000

# Largest working memory random_graph takes for its float64 draws and
# its n x n bitmap, 8 n(n-1)/2 + n² bytes: 1 GiB admits n up to 14,654.
# A larger graph is refused before anything is drawn.
MAX_RANDOM_GRAPH_BYTES = 1 << 30


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
    def _pass(self) -> Callable[[np.ndarray], np.ndarray]:
        """u -> A u, bound on the first pass to one of three stored forms,
        chosen by entry counts alone:

        * the dense float64 0/1 matrix of A, through _dense_pass, once the
          sparser of A and Ā still holds at least 9/20 of the n² entries.
          A dgemv reads 8 bytes per entry in order, a CSR pass 12 per
          stored entry plus a gather of u through them.  In the crossover
          tables of BENCH_9.json and README (n from 100 to 4000, BLAS on
          one thread, four runs) the dense pass at 9/20 is 1.03-2.45x as
          fast for n <= 1000, but from 6% slower to 14% faster at
          n = 2000 and 4000, so near the lower edge of the band it is not
          always the faster form; at 7/20 it is up to 26% slower.  Its
          memory, 8n² bytes, stays within 1.5x of the CSR it replaces.
          One share for every n keeps the rule free of cache sizes; a
          different form groups the sums differently, and so changes
          the results;
        * else the 0/1 CSR of Ā when it has fewer entries than A
          (4·edge_count > n(n-1)), through _csr_kernel and then
          _complement_pass;
        * else the 0/1 CSR of A, through _csr_kernel (a tie between A and
          Ā keeps A).

        Building the dense form, or Ā through its n² byte bitmap, takes
        one block of _SCATTER_ENTRIES keys (0.5 MB) on top of that array,
        whatever the graph's size (see _scatter_entries).  _form_pass
        binds the chosen form.
        """
        n, stored = self.n, 2 * self.edge_count
        non_edges = n * (n - 1) - stored
        if 20 * min(stored, non_edges) >= 9 * n * n:
            return _form_pass(self, "dense")
        return _form_pass(self, "csr_of_complement" if non_edges < stored else "csr_of_a")

    def adj_matvec(self, u: np.ndarray) -> np.ndarray:
        """Adjacency-matrix product A @ u in one pass over the stored
        form that _pass binds.  For a 0/1 vector u every form gives exact
        integer counts."""
        u = np.asarray(u, dtype=np.float64)
        if u.shape != (self.n,):
            raise ValueError(f"vector has shape {u.shape}, expected ({self.n},)")
        if self.n == 0:
            return np.zeros(0)
        return self._pass(u)


def _form_pass(g: Graph, form: str) -> Callable[[np.ndarray], np.ndarray]:
    """u -> A u over one stored form of g's operator, built and bound to
    its kernel: "dense", "csr_of_complement" or "csr_of_a" (see
    Graph._pass).  Partials of module functions keep a graph picklable."""
    if form == "dense":
        return partial(_dense_pass, _dense_adjacency(g))
    if form == "csr_of_complement":
        return partial(_complement_pass, _csr_kernel(g.n, *_complement_structure(g)))
    if form == "csr_of_a":
        return _csr_kernel(g.n, g.indptr, g.indices)
    raise ValueError(f"unknown stored form {form!r}")


def _complement_pass(kernel: Callable[[np.ndarray], np.ndarray], u: np.ndarray) -> np.ndarray:
    """A u = (sum(u) - u) - Ā u, since A = J - I - Ā, in the array of
    Ā u = kernel(u)."""
    au = kernel(u)
    return np.subtract(float(np.add.reduce(u)) - u, au, out=au)


def _csr_kernel(n: int, indptr: np.ndarray, indices: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """u -> the n x n 0/1 CSR matrix (indptr, indices) times u, by _csr_pass
    over int32 copies of the index arrays (int64 once the entries reach
    2^31, as scipy's CSR constructor picks) and an array of ones.

    The copies take 12 bytes per entry with the ones.  The pass over the
    graph's own int64 arrays would save the index copies, but it reads
    twice the index bytes and is no faster: on random graphs of n = 400
    to 2000 (19k to 400k entries, one core, three rounds of three runs)
    int32 had the lower median in 8 of the 12 cells, by up to 22%, and
    int64 in the other 4, by up to 19%.
    """
    index = np.int64 if len(indices) >= 1 << 31 else np.int32
    return partial(_csr_pass, n, indptr.astype(index), indices.astype(index), np.ones(len(indices)))


def _csr_pass(n: int, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The n x n CSR matrix (data, indices, indptr) times u, by scipy's
    csr_matvec into a fresh zero vector: the kernel in which a scipy
    matrix's @ ends, without the dispatch that @ makes on every call
    (scipy has no public entry point to it).  u must be a float64
    vector of length n."""
    out = np.zeros(n)
    csr_matvec(n, n, indptr, indices, data, u, out)
    return out


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


# _scatter_entries writes this many of a graph's stored entries at a
# time: 0.5 MB of int64 keys, next to the n² or 8n² bytes of the form
# being built.
_SCATTER_ENTRIES = 1 << 16


def _scatter_entries(g: Graph, flat: np.ndarray, value: bool | float) -> None:
    """Writes value at the flat positions v*n + w of g's 2m stored entries
    in flat, a view of an n x n array, _SCATTER_ENTRIES entries at a time.

    Each block takes the rows its entries lie in, the first and last of
    them clipped to the block, so a block of keys is all that is held
    next to flat, however long a row is.
    """
    n, indptr = g.n, g.indptr
    for lo in range(0, len(g.indices), _SCATTER_ENTRIES):
        hi = min(lo + _SCATTER_ENTRIES, len(g.indices))
        first = int(np.searchsorted(indptr, lo, side="right")) - 1
        last = int(np.searchsorted(indptr, hi - 1, side="right"))
        counts = np.diff(np.clip(indptr[first:last + 1], lo, hi))
        keys = np.repeat(np.arange(first * n, last * n, n, dtype=np.int64), counts)
        keys += g.indices[lo:hi]
        flat[keys] = value
        del keys


def _dense_adjacency(g: Graph) -> np.ndarray:
    """A as a dense float64 0/1 matrix, its ones scattered a block of
    entries at a time."""
    a = np.zeros((g.n, g.n))
    _scatter_entries(g, a.reshape(-1), 1.0)
    return a


def _complement_structure(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """indptr and indices of Ā, the non-edges of g without the diagonal.

    Clears g's entries, a block at a time, from an n x n bitmap of ones
    and reads the non-edges back.  Taken only when Ā has fewer entries
    than A, so Ā's keys are fewer than g.indices.
    """
    n = g.n
    mask = np.ones((n, n), dtype=bool)
    np.fill_diagonal(mask, False)
    _scatter_entries(g, mask.reshape(-1), False)
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


def _graph_from_pairs(n: int, count: int, chunks: Iterable[np.ndarray]) -> Graph:
    """The graph on n vertices of the 0-based pairs that chunks yields as
    (2, k) int64 arrays, count pairs in all, every endpoint already in
    range: duplicates and self-loops dropped, orientation normalized.
    count must be the exact pair count: it picks the build and sizes
    the sort's key array.  _standard_dimacs may take the bitmap without
    this, from its byte count."""
    if n * n <= _BITMAP_PAIRS * count:
        return _graph_of_keys(n, _marked_keys(n, chunks))
    return _graph_of_keys(n, _sorted_keys(n, count, chunks))


def _marked_keys(n: int, chunks: Iterable[np.ndarray]) -> np.ndarray:
    """The distinct flat keys v*n + w of both orientations of the pairs
    (a, b) in chunks, self-loops dropped, ascending: marked in an n x n
    bitmap chunk by chunk and read back by np.flatnonzero."""
    mask = np.zeros((n, n), dtype=bool)
    flat = mask.reshape(-1)
    for a, b in chunks:
        key = np.multiply(a, n, dtype=np.int64)
        key += b
        flat[key] = True
        np.multiply(b, n, out=key)
        key += a
        flat[key] = True
        del key
    np.fill_diagonal(mask, False)
    return np.flatnonzero(mask)


def _sorted_keys(n: int, count: int, chunks: Iterable[np.ndarray]) -> np.ndarray:
    """_marked_keys by one sort of the keys, which chunk by chunk fill one
    array of 2 * count: the sort orders the neighbour lists and exposes
    the repeats; each undirected edge leaves exactly two distinct keys."""
    keys = np.empty(2 * count, dtype=np.int64)
    end = 0
    for a, b in chunks:
        loop = a == b
        if loop.any():
            a, b = a[~loop], b[~loop]
        k = len(a)
        lo, hi = keys[end:end + k], keys[end + k:end + 2 * k]
        np.multiply(a, n, out=lo)
        lo += b
        np.multiply(b, n, out=hi)
        hi += a
        end += 2 * k
    return _sorted_distinct(keys[:end])


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
    return _graph_from_pairs(n, len(pairs), [pairs.T])


def parse_dimacs(text: str | bytes) -> Graph:
    """Parse DIMACS ASCII clique format.

    Expects comment lines starting with `c`, exactly one problem line
    `p edge <n> <m>` before any edge line, and edge lines `e <u> <v>`
    with 1-based endpoints.  The declared edge count m is advisory: if
    it disagrees with the parsed count a DimacsWarning is issued and the
    parsed count wins.  More than MAX_VERTICES vertices is an error.

    A comment line may hold any bytes; a non-ASCII character anywhere
    else is an error naming its line, shown decoded as UTF-8.  Text
    in the standard layout (see _standard_dimacs), LF or CRLF ends
    alike, is read in vectorised passes over chunks of its bytes; any
    other text, including every malformed one, goes through the
    line-by-line reader, which names the offending line.
    """
    # UTF-8 puts no ASCII byte inside a non-ASCII character, so a str
    # has the same lines and ASCII fields as its encoding
    data = text.encode("utf-8", errors="surrogatepass") if isinstance(text, str) else text
    g, declared_m = _standard_dimacs(data) or _dimacs_lines(data)
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
# The standard readers scan a body in chunks of at most this many bytes,
# each ending at an LF; a standard line has at most 4 + 3 * 18 bytes.  A
# chunk's per-line arrays take about 9 bytes per byte of it, so they
# stay in a core's L2 cache.  Reading hamming10_2 (5.1 MB) with 16 or 32
# KiB chunks took 1.3-1.6x or 1.2-1.3x as long, from more numpy calls
# per byte; 64 to 256 KiB chunks stayed within about 10% of each other
# on it and on five 200 kB count files, and one pass over its whole body
# took 1.8x as long (2 vCPUs, 2 MiB of L2 per core).
_CHUNK_BYTES = 1 << 16
# Row k holds each ASCII digit's value times 10**k and 0 for every other
# byte, so the digit k places from a field's end adds _WEIGHTED[k][byte]
# to the field's value: a gather and an add, with no multiply.  18 rows
# of 256 int64 values, 36 KiB.
_WEIGHTED = np.zeros((_MAX_DIGITS, 256), dtype=np.int64)
_WEIGHTED[:, ord("0"):ord("9") + 1] = 10 ** np.arange(_MAX_DIGITS)[:, None] * np.arange(10)


def _records(
    data: bytes, comment: str | tuple[str, ...], error: type[_LineError]
) -> Iterator[tuple[int, str, list[str]]]:
    """(1-based line number, line, its fields) for each line of data that
    is neither blank nor a comment (a line starting with `comment`).

    Lines are stripped of ASCII whitespace only, and a non-ASCII
    character outside a comment line raises `error` naming its line,
    shown decoded.  data is decoded as UTF-8, each byte outside a valid
    sequence kept as a lone surrogate.  UTF-8 puts no ASCII byte inside
    a non-ASCII character, and _LINE_BREAK holds only ASCII, so lines
    are numbered as in the bytes and a comment line may hold any bytes.
    """
    text = data.decode("utf-8", errors="surrogateescape")
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


class _OffLayout(Exception):
    """Data is not in its format's standard layout: its header or its
    body fails a check of _standard_body, _standard_chunks or
    _chunk_fields."""


def _standard_body(data: bytes, header: re.Pattern[bytes], sizes: int) -> tuple[bytes, int, list[int]]:
    """(data with CRLF ends made LF, the index at which its body starts,
    the counts of its header) if it starts with a match of the standard
    `header` whose first `sizes` counts are each at most MAX_VERTICES.
    Raises _OffLayout otherwise: a header over the limit is left to the
    line reader, whose error names its line."""
    if b"\r" in data:
        # the line reader splits at CRLF as at LF; a lone CR is left in
        # place, to fail the checks of _chunk_fields
        data = data.replace(b"\r\n", b"\n")
    head = header.match(data)
    if head is None:
        raise _OffLayout
    counts = [int(count) for count in head.groups()]
    if max(counts[:sizes]) > MAX_VERTICES:
        raise _OffLayout
    return data, head.end(), counts


def _standard_chunks(
    data: bytes, start: int, lead: bytes, fields: int, sizes: tuple[int, ...]
) -> Iterator[np.ndarray]:
    """The fields of the lines of data[start:] as one (fields, lines)
    int64 array per chunk of at most _CHUNK_BYTES bytes ending at an LF,
    each index field 0-based (see _chunk_fields); raises _OffLayout at
    the first chunk not in the standard layout."""
    while start < len(data):
        # a chunk with no LF holds an unterminated last line or a line
        # longer than _CHUNK_BYTES, which no standard line is
        stop = data.rfind(b"\n", start, start + _CHUNK_BYTES) + 1
        if stop <= start:
            raise _OffLayout
        yield _chunk_fields(np.frombuffer(data, dtype=np.uint8, count=stop - start, offset=start), lead, fields, sizes)
        start = stop


def _chunk_fields(body: np.ndarray, lead: bytes, fields: int, sizes: tuple[int, ...]) -> np.ndarray:
    """The (fields, lines) int64 array of the lines of body, bytes ending
    in an LF, if every line is made of `lead` and `fields` fields of 1 to
    _MAX_DIGITS ASCII digits joined by single spaces, and field i is in
    1..sizes[i] for each of sizes; those index fields come back 0-based.
    Raises _OffLayout otherwise.  `lead` is empty or ends in a space,
    and holds no digit.

    A lead that ends in a space gives the line ends without a scan for
    LFs.  With s spaces per line (the lead's and fields - 1), the lead's
    last space is the line's (lead spaces)-th, line i's LF sits len(lead)
    bytes before line i + 1's lead space, and the chunk's last byte ends
    its last line; one take checks that each of these ends is an LF.  An
    empty lead has no space to start from, so its LFs are scanned.

    The checks run in this order: the space count (s per line), the
    line ends, the lead's bytes at each line's start (line 0 starting at
    byte 0), the digit count (size - (len(lead) + fields) per line), then
    for each field its width in 1.._MAX_DIGITS just before its digits
    are read, and last the index fields' ranges.  No other LF, space or
    byte can hide in a chunk that passes them all.  They place in each
    line its lead's bytes, fields - 1 spaces and an LF, in increasing
    order (each width is at least 1) and with the lines tiling the
    chunk, so these are (len(lead) + fields) distinct non-digit bytes
    per line; the digit count leaves the chunk exactly that many
    non-digit bytes, so every other byte is a digit.
    """
    lead_spaces = lead.count(b" ")
    per_line = lead_spaces + fields - 1
    spaces = np.flatnonzero(body == ord(" "))
    lines = spaces.size // per_line
    if lines == 0 or spaces.size != per_line * lines:
        raise _OffLayout
    # row j holds each line's j-th space, copied once so that the width
    # checks, the lead check and every digit round's np.maximum read
    # contiguous rows, not views of spaces with a stride of per_line
    spaces = spaces.reshape(lines, per_line).T.copy()
    if lead:
        first = spaces[lead_spaces - 1]
        if first[0] != len(lead) - 1:
            raise _OffLayout
        ends = np.empty(lines, dtype=np.int64)
        np.subtract(first[1:], len(lead), out=ends[:-1])
        ends[-1] = body.size - 1
        if not np.all(body.take(ends) == ord("\n")):
            raise _OffLayout
    else:
        ends = np.flatnonzero(body == ord("\n"))
        if ends.size != lines:
            raise _OffLayout
        # index -1, the chunk's last LF, stands for the LF before its
        # first line
        first = np.concatenate([[-1], ends[:-1]])
    # the lead's bytes before its last, a space that `first` places
    for offset, byte in enumerate(lead[-2::-1], start=1):
        if not np.all(body.take(first - offset) == byte):
            raise _OffLayout
    # uint8 arithmetic wraps the bytes below "0" past 9
    if np.count_nonzero(body - ord("0") < 10) != body.size - (len(lead) + fields) * lines:
        raise _OffLayout
    # each field lies between the previous separator (the lead's last
    # byte, or the LF before the line) and the next (a space, or the LF).
    # One loop bounds a field's width, then reads its digits; every check
    # of the docstring still runs before the return, so its argument
    # that no byte can hide holds.  A field is read right-aligned, its
    # k-th digit from the end at sep - 1 - k; in a field narrower than
    # the widest the index stops at its leading separator, which
    # _WEIGHTED reads as 0.  take gathers in about half the time of fancy
    # indexing here, and into a given array with no copy outside its
    # raise mode; the index -1 wraps.
    values = np.empty((fields, lines), dtype=np.int64)
    byte = np.empty(lines, dtype=np.uint8)
    digit = np.empty(lines, dtype=np.int64)
    prev = first
    for value, sep in zip(values, [*spaces[lead_spaces:], ends]):
        # the field's width less 1; as uint64, a width below 1 wraps past
        # every width allowed, so one max tests both bounds
        spare = sep - prev
        spare -= 2
        top = int(spare.view(np.uint64).max())
        if top >= _MAX_DIGITS:
            raise _OffLayout
        at = sep - 1
        body.take(at, out=byte, mode="wrap")
        _WEIGHTED[0].take(byte, out=value, mode="clip")
        for weighted in _WEIGHTED[1:top + 1]:
            at -= 1
            np.maximum(at, prev, out=at)
            body.take(at, out=byte, mode="wrap")
            weighted.take(byte, out=digit, mode="clip")
            value += digit
        prev = sep
    for value, size in zip(values, sizes):
        value -= 1
        # as uint64, a value below 1 wraps past every size
        if int(value.view(np.uint64).max()) >= size:
            raise _OffLayout
    return values


def _standard_dimacs(data: bytes) -> tuple[Graph, int] | None:
    """(graph, declared m) if data is in the standard layout, else None.

    The standard layout is the header above (comment lines, then the
    problem line, its n at most MAX_VERTICES), then only
    `e <digits> <digits>` lines, single spaces, each ending in LF or
    CRLF, every endpoint in 1..n.  serialize_dimacs writes text in this
    layout, with no comment lines and LF ends.  For such data the answer
    is what _dimacs_lines returns.  The pairs go chunk by chunk into the
    graph build.  Every check, of the header (_standard_body) or of a
    chunk (_chunk_fields), raises _OffLayout, which is caught here once.

    The build is chosen without a scan when the body's byte count
    allows.  A line without leading zeros has at most 4 + 2 * len(str(n))
    bytes, so bytes // that many bounds the line count from below, and
    n² at most _BITMAP_PAIRS times the bound takes the bitmap.
    Otherwise the lines are counted and _graph_from_pairs makes its own
    choice from that count.  Leading zeros can let a file take the
    bitmap with fewer lines than that test asks; its n² bytes are still
    at most _BITMAP_PAIRS / 6 of the body's bytes, as on every path,
    since no line is shorter than 6 bytes.
    """
    try:
        data, start, (n, declared_m) = _standard_body(data, _DIMACS_HEADER, 1)
        chunks = _standard_chunks(data, start, b"e ", 2, (n, n))
        if n * n <= _BITMAP_PAIRS * ((len(data) - start) // (4 + 2 * len(str(n)))):
            return _graph_of_keys(n, _marked_keys(n, chunks)), declared_m
        return _graph_from_pairs(n, data.count(b"\n", start), chunks), declared_m
    except _OffLayout:
        return None


def _dimacs_lines(data: bytes) -> tuple[Graph, int]:
    """(graph, declared m) read line by line, for any layout the format
    allows; raises DimacsFormatError naming the first bad line."""
    n = None
    declared_m = None
    pairs: list[tuple[int, int]] = []
    for line_no, line, tokens in _records(data, "c", DimacsFormatError):
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
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return _graph_from_pairs(n, len(pairs), [pairs.T]), declared_m


def read_dimacs(path: str | Path) -> Graph:
    """The graph in the DIMACS file at path, read as bytes by parse_dimacs."""
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
    byte bitmap, then the graph's own arrays.  A graph whose draws and
    bitmap would take more than MAX_RANDOM_GRAPH_BYTES is refused with
    ValueError before any of them is allocated.
    """
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must lie in [0, 1], got {density}")
    k = int(n)  # a Python int, which cannot wrap as a NumPy integer's n * n can
    need = 8 * (k * (k - 1) // 2) + k * k
    if need > MAX_RANDOM_GRAPH_BYTES:
        raise ValueError(
            f"a random graph on {n} vertices needs {need} bytes for its draws and bitmap, "
            f"over the limit of {MAX_RANDOM_GRAPH_BYTES}"
        )
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

    As in parse_dimacs, a comment line may hold any bytes.  Text
    in the standard layout (see _standard_coordinates), LF or CRLF ends
    alike, is read in vectorised passes over chunks of its bytes; any
    other text, including every malformed one, goes through the
    line-by-line reader, which gives the same matrix or names the
    offending line.
    """
    # as in parse_dimacs, a str has the same lines and ASCII fields as
    # its encoding
    data = text.encode("utf-8", errors="surrogatepass") if isinstance(text, str) else text
    shape, rows, cols, vals = _standard_coordinates(data) or _coordinate_lines(data)
    # tocsr sums repeated entries
    return sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()


def _standard_coordinates(data: bytes) -> tuple[tuple[int, int], np.ndarray, np.ndarray, np.ndarray] | None:
    """(shape, 0-based rows, 0-based cols, values) if data is in the
    standard layout, else None.

    The standard layout is the one a count writer produces: the header
    above, n_rows and n_cols each at most MAX_VERTICES, then only
    `<digits> <digits> <digits>` lines, single spaces, each ending in LF
    or CRLF, every row in 1..n_rows and every column in 1..n_cols.  For
    such data the answer is what _coordinate_lines returns.  The chunks
    fill one (3, lines) array, lines counted before the first chunk.  As
    in _standard_dimacs, every check raises _OffLayout, caught here once.
    """
    try:
        data, start, (n_rows, n_cols, _) = _standard_body(data, _COORDINATE_HEADER, 2)
        entries = np.empty((3, data.count(b"\n", start)), dtype=np.int64)
        end = 0
        for chunk in _standard_chunks(data, start, b"", 3, (n_rows, n_cols)):
            entries[:, end:end + chunk.shape[1]] = chunk
            end += chunk.shape[1]
    except _OffLayout:
        return None
    rows, cols, vals = entries
    return (n_rows, n_cols), rows, cols, vals.astype(np.float64)


def _coordinate_lines(data: bytes) -> tuple[tuple[int, int], np.ndarray, np.ndarray, np.ndarray]:
    """(shape, 0-based rows, 0-based cols, values) read line by line, for
    any layout the format allows; raises CoordinateFormatError naming
    the first bad line."""
    header = None
    rows: list[int] = []  # 1-based until the end
    cols: list[int] = []
    vals: list[float] = []
    for line_no, line, tokens in _records(data, ("%", "#"), CoordinateFormatError):
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
    def _of_sorted(cls, vertices: np.ndarray) -> "CliqueSet":
        """The set of ascending distinct indices, such as np.flatnonzero
        returns, taken as they are: __post_init__ would sort them again."""
        clique = object.__new__(cls)
        object.__setattr__(clique, "vertices", tuple(vertices.tolist()))
        return clique

    def indicator(self, n: int) -> np.ndarray:
        u = np.zeros(n)
        u[list(self.vertices)] = 1.0
        return u


def _as_vertex_array(g: Graph, s: Iterable[int]) -> np.ndarray:
    """s as ascending distinct int64 indices, each in [0, n).  An int64
    vector is taken without a round trip through Python ints."""
    if not (isinstance(s, np.ndarray) and s.dtype == np.int64 and s.ndim == 1):
        s = np.asarray(list(s), dtype=np.int64)
    arr = _sorted_distinct(s)
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


def _clique_status(g: Graph, s: Iterable[int]) -> tuple[bool, bool]:
    """(s is a clique, s is a maximal clique), from one _clique_check."""
    clique, extenders = _clique_check(g, s)
    return clique, clique and not extenders.any()


def is_maximal_clique(g: Graph, s: Iterable[int]) -> bool:
    """True iff s is a clique and no outside vertex is adjacent to all of s.

    The empty set is maximal only on the empty graph (any vertex extends
    it); a singleton is maximal only for an isolated vertex.
    """
    return _clique_status(g, s)[1]
