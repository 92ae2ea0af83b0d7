"""Undirected graph container and input formats.

Graphs are simple and undirected: no self-loops, no duplicate edges,
0-based vertex indices internally.  Constructors accept dirty edge input
(duplicates, swapped endpoints, self-loops) and canonicalize it with one
sort of the keys src*n + dst over both orientations; the DIMACS reader
and the coordinate-matrix reader report malformed lines by line number.
DIMACS files use 1-based vertex labels on disk.

DIMACS text in the layout serialize_dimacs writes (comment lines, one
`p edge n m` line, then `e u v` lines with single spaces and LF endings)
is read in one vectorised pass over its bytes; every other layout, and
every malformed file, goes through the line-by-line reader.  Both readers
refuse a header asking for more than MAX_VERTICES vertices before any
graph array is allocated.

Graph.adj_matvec, the one adjacency product the solver, the baselines
and the clique checks use, makes one sparse pass over whichever of A and
the non-edge adjacency Ā has fewer entries.  That operator is built on
the first pass, not at ingest.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable

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


class DimacsFormatError(ValueError):
    """A DIMACS line failed to parse; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class CoordinateFormatError(ValueError):
    """A coordinate-matrix line failed to parse; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


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

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        nbrs = self.neighbors(u)
        k = int(np.searchsorted(nbrs, v))
        return k < len(nbrs) and nbrs[k] == v

    def edges(self) -> np.ndarray:
        """(edge_count, 2) array of edges with u < v, sorted lexicographically."""
        src = np.repeat(np.arange(self.n), np.diff(self.indptr))
        keep = src < self.indices
        return np.column_stack([src[keep], self.indices[keep]])

    def _complement_side(self) -> bool:
        # A has 2m stored entries and the non-edge adjacency Ā has
        # n(n-1) - 2m; a tie keeps A
        return 4 * self.edge_count > self.n * (self.n - 1)

    @cached_property
    def _operator(self) -> sp.csr_matrix:
        """0/1 CSR of Ā when it has fewer entries than A, else of A; built
        on the first pass."""
        if self._complement_side():
            indptr, indices = _complement_structure(self)
        else:
            indptr, indices = self.indptr, self.indices
        data = np.ones(len(indices), dtype=np.float64)
        return sp.csr_matrix((data, indices, indptr), shape=(self.n, self.n))

    def adj_matvec(self, u: np.ndarray) -> np.ndarray:
        """Adjacency-matrix product A @ u in one sparse pass over whichever
        of A and Ā has fewer entries.

        A = J - I - Ā, so on the complement side A u = (sum(u) - u) - Ā u.
        For a 0/1 vector u either side gives exact integer counts.
        """
        u = np.asarray(u, dtype=np.float64)
        if u.shape != (self.n,):
            raise ValueError(f"vector has shape {u.shape}, expected ({self.n},)")
        if self.n == 0:
            return np.zeros(0)
        if self._complement_side():
            return (float(u.sum()) - u) - self._operator @ u
        return self._operator @ u


def _complement_structure(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """indptr and indices of Ā, the non-edges of g without the diagonal.

    Marks the non-edges in an n x n bool mask through the flat keys
    v*n + w of g's entries.  Taken only when Ā has fewer entries than A,
    so neither the key array nor Ā's own is longer than g.indices.
    """
    n = g.n
    mask = np.ones((n, n), dtype=bool)
    np.fill_diagonal(mask, False)
    flat = mask.reshape(-1)
    keys = np.repeat(np.arange(n, dtype=np.int64) * n, np.diff(g.indptr))
    keys += g.indices
    flat[keys] = False
    del keys
    keys = np.flatnonzero(flat)
    del mask, flat
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    np.remainder(keys, n, out=keys)
    return indptr, keys


def _sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of keys, ascending (np.unique without its overhead)."""
    keys = np.sort(keys, axis=None)
    if keys.size:
        fresh = np.empty(keys.size, dtype=bool)
        fresh[0] = True
        np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
        keys = keys[fresh]
    return keys


def _graph_from_pairs(n: int, pairs: np.ndarray) -> Graph:
    # pairs: (m, 2) int array, already validated in-range; dedups, drops
    # self-loops, normalizes orientation.  One sort of the key src*n + dst
    # over both orientations orders the neighbour lists and exposes the
    # repeats; each undirected edge leaves exactly two distinct keys.
    a, b = pairs[:, 0], pairs[:, 1]
    loop = a == b
    if loop.any():
        a, b = a[~loop], b[~loop]
    key = np.concatenate([a, b]).astype(np.int64, copy=False)
    key *= n
    key += np.concatenate([b, a])
    key = _sorted_distinct(key)
    indptr = np.searchsorted(key, np.arange(n + 1, dtype=np.int64) * n)
    indices = key % n if n else key
    indptr.setflags(write=False)
    indices.setflags(write=False)
    return Graph(n=n, indptr=indptr, indices=indices, edge_count=len(key) // 2)


def graph_from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from 0-based edge pairs.

    Input may contain duplicates, self-loops, and either endpoint order;
    all of that is sanitized away.  Raises EdgeRangeError for endpoints
    outside [0, n).
    """
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
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

    Text in the standard layout (see _standard_dimacs) is read in one
    vectorised pass; any other text, including every malformed one, goes
    through the line-by-line reader, which names the offending line.
    """
    if isinstance(text, bytes):
        text = text.decode("ascii")
    parsed = _standard_dimacs(text)
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


# Comment lines starting at column 0 (holding none of the characters
# str.splitlines breaks on), then the problem line with single spaces.
_DIMACS_HEADER = re.compile(rb"(?:c[^\n\r\x0b\x0c\x1c-\x1e]*\n)*p edge ([0-9]+) ([0-9]+)\n")
# A label of at most 18 decimal digits cannot overflow int64.
_MAX_DIGITS = 18


def _standard_dimacs(text: str) -> tuple[int, int, np.ndarray] | None:
    """(n, declared m, 0-based pairs) if text is in the standard layout, else None.

    The standard layout is the one serialize_dimacs writes: the header
    above, then only `e <digits> <digits>` lines, single spaces, each
    ending in LF, every endpoint in 1..n.  For such text the answer is
    what _dimacs_lines returns.
    """
    if not text.isascii():
        return None
    data = text.encode("ascii")
    header = _DIMACS_HEADER.match(data)
    if header is None:
        return None
    n, declared_m = int(header[1]), int(header[2])
    if n > MAX_VERTICES:
        return None
    body = np.frombuffer(data, dtype=np.uint8, offset=header.end())
    if body.size == 0:
        return n, declared_m, np.zeros((0, 2), dtype=np.int64)
    ends = np.flatnonzero(body == ord("\n"))
    if ends.size == 0 or ends[-1] != body.size - 1:
        return None
    starts = np.concatenate([[0], ends[:-1] + 1])
    spaces = np.flatnonzero(body == ord(" "))
    if spaces.size != 2 * ends.size:
        return None
    first, second = spaces[0::2], spaces[1::2]
    # each line is `e`, a space, digits, a space, digits, LF: the two
    # spaces fall inside the line and every other byte is a digit
    if not (np.array_equal(first, starts + 1) and np.all(body[starts] == ord("e"))):
        return None
    if np.count_nonzero((body >= ord("0")) & (body <= ord("9"))) != body.size - 4 * ends.size:
        return None
    labels = _decimal_fields(body, np.concatenate([starts + 2, second + 1]), np.concatenate([second, ends]))
    if labels is None or labels.min() < 1 or labels.max() > n:
        return None
    return n, declared_m, labels.reshape(2, -1).T - 1


def _decimal_fields(buf: np.ndarray, first: np.ndarray, end: np.ndarray) -> np.ndarray | None:
    """Values of the all-digit fields buf[first:end], or None if a field
    is empty or longer than _MAX_DIGITS."""
    width = end - first
    if width.min() < 1 or width.max() > _MAX_DIGITS:
        return None
    value = np.empty(len(first), dtype=np.int64)
    for w in np.flatnonzero(np.bincount(width)):
        rows = np.flatnonzero(width == w)
        at = first[rows]
        # accumulate the raw bytes, then take off the w '0's at once;
        # 18 bytes of at most '9' stay below 2**63
        v = np.zeros(len(rows), dtype=np.int64)
        for j in range(w):
            v *= 10
            v += buf[at + j]
        value[rows] = v - ord("0") * ((10 ** int(w) - 1) // 9)
    return value


def _dimacs_lines(text: str) -> tuple[int, int, np.ndarray]:
    """(n, declared m, 0-based pairs) read line by line, for any layout
    the format allows; raises DimacsFormatError naming the first bad line."""
    n = None
    declared_m = None
    pairs: list[tuple[int, int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tokens = line.split()
        if tokens[0] == "p":
            if n is not None:
                raise DimacsFormatError(line_no, "duplicate problem line")
            if len(tokens) != 4 or tokens[1] != "edge":
                raise DimacsFormatError(line_no, f"malformed problem line {line!r}")
            try:
                n, declared_m = int(tokens[2]), int(tokens[3])
            except ValueError:
                raise DimacsFormatError(line_no, f"non-integer problem line {line!r}") from None
            if n < 0 or declared_m < 0:
                raise DimacsFormatError(line_no, "negative counts in problem line")
            if n > MAX_VERTICES:
                raise DimacsFormatError(line_no, f"{n} vertices exceed the limit of {MAX_VERTICES}")
        elif tokens[0] == "e":
            if n is None:
                raise DimacsFormatError(line_no, "edge line before problem line")
            if len(tokens) != 3:
                raise DimacsFormatError(line_no, f"malformed edge line {line!r}")
            try:
                u, v = int(tokens[1]), int(tokens[2])
            except ValueError:
                raise DimacsFormatError(line_no, f"non-integer edge line {line!r}") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise DimacsFormatError(line_no, f"endpoint out of range in {line!r} (n = {n})")
            pairs.append((u - 1, v - 1))
        else:
            raise DimacsFormatError(line_no, f"unrecognized line {line!r}")
    if n is None:
        raise DimacsFormatError(0, "missing problem line")
    return n, declared_m, np.asarray(pairs, dtype=np.int64).reshape(-1, 2)


def read_dimacs(path: str | Path) -> Graph:
    return parse_dimacs(Path(path).read_text())


def serialize_dimacs(g: Graph) -> str:
    """Render a graph in DIMACS clique format (1-based, u < v, sorted)."""
    # one %-format over the whole body: about twice as fast as one
    # format call per edge
    labels = g.edges() + 1
    return f"p edge {g.n} {g.edge_count}\n" + ("e %d %d\n" * len(labels)) % tuple(labels.ravel().tolist())


def random_graph(n: int, density: float, seed: int) -> Graph:
    """Bernoulli random graph: each of the n(n-1)/2 pairs is an edge
    independently with probability `density`.  Same (n, density, seed)
    always yields the same graph."""
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must lie in [0, 1], got {density}")
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(len(iu)) < density
    pairs = np.column_stack([iu[mask], ju[mask]]).astype(np.int64)
    return _graph_from_pairs(n, pairs)


def parse_coordinate_matrix(text: str | bytes) -> sp.csr_matrix:
    """Parse a sparse nonnegative matrix in coordinate text format.

    First non-comment line is a header `n_rows n_cols nnz`; each later
    line is a triple `row col value` with 1-based indices.  Lines
    starting with `%` or `#` are comments.  Malformed lines raise
    CoordinateFormatError with the line number.
    """
    if isinstance(text, bytes):
        text = text.decode("ascii")
    header = None
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("%", "#")):
            continue
        tokens = line.split()
        if header is None:
            if len(tokens) != 3:
                raise CoordinateFormatError(line_no, f"malformed header {line!r}")
            try:
                header = tuple(int(t) for t in tokens)
            except ValueError:
                raise CoordinateFormatError(line_no, f"non-integer header {line!r}") from None
            if any(x < 0 for x in header):
                raise CoordinateFormatError(line_no, "negative header counts")
            if max(header[:2]) > MAX_VERTICES:
                raise CoordinateFormatError(
                    line_no, f"{header[0]} x {header[1]} matrix exceeds the limit of {MAX_VERTICES} per side"
                )
            continue
        if len(tokens) != 3:
            raise CoordinateFormatError(line_no, f"malformed entry {line!r}")
        try:
            r, c, x = int(tokens[0]), int(tokens[1]), float(tokens[2])
        except ValueError:
            raise CoordinateFormatError(line_no, f"non-numeric entry {line!r}") from None
        if not (1 <= r <= header[0] and 1 <= c <= header[1]):
            raise CoordinateFormatError(line_no, f"index out of range in {line!r}")
        if x < 0:
            raise CoordinateFormatError(line_no, f"negative value in {line!r}")
        rows.append(r - 1)
        cols.append(c - 1)
        vals.append(x)
    if header is None:
        raise CoordinateFormatError(0, "missing header line")
    mat = sp.coo_matrix((vals, (rows, cols)), shape=(header[0], header[1]))
    return mat.tocsr()


def _shared_term_counts(doc_term_text: str | bytes) -> sp.coo_matrix:
    # X X^T of the binarized doc-term matrix X: entry (i, j) counts the
    # distinct words documents i and j share
    x = parse_coordinate_matrix(doc_term_text)
    x.data = np.ones_like(x.data)
    x.sum_duplicates()
    x.data = np.minimum(x.data, 1.0)
    return (x @ x.T).tocoo()


def _cooccurrence_from_counts(shared: sp.coo_matrix, p: int) -> Graph:
    if p < 1:
        raise ValueError(f"co-occurrence threshold must be >= 1, got {p}")
    keep = (shared.row < shared.col) & (shared.data >= p)
    pairs = np.column_stack([shared.row[keep], shared.col[keep]]).astype(np.int64)
    return _graph_from_pairs(shared.shape[0], pairs)


def cooccurrence_graph(doc_term_text: str | bytes, p: int) -> Graph:
    """Build a document co-occurrence graph from a doc-term matrix.

    The matrix is binarized (any nonzero entry counts as word presence);
    two distinct documents are joined by an edge when they share at
    least p words.  p must be >= 1.
    """
    return _cooccurrence_from_counts(_shared_term_counts(doc_term_text), p)


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
    adj_matvec (over Ā on dense graphs; the counts are exact integers on
    either side): s is a clique when every member has |s| - 1 neighbours
    in s.  A member has at most |s| - 1, so a count of |s| marks exactly
    the outside vertices that would extend s.
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
