"""Undirected graph container and input formats.

Graphs are simple and undirected: no self-loops, no duplicate edges,
0-based vertex indices internally.  Constructors accept dirty edge input
(duplicates, swapped endpoints, self-loops) and canonicalize it; the
DIMACS reader and the coordinate-matrix reader report malformed lines by
line number.  DIMACS files use 1-based vertex labels on disk.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable

import numpy as np
import scipy.sparse as sp


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

    def adjacency(self) -> list[list[int]]:
        """Per-vertex sorted neighbor lists as plain Python lists."""
        return [self.neighbors(v).tolist() for v in range(self.n)]

    def edges(self) -> np.ndarray:
        """(edge_count, 2) array of edges with u < v, sorted lexicographically."""
        src = np.repeat(np.arange(self.n), np.diff(self.indptr))
        keep = src < self.indices
        return np.column_stack([src[keep], self.indices[keep]])

    @cached_property
    def _csr(self) -> sp.csr_matrix:
        data = np.ones(len(self.indices), dtype=np.float64)
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))

    def adj_matvec(self, u: np.ndarray) -> np.ndarray:
        """Adjacency-matrix product A @ u in one sparse pass."""
        u = np.asarray(u, dtype=np.float64)
        if u.shape != (self.n,):
            raise ValueError(f"vector has shape {u.shape}, expected ({self.n},)")
        if self.n == 0:
            return np.zeros(0)
        return self._csr @ u


def _graph_from_pairs(n: int, pairs: np.ndarray) -> Graph:
    # pairs: (m, 2) int array, already validated in-range; dedups, drops
    # self-loops, normalizes orientation.
    if pairs.size:
        lo = pairs.min(axis=1)
        hi = pairs.max(axis=1)
        keep = lo != hi
        lo, hi = lo[keep], hi[keep]
        key = np.unique(lo.astype(np.int64) * n + hi)
        lo, hi = key // n, key % n
    else:
        lo = hi = np.zeros(0, dtype=np.int64)
    m = len(lo)
    src = np.concatenate([lo, hi])
    dst = np.concatenate([hi, lo])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    indices = dst.astype(np.int64)
    indptr.setflags(write=False)
    indices.setflags(write=False)
    return Graph(n=n, indptr=indptr, indices=indices, edge_count=m)


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
    parsed count wins.
    """
    if isinstance(text, bytes):
        text = text.decode("ascii")
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
    g = _graph_from_pairs(n, np.asarray(pairs, dtype=np.int64).reshape(-1, 2))
    if g.edge_count != declared_m:
        warnings.warn(
            f"problem line declares {declared_m} edges, parsed {g.edge_count}",
            DimacsWarning,
            stacklevel=2,
        )
    return g


def read_dimacs(path: str | Path) -> Graph:
    return parse_dimacs(Path(path).read_text())


def serialize_dimacs(g: Graph) -> str:
    """Render a graph in DIMACS clique format (1-based, u < v, sorted)."""
    lines = [f"p edge {g.n} {g.edge_count}"]
    for u, v in g.edges():
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


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
    arr = np.unique(np.asarray(list(s), dtype=np.int64))
    if arr.size and (arr[0] < 0 or arr[-1] >= g.n):
        bad = int(arr[0] if arr[0] < 0 else arr[-1])
        raise ValueError(f"vertex {bad} out of range for graph with {g.n} vertices")
    return arr


def _clique_check(g: Graph, s: Iterable[int]) -> tuple[bool, np.ndarray]:
    """(s is a clique, mask of the vertices adjacent to every member of s).

    Both come from one count, A @ 1_s, taken in a single sparse pass: s
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
