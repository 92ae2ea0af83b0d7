"""Exact maximal-clique enumeration for small instances.

Bron-Kerbosch with pivoting over bitmask vertex sets.  Deliberately
bounded: the point of this module is to provide ground truth for tests
and benchmarks at desk scale, not to compete on large graphs.  Graphs
with more than MAX_ORACLE_VERTICES vertices, or with more than
MAX_REPORTED_CLIQUES maximal cliques, are refused.
"""

from __future__ import annotations

from .graph import CliqueSet, Graph

MAX_ORACLE_VERTICES = 64
MAX_REPORTED_CLIQUES = 1_000_000


class OracleLimitError(ValueError):
    """Instance exceeds the enumeration limits; use a smaller instance."""


def _neighbor_masks(g: Graph) -> list[int]:
    masks = []
    for v in range(g.n):
        m = 0
        for w in g.neighbors(v):
            m |= 1 << int(w)
        masks.append(m)
    return masks


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def enumerate_maximal_cliques(g: Graph) -> list[CliqueSet]:
    """All maximal cliques, sorted lexicographically by vertex list.

    Raises OracleLimitError when the graph has more than
    MAX_ORACLE_VERTICES vertices or enumeration would report more than
    MAX_REPORTED_CLIQUES cliques.
    """
    if g.n > MAX_ORACLE_VERTICES:
        raise OracleLimitError(
            f"graph has {g.n} vertices, oracle limit is {MAX_ORACLE_VERTICES}; "
            "use a smaller instance"
        )
    nbr = _neighbor_masks(g)
    found: list[tuple[int, ...]] = []

    def expand(r: tuple[int, ...], p: int, x: int) -> None:
        if p == 0 and x == 0:
            if len(found) >= MAX_REPORTED_CLIQUES:
                raise OracleLimitError(
                    f"more than {MAX_REPORTED_CLIQUES} maximal cliques; "
                    "use a smaller instance"
                )
            found.append(r)
            return
        # pivot on the candidate covering most of P
        pivot, best = -1, -1
        for v in _bits(p | x):
            c = (p & nbr[v]).bit_count()
            if c > best:
                pivot, best = v, c
        for v in _bits(p & ~nbr[pivot]):
            bit = 1 << v
            expand(r + (v,), p & nbr[v], x & nbr[v])
            p &= ~bit
            x |= bit

    if g.n:
        expand((), (1 << g.n) - 1, 0)
    return [CliqueSet(t) for t in sorted(tuple(sorted(t)) for t in found)]


def maximum_clique_exact(g: Graph) -> CliqueSet:
    """A maximum clique; ties broken by lexicographically smallest vertex list."""
    cliques = enumerate_maximal_cliques(g)
    if not cliques:
        return CliqueSet(())
    best = max(c.size for c in cliques)
    return next(c for c in cliques if c.size == best)

