"""Digests that show whether a refactor left the readers and the solver alone.

    python3 tools/refactor_check.py > change.json
    python3 tools/refactor_check.py --src ../parent/src > parent.json

Prints one JSON object:

* "code_lines": the code lines of each module of the package's src/
  and their "total".  A code line is one that is not blank, not a
  comment alone, and not inside the span of an ast docstring (of the
  module, a class or a function).
* "reader": a sha256 over the outcomes of parse_dimacs and
  parse_coordinate_matrix on a seeded generated corpus.  An outcome is
  the result's arrays with their dtypes and the warnings raised, or the
  error's type and line number.  "reader_messages" digests the error
  messages alone, in the same order, so a refactor that only rewords
  an error changes it and not "reader".  "reader_inputs" counts the
  corpus.
* "solve": a sha256 over acceptance 1's corpus (500 random graphs, n
  cycling 5..30, density cycling 0.2, 0.5, 0.8, seeds 0-2), each solved
  with the stock configuration and the polishing one
  (binary_tol=1e-12, max_outer_iterations=150), iterates recorded:
  every SolverResult field, each recorded iterate with all of its
  fields, or the error's type and message.

The corpus holds standard DIMACS files (random graphs at three
densities) and their variants: CRLF ends, comment lines between the
edges, leading zeros, a Latin-1 comment, a UTF-8 BOM, a bad line early,
mid or late, and a problem line over MAX_VERTICES; and coordinate files
with count or float values, CRLF ends, a bad line and a header over the
limit.  Each is read as bytes and as a str.

--src PATH imports rankclique from PATH, so the change's tool can
digest a parent checkout's src/ in the same way.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import hashlib
import json
import sys
import warnings
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"

# Lines put in place of a DIMACS edge line, N standing for the vertex
# count, and of a coordinate entry; the last of each holds UTF-8 outside
# a comment.
BAD_EDGE_LINES = [b"e 0 1", b"e 1 N1", b"e 1", b"e 1 2 3", b"x 1 2", b"e 1 -2", b"e 1 \xc3\xa9"]
BAD_ENTRY_LINES = [b"0 1 1", b"1 1", b"1 1 -1", b"1 1 inf", b"1 1 x", b"1 1 1_0", b"1 \xc3\xa9 1"]


def code_lines(source: str) -> int:
    """The lines of source that are neither blank, a comment alone, nor in
    an ast docstring's span."""
    docstring = set()
    for node in ast.walk(ast.parse(source)):
        kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        if isinstance(node, kinds) and ast.get_docstring(node, clean=False) is not None:
            docstring.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return sum(
        1
        for no, line in enumerate(source.splitlines(), start=1)
        if line.strip() and not line.strip().startswith("#") and no not in docstring
    )


def src_code_lines(src: Path) -> dict:
    lines = {path.name: code_lines(path.read_text()) for path in sorted((src / "rankclique").glob("*.py"))}
    return {**lines, "total": sum(lines.values())}


def _with_line(data: bytes, k: int, line: bytes) -> bytes:
    """data with its k-th line (1-based) replaced by line."""
    lines = data.split(b"\n")
    lines[k - 1] = line
    return b"\n".join(lines)


def reader_corpus(graph, seed: int = 34, files: int = 8) -> list[tuple[str, bytes | str]]:
    """(reader name, input) pairs: files DIMACS files and files coordinate
    files, each with its variants, every input once as bytes and once as
    a str.  graph is the rankclique.graph module that writes them."""
    rng = np.random.default_rng(seed)
    inputs: list[tuple[str, bytes]] = []
    for i in range(files):
        n = int(rng.integers(5, 120))
        g = graph.random_graph(n, (0.05, 0.4, 0.95)[i % 3], int(rng.integers(1 << 30)))
        std = graph.serialize_dimacs(g).encode("ascii")
        lines = std.count(b"\n")
        leads = b"\n".join(b"e 0" + line[2:].replace(b" ", b" 00") if line[:1] == b"e" else line
                           for line in std.split(b"\n"))
        between = std.replace(b"\ne ", b"\nc between\ne ", max(1, lines // 3))
        variants = [std, std.replace(b"\n", b"\r\n"), between, leads, b"c caf\xe9\n" + std, b"\xef\xbb\xbf" + std]
        for k in sorted({2, (lines + 2) // 2, lines}):
            bad = BAD_EDGE_LINES[int(rng.integers(len(BAD_EDGE_LINES)))]
            variants.append(_with_line(std, k, bad.replace(b"N", str(n).encode("ascii"))))
        inputs += [("parse_dimacs", data) for data in variants]

        docs, vocab, count = int(rng.integers(2, 60)), int(rng.integers(2, 80)), int(rng.integers(1, 400))
        rows, cols = rng.integers(1, docs + 1, count), rng.integers(1, vocab + 1, count)
        values = rng.integers(0, 4, count).astype(str) if i % 2 == 0 else np.round(rng.random(count) * 3, 3).astype(str)
        body = "".join(f"{r} {c} {v}\n" for r, c, v in zip(rows, cols, values))
        std = f"% docs x terms\n{docs} {vocab} {count}\n{body}".encode("ascii")
        k = int(rng.integers(3, count + 3))
        bad = BAD_ENTRY_LINES[int(rng.integers(len(BAD_ENTRY_LINES)))]
        variants = [std, std.replace(b"\n", b"\r\n"), _with_line(std, k, bad)]
        inputs += [("parse_coordinate_matrix", data) for data in variants]
    limit = graph.MAX_VERTICES + 1
    inputs += [("parse_dimacs", f"p edge {limit} 0\n".encode("ascii")),
               ("parse_coordinate_matrix", f"{limit} 3 0\n".encode("ascii")),
               ("parse_coordinate_matrix", f"3 {limit} 1\n1 1 1\n".encode("ascii"))]
    return [(reader, form) for reader, data in inputs for form in (data, _as_str(data))]


def _as_str(data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:
        return data.decode("latin-1")


def _canonical(value):
    """value as nested tuples of str, bytes, ints and floats, the same for
    equal results: arrays by dtype, shape and bytes, dataclasses by
    their fields."""
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if dataclasses.is_dataclass(value):
        fields = dataclasses.fields(value)
        return (type(value).__name__, *((f.name, _canonical(getattr(value, f.name))) for f in fields))
    if isinstance(value, (list, tuple)):
        return tuple(map(_canonical, value))
    return repr(value)


def reader_outcome(graph, reader: str, text: bytes | str) -> tuple[tuple, str | None]:
    """(outcome, error message or None) of reading text with the named
    reader of the rankclique.graph module graph."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = getattr(graph, reader)(text)
        except ValueError as exc:
            return ("error", type(exc).__name__, getattr(exc, "line_no", None)), str(exc)
    if reader == "parse_dimacs":
        arrays = (result.n, result.edge_count, _canonical(result.indptr), _canonical(result.indices))
    else:
        arrays = (result.shape, _canonical(result.indptr), _canonical(result.indices), _canonical(result.data))
    return (arrays, tuple((w.category.__name__, str(w.message)) for w in caught)), None


def digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode("utf-8", "surrogatepass"))
    return h.hexdigest()


def solve_outcomes(rankclique, graphs: int = 500):
    """Each outcome, in order, of acceptance 1's corpus of graphs graphs,
    seeds 0-2, with the stock and the polishing configuration."""
    found = i = 0
    while found < graphs:
        g = rankclique.random_graph(5 + i % 26, (0.2, 0.5, 0.8)[i % 3], seed=10_000 + i)
        i += 1
        if g.edge_count == 0:
            continue
        found += 1
        for seed in (0, 1, 2):
            for polish in ({}, {"binary_tol": 1e-12, "max_outer_iterations": 150}):
                try:
                    yield _canonical(rankclique.solve(g, rankclique.SolverConfig(seed=seed, **polish),
                                                      record_iterates=True))
                except Exception as exc:
                    yield ("error", type(exc).__name__, str(exc))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, default=SRC, help="the src/ directory to import rankclique from")
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    import rankclique
    from rankclique import graph

    corpus = reader_corpus(graph)
    outcomes = [reader_outcome(graph, reader, text) for reader, text in corpus]
    print(json.dumps({
        "src": str(args.src.resolve()),
        "code_lines": src_code_lines(args.src),
        "reader": digest(outcome for outcome, _ in outcomes),
        "reader_messages": digest(message for _, message in outcomes),
        "reader_inputs": len(corpus),
        "solve": digest(solve_outcomes(rankclique)),
    }, indent=1))


if __name__ == "__main__":
    main()
