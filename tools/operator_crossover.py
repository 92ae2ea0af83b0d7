"""Crossover tables for the stored forms of Graph.adj_matvec's operator
and for the two ways graph.py builds a graph from pairs.

    python3 tools/operator_crossover.py > crossover.json

Pass table: for each vertex count n and each share f of the n² entries,
builds a few random graphs whose edges hold about that share (the
sparser of A and Ā at f = 0.50 is A or Ā by a few entries) and times
one pass with each form through the kernel that Graph._pass binds to
it, built and bound by the same function (graph._form_pass): the dense
float64 0/1 matrix of A (_dense_pass, one dgemv per row block) and the
CSR that the sparser-side rule stores (_csr_kernel), with the
complement correction (_complement_pass) when that is Ā.
Each cell reports the medians over its graphs of the times and of their
ratio, sparse / dense (above 1 the dense pass is faster), and of each
form's build memory: the traced peak of building it (tracemalloc) less
the bytes the built form still holds, so the working memory the first
pass needs over the form.

Build table: for each n and each ratio r = n²/pairs, draws one set of
n²/r dirty pairs (uniform over [0, n)², so with self-loops, repeats and
both orientations) and times the build of the graph's arrays from them
both ways, as _graph_from_pairs makes it: sorting the pairs' flat keys
and marking them in an n x n bitmap.  Each cell reports the two times
and their ratio, sort / bitmap (above 1 the bitmap is faster).  The
largest cell (n = 4000, r = 1) holds 16M pairs and needs about 1 GB.

In both, BLAS runs on one thread, as in perfbench, and batches alternate
between the two forms; a time is the median over the batches.  Prints
one JSON object.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import platform
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import scipy

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rankclique.graph import Graph, _form_pass, _graph_of_keys, _marked_keys, _sorted_keys  # noqa: E402

SIZES = (100, 400, 1000, 2000, 4000)
SHARES = (0.35, 0.40, 0.45, 0.50)
GRAPHS = 3  # per cell, seeds SEED * 10000 + n onwards
BATCHES = 15  # per graph and form
BATCH_SECONDS = 0.05
SEED = 1
BUILD_SIZES = (400, 1000, 2000, 4000)
BUILD_RATIOS = (1, 2, 4, 8, 16)  # n² / pairs
BUILD_BATCHES = 7  # per pair set and build


def half_dense_graph(n: int, p: float, seed: int) -> Graph:
    """Bernoulli graph with edge probability p, drawn one row block of
    the upper triangle at a time (random_graph draws all n(n-1)/2 at once)."""
    rng = np.random.default_rng(seed)
    mask = np.zeros((n, n), dtype=bool)
    for lo in range(0, n, 256):
        hi = min(n, lo + 256)
        mask[lo:hi] = rng.random((hi - lo, n)) < p
    mask = np.triu(mask, 1)
    mask |= mask.T
    return _graph_of_keys(n, np.flatnonzero(mask))


def per_pass(product, u: np.ndarray, passes: int) -> float:
    t0 = time.perf_counter()
    for _ in range(passes):
        product(u)
    return (time.perf_counter() - t0) / passes


def traced_build(build):
    """(build(), the traced peak of the call less the bytes its result still holds)."""
    tracemalloc.start()
    try:
        form = build()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return form, peak - held


def built_passes(g: Graph) -> dict:
    """{form: (bound pass, working memory of its build over the form)}
    for the dense form and for the CSR that the sparser-side rule stores,
    "csr_of_complement" when Ā has fewer entries than A, else "csr_of_a";
    each built and bound by graph._form_pass, as Graph._pass binds it."""
    stored = 2 * g.edge_count
    sparse = "csr_of_complement" if g.n * (g.n - 1) - stored < stored else "csr_of_a"
    return {form: traced_build(lambda: _form_pass(g, form)) for form in ("dense", sparse)}


def one_graph(n: int, share: float, seed: int, batches: int = BATCHES) -> dict:
    """Times per pass of the two forms on one graph, each through the
    kernel adj_matvec binds to it (built_passes); and the working memory
    of each form's build over the form."""
    g = half_dense_graph(n, share, seed)
    stored = 2 * g.edge_count
    non_edges = n * (n - 1) - stored
    (dense, dense_over), (sparse, sparse_over) = built_passes(g).values()

    u = np.random.default_rng(seed).random(n)
    assert np.allclose(sparse(u), dense(u))
    passes = max(1, round(BATCH_SECONDS / per_pass(dense, u, 3)))
    times = {"dense": [], "sparse": []}
    for b in range(batches):
        order = ("dense", "sparse") if b % 2 == 0 else ("sparse", "dense")
        for form in order:
            times[form].append(per_pass(dense if form == "dense" else sparse, u, passes))
    d, s = statistics.median(times["dense"]), statistics.median(times["sparse"])
    return {
        "sparser_side_share": min(stored, non_edges) / (n * n),
        "sparse_side": "complement" if non_edges < stored else "A",
        "dense_us": d * 1e6,
        "sparse_us": s * 1e6,
        "sparse_over_dense": s / d,
        "dense_build_bytes_over_form": dense_over,
        "sparse_build_bytes_over_form": sparse_over,
    }


def cell(n: int, share: float) -> dict:
    seeds = range(SEED * 10_000 + n, SEED * 10_000 + n + GRAPHS)
    graphs = [one_graph(n, share, seed) for seed in seeds]
    row = {"n": n, "share": share}
    for key, digits in (("sparser_side_share", 4), ("dense_us", 2), ("sparse_us", 2), ("sparse_over_dense", 3),
                        ("dense_build_bytes_over_form", None), ("sparse_build_bytes_over_form", None)):
        row[key] = round(statistics.median(g[key] for g in graphs), digits)
    row["sparse_side"] = sorted({g["sparse_side"] for g in graphs})
    row["sparse_over_dense_per_graph"] = [round(g["sparse_over_dense"], 3) for g in graphs]
    return row


def one_build(n: int, ratio: float, seed: int, batches: int = BUILD_BATCHES) -> dict:
    """Times of the two builds of one graph's arrays from n²/ratio dirty
    pairs, each as _graph_from_pairs runs it: _graph_of_keys over
    _sorted_keys and over _marked_keys."""
    pairs = np.random.default_rng(seed).integers(0, n, size=(round(n * n / ratio), 2))

    def build(keys):
        if keys is _marked_keys:
            return _graph_of_keys(n, _marked_keys(n, [pairs.T]))
        return _graph_of_keys(n, _sorted_keys(n, len(pairs), [pairs.T]))

    g, h = build(_sorted_keys), build(_marked_keys)
    assert np.array_equal(g.indptr, h.indptr) and np.array_equal(g.indices, h.indices)
    del g, h
    passes = max(1, round(BATCH_SECONDS / per_pass(build, _marked_keys, 1)))
    times = {_sorted_keys: [], _marked_keys: []}
    for k in range(batches):
        for keys in (_sorted_keys, _marked_keys) if k % 2 == 0 else (_marked_keys, _sorted_keys):
            times[keys].append(per_pass(build, keys, passes))
    s, m = statistics.median(times[_sorted_keys]), statistics.median(times[_marked_keys])
    return {"n": n, "n2_over_pairs": ratio, "pairs": len(pairs),
            "sort_ms": round(s * 1e3, 3), "bitmap_ms": round(m * 1e3, 3), "sort_over_bitmap": round(s / m, 3)}


def main() -> None:
    rows = []
    for n in SIZES:
        for share in SHARES:
            rows.append(cell(n, share))
            print(json.dumps(rows[-1]), file=sys.stderr)
    builds = []
    for n in BUILD_SIZES:
        for ratio in BUILD_RATIOS:
            builds.append(one_build(n, ratio, SEED * 10_000 + n))
            print(json.dumps(builds[-1]), file=sys.stderr)
    print(json.dumps({
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}, "
                   f"numpy {np.__version__}, scipy {scipy.__version__}, BLAS on 1 thread",
        "command": "python3 tools/operator_crossover.py",
        "rows": rows,
        "builds": builds,
    }, indent=1))


if __name__ == "__main__":
    main()
