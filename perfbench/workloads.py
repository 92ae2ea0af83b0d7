"""The benchmark's workloads and the checks of their outputs.

Each workload makes its inputs from a seed, then runs whole rounds of
the same operations through rankclique's public functions, the way the
CLI commands call them.  Every call into the program goes through a
`Recorder`, which times it from outside.  Every output is checked
against figures the benchmark computes itself (a dense adjacency
matrix, Hamming distances, shared-term counts), never against the
program's own answer; a failed check marks the operation failed and
leaves every timing as measured.

Functions are looked up on their module (`harness.run_algorithm`,
`rg.read_dimacs`) at call time, so the traced run's wrappers see every
call.
"""

from __future__ import annotations

import csv
import io
import math
import sys
import time
import traceback
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse

from rankclique import graph as rg
from rankclique import harness, solver

# the CSV columns as the repository README documents them
CSV_COLUMNS = [
    "instance_name", "n", "edge_count", "algorithm", "seed", "clique_size",
    "valid", "maximal", "iterations", "wall_time_ms", "converged",
]


# ---------------------------------------------------------------------------
# timing and outcomes
# ---------------------------------------------------------------------------

class Op:
    """One operation's failed checks (wrong outputs) and faults (work
    the program could not do, with no output to check)."""

    def __init__(self):
        self.problems: list[str] = []
        self.faults: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)

    def fail(self, what: str) -> None:
        self.faults.append(what)

    def extend(self, problems: list[str]) -> None:
        self.problems.extend(problems)


# the reference work's time at which times are reported: about what it
# takes on a 2.1 GHz Xeon vCPU with nothing else running
REFERENCE_S = 0.004


class Reference:
    """A fixed piece of work that calls nothing in rankclique: it parses
    edge lines, makes sparse matrix-vector passes and runs a Python
    loop, the three kinds of work the program does.  Timed next to the
    program's calls, it measures how fast the shared machine runs at
    that moment, which drifts by up to 1.7x from minute to minute."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.matrix = sparse.random(4000, 4000, density=0.005, format="csr", random_state=rng)
        self.vector = rng.random(4000)
        self.text = "".join(f"e {u} {v}\n" for u, v in rng.integers(1, 1000, size=(1500, 2)).tolist())

    def seconds(self) -> float:
        t0 = time.perf_counter()
        pairs = [tuple(map(int, line.split()[1:])) for line in self.text.splitlines()]
        for _ in range(6):
            y = self.matrix @ self.vector
        z = sum(i * i % 7 for i in range(8000))
        dt = time.perf_counter() - t0
        if len(pairs) != 1500 or not np.isfinite(y).all() or z <= 0:
            raise RuntimeError("reference work went wrong")
        return dt


class Recorder:
    """Times calls into rankclique and counts operations.

    Every call is timed from outside and adds to its round's program
    time; restarts and ingests also keep their own latencies.  Each
    latency and each round is also kept scaled to the machine's speed:
    multiplied by REFERENCE_S over the reference work's time around it
    (for a latency, the mean of the reference times just before and
    just after it; for a round, the median of the round's).
    """

    def __init__(self, reference: Reference):
        self.reference = reference
        self.round_times: list[float] = []
        self.solve_ms: list[float] = []
        self.ingest_ms: list[float] = []
        self.scaled: dict[str, list[float]] = {"round_s": [], "solve_ms": [], "ingest_ms": []}
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.best_sizes: dict[str, int] = {}
        self._round_s = 0.0
        self._round_refs: list[float] = []
        self.reference_ms: list[float] = []
        self._first_results: dict[str, object] = {}

    def _reference(self) -> float:
        ref = self.reference.seconds()
        self._round_refs.append(ref)
        self.reference_ms.append(ref * 1e3)
        return ref

    def _timed(self, latency: str | None, fn, args, kwargs):
        if latency is not None and not self._round_refs:
            self._reference()
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        dt = time.perf_counter() - t0
        self._round_s += dt
        if latency is not None:
            before = self._round_refs[-1]
            after = self._reference()
            getattr(self, latency).append(dt * 1e3)
            self.scaled[latency].append(dt * 1e3 * REFERENCE_S / ((before + after) / 2))
        return out

    def call(self, fn, *args, **kwargs):
        return self._timed(None, fn, args, kwargs)

    def ingest(self, fn, *args, **kwargs):
        """A call that turns an input into a graph."""
        return self._timed("ingest_ms", fn, args, kwargs)

    def restart(self, g, name: str, seed: int):
        """One r1nm restart, as `cmd_solve` makes it."""
        return self._timed("solve_ms", harness.run_algorithm, (g, name, "r1nm", seed), {})

    def end_round(self) -> None:
        self.round_times.append(self._round_s)
        self.scaled["round_s"].append(self._round_s * REFERENCE_S / float(np.median(self._round_refs)))
        self._round_s = 0.0
        self._round_refs = []

    @contextmanager
    def op(self, label: str):
        self.attempted += 1
        op = Op()
        try:
            yield op
        except Exception:  # noqa: BLE001 - one operation's failure is counted, the run goes on
            self.failed += 1
            print(f"operation {label} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return
        if op.problems or op.faults:
            self.failed += 1
            self.incorrect += bool(op.problems)
            for p in op.problems[:5]:
                print(f"operation {label} check failed: {p}", file=sys.stderr)
            for p in op.faults[:5]:
                print(f"operation {label} failed: {p}", file=sys.stderr)

    def instance_result(self, op: Op, key: str, cliques: list[tuple[int, ...]]) -> None:
        """Keep the best r1nm size of an instance; a repeat of the same
        operation must return the same cliques (runs are seeded)."""
        first = self._first_results.setdefault(key, cliques)
        op.check(first == cliques, f"{key}: cliques differ from the first run of the same operation")
        self.best_sizes.setdefault(key, max(len(c) for c in cliques))


# ---------------------------------------------------------------------------
# checks, all on the benchmark's own figures
# ---------------------------------------------------------------------------

def csr_of(joined: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted neighbour lists of a dense symmetric 0/1 matrix."""
    rows, cols = np.nonzero(joined)
    indptr = np.zeros(joined.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=joined.shape[0]), out=indptr[1:])
    return indptr, cols.astype(np.int64)


def graph_problems(g, indptr: np.ndarray, indices: np.ndarray) -> list[str]:
    """The graph must have exactly the expected neighbour lists."""
    problems = []
    if g.n != len(indptr) - 1:
        return [f"graph has {g.n} vertices, expected {len(indptr) - 1}"]
    if not (np.array_equal(g.indptr, indptr) and np.array_equal(g.indices, indices)):
        problems.append(f"edge set differs from the expected {len(indices) // 2} edges")
    if 2 * g.edge_count != len(indices):
        problems.append(f"edge_count {g.edge_count}, expected {len(indices) // 2}")
    return problems


def dense_adjacency(g) -> tuple[np.ndarray, list[str]]:
    """Dense 0/1 adjacency built from the graph's arrays, and the ways
    those arrays fail to describe a simple undirected graph."""
    n = g.n
    indptr = np.asarray(g.indptr)
    indices = np.asarray(g.indices)
    if indptr.shape != (n + 1,) or indptr[0] != 0 or indptr[-1] != len(indices):
        return np.zeros((n, n), dtype=bool), ["indptr does not frame the index array"]
    if len(indices) and (indices.min() < 0 or indices.max() >= n):
        return np.zeros((n, n), dtype=bool), ["neighbour index out of range"]
    counts = np.zeros((n, n), dtype=np.int64)
    np.add.at(counts, (np.repeat(np.arange(n), np.diff(indptr)), indices), 1)
    problems = []
    if counts.max(initial=0) > 1:
        problems.append("a neighbour is listed twice")
    adj = counts > 0
    if adj.diagonal().any():
        problems.append("self-loop")
    if not np.array_equal(adj, adj.T):
        problems.append("adjacency is not symmetric")
    if 2 * g.edge_count != int(adj.sum()):
        problems.append(f"edge_count {g.edge_count} but {int(adj.sum())} stored entries")
    return adj, problems


def random_graph_problems(adj: np.ndarray, density: float) -> list[str]:
    """The edge count must lie within six binomial standard deviations
    of density * n(n-1)/2."""
    n = adj.shape[0]
    pairs = n * (n - 1) / 2
    m = int(adj.sum()) // 2
    sd = math.sqrt(pairs * density * (1 - density))
    if abs(m - density * pairs) > 6 * sd + 1:
        return [f"{m} edges, expected {density * pairs:.0f} +- {6 * sd:.0f}"]
    return []


def clique_problems(
    joined: np.ndarray, vertices: tuple[int, ...], converged: bool, size_cap: int | None = None
) -> list[str]:
    """Members must be pairwise joined; a converged r1nm clique must be
    maximal (every outside vertex misses some member)."""
    c = np.asarray(vertices, dtype=np.int64)
    k = len(c)
    if k == 0:
        return ["empty clique"]
    if c.min() < 0 or c.max() >= joined.shape[0] or len(np.unique(c)) != k:
        return [f"clique names invalid vertices {vertices[:8]}"]
    problems = []
    if int(joined[np.ix_(c, c)].sum()) != k * (k - 1):
        problems.append(f"clique of size {k} has a non-adjacent pair")
    if size_cap is not None and k > size_cap:
        problems.append(f"clique of size {k} exceeds the bound {size_cap}")
    if converged and not problems and not _is_maximal(joined, c):
        problems.append(f"converged clique of size {k} is not maximal")
    return problems


def _is_maximal(joined: np.ndarray, c: np.ndarray) -> bool:
    outside = np.ones(joined.shape[0], dtype=bool)
    outside[c] = False
    return not joined[np.ix_(outside, c)].all(axis=1).any()


def record_problems(joined: np.ndarray, record, clique, size_cap: int | None = None) -> list[str]:
    """Check one run's clique, and that its CSV record tells the truth."""
    vertices = clique.vertices
    converged = record.converged and record.algorithm == "r1nm"
    problems = clique_problems(joined, vertices, converged, size_cap)
    if record.clique_size != len(vertices):
        problems.append(f"record says size {record.clique_size}, clique has {len(vertices)}")
    if not problems:
        maximal = _is_maximal(joined, np.asarray(vertices, dtype=np.int64))
        if not record.valid or record.maximal != maximal:
            problems.append(
                f"record flags valid={record.valid} maximal={record.maximal}, "
                f"clique is valid and maximal={maximal}"
            )
    return problems


def csv_problems(text: str, records: list) -> list[str]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != CSV_COLUMNS:
        return ["CSV header differs from the documented columns"]
    if len(rows) - 1 != len(records):
        return [f"CSV has {len(rows) - 1} rows for {len(records)} runs"]
    for row, rec in zip(rows[1:], records):
        fields = dict(zip(CSV_COLUMNS, row))
        if (fields["instance_name"], fields["algorithm"], fields["seed"], fields["clique_size"]) != (
            rec.instance_name, rec.algorithm, str(rec.seed), str(rec.clique_size)
        ):
            return [f"CSV row {row} does not match its run"]
    return []


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

# a restart that has not converged after this many outer iterations is
# slow (the program's own cap is 10,000); in a scan of seeds 1-20, 99% of
# converged restarts on these inputs took at most 85
SCREEN_ITERATIONS = 1000
# candidate restart seeds per instance beyond the R that the rounds time
SPARE_RESTARTS = 4


class Workload:
    """Restart seeds that the timed rounds use, per instance.

    Before timing, candidate restarts run through `solve` with the
    default config, in seed order, until R of them have converged within
    SCREEN_ITERATIONS.  One that raises, or that is slower than that, is
    left out and counted in `left_out`: about 1% do, on some seeds only,
    so timing them would make the failure count and the run time depend
    on the seed.  An instance has R + SPARE_RESTARTS candidates.  If
    fewer than R converge, each round counts the instance's operation as
    failed, and as wrong if a candidate raised (the program's own check
    rejected its result): at today's rate that never happens, while a
    change that made many restarts fail shows in `failed` and `correct`.
    """

    def __post_init__(self):
        self.kept: dict[str, list[int]] = {}
        # instances short of restarts: what went wrong, and whether a
        # candidate raised (a wrong result, not only a missing one)
        self.short: dict[str, tuple[str, bool]] = {}
        self.left_out: Counter = Counter()

    def _screen(self, key: str, g, first_seed: int, wanted: int) -> None:
        kept = self.kept[key] = []
        raised = False
        for s in range(first_seed, first_seed + wanted + SPARE_RESTARTS):
            if len(kept) == wanted:
                return
            try:
                result = solver.solve(g, solver.SolverConfig(seed=s, max_outer_iterations=SCREEN_ITERATIONS))
            except Exception as e:  # noqa: BLE001 - counted by kind and reported
                self.left_out["raised"] += 1
                raised = True
                print(f"{key}: restart seed {s} raised {type(e).__name__}: {e}", file=sys.stderr)
                continue
            if result.converged:
                kept.append(s)
            else:
                self.left_out["slow"] += 1
        if len(kept) < wanted:
            self.short[key] = (
                f"only {len(kept)} of {wanted + SPARE_RESTARTS} candidate restarts converged "
                f"within {SCREEN_ITERATIONS} iterations without raising, {wanted} needed",
                raised,
            )

    @property
    def restarts_per_round(self) -> int:
        return sum(map(len, self.kept.values()))

    def restarts(self, rec: Recorder, op: Op, key: str, g, joined: np.ndarray,
                 size_cap: int | None = None) -> list:
        """The instance's kept r1nm restarts, each timed and checked."""
        if key in self.short:
            what, wrong = self.short[key]
            if wrong:
                op.check(False, what)
            else:
                op.fail(what)
        records, cliques = [], []
        for s in self.kept[key]:
            record, clique = rec.restart(g, key, s)
            op.extend(record_problems(joined, record, clique, size_cap))
            records.append(record)
            cliques.append(clique.vertices)
        if cliques:
            rec.instance_result(op, key, cliques)
        return records


@dataclass
class Sweep400(Workload):
    """The paper's random sweep, the way `bench-random` runs it, with
    best-of-R r1nm restarts per trial."""

    seed: int
    n: int = 400
    densities: tuple[float, ...] = (0.15, 0.50, 0.85)
    trials: int = 10
    restarts_per_trial: int = 4

    name = "sweep400"

    def _instances(self):
        for density in self.densities:
            for t in range(self.trials):
                yield f"random_n{self.n}_p{density:g}_t{t}", density, self.seed * 1000 + t

    def setup(self, workdir: Path) -> None:
        """Nothing to write: graphs are generated inside the timed calls."""

    def prepare(self, workdir: Path) -> None:
        for key, density, gseed in self._instances():
            g = rg.random_graph(self.n, density, gseed)
            self._screen(key, g, gseed, self.restarts_per_trial)

    def run_round(self, rec: Recorder) -> None:
        records = []
        for key, density, gseed in self._instances():
            with rec.op(key) as op:
                g = rec.ingest(rg.random_graph, self.n, density, gseed)
                adj, problems = dense_adjacency(g)
                op.extend(problems)
                op.extend(random_graph_problems(adj, density))
                records += self.restarts(rec, op, key, g, adj)
                for algo in ("pelillo", "ding"):
                    record, clique = rec.call(harness.run_algorithm, g, key, algo, gseed)
                    op.extend(record_problems(adj, record, clique))
                    records.append(record)
        with rec.op("csv") as op:
            text = rec.call(harness.records_to_csv, records)
            op.extend(csv_problems(text, records))


def popcount(words: np.ndarray, bits: int) -> np.ndarray:
    """Number of set bits of words below 2**bits."""
    words = np.asarray(words, dtype=np.int64)
    return sum((words >> b) & 1 for b in range(bits))


@dataclass
class DimacsDense(Workload):
    """`solve --dimacs` on hamming10_2: the 10-bit words, joined at
    Hamming distance 2 or more.  Vertex v carries word perm[v] for a
    seeded permutation, so the file differs by seed and the graph does
    not."""

    seed: int
    bits: int = 10
    restarts_per_op: int = 16

    name = "dimacs-dense"

    @property
    def instance(self) -> str:
        return f"hamming{self.bits}_2"

    def _joined(self) -> np.ndarray:
        words = np.random.default_rng(self.seed).permutation(2**self.bits)
        return popcount(words[:, None] ^ words[None, :], self.bits) >= 2

    def _path(self, workdir: Path) -> Path:
        return workdir / f"{self.instance}.clq"

    def setup(self, workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        u, v = np.nonzero(np.triu(self._joined(), 1))
        body = "".join(map("e {} {}\n".format, (u + 1).tolist(), (v + 1).tolist()))
        self._path(workdir).write_text(
            f"c {self.instance}, vertices relabelled by seed {self.seed}\n"
            f"p edge {2**self.bits} {len(u)}\n" + body
        )

    def prepare(self, workdir: Path) -> None:
        self.path = self._path(workdir)
        self.joined = self._joined()
        self.indptr, self.indices = csr_of(self.joined)
        # the even-weight words and the odd-weight words are the two
        # largest cliques, so no clique exceeds half the vertices
        self.size_cap = 2 ** (self.bits - 1)
        g = rg.graph_from_edge_list(len(self.joined), np.column_stack(np.nonzero(np.triu(self.joined, 1))))
        self._screen(self.instance, g, self.seed * 1000, self.restarts_per_op)

    def run_round(self, rec: Recorder) -> None:
        with rec.op(self.instance) as op:
            g = rec.ingest(rg.read_dimacs, self.path)
            op.extend(graph_problems(g, self.indptr, self.indices))
            records = self.restarts(rec, op, self.instance, g, self.joined, self.size_cap)
            text = rec.call(harness.records_to_csv, records)
            op.extend(csv_problems(text, records))


@dataclass
class TextCooc(Workload):
    """`ingest-text` then `solve` on seeded synthetic topic corpora.

    Each document draws `per_topic` terms from its topic's
    `topic_terms` and `per_background` terms from the whole vocabulary;
    entries carry counts 1-3, which the program binarizes.
    """

    seed: int
    corpora: int = 5
    docs: int = 800
    vocab: int = 4000
    topics: int = 16
    topic_terms: int = 60
    per_topic: int = 12
    per_background: int = 12
    thresholds: tuple[int, ...] = (2, 3, 4)
    restarts_per_graph: int = 8

    name = "text-cooc"

    def term_sets(self, k: int) -> list[np.ndarray]:
        rng = np.random.default_rng([self.seed, k])
        topics = [rng.choice(self.vocab, self.topic_terms, replace=False) for _ in range(self.topics)]
        docs = []
        for topic in rng.integers(self.topics, size=self.docs):
            terms = np.concatenate([
                rng.choice(topics[topic], self.per_topic, replace=False),
                rng.choice(self.vocab, self.per_background, replace=False),
            ])
            docs.append(np.unique(terms))
        return docs

    def setup(self, workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        for k in range(self.corpora):
            docs = self.term_sets(k)
            counts = np.random.default_rng([self.seed, k, 1]).integers(1, 4, size=sum(map(len, docs)))
            lines = [f"% synthetic topic corpus {k}, seed {self.seed}",
                     f"{self.docs} {self.vocab} {len(counts)}"]
            j = 0
            for d, terms in enumerate(docs):
                for t in terms.tolist():
                    lines.append(f"{d + 1} {t + 1} {counts[j]}")
                    j += 1
            (workdir / f"corpus{k}.txt").write_text("\n".join(lines) + "\n")

    def prepare(self, workdir: Path) -> None:
        self.paths = [workdir / f"corpus{k}.txt" for k in range(self.corpora)]
        self.out_dirs = [workdir / f"graphs{k}" for k in range(self.corpora)]
        self.expected = []  # per corpus: {p: (joined, indptr, indices)}
        for k in range(self.corpora):
            docs = self.term_sets(k)
            rows = np.repeat(np.arange(self.docs), [len(t) for t in docs])
            x = sparse.csr_matrix((np.ones(len(rows), dtype=np.int32), (rows, np.concatenate(docs))),
                                  shape=(self.docs, self.vocab))
            shared = (x @ x.T).toarray()
            np.fill_diagonal(shared, 0)
            per_p = {}
            for p in self.thresholds:
                joined = shared >= p
                per_p[p] = (joined, *csr_of(joined))
                g = rg.graph_from_edge_list(self.docs, np.column_stack(np.nonzero(np.triu(joined, 1))))
                self._screen(f"corpus{k}_p{p}", g, self.seed * 1000, self.restarts_per_graph)
            self.expected.append(per_p)

    def run_round(self, rec: Recorder) -> None:
        for k in range(self.corpora):
            with rec.op(f"corpus{k}") as op:
                results = rec.ingest(
                    harness.cmd_ingest_text, self.paths[k], list(self.thresholds), self.out_dirs[k]
                )
                op.check([r.p for r in results] == list(self.thresholds), "one graph per threshold")
                for res in results:
                    joined, indptr, indices = self.expected[k][res.p]
                    op.check(
                        (res.n, res.edge_count) == (self.docs, len(indices) // 2),
                        f"p={res.p}: reported n={res.n} edges={res.edge_count}",
                    )
                    g = rec.call(rg.read_dimacs, res.path)
                    op.extend(graph_problems(g, indptr, indices))
                    records = self.restarts(rec, op, f"corpus{k}_p{res.p}", g, joined)
                    text = rec.call(harness.records_to_csv, records)
                    op.extend(csv_problems(text, records))


WORKLOADS = {w.name: w for w in (Sweep400, DimacsDense, TextCooc)}

# the smallest sizes at which each workload still exercises every call
TINY = {
    "sweep400": dict(n=40, trials=1, restarts_per_trial=2),
    "dimacs-dense": dict(bits=6, restarts_per_op=2),
    "text-cooc": dict(corpora=1, docs=60, vocab=300, topics=4, topic_terms=20,
                      per_topic=8, per_background=4, restarts_per_graph=2),
}


def make_workload(name: str, seed: int, tiny: bool = False):
    return WORKLOADS[name](seed=seed, **(TINY[name] if tiny else {}))
