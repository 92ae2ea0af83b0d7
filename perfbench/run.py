"""Benchmark of rankclique on seeded workloads.

    python3 perfbench/run.py --workload sweep400 --seed 1 --seconds 30 --trace 0

Runs whole rounds of one workload for --seconds seconds in this process
(one thread of work), times every call into rankclique from outside,
checks every output, and prints as its last line one JSON object with
the operations attempted and failed and, with --trace 0, the end-to-end
metrics, or with --trace 1, the per-layer metrics of the traced rounds.
See perfbench/README.md.
"""

from __future__ import annotations

import os

# one thread of work: keep BLAS from starting a pool (before numpy loads)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import ctypes.util
import gc
import json
import math
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
# the restart median is taken over at least this many restarts per run
MIN_RESTARTS = 100
# a slow program still ends: no new round after this many times --seconds
MAX_STRETCH = 3.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def import_program():
    """Import rankclique from the checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "rankclique" / "__init__.py").is_file():
        raise SystemExit(f"error: no rankclique sources under {src}")
    sys.path.insert(0, str(src))
    import rankclique

    if Path(rankclique.__file__).resolve().parent != src / "rankclique":
        raise SystemExit(f"error: rankclique imported from {rankclique.__file__}, not {src}")


import_program()

import numpy as np  # noqa: E402 - after the thread settings above

import tracing  # noqa: E402
import workloads  # noqa: E402

IMPORTED_RSS_MB = peak_rss_mb()


def time_setups(args, workdir: Path, repeats: int, reference) -> tuple[float, float]:
    """Median wall time of fresh interpreters that import rankclique and
    write the workload's inputs, scaled to the machine's speed by the
    reference work timed before and after each, and unscaled; the last
    one's files are kept."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--workdir", str(workdir)]
    if args.tiny:
        cmd.append("--tiny")
    times, scaled = [], []
    for _ in range(repeats):
        before = reference.seconds()
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
        scaled.append(times[-1] * workloads.REFERENCE_S / ((before + reference.seconds()) / 2))
    return float(np.median(scaled)), float(np.median(times))


def settle_memory() -> None:
    """Free garbage and hand free heap pages back to the OS, so that each
    round starts from memory like a fresh process's.  Without this the
    peak RSS of identical dimacs-dense runs lands at ~195 MB or ~224 MB
    depending on what earlier rounds left in the heap."""
    gc.collect()
    try:
        malloc_trim = ctypes.CDLL(ctypes.util.find_library("c")).malloc_trim
    except (OSError, AttributeError, TypeError):
        return  # not glibc: nothing to trim
    malloc_trim.argtypes, malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int
    malloc_trim(0)


def run_rounds(wl, rec, seconds: float, min_rounds: int, tracer=None) -> list[bool]:
    """Whole rounds until --seconds have passed and min_rounds are done;
    with a tracer, every second round is traced.  Returns which were."""
    traced = []
    t_end = time.perf_counter() + seconds
    t_stop = time.perf_counter() + MAX_STRETCH * seconds
    while True:
        settle_memory()
        is_traced = tracer is not None and len(traced) % 2 == 1
        if is_traced:
            with tracer.round():
                wl.run_round(rec)
        else:
            wl.run_round(rec)
        rec.end_round()
        traced.append(is_traced)
        now = time.perf_counter()
        if now >= t_end and (len(traced) >= min_rounds or now >= t_stop):
            return traced


def end_to_end(rec, setup_s: float) -> dict:
    """Times are scaled to the machine's speed (see workloads.Recorder)."""
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (float(np.median(rec.scaled["round_s"])), "s"),
        "solve_ms_p50": (float(np.median(rec.scaled["solve_ms"])), "ms"),
        "ingest_ms_p50": (float(np.median(rec.scaled["ingest_ms"])), "ms"),
        "clique_size_mean": (float(np.mean(list(rec.best_sizes.values()))), "vertices"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer(args, wl, rec, tracer, traced: list[bool]) -> dict:
    dur, self_t = tracer.self_times()
    summaries = [tracer.round_summary(r, dur, self_t) for r in range(len(tracer.round_bounds))]
    metrics = tracing.layer_metrics(summaries, tracer.measure_alloc(), wl.left_out)
    times = np.asarray(rec.scaled["round_s"])
    flags = np.asarray(traced)
    traced_s = float(np.median(times[flags]))
    metrics["trace.wall_s"] = traced_s
    metrics["trace.overhead_pct"] = (traced_s / float(np.median(times[~flags])) - 1.0) * 100.0
    out = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.tsv"
    tracer.write(out)
    print(tracing.format_table(summaries))
    print(f"spans written to {out.relative_to(ROOT)}")
    return {k: (v, tracing.PER_LAYER_UNITS[k]) for k, v in metrics.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest sizes, for smoke tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}, expected one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.make_workload(args.workload, args.seed, args.tiny)
    if args.setup_only:
        wl.setup(args.workdir)
        return 0

    workdir = HERE / ".work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        reference = workloads.Reference()
        # the traced run reports no setup_s: one set-up writes the inputs
        setup_s, setup_unscaled_s = time_setups(args, workdir, 1 if args.trace else SETUP_REPEATS, reference)
        wl.prepare(workdir)
        prepared_rss_mb = peak_rss_mb()
        if wl.restarts_per_round == 0:
            raise SystemExit("error: every restart was left out, nothing to time")
        rec = workloads.Recorder(reference)
        tracer = tracing.Tracer() if args.trace else None
        min_rounds = 2 if tracer else math.ceil(MIN_RESTARTS / wl.restarts_per_round)
        traced = run_rounds(wl, rec, args.seconds, min_rounds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = per_layer(args, wl, rec, tracer, traced) if tracer else end_to_end(rec, setup_s)
    left_out = ", ".join(f"{k} {v}" for k, v in sorted(wl.left_out.items())) or "none"
    print(
        f"{args.workload} seed {args.seed}: {len(traced)} rounds ({sum(traced)} traced), "
        f"{rec.attempted} operations, {rec.failed} failed, "
        f"{len(rec.solve_ms)} restarts and {len(rec.ingest_ms)} ingests timed; "
        f"unscaled: setup_s {setup_unscaled_s:.4g}, wall_s {np.median(rec.round_times):.4g}, "
        f"solve_ms_p50 {np.median(rec.solve_ms):.4g}, ingest_ms_p50 {np.median(rec.ingest_ms):.4g}, "
        f"reference work {np.median(rec.reference_ms):.4g} ms; "
        f"candidate restarts left out: {left_out}; "
        f"peak RSS {IMPORTED_RSS_MB:.1f} MB after imports, {prepared_rss_mb:.1f} MB before the rounds, "
        f"{peak_rss_mb():.1f} MB at the end"
    )
    print(json.dumps({
        "correct": rec.incorrect == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
