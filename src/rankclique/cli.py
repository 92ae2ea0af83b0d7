"""Command-line front end.

Subcommands: solve, bench-random, bench-dimacs, verify, ingest-text.
Vertices are printed 1-based to match the DIMACS convention; exit
status is nonzero when any run errored or a verify property failed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .graph import Graph, random_graph, read_dimacs
from .harness import (
    ALGORITHMS,
    cmd_bench_dimacs,
    cmd_bench_random,
    cmd_ingest_text,
    cmd_solve,
    cmd_verify,
    records_to_csv,
)


def _parse_random_spec(spec: str) -> tuple[Graph, str]:
    fields = {}
    for part in spec.split(","):
        if "=" not in part:
            raise ValueError(f"bad --random field {part!r}, expected key=value")
        key, val = part.split("=", 1)
        fields[key.strip()] = val.strip()
    unknown = set(fields) - {"n", "density", "seed"}
    if unknown:
        raise ValueError(f"unknown --random fields {sorted(unknown)}")
    try:
        n = int(fields["n"])
        density = float(fields["density"])
        seed = int(fields.get("seed", "0"))
    except KeyError as e:
        raise ValueError(f"--random spec missing field {e.args[0]!r}") from None
    return random_graph(n, density, seed), f"random_n{n}_p{density:g}_s{seed}"


def _load_instance(args) -> tuple[Graph, str]:
    if args.dimacs is not None:
        path = Path(args.dimacs)
        return read_dimacs(path), path.stem
    return _parse_random_spec(args.random)


def _emit_csv(csv_text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(csv_text)
    else:
        Path(path).write_text(csv_text)


# an empty list or a count below 1 would run nothing and still exit 0,
# so the parser refuses them (exit status 2)
def _items(text: str) -> list[str]:
    items = [x.strip() for x in text.split(",") if x.strip()]
    if not items:
        raise argparse.ArgumentTypeError("expected a non-empty comma-separated list")
    return items


def _float_list(text: str) -> list[float]:
    return [float(x) for x in _items(text)]


def _int_list(text: str) -> list[int]:
    return [int(x) for x in _items(text)]


def _count(text: str) -> int:
    k = int(text)
    if k < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {k}")
    return k


def _algo_list(text: str) -> tuple[str, ...]:
    algos = tuple(_items(text))
    for a in algos:
        if a not in ALGORITHMS:
            raise argparse.ArgumentTypeError(f"unknown algorithm {a!r}")
    return algos


def _add_instance_args(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--dimacs", help="path to a DIMACS .clq file")
    src.add_argument("--random", help="random instance spec, e.g. n=400,density=0.5,seed=7")


def _add_solver_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="base seed; restart i uses seed+i")
    p.add_argument("--d0", type=float, default=None, help="starting penalty override")
    p.add_argument("--eta", type=float, default=None, help="annealing exponent for ding")
    p.add_argument(
        "--maximalize",
        action="store_true",
        help="greedily extend reported cliques to maximal ones (marked '+max')",
    )
    p.add_argument("--csv", default=None, help="write records as CSV to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankclique",
        description="maximal clique search via penalized rank-one nonnegative approximation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run one algorithm on one instance")
    _add_instance_args(p)
    p.add_argument("--algo", default="r1nm", choices=ALGORITHMS)
    p.add_argument("--restarts", type=_count, default=1)
    _add_solver_args(p)

    p = sub.add_parser("bench-random", help="sweep random graphs with all algorithms")
    p.add_argument("--n", type=int, default=400)
    p.add_argument("--densities", type=_float_list, default=[0.15, 0.50, 0.85])
    p.add_argument("--trials", type=_count, default=10)
    p.add_argument("--algos", type=_algo_list, default=ALGORITHMS)
    _add_solver_args(p)

    p = sub.add_parser("bench-dimacs", help="benchmark every .clq file in a directory")
    p.add_argument("dir", help="directory containing DIMACS .clq files")
    p.add_argument("--algos", type=_algo_list, default=ALGORITHMS)
    p.add_argument("--restarts", type=_count, default=1)
    _add_solver_args(p)

    p = sub.add_parser("verify", help="check theory properties on a small instance")
    _add_instance_args(p)
    p.add_argument("--seeds", type=_count, default=3, help="number of solve seeds to check")

    p = sub.add_parser("ingest-text", help="doc-term coordinate file -> co-occurrence DIMACS")
    p.add_argument("coord", help="path to the coordinate-format doc-term matrix")
    p.add_argument("--p", type=_int_list, default=[1], help="comma-separated share thresholds")
    p.add_argument("--out-dir", default=".", help="directory for the generated .clq files")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            g, name = _load_instance(args)
            report = cmd_verify(g, name, seeds=tuple(range(args.seeds)))
            for check in report.checks:
                status = "PASS" if check.passed else "FAIL"
                print(f"{status} {name} {check.name}: {check.detail}")
            return 0 if report.all_passed else 1

        if args.command == "ingest-text":
            results = cmd_ingest_text(args.coord, args.p, args.out_dir)
            for r in results:
                print(f"p={r.p}: n={r.n} edges={r.edge_count} -> {r.path}")
            return 0

        # the run options every solving command takes (_add_solver_args)
        options = dict(seed=args.seed, d0=args.d0, eta=args.eta, maximalize=args.maximalize)
        if args.command == "solve":
            g, name = _load_instance(args)
            best, clique, records = cmd_solve(g, name, args.algo, args.restarts, **options)
            print(
                f"{best.instance_name}: algorithm={best.algorithm} clique_size={best.clique_size} "
                f"valid={str(best.valid).lower()} maximal={str(best.maximal).lower()} "
                f"seed={best.seed} iterations={best.iterations} "
                f"wall_time_ms={best.wall_time_ms:.3f} converged={str(best.converged).lower()}"
            )
            print("clique (1-based):", " ".join(str(v + 1) for v in clique.vertices))
            if args.csv is not None:
                _emit_csv(records_to_csv(records), args.csv)
            return 0 if best.valid else 1

        if args.command == "bench-random":
            records = cmd_bench_random(args.n, args.densities, args.trials, algos=args.algos, **options)
        elif args.command == "bench-dimacs":
            paths = sorted(Path(args.dir).glob("*.clq"))
            if not paths:
                print(f"no .clq files in {args.dir}", file=sys.stderr)
                return 1
            graphs = [(p.stem, read_dimacs(p)) for p in paths]
            records = cmd_bench_dimacs(graphs, algos=args.algos, restarts=args.restarts, **options)
        else:
            raise AssertionError(f"unhandled command {args.command!r}")
        _emit_csv(records_to_csv(records), args.csv)
        return 0 if all(r.valid for r in records) else 1
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
