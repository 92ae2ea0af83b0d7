"""Alternating parent/change pairs of perfbench runs, as a BENCH_*.json entry.

    python3 tools/bench_pairs.py --parent ../parent --change . --workload dimacs-dense \\
        --seed 83 --pairs 10 --seconds 30 --traced --out BENCH_27.json

--parent and --change are two checkouts; each side runs its own
perfbench/run.py, which imports that checkout's src/, in a fresh
interpreter with the same arguments.  The parent runs first in odd
pairs and the change first in even ones.  The last line of a run's
output is its JSON result.

The entry gives, for each end-to-end metric, both sides' values in pair
order, their quartiles, the change of the median in percent and the
number of pairs in which the change reads lower and higher (a tie counts
for neither), with the operations attempted and failed by each side over
its runs and whether every run's outputs were correct.  A metric that
BENCHMARK.json lists as end-to-end also gets a verdict by its better
side and bound there: the pairs in which the change reads better;
resolved, when the medians differ by more than the parent's quartile
spread; within_bound, when the change's median is no worse than the
parent's by more than the bound, relative to the parent's median;
unresolved, when the parent's spread exceeds that bound and not every
change run reads better; and claim_met, the rule a claimed gain must
meet: the change reads better in at least nine tenths of the pairs
(rounded up) and its median is better by a resolved margin.  With
--traced, one traced run per side follows the pairs (the parent first)
and the per-layer metrics are kept.  The entry is stored in the --out
JSON file (made if missing) under "alternating_pairs_untraced", and the
traced metrics under "traced", each keyed by workload.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def run_side(checkout: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """The JSON result of one run of checkout's perfbench/run.py."""
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def verdict(before: list[float], after: list[float], rule: dict) -> dict:
    """How the change's runs after compare with the parent's runs before,
    pair by pair, under one metric's better side and bound."""
    sign = 1.0 if rule["better"] == "lower" else -1.0
    q1, median, q3 = np.percentile(before, [25, 50, 75])
    worse_by = sign * (np.median(after) - median)
    better = int(np.count_nonzero(sign * np.subtract(after, before) < 0))
    resolved = bool(abs(worse_by) > q3 - q1)
    return {
        "pairs_change_better": better,
        "resolved": resolved,
        "within_bound": bool(worse_by <= rule["bound"] * abs(median)),
        "unresolved": bool(q3 - q1 > rule["bound"] * abs(median) and better < len(before)),
        # nine tenths of the pairs, rounded up
        "claim_met": bool(resolved and worse_by < 0 and 10 * better >= 9 * len(before)),
    }


def summarise(parent: list[dict], change: list[dict], first_in_pair: list[str]) -> dict:
    """The entry of the paired untraced runs parent[i] and change[i]."""
    rules = {m["name"]: m for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    sides = {"parent": parent, "change": change}
    entry = {
        "pairs": len(parent),
        "first_in_pair": first_in_pair,
        "failed": {side: sum(run["failed"] for run in runs) for side, runs in sides.items()},
        "attempted": {side: sum(run["attempted"] for run in runs) for side, runs in sides.items()},
        "correct": {side: all(run["correct"] for run in runs) for side, runs in sides.items()},
        "metrics": {},
    }
    for name, metric in parent[0]["metrics"].items():
        values = {side: [run["metrics"][name]["value"] for run in runs] for side, runs in sides.items()}
        quartiles = {side: np.percentile(v, [25, 50, 75]).tolist() for side, v in values.items()}
        before, after = quartiles["parent"][1], quartiles["change"][1]
        diffs = np.subtract(values["change"], values["parent"])
        entry["metrics"][name] = {
            "unit": metric["unit"],
            **values,
            "parent_quartiles": quartiles["parent"],
            "change_quartiles": quartiles["change"],
            "median_change_pct": round((after - before) / before * 100, 2) if before else None,
            "pairs_change_lower": int(np.count_nonzero(diffs < 0)),
            "pairs_change_higher": int(np.count_nonzero(diffs > 0)),
        }
        if name in rules:
            entry["metrics"][name].update(verdict(values["parent"], values["change"], rules[name]))
    return entry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced", action="store_true", help="one traced run per side after the pairs")
    parser.add_argument("--out", type=Path, required=True, help="the JSON file to store the entry in")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    first_in_pair = []
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        first_in_pair.append(order[0])
        for side in order:
            runs[side].append(run_side(checkouts[side], args.workload, args.seed, args.seconds, False))
            print(f"pair {pair + 1}/{args.pairs} {side} done", file=sys.stderr)
    traced = {"seed": args.seed}
    if args.traced:
        for side, checkout in checkouts.items():
            result = run_side(checkout, args.workload, args.seed, args.seconds, True)
            traced[side] = {name: m["value"] for name, m in result["metrics"].items()}

    bench = json.loads(args.out.read_text()) if args.out.exists() else {}
    bench.setdefault("alternating_pairs_untraced", {})[args.workload] = {
        "seed": args.seed, **summarise(runs["parent"], runs["change"], first_in_pair)}
    if args.traced:
        bench.setdefault("traced", {})[args.workload] = traced
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
