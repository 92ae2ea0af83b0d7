"""The package's public names, the hooks the benchmark's tracer wraps
by name (perfbench/tracing.py), so that a rename fails here and not only
in the benchmark's own tests, and the rule that every name in src/ has a
caller."""

from __future__ import annotations

import argparse
import ast
import dataclasses
import importlib
import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

import rankclique
from rankclique import Graph, SolverConfig, baselines, oracle
from rankclique.cli import build_parser
from rankclique.solver import SolverState, armijo_outer_iteration

PUBLIC = set(
    "BenchRecord CliqueSet CoordinateFormatError DimacsFormatError "
    "DimacsWarning EdgeRangeError EdgelessGraphError Graph IndependentSupportError "
    "NumericalDivergenceError OracleLimitError SolverConfig SolverResult "
    "VerifyReport cmd_bench_dimacs cmd_bench_random "
    "cmd_ingest_text cmd_solve cmd_verify cooccurrence_graph d_max default_d0 "
    "enumerate_maximal_cliques extend_to_maximal graph_from_edge_list is_clique "
    "is_maximal_clique maximum_clique_exact parse_dimacs postprocess_greedy "
    "random_graph read_dimacs records_to_csv run_baseline serialize_dimacs solve "
    "stationarity_residual".split()
)

# names that live only in their modules
MODULE_ONLY = {
    "graph": ["parse_coordinate_matrix"],
    "harness": ["ALGORITHMS", "VerifyCheck", "run_algorithm"],
    "solver": [
        "ArmijoStep",
        "SolverState",
        "armijo_outer_iteration",
        "gradient",
        "lift_ball_point",
        "md_matvec",
        "md_norm_sq",
        "objective_shifted",
        "round_phi",
    ],
}


def test_all_names_exactly_the_public_api():
    assert len(rankclique.__all__) == len(PUBLIC) == 37
    assert set(rankclique.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(rankclique, name) is not None, name


def test_readme_names_every_public_name():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme[readme.index("## Library quick start") : readme.index("## CLI")]
    named = set(re.findall(r"\w+", section))
    assert PUBLIC <= named, sorted(PUBLIC - named)


def test_readme_cli_flags_are_parser_options():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    start = readme.index("## CLI")
    section = readme[start : readme.index("\n## ", start)]
    named = set(re.findall(r"--[a-z][a-z0-9-]*", section))
    assert "--d0" in named
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {opt for sub in commands.choices.values() for opt in sub._option_string_actions}
    assert named <= options, sorted(named - options)


def test_settings_are_the_pinned_ones():
    # a new setting fails here, as a new export fails above
    assert [f.name for f in dataclasses.fields(SolverConfig)] == [
        "d0_override", "binary_tol", "max_outer_iterations", "seed"
    ]
    assert (baselines.ETA, baselines.TOL, baselines.MAX_ITERATIONS) == (1.05, 1e-10, 100_000)
    assert (oracle.MAX_ORACLE_VERTICES, oracle.MAX_REPORTED_CLIQUES) == (64, 1_000_000)


@pytest.mark.parametrize("module", sorted(MODULE_ONLY))
def test_module_only_names_import_from_their_module(module):
    mod = importlib.import_module(f"rankclique.{module}")
    for name in MODULE_ONLY[module]:
        assert hasattr(mod, name), f"rankclique.{module}.{name}"
        assert name not in rankclique.__all__


ROOT = Path(__file__).resolve().parent.parent

# names kept with no caller in the program, each with its reason
UNCALLED = {
    "round_phi": "acceptance 9's reference rounding",
}


def _references() -> list[tuple[str, Path, int]]:
    """(name, file, line) of every name, attribute and string constant in
    the program's source: src/, tools/, demos/ and perfbench/.  The
    tracer names the functions it wraps by string."""
    refs = []
    for path in sorted(p for d in ("src", "tools", "demos", "perfbench") for p in (ROOT / d).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                refs.append((node.id, path, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.append((node.attr, path, node.lineno))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                refs.append((node.value, path, node.lineno))
    return refs


def test_every_name_has_a_caller():
    # a top-level function or class, or a public method, that nothing
    # outside its own body names is dead vocabulary, unless it is
    # exported or kept for a stated reason
    refs = _references()
    uncalled = []
    for path in sorted((ROOT / "src" / "rankclique").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs = [(top.name, top)]
            if isinstance(top, ast.ClassDef):
                defs += [
                    (f"{top.name}.{m.name}", m)
                    for m in top.body
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
                ]
            for qualified, node in defs:
                called = any(
                    name == node.name and not (where == path and node.lineno <= line <= node.end_lineno)
                    for name, where, line in refs
                )
                if not (called or qualified in rankclique.__all__ or qualified in UNCALLED):
                    uncalled.append(qualified)
    assert uncalled == []


def _traced_functions() -> tuple[tuple[str, str], ...]:
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TRACED_FUNCTIONS


def test_traced_functions_resolve():
    pairs = _traced_functions()
    assert ("solver", "armijo_outer_iteration") in pairs
    for module, name in pairs:
        assert callable(getattr(importlib.import_module(f"rankclique.{module}"), name)), f"{module}.{name}"
    assert callable(Graph.__dict__["adj_matvec"])


def test_traced_step_reports_trials_and_acceptance(k3):
    u = np.full(3, 0.5)
    state = SolverState(u=u, au=k3.adj_matvec(u), d=1.0, alpha=0.1)
    step = armijo_outer_iteration(k3, state).last_step
    assert step.trials == 1
    assert step.accepted is True
