"""Maximal clique search by penalized rank-one nonnegative matrix
approximation, with classical simplex-relaxation baselines and an exact
enumeration oracle for desk-scale validation.

The package exports what the command line and the demos use, the types
those functions return and every error they raise.  The solver's parts
(armijo_outer_iteration, gradient, md_matvec, ...), the baselines'
stopping constants, the oracle's limits and the harness's
run_algorithm stay importable from their modules."""

from .baselines import (
    IndependentSupportError,
    extend_to_maximal,
    postprocess_greedy,
    run_baseline,
)
from .graph import (
    CliqueSet,
    CoordinateFormatError,
    DimacsFormatError,
    DimacsWarning,
    EdgeRangeError,
    EdgelessGraphError,
    Graph,
    cooccurrence_graph,
    graph_from_edge_list,
    is_clique,
    is_maximal_clique,
    parse_dimacs,
    random_graph,
    read_dimacs,
    serialize_dimacs,
)
from .harness import (
    BenchRecord,
    VerifyReport,
    cmd_bench_dimacs,
    cmd_bench_random,
    cmd_ingest_text,
    cmd_solve,
    cmd_verify,
    records_to_csv,
)
from .oracle import (
    OracleLimitError,
    enumerate_maximal_cliques,
    maximum_clique_exact,
)
from .solver import (
    NumericalDivergenceError,
    SolverConfig,
    SolverResult,
    d_max,
    default_d0,
    solve,
    stationarity_residual,
)

__version__ = "0.1.0"

__all__ = [
    "BenchRecord",
    "CliqueSet",
    "CoordinateFormatError",
    "DimacsFormatError",
    "DimacsWarning",
    "EdgeRangeError",
    "EdgelessGraphError",
    "Graph",
    "IndependentSupportError",
    "NumericalDivergenceError",
    "OracleLimitError",
    "SolverConfig",
    "SolverResult",
    "VerifyReport",
    "cmd_bench_dimacs",
    "cmd_bench_random",
    "cmd_ingest_text",
    "cmd_solve",
    "cmd_verify",
    "cooccurrence_graph",
    "d_max",
    "default_d0",
    "enumerate_maximal_cliques",
    "extend_to_maximal",
    "graph_from_edge_list",
    "is_clique",
    "is_maximal_clique",
    "maximum_clique_exact",
    "parse_dimacs",
    "postprocess_greedy",
    "random_graph",
    "read_dimacs",
    "records_to_csv",
    "run_baseline",
    "serialize_dimacs",
    "solve",
    "stationarity_residual",
]
