"""Cross-domain label propagation with adaptive discriminative graph learning.

The package jointly learns a domain-invariant linear projection, a sparse
affinity graph with closed-form row updates, and harmonic soft labels for
the target domain, alternating the three subproblems until the target
pseudo-labels stabilize.  See :func:`crossprop.solver.fit` for the entry
point and the README for the file formats and CLI.
"""

from .baselines import nearest_neighbor, simplex_qp_oracle
from .data import (
    Dataset,
    HyperParams,
    accuracy,
    gen_synthetic_shift,
    load_dataset,
    one_hot,
    with_labeled_targets,
    zscore,
)
from .exceptions import (
    ArgumentError,
    ConfigError,
    ConvergenceError,
    CrosspropError,
    DimensionError,
    LabelError,
    ParseError,
    ShapeError,
    SingularMatrix,
    SingularPencil,
)
from .graph import (
    AffinityGraph,
    RowBlockCost,
    affinity_cost,
    build_graph,
    cost_space,
    gaussian_knn_graph,
    init_graph,
    laplacian,
    row_laplacian,
    sparse_laplacian,
    write_edges,
)
from .linalg import EigenPair, pairwise_sq_dists, solve_spd_linear, solve_sym_definite_geig
from .mmd import (
    conditional_mmd,
    discrepancy_factor,
    discrepancy_matrix,
    marginal_mmd,
)
from .propagation import decide_labels, harmonic_solve
from .solver import FitReport, FitState, factor_scatter, fit, objective, solve_projection

__version__ = "0.1.0"

__all__ = [
    "AffinityGraph",
    "ArgumentError",
    "ConfigError",
    "ConvergenceError",
    "CrosspropError",
    "Dataset",
    "DimensionError",
    "EigenPair",
    "FitReport",
    "FitState",
    "HyperParams",
    "LabelError",
    "ParseError",
    "RowBlockCost",
    "ShapeError",
    "SingularMatrix",
    "SingularPencil",
    "accuracy",
    "affinity_cost",
    "build_graph",
    "cost_space",
    "discrepancy_factor",
    "discrepancy_matrix",
    "conditional_mmd",
    "decide_labels",
    "factor_scatter",
    "fit",
    "gaussian_knn_graph",
    "gen_synthetic_shift",
    "harmonic_solve",
    "init_graph",
    "laplacian",
    "load_dataset",
    "marginal_mmd",
    "nearest_neighbor",
    "objective",
    "one_hot",
    "pairwise_sq_dists",
    "row_laplacian",
    "simplex_qp_oracle",
    "solve_projection",
    "solve_spd_linear",
    "solve_sym_definite_geig",
    "sparse_laplacian",
    "with_labeled_targets",
    "write_edges",
    "zscore",
]
