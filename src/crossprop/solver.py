"""Joint solver: projection learning, graph self-learning, label propagation.

Each outer iteration alternates three exact subproblem solutions:

1. **Projection step.**  With the discrepancy matrix ``M`` (marginal plus
   class-conditional, unit Frobenius norm) and the current graph Laplacian
   ``L`` (divided by its Frobenius norm so both regularizers live on the
   same scale), the projection ``P`` collects the ``d`` smallest generalized
   eigenvectors of

       (X M X.T + alpha * X L X.T + gamma * I) P = X H X.T P Theta,

   where ``H`` is the centering matrix, so ``P.T X H X.T P = I`` keeps the
   projected total scatter fixed.  The fit never forms an ``n x n`` ``M`` or
   ``L``: ``M = E E.T`` enters through its ``n x r`` factor ``E``
   (``r <= C + 1``, :func:`crossprop.mmd.discrepancy_factor`), so
   ``X M X.T = (X E)(X E).T``; ``L`` is a ``csr_array`` with about ``2 n k``
   entries (:func:`crossprop.graph.sparse_laplacian`), applied as
   ``X (L X.T)``; and the scatter ``X H X.T`` is computed once per fit.
   :func:`solve_projection` and :func:`objective` also accept a dense ``M``
   and a dense ``L``.

2. **Graph step.**  Row-wise closed-form updates of the affinity graph from
   the cost matrix ``||z_i - z_j||^2 + beta * ||F_i - F_j||^2`` (see
   :mod:`crossprop.graph`).

3. **Propagation step.**  Harmonic soft labels on the fresh graph with the
   labeled block clamped, then hard pseudo-labels by row argmax.

The monitored objective is

    tr(P.T X M X.T P)
    + alpha * (tr(P.T X L X.T P) + ||Lambda^(1/2) S||_F^2 / 2)
    + beta * tr(F.T L F) + gamma * ||P||_F^2,

with ``L`` built from the symmetrized affinity ``(S + S.T) / 2``.  Under
this convention each graph-energy trace equals half the row-wise sums the
graph step optimizes, so the multiplier term carries the matching factor
one half; with the multipliers ``Lambda`` treated as the iteration's fixed
parameters, every one of the three updates is then an exact minimizer of
the same function and the objective cannot increase within an iteration.

The loop stops early once the fraction of changed pseudo-labels drops below
``1e-3`` or the relative objective change drops below ``1e-5``.
"""

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, HyperParams, accuracy, one_hot
from .exceptions import ConfigError
from .graph import (
    affinity_cost,
    build_graph,
    gaussian_knn_graph,
    init_graph,
    quadratic_charge,
    sparse_laplacian,
)
from .linalg import solve_sym_definite_geig
from .mmd import discrepancy_factor
from .propagation import decide_labels, harmonic_solve

LABEL_CHANGE_TOL = 1e-3
OBJECTIVE_CHANGE_TOL = 1e-5

MODES = ("uda", "sda")
ABLATIONS = ("full", "sp", "dg", "ds")


@dataclass
class FitState:
    """Snapshot of the solver after one outer iteration."""

    iteration: int
    P: np.ndarray
    graph: object
    F: np.ndarray
    target_labels: np.ndarray
    objective: float
    label_change: float


@dataclass
class FitReport:
    """Outcome of a fit.

    ``target_labels`` covers every target sample (labeled prefix first, with
    its known labels passed through); accuracy fields are present only when
    the dataset carries hidden ground truth and always refer to the
    unlabeled target block.
    """

    target_labels: np.ndarray
    iterations: int
    converged: bool
    objective_trace: list = field(default_factory=list)
    label_change_trace: list = field(default_factory=list)
    accuracy: float | None = None
    accuracy_trace: list | None = None

    @property
    def objective_final(self):
        return self.objective_trace[-1] if self.objective_trace else float("nan")


def centered_gram(X):
    """Total-scatter matrix ``X H X.T`` with ``H = I - (1/n) 11^T``."""
    Xc = X - X.mean(axis=1, keepdims=True)
    return Xc @ Xc.T


# ``(X, centered_gram(X))`` of the data matrix that this thread's fit runs on.
_fit_scatter = threading.local()


@contextmanager
def _scatter_held(X):
    """Compute ``centered_gram(X)`` once and let :func:`solve_projection` reuse it."""
    previous = getattr(_fit_scatter, "held", None)
    _fit_scatter.held = (X, centered_gram(X))
    try:
        yield
    finally:
        _fit_scatter.held = previous


def _scatter(X):
    """``centered_gram(X)``, taken from the running fit when it holds this ``X``."""
    held = getattr(_fit_scatter, "held", None)
    if held is not None and held[0] is X:
        return held[1]
    return centered_gram(X)


def _discrepancy_form(Y, M):
    """``Y @ M @ Y.T`` from a dense ``(n, n)`` ``M`` or its ``(n, r)`` factor, ``r < n``."""
    M = np.asarray(M, dtype=float)
    if M.shape[0] == M.shape[1]:
        return Y @ M @ Y.T
    YE = Y @ M
    return YE @ YE.T


def solve_projection(X, M, L, alpha, gamma, d):
    """Projection matrix from the generalized eigenproblem above.

    Parameters
    ----------
    X : ndarray of shape (m, n)
        All samples as columns.
    M : ndarray of shape (n, n) or (n, r) with r < n
        Domain-discrepancy coefficient matrix, or a factor ``E`` with
        ``M = E @ E.T`` such as :func:`crossprop.mmd.discrepancy_factor`
        returns.  A square array is read as ``M`` itself.
    L : ndarray or scipy sparse array of shape (n, n), or None
        Graph Laplacian contribution, applied as ``X @ (L @ X.T)``; ``None``
        drops the graph term.
    alpha, gamma : float
        Graph and ridge regularization weights.
    d : int
        Projected dimension.

    Returns
    -------
    P : ndarray of shape (m, d)
        Columns are the ``d`` smallest-eigenvalue generalized eigenvectors,
        normalized so ``P.T @ X H X.T @ P = I``.
    """
    m = X.shape[0]
    left = _discrepancy_form(X, M)
    if L is not None:
        left += alpha * (X @ (L @ X.T))
    left[np.diag_indices(m)] += gamma
    return solve_sym_definite_geig(left, _scatter(X), d).vectors


def _edge_energy(Y, rows, cols, weights):
    """``sum_e w_e * ||Y[row_e] - Y[col_e]||^2`` over the listed edges."""
    diff = Y[rows] - Y[cols]
    return float(weights @ np.einsum("ij,ij->i", diff, diff))


def _graph_scale(L):
    """Frobenius norm of a sparse Laplacian's stored values, or one for an empty graph."""
    scale = np.linalg.norm(L.data)
    return scale if scale > 0.0 else 1.0


def objective(
    P,
    graph,
    F,
    X,
    M,
    alpha,
    beta,
    gamma,
    source_labels=None,
    graph_scale=1.0,
    cost_matrix=None,
):
    """Joint objective value at the given state (see module docstring).

    ``M`` is the dense ``(n, n)`` discrepancy matrix or its ``(n, r)``
    factor (``r < n``), as for :func:`solve_projection`; the graph enters
    only through its edges, so no Laplacian is needed.
    ``graph_scale`` divides the graph-coupled terms; the fit loop passes the
    Frobenius norm of the iteration's Laplacian so the monitored value
    matches the normalized Laplacian the projection step saw.  The row
    multipliers are recomputed from the cost matrix at the evaluation point
    unless a frozen ``cost_matrix`` is supplied; only then is a dense cost
    matrix built.  The graph and label energies are summed over the graph's
    edges.
    """
    Z = P.T @ X
    rows, cols, weights = graph.edges()
    graph_energy = _edge_energy(Z.T, rows, cols, weights)
    label_energy = 0.0
    if F is not None:
        F = np.asarray(F, dtype=float)
        label_energy = _edge_energy(F, rows, cols, weights)
    if cost_matrix is None:
        cost_matrix = affinity_cost(
            Z, F, beta, source_labels if graph.structured else None
        )
    charge = quadratic_charge(cost_matrix, graph)
    discrepancy = float(np.trace(_discrepancy_form(Z, M)))
    return (
        discrepancy
        + (alpha * (graph_energy + charge) / 2.0 + beta * label_energy / 2.0)
        / graph_scale
        + gamma * float(np.sum(P * P))
    )


def _validate(dataset, params):
    if params.mode not in MODES:
        raise ConfigError(f"unknown mode {params.mode!r}")
    if params.ablation not in ABLATIONS:
        raise ConfigError(f"unknown ablation {params.ablation!r}")
    if params.mode == "uda" and dataset.n_labeled_target > 0:
        raise ConfigError("mode 'uda' cannot use labeled target samples")
    if params.mode == "sda" and dataset.n_labeled_target == 0:
        raise ConfigError("mode 'sda' requires labeled target samples")
    n = dataset.n_samples
    d = params.resolve_d(dataset)
    if not 1 <= d <= min(dataset.n_features, n):
        raise ConfigError(f"d={d} outside [1, min(m, n)]")
    if not 1 <= params.k <= n - 1:
        raise ConfigError(f"k={params.k} outside [1, n-1]")
    if not 0.0 <= params.delta <= 1.0:
        raise ConfigError(f"delta={params.delta} outside [0, 1]")
    if params.iterations < 1:
        raise ConfigError("iterations must be at least 1")
    if params.alpha <= 0.0 or params.gamma <= 0.0 or params.beta < 0.0:
        raise ConfigError("alpha and gamma must be positive, beta non-negative")
    return d


def fit(dataset, params=None, log_sink=None, on_iteration=None):
    """Run the joint solver on ``dataset``.

    Parameters
    ----------
    dataset : Dataset
    params : HyperParams, optional
        Defaults to ``HyperParams()``.
    log_sink : writable text stream, optional
        Receives one CSV line per iteration:
        ``iter,objective,label_change,accuracy`` (accuracy blank when no
        ground truth is available).
    on_iteration : callable, optional
        Called with a :class:`FitState` after every iteration.

    Returns
    -------
    report : FitReport
    """
    if params is None:
        params = HyperParams()
    d = _validate(dataset, params)
    with _scatter_held(dataset.features):
        return _alternate(dataset, params, d, log_sink, on_iteration)


def _alternate(dataset, params, d, log_sink, on_iteration):
    """The iterations of :func:`fit` on validated input."""
    X = dataset.features
    n_s = dataset.n_source
    n_l = dataset.n_labeled_target
    C = dataset.n_classes
    y_s = dataset.source_labels
    structured = params.ablation in ("full", "ds")
    cost_beta = params.beta if params.ablation == "full" else 0.0

    clamp = one_hot(
        np.concatenate([y_s, dataset.labeled_target_labels]), C
    )

    if params.ablation == "sp":
        graph = gaussian_knn_graph(X, params.k, n_s)
    else:
        graph = init_graph(X, params.k, params.delta, y_s, structured=structured)
    L = sparse_laplacian(graph)
    scale = _graph_scale(L)
    F_free = harmonic_solve(L, clamp)
    F = np.vstack([clamp, F_free])
    pseudo = decide_labels(F_free)

    truth = None
    if dataset.hidden_target_labels is not None:
        truth = dataset.hidden_target_labels[n_l:]

    report = FitReport(
        target_labels=np.concatenate([dataset.labeled_target_labels, pseudo]),
        iterations=0,
        converged=False,
        accuracy_trace=[] if truth is not None else None,
    )
    if log_sink is not None:
        log_sink.write("iter,objective,label_change,accuracy\n")

    prev_objective = None
    for t in range(1, params.iterations + 1):
        target_estimates = np.concatenate([dataset.labeled_target_labels, pseudo])
        M = discrepancy_factor(y_s, target_estimates, C)

        if params.ablation == "sp":
            P = solve_projection(X, M, None, params.alpha, params.gamma, d)
            Z = P.T @ X
            graph = gaussian_knn_graph(Z, params.k, n_s)
            cost = None
        else:
            L.data /= scale  # the projection is this Laplacian's last use
            P = solve_projection(X, M, L, params.alpha, params.gamma, d)
            Z = P.T @ X
            cost = affinity_cost(Z, F, cost_beta, y_s if structured else None)
            graph = build_graph(
                cost, params.k, params.delta, y_s, structured=structured
            )

        L = sparse_laplacian(graph)
        scale = _graph_scale(L)
        F_free = harmonic_solve(L, clamp)
        F = np.vstack([clamp, F_free])
        new_pseudo = decide_labels(F_free)
        change = float(np.mean(new_pseudo != pseudo))
        pseudo = new_pseudo

        value = objective(
            P,
            graph,
            F,
            X,
            M,
            params.alpha,
            cost_beta,
            params.gamma,
            source_labels=y_s if structured else None,
            graph_scale=scale,
            cost_matrix=cost,
        )
        # Free the n x n cost before the next iteration builds its own.
        del cost

        report.iterations = t
        report.objective_trace.append(value)
        report.label_change_trace.append(change)
        acc_text = ""
        if truth is not None:
            acc = accuracy(pseudo, truth)
            report.accuracy_trace.append(acc)
            acc_text = f"{acc:.6f}"
        if log_sink is not None:
            log_sink.write(f"{t},{value:.10g},{change:.6g},{acc_text}\n")
        if on_iteration is not None:
            on_iteration(
                FitState(
                    iteration=t,
                    P=P,
                    graph=graph,
                    F=F,
                    target_labels=np.concatenate(
                        [dataset.labeled_target_labels, pseudo]
                    ),
                    objective=value,
                    label_change=change,
                )
            )

        if change < LABEL_CHANGE_TOL:
            report.converged = True
        elif prev_objective is not None:
            rel = abs(value - prev_objective) / max(abs(prev_objective), 1e-12)
            if rel < OBJECTIVE_CHANGE_TOL:
                report.converged = True
        prev_objective = value
        if report.converged:
            break

    report.target_labels = np.concatenate([dataset.labeled_target_labels, pseudo])
    if truth is not None:
        report.accuracy = accuracy(pseudo, truth)
    return report
