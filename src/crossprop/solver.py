"""Joint solver: projection learning, graph self-learning, label propagation.

Each outer iteration alternates three exact subproblem solutions:

1. **Projection step.**  With the discrepancy matrix ``M`` (marginal plus
   class-conditional, unit Frobenius norm) and the current graph Laplacian
   ``L`` (divided by its Frobenius norm so both regularizers live on the
   same scale), the projection ``P`` collects the ``d`` smallest generalized
   eigenvectors of

       (X M X.T + alpha * X L X.T + gamma * I) P = X H X.T P Theta,

   where ``H`` is the centering matrix, so ``P.T X H X.T P = I`` keeps the
   projected total scatter fixed.  The scatter ``B = X H X.T`` is the same
   in every iteration, so :func:`factor_scatter` factors it once per fit,
   ``B = R.T R``, and ``R`` is all the fit keeps of it.  Each iteration
   builds the upper triangle of ``K = X M X.T + alpha * X L X.T + gamma * I``
   from ``X`` itself, reduces it to the standard symmetric eigenproblem of
   ``R^-T K R^-1`` with one ``dsygst``, and solves its eigenvectors back,
   ``P = R^-1 U``, as LAPACK's ``dsygvx`` does (Golub & Van Loan, *Matrix
   Computations*, section 8.7).  The fit never forms an ``n x n`` ``M`` or
   ``L``: ``M = E E.T`` enters through its ``n x r`` factor ``E``
   (``r <= C + 1``, :func:`crossprop.mmd.discrepancy_factor`), so
   ``X M X.T = (X E)(X E).T``; the graph enters through the rows of
   ``D - S`` (:func:`crossprop.graph.row_laplacian`, about ``n k``
   entries), whose symmetric part is ``L``, as the rank-2k update
   ``X L X.T = 1/2 (X (D - S) X.T + its transpose)``, one ``dsyr2k`` per
   row block.  :func:`solve_projection` also accepts a dense ``M`` and a
   dense ``L``.

2. **Graph step.**  Row-wise closed-form updates of the affinity graph from
   the cost matrix ``||z_i - z_j||^2 + beta * ||F_i - F_j||^2`` (see
   :mod:`crossprop.graph`).  These costs are the squared distances between
   the cost-space coordinates ``U = [Z; sqrt(beta) * F.T]``
   (:func:`crossprop.graph.cost_space`; just ``Z`` when ``beta`` is 0).
   The cost is a :class:`crossprop.graph.RowBlockCost` of ``U``: it holds
   only those coordinates and computes the costs a block of rows at a time,
   one matrix product per block and candidate set, into one reused buffer,
   so no ``n x n`` cost matrix is built.  The class split of the source rows
   is the graph step's own: :func:`crossprop.graph.build_graph` takes the
   source labels and records them on the graph, together with the row
   multipliers ``Lambda`` the step pinned.

3. **Propagation step.**  Harmonic soft labels on the fresh graph with the
   labeled block clamped, then hard pseudo-labels by row argmax.  Free
   samples with no path to a clamped sample keep all-zero soft labels
   (:mod:`crossprop.propagation`); :class:`FitState` counts them.

Each graph's ``D - S`` is built once: the propagation step solves with its
symmetric part ``L`` and scales by ``||L||_F``, the objective reads its
graph energies from it, and the next projection step multiplies by it.

The monitored objective is

    tr(P.T X M X.T P)
    + alpha * (tr(P.T X L X.T P) + ||Lambda^(1/2) S||_F^2 / 2)
    + beta * tr(F.T L F) + gamma * ||P||_F^2,

with ``L`` built from the symmetrized affinity ``(S + S.T) / 2``; each
trace ``tr(Y.T L Y)`` equals ``tr(Y.T (D - S) Y)``.  Under this convention
each graph-energy trace equals half the row-wise sums the graph step
optimizes, so the multiplier term carries the matching factor one half;
with the multipliers ``Lambda`` treated as the iteration's fixed
parameters, every one of the three updates is then an exact minimizer of
the same function and the objective cannot increase within an iteration.
:func:`objective` charges the graph's own ``Lambda``, which every graph
the library builds carries, the Gaussian graph of ``sp`` included, so the
value it returns for a fit's state is the value the fit logged.

The initial graph is propagated exactly as every later graph is.  It is
built from the raw features before :func:`factor_scatter` runs.  The two
are independent, and the initial graph's distance operand is a copy of
``X`` (:func:`crossprop.linalg.sq_dist_operand`), so in this order that
copy is freed before the ``m x m`` factor exists and the two are never
held together.  The loop stops early once the label change, the fraction
of *unlabeled* target samples whose pseudo-label changed (the labeled
target prefix is not counted), drops below ``1e-3``, or the relative
objective change drops below ``1e-5``.
"""

import numbers
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .data import Dataset, HyperParams, accuracy, one_hot
from .exceptions import ConfigError, DimensionError, ShapeError
from .graph import (
    RowBlockCost,
    _symmetric_part,
    build_graph,
    cost_space,
    gaussian_knn_graph,
    init_graph,
    quadratic_charge,
    row_laplacian,
)
from .linalg import block_rows, cholesky_factor
from .mmd import discrepancy_factor
from .propagation import decide_labels, harmonic_solve

LABEL_CHANGE_TOL = 1e-3
OBJECTIVE_CHANGE_TOL = 1e-5

MODES = ("uda", "sda")
ABLATIONS = ("full", "sp", "dg", "ds")


@dataclass
class FitState:
    """Snapshot of the solver after one outer iteration.

    ``unreachable_rows`` counts the free rows of ``F`` that are exactly zero:
    the samples with no path in ``graph`` to a clamped sample, which the
    harmonic solve's CG never moves off zero.  A reachable row sums to one
    within the solver tolerance, so the count is exact.  ``label_change``
    is the fraction of the unlabeled targets whose label differs from the
    previous iteration's; ``target_labels`` is the fit's own copy.
    """

    iteration: int
    P: np.ndarray
    graph: object
    F: np.ndarray
    target_labels: np.ndarray
    objective: float
    label_change: float
    unreachable_rows: int


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
    """Total-scatter matrix ``X H X.T`` with ``H = I - (1/n) 11^T``.

    The scatter is accumulated over column blocks of about
    :data:`crossprop.linalg.BLOCK_BYTES`: each centred block ``X_b - mu``
    adds ``(X_b - mu)(X_b - mu).T`` to the upper triangle with one
    ``dsyrk``, which is then mirrored once, so the only centred copy held is
    one block.  The result is the full, exactly symmetric, Fortran-ordered
    ``(m, m)`` matrix.
    """
    X = np.asarray(X, dtype=float)
    m, n = X.shape
    mean = X.mean(axis=1, keepdims=True)
    gram = np.zeros((m, m), order="F")
    step = block_rows(m)
    # One Fortran-ordered buffer, which dsyrk reads in place, holds each block.
    buffer = np.empty((m, min(step, n)), order="F")
    for start in range(0, n, step):
        cols = slice(start, min(start + step, n))
        block = np.subtract(X[:, cols], mean, out=buffer[:, : cols.stop - start])
        gram = scipy.linalg.blas.dsyrk(1.0, block, beta=1.0, c=gram, overwrite_c=1)
    buffer = block = None  # freed before the mirror's m x m temporary
    gram += np.triu(gram, 1).T
    return gram


def _discrepancy_form(Y, M):
    """``Y @ M @ Y.T`` from a dense ``(n, n)`` ``M`` or its ``(n, r)`` factor, ``r < n``."""
    M = np.asarray(M, dtype=float)
    if M.shape[0] == M.shape[1]:
        return Y @ M @ Y.T
    YE = Y @ M
    return YE @ YE.T


def factor_scatter(X):
    """Upper Cholesky factor ``R`` of ``centered_gram(X) = R.T @ R``; ``X`` is only read.

    The scatter is factored by :func:`crossprop.linalg.cholesky_factor`, so
    a rank-deficient one is ridge-repaired here, once.  ``R`` is
    Fortran-ordered and its strict lower triangle is zero.
    """
    return cholesky_factor(centered_gram(X))


def solve_projection(X, M, L, alpha, gamma, d, factor=None):
    """Projection matrix from the eigenproblem above, reduced by the scatter's factor.

    The upper triangle of ``K = X M X.T + alpha * X L X.T + gamma * I`` is
    built in input coordinates; with ``B = X H X.T = R.T R``, one
    ``dsygst`` overwrites it with ``R^-T K R^-1``, whose ``d`` smallest
    eigenvectors ``U`` give ``P = R^-1 U`` by a triangular solve.  The graph
    term is ``1/2 * dsyr2k(X, (L X.T).T)``, accumulated over row blocks of
    ``L`` of about :data:`crossprop.linalg.BLOCK_BYTES` each, so no
    ``n x m`` product is held; it reads only the symmetric part
    ``(L + L.T) / 2`` of ``L``.  The blocks read the rows of ``X.T``, a
    view for a Fortran-ordered ``X``; a C-ordered one is copied once.

    Parameters
    ----------
    X : ndarray of shape (m, n)
        All samples as columns.
    M : ndarray of shape (n, n) or (n, r) with r < n
        Symmetric domain-discrepancy coefficient matrix, or a factor ``E``
        with ``M = E @ E.T`` such as :func:`crossprop.mmd.discrepancy_factor`
        returns.  A square array is read as ``M`` itself.
    L : ndarray or scipy sparse array of shape (n, n), or None
        Graph Laplacian, or any matrix whose symmetric part it is, such as
        :func:`crossprop.graph.row_laplacian`'s ``D - S``; dense, CSR or
        CSC, as long as it slices by rows.  ``None`` drops the graph term.
    alpha, gamma : float
        Graph and ridge regularization weights.
    d : int
        Projected dimension, ``1 <= d <= m``.
    factor : ndarray of shape (m, m), optional
        ``factor_scatter(X)``, computed here when not given; :func:`fit`
        computes it once and passes it to every iteration.

    Returns
    -------
    P : ndarray of shape (m, d)
        Columns are the ``d`` smallest-eigenvalue generalized eigenvectors,
        normalized so ``P.T @ X H X.T @ P = I``.

    Raises
    ------
    DimensionError
        If ``d`` is outside ``[1, m]`` or ``factor`` is not ``(m, m)``.
    """
    m, n = X.shape
    if not 1 <= d <= m:
        raise DimensionError(f"requested {d} projection directions in {m} dimensions")
    if factor is None:
        factor = factor_scatter(X)
    elif factor.shape != (m, m):
        raise DimensionError(f"scatter factor of shape {factor.shape} for {m} features")
    blas = scipy.linalg.blas
    # Only the upper triangle of ``left`` is updated and read from here on.
    left = _discrepancy_form(X, M).T
    left[np.diag_indices(m)] += gamma
    if L is not None:
        samples = np.ascontiguousarray(X.T)
        step = block_rows(m)
        for start in range(0, n, step):
            rows = slice(start, start + step)
            left = blas.dsyr2k(
                alpha / 2.0,
                samples[rows].T,
                (L[rows] @ samples).T,
                beta=1.0,
                c=left,
                overwrite_c=1,
            )
    left, _ = scipy.linalg.lapack.dsygst(left, factor, overwrite_a=1)
    _, U = scipy.linalg.eigh(
        left, lower=False, overwrite_a=True, subset_by_index=(0, d - 1)
    )
    return blas.dtrsm(1.0, factor, U, overwrite_b=1)


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
    graph_scale=1.0,
    cost_matrix=None,
):
    """Joint objective value at the given state (see module docstring).

    ``M`` is the dense ``(n, n)`` discrepancy matrix or its ``(n, r)``
    factor (``r < n``), as for :func:`solve_projection`.
    ``graph_scale`` divides the graph-coupled terms; the fit loop passes the
    Frobenius norm of the iteration's Laplacian so the monitored value
    matches the normalized Laplacian the projection step saw.  The row
    multipliers are computed under ``cost_matrix`` when it is supplied, a
    dense cost array or a :class:`crossprop.graph.RowBlockCost`
    (:func:`crossprop.graph.quadratic_charge`).  Without it they are the
    graph's own ``multipliers``, pinned when it was built, so a fit's state
    evaluates to the value the fit logged; a graph built by hand without
    multipliers then raises :class:`crossprop.exceptions.ArgumentError`.
    The graph and label energies ``tr(Y.T L Y)`` are each read as
    ``tr(Y.T (D - S) Y)``, one sparse product with
    :func:`crossprop.graph.row_laplacian`.  Raises :class:`ShapeError` when
    ``X`` has not one column, or ``F`` not one row, per graph sample.
    """
    n = graph.n_samples
    if np.shape(X)[1:] != (n,) or (F is not None and np.shape(F)[:1] != (n,)):
        raise ShapeError(f"X {np.shape(X)} or F {np.shape(F)} does not fit {n} graph samples")
    R = row_laplacian(graph)
    return _objective(P, P.T @ X, graph, R, F, M, alpha, beta, gamma, graph_scale, cost_matrix)


def _energy(R, Y):
    """``tr(Y.T R Y)``, which is ``tr(Y.T L Y)`` for ``R = D - S``."""
    return float(np.einsum("ij,ij->", Y, R @ Y))


def _objective(P, Z, graph, R, F, M, alpha, beta, gamma, graph_scale, cost_matrix=None):
    """:func:`objective` with ``Z = P.T @ X`` and ``R = row_laplacian(graph)`` given."""
    label_energy = 0.0 if F is None else _energy(R, np.asarray(F, dtype=float))
    charge = quadratic_charge(cost_matrix, graph)
    discrepancy = float(np.trace(_discrepancy_form(Z, M)))
    return (
        discrepancy
        + (alpha * (_energy(R, Z.T) + charge / 2.0) + beta * label_energy) / graph_scale
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
    for name, value in (("d", d), ("k", params.k), ("iterations", params.iterations)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigError(f"{name}={value!r} is not an integer")
    for name, value in (("alpha", params.alpha), ("beta", params.beta), ("gamma", params.gamma)):
        if not np.isfinite(value):
            raise ConfigError(f"{name}={value} is not finite")
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


def _propagate(graph, clamp, known):
    """Propagation step on ``graph``: ``(R, scale, F, target_labels)``.

    ``clamp`` holds the one-hot rows of the labeled samples, source first,
    and ``known`` the labels of the labeled target prefix.  ``R`` is the
    graph's ``D - S`` (:func:`crossprop.graph.row_laplacian`), built once;
    its symmetric part is the Laplacian that the harmonic solve reads and
    ``scale``, its Frobenius norm, is taken from.  ``F`` stacks ``clamp`` on
    the harmonic soft labels of the free rows, and ``target_labels`` is
    ``known`` followed by the free rows' argmax.
    """
    R = row_laplacian(graph)
    L = _symmetric_part(R)
    F_free = harmonic_solve(L, clamp)
    labels = np.concatenate([known, decide_labels(F_free)])
    return R, _graph_scale(L), np.vstack([clamp, F_free]), labels


def fit(dataset, params=None, log_sink=None, on_iteration=None):
    """Run the joint solver on ``dataset``.

    Set-up builds and propagates the initial graph first and factors the
    scatter (:func:`factor_scatter`) after it, so the graph's copy of the
    features is freed before the ``m x m`` factor exists; neither result
    depends on the other.

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
    # Fortran order makes X.T the C-ordered rows the projection step reads,
    # so a C-ordered dataset is copied here, once per fit.
    X = np.asfortranarray(dataset.features)
    y_s = dataset.source_labels
    known = dataset.labeled_target_labels
    unlabeled = slice(known.size, None)
    split = y_s if params.ablation in ("full", "ds") else None
    cost_beta = params.beta if params.ablation == "full" else 0.0
    clamp = one_hot(np.concatenate([y_s, known]), dataset.n_classes)
    truth = dataset.hidden_target_labels
    if truth is not None:
        truth = truth[unlabeled]

    if params.ablation == "sp":
        graph = gaussian_knn_graph(X, params.k)
    else:
        graph = init_graph(X, params.k, params.delta, split)
    R, scale, F, labels = _propagate(graph, clamp, known)
    # The initial graph's operand, a copy of X, is freed before R exists.
    factor = factor_scatter(X)

    report = FitReport(
        target_labels=labels,
        iterations=0,
        converged=False,
        accuracy_trace=[] if truth is not None else None,
    )
    if log_sink is not None:
        log_sink.write("iter,objective,label_change,accuracy\n")

    prev_objective = None
    for t in range(1, params.iterations + 1):
        M = discrepancy_factor(y_s, labels, dataset.n_classes)
        del graph  # not read below; dropped before the projection and graph step
        # alpha / scale weighs the Laplacian divided by its Frobenius norm;
        # without a graph term alpha is never read.
        graph_term = None if params.ablation == "sp" else R
        P = solve_projection(
            X, M, graph_term, params.alpha / scale, params.gamma, d, factor
        )
        del R, graph_term  # not held through the graph step
        Z = P.T @ X
        if params.ablation == "sp":
            graph = gaussian_knn_graph(Z, params.k)
        else:
            cost = RowBlockCost(cost_space(Z, F, cost_beta))
            graph = build_graph(cost, params.k, params.delta, split)
            del cost  # not held past its graph step
        previous = labels
        R, scale, F, labels = _propagate(graph, clamp, known)
        change = float(np.mean(labels[unlabeled] != previous[unlabeled]))

        value = _objective(
            P, Z, graph, R, F, M, params.alpha, cost_beta, params.gamma, scale
        )

        report.iterations = t
        report.target_labels = labels
        report.objective_trace.append(value)
        report.label_change_trace.append(change)
        acc_text = ""
        if truth is not None:
            report.accuracy = accuracy(labels[unlabeled], truth)
            report.accuracy_trace.append(report.accuracy)
            acc_text = f"{report.accuracy:.6f}"
        if log_sink is not None:
            log_sink.write(f"{t},{value:.10g},{change:.6g},{acc_text}\n")
        if on_iteration is not None:
            on_iteration(
                FitState(
                    iteration=t,
                    P=P,
                    graph=graph,
                    F=F,
                    target_labels=labels.copy(),
                    objective=value,
                    label_change=change,
                    unreachable_rows=int(
                        np.count_nonzero(~F[len(clamp):].any(axis=1))
                    ),
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
    return report
