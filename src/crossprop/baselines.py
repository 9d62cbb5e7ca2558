"""Reference classifiers and an independent simplex-QP solver.

The nearest-neighbour classifier is the no-adaptation baseline the joint
solver is measured against.  The projected-gradient simplex solver minimizes
the same per-row objective as the closed-form graph updates but by iteration
rather than by formula, so the two implementations can be checked against
each other.
"""

import numpy as np

from .data import _as_labels
from .exceptions import ArgumentError, ConvergenceError, ShapeError
from .graph import RowBlockCost, _map_row_blocks, block_multiplier

QP_MAX_ITER = 10_000
QP_TOL = 1e-8


def nearest_neighbor(train_features, train_labels, test_features):
    """1-nearest-neighbour prediction by Euclidean distance.

    Parameters
    ----------
    train_features : ndarray of shape (m, p)
        Training samples as columns.
    train_labels : ndarray of shape (p,)
        Training labels.
    test_features : ndarray of shape (m, q)
        Test samples as columns.

    Returns
    -------
    labels : ndarray of shape (q,)
        Label of each test sample's nearest training sample; distance ties
        go to the lowest training index.  The test x train distances are
        read a block of test rows at a time, through the graph step's
        :func:`crossprop.graph._map_row_blocks`, from one
        :class:`crossprop.graph.RowBlockCost` operand written straight from
        the two blocks, so train and test are never joined into a copy.

    Raises
    ------
    ShapeError
        If the feature matrices are not 2-D or do not fit each other or the
        labels.
    ArgumentError
        If a feature value is not finite.
    """
    train_labels = _as_labels(train_labels)
    train_features = np.asarray(train_features, dtype=float)
    test_features = np.asarray(test_features, dtype=float)
    if train_features.ndim != 2 or test_features.ndim != 2:
        raise ShapeError("train and test features must be 2-D matrices")
    if train_features.shape[1] != train_labels.size:
        raise ShapeError("one training label per training column is required")
    if train_labels.size == 0:
        raise ShapeError("at least one training sample is required")
    if train_features.shape[0] != test_features.shape[0]:
        raise ShapeError("train and test features must share the feature dimension")
    p = train_labels.size
    dists = RowBlockCost(train_features, test_features)
    test = np.arange(p, dists.shape[0])
    nearest = np.empty(test.size, dtype=np.intp)

    def argmin(rows, col_sets, costs, work):
        nearest[rows - p] = np.argmin(costs[0], axis=1)

    _map_row_blocks(dists, [(test, (np.arange(p),))], argmin)
    return train_labels[nearest]


def project_simplex(v, mass=1.0):
    """Euclidean projection of ``v`` onto ``{s : s >= 0, sum(s) = mass}``."""
    v = np.asarray(v, dtype=float)
    ranked = np.sort(v)[::-1]
    cumulative = np.cumsum(ranked) - mass
    positions = np.arange(1, v.size + 1)
    feasible = ranked - cumulative / positions > 0
    rho = positions[feasible][-1]
    tau = cumulative[rho - 1] / rho
    return np.maximum(v - tau, 0.0)


def simplex_qp_oracle(costs, mass, max_support):
    """Iteratively solve one graph-row subproblem on the scaled simplex.

    Minimizes ``costs @ s + lam * sum(s**2)`` subject to ``sum(s) = mass``
    and ``s >= 0`` by projected gradient descent with step ``1 / (2 * lam)``,
    where ``lam`` is the multiplier under which the closed-form row update
    keeps ``max_support`` nonzero entries (see :mod:`crossprop.graph`).

    Parameters
    ----------
    costs : ndarray of shape (q,)
        Finite candidate costs, ``q > max_support``.
    mass : float
        Total row mass (positive).
    max_support : int
        Target support size ``k``.

    Returns
    -------
    s : ndarray of shape (q,)
        Solution to ``1e-8`` stationarity.

    Raises
    ------
    ArgumentError
        If the arguments are out of domain or the implied multiplier is not
        positive (degenerate tie, no unique quadratic).
    ConvergenceError
        If the iteration cap is exhausted before reaching stationarity.
    """
    costs = np.asarray(costs, dtype=float)
    if mass <= 0.0:
        raise ArgumentError("mass must be positive")
    if not (0 < max_support < costs.size):
        raise ArgumentError("max_support must lie in (0, len(costs))")
    if not np.all(np.isfinite(costs)):
        raise ArgumentError("costs must be finite")
    lam = block_multiplier(costs, max_support, mass)
    if lam <= 0.0:
        raise ArgumentError("degenerate costs: no positive multiplier")
    step = 1.0 / (2.0 * lam)
    s = np.full(costs.size, mass / costs.size)
    for _ in range(QP_MAX_ITER):
        s_next = project_simplex(s - step * (costs + 2.0 * lam * s), mass)
        if np.max(np.abs(s_next - s)) <= QP_TOL:
            return s_next
        s = s_next
    raise ConvergenceError("projected gradient did not reach stationarity")
