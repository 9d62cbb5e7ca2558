"""Harmonic label propagation on a fixed graph.

With the samples ordered so the first ``n_clamped`` rows carry known labels,
the label-smoothness energy ``tr(F.T L F)`` is minimized over the free rows
by the harmonic solution

    F_free = -inv(L_ff) @ L_fc @ F_clamped.

Each free row of the solution holds the probabilities that a random walk
from that sample first hits a clamped sample of each class, so it sums to
one -- provided the walk can reach a clamped sample at all.

``L_ff`` is solved for all class columns at once by conjugate gradients
with a Jacobi preconditioner, started from zero; each column takes its own
step sizes, and all columns share one sparse product per step.  The matrix
is never factored or densified, and no ridge is added.  The loop stops
once every column's squared residual norm is at most :data:`CG_RTOL`
squared times its right-hand side's, so a reachable row sums to one within
that tolerance.  The column of a class with no clamped row stays zero.

A free row is *reachable* when its connected component of the graph holds a
clamped row.  ``L_ff`` is block-diagonal over the components, and on the
reachable ones it is an irreducibly diagonally dominant M-matrix, hence
positive definite.  A component with no clamped row has a zero right-hand
side, so every update multiplies its rows by exact zeros: CG never moves
them off zero, although their block of ``L_ff`` is singular.  A stored
zero weight is no edge for the same reason.  An unreachable row has no
clamped sample to take a label from, and :func:`decide_labels` maps it to
class zero.  On the 3000-sample synthetic shift with ``k = 20`` (generator
seed 0), 416 of 1500 target rows are unreachable at the final iteration.

The Laplacian may be a dense array or a scipy sparse array; the solver
passes a ``csr_array``.
"""

import numpy as np
import scipy.sparse

from .exceptions import ArgumentError, ConvergenceError, ShapeError, SingularMatrix

CG_RTOL = 1e-10
"""Residual norm, relative to the right-hand side's, at which a column stops."""

CG_STEPS_PER_ROW = 2
"""Conjugate-gradient steps allowed per free row before the solve gives up.

In exact arithmetic CG ends within one step per free row."""


def _column_dots(a, b):
    return np.einsum("ij,ij->j", a, b)


def harmonic_solve(L, clamped):
    """Minimize ``tr(F.T L F)`` over the rows after the clamped prefix.

    Parameters
    ----------
    L : ndarray or scipy sparse array of shape (n, n)
        Graph Laplacian (symmetrized, unscaled).
    clamped : ndarray of shape (n_clamped, C)
        Fixed label rows of the first ``n_clamped`` samples.

    Returns
    -------
    F_free : ndarray of shape (n - n_clamped, C)
        Soft labels of the free samples.  Rows without a path to a clamped
        row are exactly zero; every column's residual is at most
        :data:`CG_RTOL` of its right-hand side's.

    Raises
    ------
    ShapeError
        If ``L`` is not square, or ``clamped`` is not 2-D or has more rows
        than ``L``.
    ArgumentError
        If ``clamped`` holds non-finite entries.
    SingularMatrix
        If ``L`` holds non-finite entries.
    ConvergenceError
        If the residuals do not reach :data:`CG_RTOL` within
        :data:`CG_STEPS_PER_ROW` steps per free row.
    """
    clamped = np.asarray(clamped, dtype=float)
    L = scipy.sparse.csr_array(L, dtype=float)
    if L.shape[0] != L.shape[1]:
        raise ShapeError(f"Laplacian of shape {L.shape} is not square")
    if clamped.ndim != 2 or clamped.shape[0] > L.shape[0]:
        raise ShapeError(
            f"clamped rows of shape {clamped.shape} do not fit {L.shape[0]} samples"
        )
    n_clamped = clamped.shape[0]
    if not np.all(np.isfinite(clamped)):
        raise ArgumentError("clamped rows contain non-finite entries")
    if not np.all(np.isfinite(L.data)):
        raise SingularMatrix("Laplacian contains non-finite entries")
    A = L[n_clamped:, n_clamped:]
    R = -(L[n_clamped:, :n_clamped] @ clamped)
    X = np.zeros_like(R)
    diag = A.diagonal()
    inv_diag = np.divide(1.0, diag, out=np.zeros_like(diag), where=diag != 0.0)[:, None]
    Z = inv_diag * R
    P = Z.copy()
    rz = _column_dots(R, Z)
    target = CG_RTOL**2 * _column_dots(R, R)
    budget = CG_STEPS_PER_ROW * R.shape[0]
    steps = 0
    while np.any(_column_dots(R, R) > target):
        if steps >= budget:
            raise ConvergenceError(
                f"harmonic solve: residuals above {CG_RTOL:g} of the "
                f"right-hand side's after {steps} steps"
            )
        steps += 1
        Q = A @ P
        pq = _column_dots(P, Q)
        # pq or rz is zero only in an all-zero column of P, which any step keeps.
        alpha = rz / (pq + (pq == 0.0))
        # Fortran iteration order: 2-3x faster broadcasts at three classes.
        X += np.multiply(alpha, P, out=Z, order="F")
        R -= np.multiply(alpha, Q, out=Z, order="F")
        np.multiply(inv_diag, R, out=Z, order="F")
        rz_next = _column_dots(R, Z)
        np.multiply(P, rz_next / (rz + (rz == 0.0)), out=P, order="F")
        P += Z
        rz = rz_next
    return X


def decide_labels(F):
    """Hard labels from soft label rows: per-row argmax, ties to the lowest class."""
    return np.argmax(np.asarray(F), axis=1)
