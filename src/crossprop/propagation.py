"""Harmonic label propagation on a fixed graph.

With the samples ordered so the first ``n_clamped`` rows carry known labels,
the label-smoothness energy ``tr(F.T L F)`` is minimized over the free rows
by the harmonic solution

    F_free = -inv(L_ff) @ L_fc @ F_clamped,

obtained here with a Cholesky solve of the free-free Laplacian block.  For a
connected graph each free row of the solution is a probability vector (the
entries are hitting probabilities of the clamped classes).  Free samples
with no path to a clamped sample make ``L_ff`` singular in exact arithmetic.
Rounding decides whether its Cholesky pivots stay positive, so the plain
factorization succeeds or the ridge repair of
:func:`crossprop.linalg.solve_spd_linear` runs.  Either way their
right-hand side is zero, so their rows come out exactly zero, and the argmax
decision maps them to class zero without notice.  On the 3000-sample
synthetic shift with ``k = 20`` (generator seed 0), 416 of 1500 target rows
end this way at the fourth iteration, where one ridge repair runs.

The Laplacian may be a dense array or a scipy sparse array; the solver
passes a ``csr_array``.  A sparse Laplacian is densified only in its
free-free block, because the dense Cholesky is what tolerates the singular
``L_ff`` of unreachable rows, where a sparse LU would fail.
"""

import numpy as np
import scipy.sparse

from .linalg import solve_spd_linear


def harmonic_solve(L, clamped):
    """Minimize ``tr(F.T L F)`` over the rows after the clamped prefix.

    Parameters
    ----------
    L : ndarray or scipy sparse array of shape (n, n)
        Graph Laplacian (symmetrized, unscaled).  A sparse ``L`` is
        densified only in its free-free block.
    clamped : ndarray of shape (n_clamped, C)
        Fixed label rows of the first ``n_clamped`` samples.

    Returns
    -------
    F_free : ndarray of shape (n - n_clamped, C)
        Soft labels of the free samples.
    """
    clamped = np.asarray(clamped, dtype=float)
    n_clamped = clamped.shape[0]
    if scipy.sparse.issparse(L):
        L = scipy.sparse.csr_array(L)
        L_ff = L[n_clamped:, n_clamped:].toarray()
    else:
        L = np.asarray(L, dtype=float)
        L_ff = L[n_clamped:, n_clamped:]
    L_fc = L[n_clamped:, :n_clamped]
    return solve_spd_linear(L_ff, -L_fc @ clamped)


def decide_labels(F):
    """Hard labels from soft label rows: per-row argmax, ties to the lowest class."""
    return np.argmax(np.asarray(F), axis=1)
