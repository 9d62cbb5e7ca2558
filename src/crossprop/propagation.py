"""Harmonic label propagation on a fixed graph.

With the samples ordered so the first ``n_clamped`` rows carry known labels,
the label-smoothness energy ``tr(F.T L F)`` is minimized over the free rows
by the harmonic solution

    F_free = -inv(L_ff) @ L_fc @ F_clamped,

obtained here with a Cholesky solve of the free-free Laplacian block.  For a
connected graph each free row of the solution is a probability vector (the
entries are hitting probabilities of the clamped classes).  Free samples
with no path to a clamped sample make ``L_ff`` singular in exact arithmetic,
yet rounding usually leaves its Cholesky pivots positive, so the
factorization succeeds without a ridge repair.  Their right-hand side is
zero, so their rows come out exactly zero, and the argmax decision maps them
to class zero without notice.  On the 3000-sample synthetic shift with
``k = 20`` (generator seed 0), 416 of 1500 target rows end this way at the
fourth iteration, with no ridge repair.
"""

import numpy as np

from .linalg import solve_spd_linear


def harmonic_solve(L, clamped):
    """Minimize ``tr(F.T L F)`` over the rows after the clamped prefix.

    Parameters
    ----------
    L : ndarray of shape (n, n)
        Graph Laplacian (symmetrized, unscaled).
    clamped : ndarray of shape (n_clamped, C)
        Fixed label rows of the first ``n_clamped`` samples.

    Returns
    -------
    F_free : ndarray of shape (n - n_clamped, C)
        Soft labels of the free samples.
    """
    L = np.asarray(L, dtype=float)
    clamped = np.asarray(clamped, dtype=float)
    n_clamped = clamped.shape[0]
    L_ff = L[n_clamped:, n_clamped:]
    L_fc = L[n_clamped:, :n_clamped]
    return solve_spd_linear(L_ff, -L_fc @ clamped)


def decide_labels(F):
    """Hard labels from soft label rows: per-row argmax, ties to the lowest class."""
    return np.argmax(np.asarray(F), axis=1)
