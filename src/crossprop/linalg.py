"""Dense linear-algebra kernels shared by the graph and projection solvers.

Matrices are plain ``numpy.ndarray`` objects.  Sample matrices throughout the
package are column-major in the semantic sense: a data matrix has shape
``(n_features, n_samples)`` and column ``j`` is one sample.  The helpers here
make no domain assumptions beyond symmetry/definiteness where stated.

Nominally definite matrices coming out of graph Laplacians or centred Gram
matrices are frequently semi-definite in exact arithmetic.  The factorization
helpers therefore first attempt a plain Cholesky and, only when that fails,
retry after adding a trace-scaled ridge ``eps * (trace(A)/k) * I``.  Repairing
on demand keeps the residual guarantees of the common well-conditioned case
intact while still handling rank-deficient inputs deterministically.
"""

from typing import NamedTuple

import numpy as np
import scipy.linalg

from .exceptions import DimensionError, SingularMatrix, SingularPencil

RIDGE_EPS = 1e-6


class EigenPair(NamedTuple):
    """Eigenvalues (ascending) and matching eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


def pairwise_sq_dists(Z):
    """Squared Euclidean distances between the columns of ``Z``.

    Parameters
    ----------
    Z : ndarray of shape (d, n)
        Matrix whose columns are points in ``R^d``.

    Returns
    -------
    D : ndarray of shape (n, n)
        ``D[i, j] = ||Z[:, i] - Z[:, j]||^2``.  The result is exactly
        symmetric, has an exactly zero diagonal and no negative entries.
    """
    Z = np.asarray(Z, dtype=float)
    G = Z.T @ Z
    sym = G + G.T
    sym /= 2.0
    sq = np.diag(sym).copy()
    D = np.add(sq[:, None], sq[None, :], out=G)  # the Gram buffer is free now
    sym *= 2.0
    D -= sym
    np.maximum(D, 0.0, out=D)
    np.fill_diagonal(D, 0.0)
    return D


def _trace_ridge(A):
    """Trace-scaled ridge ``RIDGE_EPS * (trace(A)/k) * I`` added to a copy of ``A``."""
    k = A.shape[0]
    return A + (RIDGE_EPS * np.trace(A) / k) * np.eye(k)


def solve_spd_linear(A, B):
    """Solve ``A X = B`` for symmetric positive definite ``A`` via Cholesky.

    A plain factorization is attempted first; if it fails the trace-scaled
    ridge repair is applied once and the factorization retried.

    Parameters
    ----------
    A : ndarray of shape (k, k)
        Symmetric positive (semi-)definite coefficient matrix.
    B : ndarray of shape (k, r) or (k,)
        Right-hand side.

    Returns
    -------
    X : ndarray
        Solution with the same trailing shape as ``B``.

    Raises
    ------
    SingularMatrix
        If ``A`` contains non-finite entries or cannot be factorized even
        after the ridge repair.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if not np.all(np.isfinite(A)):
        raise SingularMatrix("coefficient matrix contains non-finite entries")
    A = A + A.T
    A /= 2.0
    try:
        factor = scipy.linalg.cho_factor(A)
    except scipy.linalg.LinAlgError:
        try:
            factor = scipy.linalg.cho_factor(_trace_ridge(A))
        except scipy.linalg.LinAlgError as exc:
            raise SingularMatrix(
                "matrix is not positive definite even after ridge repair"
            ) from exc
    return scipy.linalg.cho_solve(factor, B)


def solve_sym_definite_geig(A, B, d):
    """Smallest ``d`` eigenpairs of the definite pencil ``A v = lam B v``.

    ``A`` is symmetric and ``B`` symmetric positive definite (possibly only
    semi-definite numerically, in which case the ridge repair is applied).
    The pencil is reduced through a triangular factorization of ``B`` to a
    standard symmetric problem, which is what LAPACK's ``sygvx`` family does
    under :func:`scipy.linalg.eigh`.

    Parameters
    ----------
    A : ndarray of shape (k, k)
        Symmetric left-hand matrix.  Symmetrized defensively on entry.
    B : ndarray of shape (k, k)
        Symmetric positive definite right-hand matrix.
    d : int
        Number of smallest eigenpairs requested, ``1 <= d <= k``.

    Returns
    -------
    pair : EigenPair
        ``pair.values`` ascending, shape ``(d,)``; ``pair.vectors`` of shape
        ``(k, d)`` with ``vectors.T @ B @ vectors = I_d`` up to 1e-6.

    Raises
    ------
    DimensionError
        If ``d`` is out of range.
    SingularPencil
        If ``B`` contains non-finite entries or cannot be factorized even
        after the ridge repair.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    k = A.shape[0]
    if not (1 <= d <= k):
        raise DimensionError(f"requested {d} eigenpairs from a {k}x{k} pencil")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
        raise SingularPencil("pencil contains non-finite entries")
    A = (A + A.T) / 2.0
    B = (B + B.T) / 2.0
    try:
        values, vectors = scipy.linalg.eigh(A, B, subset_by_index=(0, d - 1))
    except (scipy.linalg.LinAlgError, ValueError):
        try:
            values, vectors = scipy.linalg.eigh(
                A, _trace_ridge(B), subset_by_index=(0, d - 1)
            )
        except (scipy.linalg.LinAlgError, ValueError) as exc:
            raise SingularPencil(
                "right-hand matrix is not definite even after ridge repair"
            ) from exc
    return EigenPair(values, vectors)
