"""Dense linear-algebra kernels shared by the graph and projection solvers.

Matrices are plain ``numpy.ndarray`` objects.  Sample matrices throughout the
package are column-major in the semantic sense: a data matrix has shape
``(n_features, n_samples)`` and column ``j`` is one sample.  The helpers here
make no domain assumptions beyond symmetry/definiteness where stated.

Nominally definite matrices such as centred Gram matrices are frequently
semi-definite in exact arithmetic.  :func:`cholesky_factor` therefore first
attempts a plain Cholesky and, only when that fails, retries once after
adding a trace-scaled ridge ``eps * (trace(A)/k) * I``.  Repairing on demand
keeps the residual guarantees of the common well-conditioned case intact
while still handling rank-deficient inputs deterministically.  The
projection step factors its scatter matrix with it once per fit
(:func:`crossprop.solver.factor_scatter`) and reduces each iteration's
pencil to a standard symmetric eigenproblem through that factor, so a
rank-deficient scatter is repaired once per fit; the tests check that
reduction against LAPACK's generalized eigensolver,
``scipy.linalg.eigh(A, B)``.  The graph Laplacian's
free-free block is not solved here: :mod:`crossprop.propagation` solves it by
Jacobi-preconditioned conjugate gradients, so no ridge touches it.
"""

import numpy as np
import scipy.linalg

from .exceptions import ShapeError, SingularMatrix

RIDGE_EPS = 1e-6

BLOCK_BYTES = 4 << 20
"""Bytes of row blocks of a distance or cost matrix (4 MiB): a budget the workers share.

The graph step cuts each pass for ``w`` workers (at most
:data:`crossprop.graph.MAX_WORKERS`), and each reads blocks of
``BLOCK_BYTES / w``: as many rows as fit in that many bytes of their
candidate costs, all ``n`` columns for a target row, its class's sources
plus the targets for a source row.  Each worker holds a cost block and a
work block of that size, which the calling thread allocates once per pass,
so the step holds about two blocks of this budget at once, whatever the
worker count.  A pass is cut for no more workers than the budget holds
rows of its widest candidate set, so no worker's share is less than a row.
Under ``tracemalloc`` a structured 3-class step at n = 3000
held 1.1-1.6 blocks on one core and 2.1-2.2 on two or four, where a step that gave each block
its own ``np.argpartition`` index array held 3.1.  That working set can set
a fit's peak memory.
"""


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
    G = (G + G.T) / 2.0
    sq = np.diag(G)
    D = sq[:, None] + sq[None, :] - 2.0 * G
    np.maximum(D, 0.0, out=D)
    np.fill_diagonal(D, 0.0)
    return D


def block_rows(n_cols):
    """Rows of a float64 block of about :data:`BLOCK_BYTES` bytes with ``n_cols`` columns."""
    return max(1, BLOCK_BYTES // (8 * max(n_cols, 1)))


def sq_dist_operand(*blocks):
    """``[Z; 1; ||z||^2]`` for ``Z = [Z_1, Z_2, ...]``, ready for :func:`sq_dists_into`.

    ``Z`` is given as one or more column blocks with the same number of
    rows.  Each block is written once into the result and its norms are
    computed on the block itself, so the columns of ``Z`` are never joined
    into a copy of their own.  The result takes the memory order that
    ``np.vstack`` would give the joined ``[Z; 1; ||z||^2]``, Fortran when
    every block's columns are laid out closer than its rows, and equals
    that operand bit for bit.  Raises :class:`ShapeError` when the blocks
    do not share their rows.
    """
    blocks = [np.asarray(Z, dtype=float) for Z in blocks]
    h = blocks[0].shape[0]
    if any(Z.ndim != 2 or Z.shape[0] != h for Z in blocks):
        shapes = [Z.shape for Z in blocks]
        raise ShapeError(f"column blocks of shapes {shapes} do not share their rows")
    n = sum(Z.shape[1] for Z in blocks)
    fortran = all(Z.strides[0] < Z.strides[1] for Z in blocks)
    out = np.empty((h + 2, n), order="F" if fortran else "C")
    out[h] = 1.0
    at = 0
    for Z in blocks:
        cols = slice(at, at + Z.shape[1])
        out[:h, cols] = Z
        out[h + 1, cols] = np.einsum("ij,ij->j", Z, Z)
        at = cols.stop
    return out


def gather_columns(B, cols, out):
    """The columns ``cols`` of ``B``, gathered into the front of the flat buffer ``out``.

    The result keeps the memory order of ``B`` and is a view of ``out``,
    which needs at least ``B.shape[0] * cols.size`` entries.
    """
    h, q = B.shape[0], cols.size
    # np.take copies a source that is not C-ordered whole, so a
    # Fortran-ordered B is gathered as the rows of B.T; mode "raise" would
    # gather through a temporary.
    if B.flags.f_contiguous:
        gathered = out[: h * q].reshape(q, h)
        return np.take(B.T, cols, axis=0, out=gathered, mode="clip").T
    gathered = out[: h * q].reshape(h, q)
    return np.take(B, cols, axis=1, out=gathered, mode="clip")


def sq_dist_rows(B, rows, out):
    """``[-2 a; ||a||^2; 1]`` of the :func:`sq_dist_operand` columns ``rows`` of ``B``.

    ``rows`` is an array of column indices.  The result is a view of the
    flat buffer ``out`` (:func:`gather_columns`), and the gather is the
    only copy: it is scaled and its last two rows swapped in place, and
    ``B`` is left as it was.  It is the left operand of
    :func:`sq_dists_into`.
    """
    left = gather_columns(B, rows, out)
    left[:-2] *= -2.0
    left[-2:] = left[:-3:-1].copy()
    return left


def sq_dists_into(out, left, B):
    """Write the squared distances between two sets of points into ``out``.

    ``left`` holds ``p`` points as :func:`sq_dist_rows` returns them and
    ``B`` the :func:`sq_dist_operand` columns of ``q`` points, ``out`` is a
    ``(p, q)`` buffer.  One matrix product of ``[-2 a; ||a||^2; 1]`` with
    ``[b; 1; ||b||^2]`` gives every ``||a||^2 + ||b||^2 - 2 a.b``, which is
    clipped at zero.  Integer coordinates give the same exact values as
    :func:`pairwise_sq_dists`.  Returns ``out``.
    """
    np.matmul(left.T, B, out=out)
    np.maximum(out, 0.0, out=out)
    return out


def _trace_ridge(A):
    """Add the ridge ``RIDGE_EPS * (trace(A)/k) * I`` to ``A`` in place and return ``A``."""
    k = A.shape[0]
    A[np.diag_indices(k)] += RIDGE_EPS * np.trace(A) / k
    return A


def cholesky_factor(A):
    """Upper-triangular ``R`` with ``A = R.T @ R``, repairing ``A`` if needed.

    A plain factorization of the upper triangle is attempted first; if it
    fails the trace-scaled ridge repair is applied to ``A`` in place, once,
    and the factorization retried.  The strict lower triangle of ``R`` is
    zero.

    Parameters
    ----------
    A : ndarray of shape (k, k)
        Symmetric positive (semi-)definite matrix.  A caller that still needs
        it must pass a copy, since the repair writes into it.

    Returns
    -------
    R : ndarray of shape (k, k)
        Fortran-ordered upper Cholesky factor.

    Raises
    ------
    SingularMatrix
        If ``A`` contains non-finite entries or cannot be factorized even
        after the ridge repair.
    """
    if not np.all(np.isfinite(A)):
        raise SingularMatrix("matrix contains non-finite entries")
    try:
        return scipy.linalg.cholesky(A, check_finite=False)
    except scipy.linalg.LinAlgError:
        try:
            return scipy.linalg.cholesky(_trace_ridge(A), check_finite=False)
        except scipy.linalg.LinAlgError as exc:
            raise SingularMatrix(
                "matrix is not positive definite even after ridge repair"
            ) from exc


def solve_spd_linear(A, B):
    """Solve ``A X = B`` for symmetric positive definite ``A`` via :func:`cholesky_factor`.

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
    return scipy.linalg.cho_solve((cholesky_factor((A + A.T) / 2.0), False), B)
