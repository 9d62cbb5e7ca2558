"""Domain-discrepancy coefficient matrices.

For samples ordered source-first, the marginal coefficient matrix ``M0``
satisfies ``tr(Z M0 Z.T) = ||mean(Z_s) - mean(Z_t)||^2`` for any projected
sample matrix ``Z`` with samples as columns, i.e. it turns the empirical
maximum mean discrepancy between domains into a quadratic form.  The
class-conditional matrix does the same per class, using pseudo-labels on the
target side.  All constructors return symmetric positive semi-definite
matrices with zero row sums.  :func:`discrepancy_factor` gives the combined
matrix as an ``n x r`` factor (``r <= C + 1``) for callers that only need
``X M X.T``.
"""

import numpy as np

from .exceptions import ArgumentError, LabelError, ShapeError


def _marginal_vector(n_source, n_target):
    """Indicator ``e`` with ``M0 = outer(e, e)``: ``1/n_s`` on source, ``-1/n_t`` on target."""
    if n_source < 1 or n_target < 1:
        raise ArgumentError("marginal_mmd needs at least one sample per domain")
    return np.concatenate(
        [np.full(n_source, 1.0 / n_source), np.full(n_target, -1.0 / n_target)]
    )


def marginal_mmd(n_source, n_target):
    """Marginal domain-discrepancy matrix of shape ``(n, n)``.

    Entries are ``1/n_s^2`` on the source block, ``1/n_t^2`` on the target
    block and ``-1/(n_s * n_t)`` on the cross blocks.
    """
    e = _marginal_vector(n_source, n_target)
    return np.outer(e, e)


def conditional_mmd(source_labels, target_pseudo_labels, n_classes):
    """Class-conditional domain-discrepancy matrix.

    For each class ``c`` with ``a`` source members and ``b`` target members
    (by pseudo-label), the class indicator vector with entries ``1/a`` on
    source members and ``-1/b`` on target members contributes its outer
    product.  Classes missing from either domain are skipped.

    Parameters
    ----------
    source_labels : ndarray of shape (n_s,)
        True source labels.
    target_pseudo_labels : ndarray of shape (n_t,)
        Current target label estimates (true labels may be substituted for
        any labeled target prefix).
    n_classes : int
        Number of classes.

    Returns
    -------
    M : ndarray of shape (n_s + n_t, n_s + n_t)
    """
    source_labels = np.asarray(source_labels, dtype=int)
    target_pseudo_labels = np.asarray(target_pseudo_labels, dtype=int)
    n = source_labels.size + target_pseudo_labels.size
    return _add_class_blocks(
        np.zeros((n, n)), source_labels, target_pseudo_labels, n_classes
    )


def _class_vectors(source_labels, target_pseudo_labels, n_classes):
    """``(members, e)`` of every class present in both domains, in class order.

    ``members`` indexes the class's samples (source first, target offset by
    ``n_s``) and ``e`` holds their indicator entries, ``1/a`` on the ``a``
    source members and ``-1/b`` on the ``b`` target members.
    """
    for labels in (source_labels, target_pseudo_labels):
        if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
            raise LabelError("labels must lie in [0, n_classes)")
    n_s = source_labels.size
    for c in range(n_classes):
        src = np.flatnonzero(source_labels == c)
        tgt = np.flatnonzero(target_pseudo_labels == c)
        if src.size == 0 or tgt.size == 0:
            continue
        members = np.concatenate([src, n_s + tgt])
        e = np.concatenate(
            [np.full(src.size, 1.0 / src.size), np.full(tgt.size, -1.0 / tgt.size)]
        )
        yield members, e


def _add_class_blocks(M, source_labels, target_pseudo_labels, n_classes):
    """Add every class's conditional outer product to ``M`` in place; return ``M``.

    A class indicator vector is zero outside its class's members, and the
    classes partition the samples, so each outer product is added only on its
    own rows and columns: every entry of ``M`` receives at most one term, the
    same sum as adding the full ``n x n`` products one after another.
    """
    for members, e in _class_vectors(source_labels, target_pseudo_labels, n_classes):
        M[np.ix_(members, members)] += np.outer(e, e)
    return M


def _scale_to_unit_norm(M):
    """Divide ``M`` in place by its Frobenius norm unless that is zero; return ``M``."""
    norm = np.linalg.norm(M, "fro")
    if norm > 0.0:
        M /= norm
    return M


def combined_mmd(M0, Mc):
    """Marginal plus conditional matrix, scaled to unit Frobenius norm.

    Returns the zero matrix if the sum itself is zero.
    """
    M0 = np.asarray(M0, dtype=float)
    Mc = np.asarray(Mc, dtype=float)
    if M0.shape != Mc.shape:
        raise ShapeError(f"mismatched shapes {M0.shape} and {Mc.shape}")
    return _scale_to_unit_norm(M0 + Mc)


def discrepancy_matrix(source_labels, target_pseudo_labels, n_classes):
    """Combined matrix straight from the label vectors (marginal + conditional).

    Equal to ``combined_mmd(marginal_mmd(...), conditional_mmd(...))``, but the
    class blocks are added into the marginal matrix and scaled in place, so
    only one ``n x n`` array is allocated.
    """
    source_labels = np.asarray(source_labels, dtype=int)
    target_pseudo_labels = np.asarray(target_pseudo_labels, dtype=int)
    M = marginal_mmd(source_labels.size, target_pseudo_labels.size)
    _add_class_blocks(M, source_labels, target_pseudo_labels, n_classes)
    return _scale_to_unit_norm(M)


def discrepancy_factor(source_labels, target_pseudo_labels, n_classes):
    """Factor ``E`` of shape ``(n, r)`` with ``E @ E.T`` equal to :func:`discrepancy_matrix`.

    The combined matrix is a sum of ``r <= C + 1`` outer products, the
    marginal indicator and one per class present in both domains, so ``E``
    holds those vectors as columns.  Its scale comes from the ``r x r`` Gram,
    ``||E E.T||_F = ||E.T E||_F``, so no ``n x n`` array is formed.  Every
    column sums to zero, so with one source and one target sample all
    columns are multiples of ``(1, -1)`` and are folded into one; hence
    ``r < n`` always, which is how the solver tells a factor from ``M``.
    """
    source_labels = np.asarray(source_labels, dtype=int)
    target_pseudo_labels = np.asarray(target_pseudo_labels, dtype=int)
    columns = [_marginal_vector(source_labels.size, target_pseudo_labels.size)]
    n = columns[0].size
    for members, e in _class_vectors(source_labels, target_pseudo_labels, n_classes):
        column = np.zeros(n)
        column[members] = e
        columns.append(column)
    E = np.column_stack(columns)
    if E.shape[1] >= n:
        E = np.linalg.norm(E, axis=1, keepdims=True) * np.sign(E[:, :1])
    norm = np.linalg.norm(E.T @ E, "fro")
    if norm > 0.0:
        E /= np.sqrt(norm)
    return E
