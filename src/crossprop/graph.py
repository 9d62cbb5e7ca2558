"""Adaptive affinity-graph construction with closed-form row updates.

Each graph row solves, over a probability simplex, the problem

    min_s  sum_j cost[j] * s[j] + lam * sum_j s[j]**2
    s.t.   sum_j s[j] = mass,  s >= 0,

where ``lam`` is pinned so that the solution keeps exactly ``k`` nonzero
entries: with block costs sorted ascending as ``a[0] <= a[1] <= ...``,

    lam = (k * a[k] - sum(a[:k])) / (2 * mass).

Substituting this multiplier back into the KKT conditions gives the direct
formula implemented by :func:`_block_weights`; no iterative optimization is
involved.  Rows fall into two regimes:

* Target rows spend their whole unit mass over all other samples.
* Source rows are split: a ``delta`` share goes to same-class source
  neighbours (cross-class source pairs are excluded outright, which keeps
  the source part of the graph exactly block-diagonal by class) and the
  remaining ``1 - delta`` share to target neighbours.

Every row needs only its ``k + 1`` smallest block costs, so the updates work
on whole cost blocks at once: :func:`_closed_form` takes one ``np.partition``
per block and sorts only the ``k + 1`` kept values of each row, giving every
row's boundary ``a[k]`` and denominator.  A generic row's nonzero weights are
then ``(a[k] - c) / denom`` wherever ``c < a[k]``, the same arithmetic as
:func:`_block_weights`.  Only the fallback rows (at most one finite
candidate, ``k`` at least the finite count, or a degenerate denominator,
where ties need the stable column order) go through :func:`_block_weights`
one by one.  The multipliers ``lam`` of :func:`quadratic_charge` and
:func:`block_multiplier` come from the same helper.

A graph is stored as one ``scipy.sparse.csr_array`` from the graph step to
the CLI.  The solver's Laplacian is a ``csr_array`` too
(:func:`sparse_laplacian`); the dense :func:`laplacian` and
:meth:`AffinityGraph.toarray` are kept for inspection and tests.
"""

import os
import sys
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .exceptions import ShapeError
from .linalg import pairwise_sq_dists

DEGENERATE_DENOM = 1e-12


@dataclass
class AffinityGraph:
    """Row-stochastic affinity graph.

    ``rows`` is an ``(n, n)`` ``scipy.sparse.csr_array`` in canonical format
    (columns ascending within a row, no duplicates) with ``intp`` indices;
    each row's weights sum to one.  The self-learned graphs store only
    positive weights; a Gaussian kernel graph may also store weights that
    underflowed to zero.  ``structured`` records whether source rows were
    built with the class-block / ``delta`` split.
    """

    rows: scipy.sparse.csr_array
    n_source: int
    k: int
    delta: float
    structured: bool

    @property
    def n_samples(self):
        return self.rows.shape[0]

    def edges(self):
        """Stored entries as flat ``(rows, columns, weights)`` arrays in row order."""
        S = self.rows
        return np.repeat(np.arange(S.shape[0]), np.diff(S.indptr)), S.indices, S.data

    def toarray(self):
        """Dense ``(n, n)`` matrix of the stored rows."""
        return self.rows.toarray()


def affinity_cost(Z, F, beta, source_labels=None):
    """Pairwise cost matrix combining feature and soft-label distances.

    Parameters
    ----------
    Z : ndarray of shape (d, n)
        Current sample representation, columns as samples.
    F : ndarray of shape (n, C) or None
        Current soft labels; when ``None`` the label term is omitted.
    beta : float
        Weight of the soft-label distance term.
    source_labels : ndarray of shape (n_s,), optional
        When given, entries between source samples of different classes are
        masked to ``+inf`` (the block-diagonal constraint).

    Returns
    -------
    A : ndarray of shape (n, n)
        ``A[i, j] = ||Z[:,i] - Z[:,j]||^2 + beta * ||F[i] - F[j]||^2`` with
        an ``+inf`` diagonal and ``+inf`` on masked pairs.
    """
    Z = np.asarray(Z, dtype=float)
    n = Z.shape[1]
    if F is not None and np.asarray(F).shape[0] != n:
        raise ShapeError("soft labels must have one row per sample")
    if source_labels is not None and np.asarray(source_labels).size > n:
        raise ShapeError("more source labels than samples")
    A = pairwise_sq_dists(Z)
    if F is not None and beta != 0.0:
        label_cost = pairwise_sq_dists(np.asarray(F, dtype=float).T)
        label_cost *= beta
        A += label_cost
    if source_labels is not None:
        source_labels = np.asarray(source_labels, dtype=int)
        n_s = source_labels.size
        cross = source_labels[:, None] != source_labels[None, :]
        A[:n_s, :n_s][cross] = np.inf
    np.fill_diagonal(A, np.inf)
    return A


def _block_weights(costs, k):
    """Unit-mass weights over one candidate block.

    ``costs`` holds the finite costs of the candidates.  In the generic case
    (``len(costs) > k``) the closed form above yields at most ``k`` nonzero
    weights.  Small blocks (``len(costs) <= k``) keep every candidate with
    uniform weight, and a degenerate denominator (the ``k + 1`` nearest
    costs all equal) falls back to uniform weight on the ``k`` nearest,
    ties resolved by ascending candidate position.
    """
    q = costs.size
    if q == 0:
        return costs.copy()
    if q == 1:
        return np.ones(1)
    if k >= q:
        return np.full(q, 1.0 / q)
    order = np.argsort(costs, kind="stable")
    ranked = costs[order]
    boundary = ranked[k]
    denom = k * boundary - ranked[:k].sum()
    if denom <= DEGENERATE_DENOM:
        w = np.zeros(q)
        w[order[:k]] = 1.0 / k
        return w
    return np.maximum((boundary - costs) / denom, 0.0)


def _closed_form(costs, k):
    """Closed-form quantities of every row of a cost block.

    ``costs`` is a ``(rows, candidates)`` block with ``+inf`` marking the
    excluded candidates.  One partition per block finds each row's ``k + 1``
    smallest costs; only those are sorted.

    Returns
    -------
    boundary : ndarray of shape (rows,)
        ``a[k]`` of each row's ascending costs ``a`` (``+inf`` where the row
        has at most ``k`` finite candidates).
    denom : ndarray of shape (rows,)
        ``k * a[k] - sum(a[:k])`` (zero where the row has at most ``k``
        finite candidates), so ``denom > DEGENERATE_DENOM`` marks exactly the
        rows that :func:`_block_weights` treats generically.
    """
    finite = np.count_nonzero(np.isfinite(costs), axis=1)
    boundary = np.full(costs.shape[0], np.inf)
    denom = np.zeros(costs.shape[0])
    generic = finite > k
    if generic.any():
        part = costs[generic]
        part.partition(k, axis=1)
        ranked = np.sort(part[:, : k + 1], axis=1)
        boundary[generic] = ranked[:, k]
        denom[generic] = k * ranked[:, k] - ranked[:, :k].sum(axis=1)
    return boundary, denom


def _multipliers(denom, mass):
    """``lam = denom / (2 * mass)`` per row; zero on fallback rows or no mass."""
    lam = np.zeros(denom.shape)
    charged = (denom > DEGENERATE_DENOM) & (mass > 0.0)
    np.divide(denom, 2.0 * mass, out=lam, where=charged)
    return lam


def block_multiplier(costs, k, mass):
    """Implicit quadratic multiplier of one block's row subproblem.

    Returns the ``lam`` under which :func:`_block_weights` is the exact
    minimizer.  Blocks handled by a uniform fallback, and blocks without
    mass, carry no quadratic charge (``lam = 0``).
    """
    _, denom = _closed_form(np.asarray(costs, dtype=float).reshape(1, -1), k)
    return float(_multipliers(denom, mass)[0])


def _source_mass(src, delta):
    """Source-block mass per row: ``delta``, or zero without a same-class peer."""
    return np.where(np.isfinite(src).any(axis=1), float(delta), 0.0)


def _block_rows(costs, k, mass):
    """Nonzero weights of every row of a cost block, scaled by its row's mass.

    ``costs`` is a ``(rows, candidates)`` block (``+inf`` = excluded) and
    ``mass`` holds one mass per row.  Generic rows are computed together
    from :func:`_closed_form`; fallback rows go through
    :func:`_block_weights`.  Returns a CSR matrix of the block's shape.
    """
    boundary, denom = _closed_form(costs, k)
    batched = denom > DEGENERATE_DENOM
    rows, cols = np.nonzero(costs < np.where(batched, boundary, -np.inf)[:, None])
    weights = mass[rows] * ((boundary[rows] - costs[rows, cols]) / denom[rows])
    parts = [(rows, cols, weights)]
    for i in np.flatnonzero(~batched):
        cands = np.flatnonzero(np.isfinite(costs[i]))
        w = mass[i] * _block_weights(costs[i, cands], k)
        parts.append((np.full(cands.size, i), cands, w))
    rows, cols, weights = (np.concatenate(p) for p in zip(*parts))
    keep = weights > 0.0
    entries = (weights[keep], (rows[keep], cols[keep]))
    return scipy.sparse.coo_array(entries, shape=costs.shape).tocsr()


def update_target_rows(A, k, n_source):
    """Closed-form rows for the target samples.

    Each target row spends unit mass over all other samples (source and
    target alike) with at most ``k`` nonzero weights.  The whole target
    block ``A[n_source:]`` is solved with one :func:`_closed_form` call;
    fallback rows take the scalar :func:`_block_weights` path.

    Returns
    -------
    rows : csr_array of shape (n - n_source, n)
        One row per target sample, indexed by all ``n`` samples.
    """
    block = A[n_source:]
    return _block_rows(block, k, np.ones(block.shape[0]))


def update_source_rows(A, k, delta, source_labels):
    """Closed-form rows for the source samples.

    The same-class source block receives mass ``delta`` with at most
    ``min(k, class_size - 1)`` neighbours (the class block excludes the
    sample itself); the target block receives mass ``1 - delta`` with at
    most ``k`` neighbours.  A source sample whose class has no other member
    puts its entire mass on the target block, keeping the row stochastic.
    The source block ``A[:n_s, :n_s]`` and the target block
    ``A[:n_s, n_s:]`` each take one :func:`_closed_form` call; fallback
    rows take the scalar :func:`_block_weights` path.

    Returns
    -------
    rows : csr_array of shape (n_source, n)
        One row per source sample, indexed by all ``n`` samples.
    """
    n_s = np.asarray(source_labels).size
    src = A[:n_s, :n_s]
    src_mass = _source_mass(src, delta)
    src_rows = _block_rows(src, k, src_mass)
    tgt_rows = _block_rows(A[:n_s, n_s:], k, 1.0 - src_mass)
    return scipy.sparse.hstack([src_rows, tgt_rows], format="csr")


def build_graph(A, k, delta, source_labels, structured=True):
    """Assemble an :class:`AffinityGraph` from a cost matrix.

    With ``structured=True`` source rows use the class-block / ``delta``
    split and target rows the plain update.  With ``structured=False`` every
    row is treated like a target row (unit mass over all finite candidates).
    """
    n_s = np.asarray(source_labels).size if source_labels is not None else 0
    if structured:
        src_rows = update_source_rows(A, k, delta, source_labels)
        tgt_rows = update_target_rows(A, k, n_s)
        rows = scipy.sparse.vstack([src_rows, tgt_rows], format="csr")
    else:
        rows = update_target_rows(A, k, 0)
    return AffinityGraph(
        rows=rows,
        n_source=n_s,
        k=k,
        delta=delta,
        structured=structured,
    )


def init_graph(X, k, delta, source_labels, structured=True):
    """Initial graph built from raw-feature distances only (no label term)."""
    A = affinity_cost(X, None, 0.0, source_labels if structured else None)
    return build_graph(A, k, delta, source_labels, structured=structured)


def gaussian_knn_graph(Z, k, n_source, width=1.0):
    """Fixed k-nearest-neighbour graph with Gaussian kernel weights.

    Weights are ``exp(-dist^2 / (2 * width^2))`` over each sample's ``k``
    nearest neighbours, normalized to unit row sums.  This is the
    predefined-similarity alternative to the self-learned graph.  One
    stable sort along the rows picks every row's neighbours, ties to the
    lower column; a row whose kernel weights all underflow is uniform.
    """
    D = pairwise_sq_dists(Z)
    np.fill_diagonal(D, np.inf)
    n = D.shape[0]
    k_eff = min(k, n - 1)
    cols = np.sort(np.argsort(D, axis=1, kind="stable")[:, :k_eff], axis=1)
    weights = np.exp(-np.take_along_axis(D, cols, axis=1) / (2.0 * width**2))
    total = weights.sum(axis=1)
    vanished = total <= 0.0
    weights /= np.where(vanished, 1.0, total)[:, None]
    weights[vanished] = 1.0 / k_eff
    indptr = np.arange(0, n * k_eff + 1, k_eff)
    rows = scipy.sparse.csr_array((weights.ravel(), cols.ravel(), indptr), shape=(n, n))
    return AffinityGraph(
        rows=rows,
        n_source=n_source,
        k=k_eff,
        delta=0.0,
        structured=False,
    )


def laplacian(graph):
    """Symmetrized affinity and its combinatorial Laplacian.

    Parameters
    ----------
    graph : AffinityGraph or ndarray
        Row-stochastic affinity matrix (a graph's CSR rows or dense).

    Returns
    -------
    W : ndarray of shape (n, n)
        ``(S + S.T) / 2``, symmetric with zero diagonal.
    L : ndarray of shape (n, n)
        ``diag(W @ 1) - W``.  Callers that need a scale-free Laplacian can
        divide by ``numpy.linalg.norm(L, 'fro')``.
    """
    if isinstance(graph, AffinityGraph):
        S = graph.rows
    else:
        S = np.asarray(graph, dtype=float)
    # A sparse S + S.T is densified once, without a dense S.
    W = S + S.T
    if scipy.sparse.issparse(W):
        W = W.toarray()
    W /= 2.0
    L = 0.0 - W
    L[np.diag_indices_from(L)] += W.sum(axis=1)
    return W, L


def sparse_laplacian(graph):
    """Laplacian of :func:`laplacian` as a ``csr_array``, straight from the graph's rows.

    ``W = (S + S.T) / 2`` stays sparse, so ``L = diag(W @ 1) - W`` stores
    only the diagonal and the graph's symmetrized edges (about ``2 n k``
    entries) and never forms an ``n x n`` array.  Entries equal those of the
    dense Laplacian up to the rounding of the degree sums.
    """
    W = graph.rows + graph.rows.T
    W.data /= 2.0
    return scipy.sparse.diags_array(W.sum(axis=1), format="csr") - W


def quadratic_charge(A, graph):
    """Total quadratic regularization ``sum_i sum_b lam_{i,b} * ||row block||^2``.

    Multipliers are recomputed from the cost matrix ``A`` exactly as the row
    updates pin them, block by block, so the value is consistent with the
    row subproblems the graph solves.  Each block takes one
    :func:`_closed_form` call; fallback rows carry ``lam = 0``.  The block
    sums of squared weights come from the graph's flat edge arrays, counting
    only edges with a finite cost.
    """
    n_s = graph.n_source if graph.structured else 0
    # lam[i, 0] charges the source block of a source row or the whole row of
    # any other row; lam[i, 1] charges the target block of a source row.
    lam = np.zeros((graph.n_samples, 2))
    _, denom = _closed_form(A[n_s:], graph.k)
    lam[n_s:, 0] = _multipliers(denom, 1.0)
    if n_s:
        src = A[:n_s, :n_s]
        src_mass = _source_mass(src, graph.delta)
        _, denom = _closed_form(src, graph.k)
        lam[:n_s, 0] = _multipliers(denom, src_mass)
        _, denom = _closed_form(A[:n_s, n_s:], graph.k)
        lam[:n_s, 1] = _multipliers(denom, 1.0 - src_mass)
    rows, cols, weights = graph.edges()
    block = (rows < n_s) & (cols >= n_s)
    charged = np.isfinite(A[rows, cols])
    return float(np.sum(lam[rows, block.astype(int)][charged] * weights[charged] ** 2))


def write_edges(graph, sink=None):
    """Write ``i j w`` triples sorted by ``(i, j)`` with 12-digit weights.

    ``sink`` is a writable text stream or a path; defaults to stdout.  The
    canonical CSR rows are already sorted.
    """
    if sink is None:
        sink = sys.stdout
    if isinstance(sink, (str, bytes, os.PathLike)):
        with open(sink, "w") as fh:
            write_edges(graph, fh)
            return
    for i, j, w in zip(*(a.tolist() for a in graph.edges())):
        sink.write(f"{i} {j} {w:.12g}\n")
