"""Adaptive affinity-graph construction with closed-form row updates.

Each graph row solves, over a probability simplex, the problem

    min_s  sum_j cost[j] * s[j] + lam * sum_j s[j]**2
    s.t.   sum_j s[j] = mass,  s >= 0,

where ``lam`` is pinned so that the solution keeps exactly ``k`` nonzero
entries: with block costs sorted ascending as ``a[0] <= a[1] <= ...``,

    lam = (k * a[k] - sum(a[:k])) / (2 * mass).

Substituting this multiplier back into the KKT conditions gives the direct
formula implemented by :func:`_block_weights`; no iterative optimization is
involved.  :func:`build_graph` computes every row.  Rows fall into two
regimes:

* Target rows spend their whole unit mass over all other samples.
* Source rows are split: a ``delta`` share goes to same-class source
  neighbours and the remaining ``1 - delta`` share to target neighbours.
  A source row's candidates are its own class's sources and the targets
  only, so cross-class source pairs are excluded outright (their costs are
  never computed) and the source part of the graph is exactly
  block-diagonal by class.  Only :func:`build_graph`'s source labels
  decide this split, and the graph records them.

Every row needs only its ``k + 1`` smallest block costs, so the updates work
on blocks of rows at once: :func:`_closed_form` partitions a copy of each
cost block in place, which puts every row's ``k + 1`` smallest costs first,
and sorts only those, giving every row's smallest cost, boundary ``a[k]``
and denominator.  A row is generic when its ``a[k]`` is finite and its
denominator is not degenerate.  One comparison of the block with each
generic row's ``a[k]`` (:func:`_below`) then gives the block's edges as
flat ``(row, col)`` pairs, row-major, and their weights
``(a[k] - c) / denom``, the same arithmetic as :func:`_block_weights`.  A
tie at ``a[k]`` carries zero weight and is never selected, so no result
depends on the order of tied costs.  A source row's ``delta`` share needs a
same-class peer, which exists exactly when its smallest source cost is
finite.  Only the fallback rows (at most ``k`` finite candidates, or a
degenerate denominator) need the order of tied costs;
:func:`_stable_smallest` ranks just those rows by one stable sort, ties to
the lower column, and they get uniform weights as in
:func:`_block_weights`.  Each block's flat ``(row, col, weight)`` edges
go straight into their rows' slots of the graph.  The multipliers ``lam`` of
:func:`quadratic_charge` and :func:`block_multiplier` come from the same
closed form.

The graph step reads its costs by groups of rows that share their
candidate columns (:func:`_row_groups`): the source rows of each class
against that class's sources and against the targets, and the target rows
against all samples.  The rows are independent, so :func:`_map_row_blocks`
runs the blocks of rows of a pass on one worker per core, up to
:data:`MAX_WORKERS`.  A pass is cut for ``w`` workers by its size alone,
and each worker reads blocks of about ``crossprop.linalg.BLOCK_BYTES / w``
bytes of candidate costs into a cost buffer and a work buffer that the
calling thread allocates once per pass; the selected local columns map
back through the group's column sets.  Each block writes the
multipliers and edges of its own rows into place, so the graph depends
neither on thread scheduling nor on the host's core count.  Blocks of
other shapes change the BLAS products that compute the costs, so a
different :data:`crossprop.linalg.BLOCK_BYTES` can move weights in the
last place (about 1e-13).  :func:`build_graph` and
:func:`quadratic_charge` accept a dense cost array (:func:`affinity_cost`),
read as ``A[np.ix_(rows, cols)]``, or a :class:`RowBlockCost`, which
computes each block from the sample coordinates; both go through the same
per-block step.  The fit only uses :class:`RowBlockCost`, so it never
builds an ``n x n`` cost matrix; it holds the cost-space coordinates of
:func:`cost_space`, so each block of costs is one product.
:func:`gaussian_knn_graph` and :func:`crossprop.baselines.nearest_neighbor`
pick their nearest candidates through the same map over row blocks, the kNN
graph with the same selection.  Every graph the module builds carries the
row multipliers of the closed form it ran, so :func:`quadratic_charge`
reads them from the :class:`AffinityGraph` when it is given no cost and
never runs the closed form a second time for it.

A graph is stored as one ``scipy.sparse.csr_array`` from the graph step to
the CLI.  The solver reads each graph through one operator, ``D - S``
(:func:`row_laplacian`), a ``csr_array`` whose diagonal holds the only
degree sums; its symmetric part is the Laplacian (:func:`sparse_laplacian`).
The dense :func:`laplacian` of an :class:`AffinityGraph` and
:meth:`AffinityGraph.toarray` are kept for inspection and tests.
"""

import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse

from .data import _as_labels, _check_count
from .exceptions import ArgumentError, ShapeError
from .linalg import (
    block_rows,
    gather_columns,
    pairwise_sq_dists,
    sq_dist_operand,
    sq_dist_rows,
    sq_dists_into,
)

DEGENERATE_DENOM = 1e-12

MAX_WORKERS = 2
"""Most workers a pass of :func:`_map_row_blocks` is cut for.

Every timing behind this module's parallel rules was taken on a 2-core
Xeon, and one worker at a time computes costs.  On one core that was about
31 of the 80 ms of the fit's structured graph step at n = 3000 while it
read feature and label costs as two products, and about 14 of 68 ms since
it reads them from the cost-space coordinates of :func:`cost_space`, so no
core count could make that step more than about 5 times faster.  A host
with more cores has not been measured; until one is, no pass runs on more
than two workers.
"""

PARALLEL_ENTRIES = 1 << 19
"""Fewest cost entries a pass of :func:`_map_row_blocks` gives each worker.

A smaller pass runs on fewer workers, and a pass of less than twice this
many entries runs on the calling thread alone, in blocks of the whole
:data:`crossprop.linalg.BLOCK_BYTES`.  Below that size, starting threads
and handing the interpreter lock between them cost about what the second
core saves.  On a 2-core Xeon, a structured graph step at n = 900 (675 000
entries) took 12.8 ms on two workers against 11.8 ms on one with one BLAS
thread, and the n = 900 fits of the ablation acceptance test took 6.8 s
against 5.2 s with two BLAS threads, while a step at n = 3000 (7.5 million
entries) took 56 ms against 86 ms with one BLAS thread.  No pass runs on
more than :data:`MAX_WORKERS` workers, the count these figures cover.
"""


@dataclass(frozen=True)
class AffinityGraph:
    """Row-stochastic affinity graph.

    ``rows`` is an ``(n, n)`` ``scipy.sparse.csr_array`` in canonical format
    (columns ascending within a row, no duplicates) with ``intp`` indices;
    each row's weights sum to one.  The self-learned graphs store only
    positive weights; a Gaussian kernel graph may also store weights that
    underflowed to zero.  ``source_labels`` holds the classes of the source
    rows, which were built with the class-block / ``delta`` split; it is
    ``None`` for an unstructured or Gaussian graph, whose rows all spend unit
    mass over all their candidates.  ``multipliers`` is the ``(n, 2)`` array
    of row multipliers ``lam`` pinned while building the rows (see
    :func:`build_graph`; a Gaussian graph's are those of its ``k`` nearest
    distances), which :func:`quadratic_charge` charges.  Every graph this
    module builds carries them; a graph built by hand may leave them
    ``None`` and is then charged only under a given cost.  It is frozen.
    """

    rows: scipy.sparse.csr_array
    k: int
    delta: float
    source_labels: np.ndarray | None = None
    multipliers: np.ndarray | None = None

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


def _check_cost_inputs(n, F, source_labels, beta=0.0):
    if F is not None and np.asarray(F).shape[0] != n:
        raise ShapeError("soft labels must have one row per sample")
    if source_labels is not None and np.asarray(source_labels).size > n:
        raise ShapeError("more source labels than samples")
    if not 0.0 <= beta < np.inf:
        raise ArgumentError(f"beta={beta} must be finite and non-negative")


def _coordinates(Z, F=None):
    """``Z`` and ``F`` as float arrays, checked as sample coordinates and soft labels.

    Raises :class:`ShapeError` when ``Z`` or ``F`` is not 2-D, and
    :class:`ArgumentError` when either holds a value that is not finite: its
    costs would be NaN or infinite, and no graph row is defined over them.
    """
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2:
        raise ShapeError(f"coordinates of shape {Z.shape} are not a 2-D matrix")
    if not np.isfinite(Z).all():
        raise ArgumentError("coordinates must be finite")
    if F is not None:
        F = np.asarray(F, dtype=float)
        if F.ndim != 2:
            raise ShapeError(f"soft labels of shape {F.shape} are not a 2-D matrix")
        if not np.isfinite(F).all():
            raise ArgumentError("soft labels must be finite")
    return Z, F


def affinity_cost(Z, F, beta, source_labels=None):
    """Pairwise cost matrix combining feature and soft-label distances.

    The fit never builds this matrix; it reads the same costs a block of
    rows at a time through :class:`RowBlockCost`.  This dense form is kept
    for inspection and as the tests' reference.

    Parameters
    ----------
    Z : ndarray of shape (d, n)
        Current sample representation, columns as samples.
    F : ndarray of shape (n, C) or None
        Current soft labels; when ``None`` the label term is omitted.
    beta : float
        Weight of the soft-label distance term, finite and non-negative.
    source_labels : ndarray of shape (n_s,), optional
        When given, entries between source samples of different classes are
        masked to ``+inf`` (the block-diagonal constraint).

    Returns
    -------
    A : ndarray of shape (n, n)
        ``A[i, j] = ||Z[:,i] - Z[:,j]||^2 + beta * ||F[i] - F[j]||^2`` with
        an ``+inf`` diagonal and ``+inf`` on masked pairs.

    Raises
    ------
    ShapeError
        If ``Z`` or ``F`` is not 2-D, or ``F`` or ``source_labels`` do not
        fit the samples.
    ArgumentError
        If ``Z`` or ``F`` holds a non-finite value, or ``beta`` is not
        finite and non-negative.
    """
    Z, F = _coordinates(Z, F)
    _check_cost_inputs(Z.shape[1], F, source_labels, beta)
    A = pairwise_sq_dists(Z)
    if F is not None and beta != 0.0:
        A += beta * pairwise_sq_dists(F.T)
    if source_labels is not None:
        source_labels = _as_labels(source_labels)
        n_s = source_labels.size
        cross = source_labels[:, None] != source_labels[None, :]
        A[:n_s, :n_s][cross] = np.inf
    np.fill_diagonal(A, np.inf)
    return A


def cost_space(Z, F, beta):
    """The cost-space coordinates ``[Z; sqrt(beta) * F.T]``, or ``Z`` when ``beta`` is 0.

    Their squared distances are the costs of :func:`affinity_cost`,
    ``||z_i - z_j||^2 + beta * ||F_i - F_j||^2``, up to rounding, so
    ``RowBlockCost(cost_space(Z, F, beta))`` computes each block of costs
    with one product.  The values are exactly those of
    :func:`affinity_cost` when ``sqrt(beta)`` is exact and the coordinates
    and soft labels are small integers.  Raises as :func:`affinity_cost`
    does.
    """
    Z, F = _coordinates(Z, F)
    _check_cost_inputs(Z.shape[1], F, None, beta)
    if F is None or beta == 0.0:
        return Z
    return np.vstack([Z, np.sqrt(beta) * F.T])


class RowBlockCost:
    """The unmasked cost matrix of :func:`affinity_cost`, served a block at a time.

    ``U`` holds the cost-space coordinates of :func:`cost_space`, one column
    per sample; callers with coordinates ``Z``, soft labels ``F`` and a
    weight ``beta`` write ``RowBlockCost(cost_space(Z, F, beta))``.  ``U``
    may also come as column blocks with the same rows,
    ``RowBlockCost(U_1, U_2, ...)``, the costs of their joined columns:
    :func:`crossprop.linalg.sq_dist_operand` writes each block once into
    the one operand the costs are read from, so the blocks are never
    joined into a copy, and the costs equal those of the joined ``U`` bit
    for bit.  Each cost is the squared distance between two columns of
    ``U``, computed with one product per block.  :meth:`fill` computes the
    costs of a few rows against their candidate column sets into buffers that
    :func:`_map_row_blocks` allocates once per pass, so no ``n x n`` array
    is built.  Entries are the costs of :func:`affinity_cost` up to rounding
    (exactly the same for small-integer coordinates and soft labels and an
    exact ``sqrt(beta)``); the rounding can move graph weights in the last
    place (about 1e-13).

    There is no mask: the only infinite cost is the diagonal, which no graph
    stores, and the coordinates are checked as in :func:`affinity_cost`, so
    every other cost is finite.  The graph step hands a structured source
    row only its own class's sources and the targets as candidates
    (:func:`_row_groups`), so the cross-class source pairs are never
    computed.
    """

    def __init__(self, *blocks):
        self._operand = sq_dist_operand(*(_coordinates(U)[0] for U in blocks))
        self.shape = (self._operand.shape[1],) * 2

    def work_size(self, n_rows, col_sets):
        """Entries of the work buffer :meth:`fill` needs for ``n_rows`` rows against ``col_sets``."""
        gathered = max(0 if _consecutive(cols) else cols.size for cols in col_sets)
        return self._operand.shape[0] * (n_rows + gathered)

    def fill(self, rows, col_sets, out, work):
        """The costs of ``rows`` against each of ``col_sets``, one block per set.

        ``col_sets`` are ascending arrays of column indices.  The blocks are
        consecutive views of the flat buffer ``out``.  ``work`` is a flat
        buffer of :meth:`work_size` entries, which holds the left operand
        and the column sets' coordinates, so nothing block-sized is
        allocated.  A set of consecutive columns is read as a view of the
        coordinates, any other set is gathered.  A row's own column costs
        ``+inf``.
        """
        op = self._operand
        left = sq_dist_rows(op, rows, work)
        rest = work[left.size :]
        blocks, at = [], 0
        for cols in col_sets:
            block = out[at : at + rows.size * cols.size].reshape(rows.size, -1)
            at += block.size
            if _consecutive(cols):
                right = op[:, cols[0] : cols[-1] + 1]
            else:
                right = gather_columns(op, cols, rest)
            sq_dists_into(block, left, right)
            pos = np.searchsorted(cols, rows)
            own = pos < cols.size
            own[own] = cols[pos[own]] == rows[own]
            block[own, pos[own]] = np.inf
            blocks.append(block)
        return blocks


def _consecutive(cols):
    """Whether the ascending column indices ``cols`` are consecutive and not empty."""
    return cols.size > 0 and cols[-1] - cols[0] + 1 == cols.size


def _row_groups(n, labels):
    """The graph step's rows in groups that share their candidate column sets.

    Returns ``(rows, col_sets)`` pairs, both ascending index arrays.
    ``labels`` are the classes of the first ``labels.size`` samples, the
    sources, or ``None``.  A source row of class ``c`` has two column sets,
    the sources ``flatnonzero(labels == c)`` and the targets (the
    class-block / ``delta`` split).  Every other row has all ``n`` columns.
    """
    everything = np.arange(n)
    if labels is None:
        return [(everything, (everything,))]
    targets = everything[labels.size :]
    groups = [
        (same, (same, targets))
        for same in (np.flatnonzero(labels == c) for c in np.unique(labels))
    ]
    return groups + [(targets, (everything,))]


def _worker_count():
    """Workers of :func:`_map_row_blocks`: the cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _map_row_blocks(A, groups, task):
    """``task(rows, col_sets, costs, work)`` for every row block of ``groups``.

    ``groups`` holds ``(rows, col_sets)`` pairs (:func:`_row_groups`).  ``A``
    is a dense cost array, read as ``A[np.ix_(rows, cols)]``, or a
    :class:`RowBlockCost`, which computes the blocks
    (:meth:`RowBlockCost.fill`); ``costs`` lists one block per column set.
    ``work`` is a flat float buffer of at least the largest block's size,
    which ``task`` may overwrite.  ``task`` returns nothing: it writes the
    results of its ``rows`` into place, and no two blocks share a row.

    A pass is cut for ``w`` workers from its own size alone: at most
    :data:`MAX_WORKERS`, at most as many as give each worker
    :data:`PARALLEL_ENTRIES` cost entries, and at most as many as
    :data:`crossprop.linalg.BLOCK_BYTES` holds rows of the widest group, so
    no worker's share of the budget falls below one row.  Each group's rows
    come in blocks of :func:`crossprop.linalg.block_rows` rows of ``w``
    times the group's candidate width, an equal share of the budget for
    each worker.  The block shapes, and with them the bits of every result,
    do not depend on the host.  The pass runs on ``w`` workers, or on as
    many as there are cores (:func:`_worker_count`) or blocks if fewer.
    The calling thread allocates every worker's cost and work buffers once
    per call, as views of one array, so a worker reading a
    :class:`RowBlockCost` allocates nothing block-sized.  (glibc trims a
    free heap top past twice its largest freed ``mmap`` block: separate
    buffers freed together can pass that, one array of them all cannot.)
    The calling thread is one of the workers, and the others run on a thread
    pool opened and closed within the call; a pass with one worker runs
    inline.  One worker at a time computes costs, so at most one BLAS
    product runs at once: a single-threaded BLAS overlaps with the other
    workers' selections, and a multithreaded one is not oversubscribed.
    Each block writes only its own rows, so the results do not depend on
    thread scheduling.
    """
    streamed = isinstance(A, RowBlockCost)
    entries = sum(rows.size * sum(map(len, col_sets)) for rows, col_sets in groups)
    widest = max(sum(map(len, col_sets)) for _, col_sets in groups)
    workers = max(1, min(MAX_WORKERS, entries // PARALLEL_ENTRIES, block_rows(widest)))
    chunks, cost_size, work_size = [], 0, 0
    for rows, col_sets in groups:
        widths = [cols.size for cols in col_sets]
        step = block_rows(sum(widths) * workers)
        n_rows = min(step, rows.size)
        work_size = max(work_size, n_rows * max(widths))
        if streamed and n_rows:
            cost_size = max(cost_size, n_rows * sum(widths))
            work_size = max(work_size, A.work_size(n_rows, col_sets))
        chunks += [(rows[i : i + step], col_sets) for i in range(0, rows.size, step)]
    count = min(workers, _worker_count(), len(chunks))
    scratch = np.empty((count, cost_size + work_size))
    buffers = [(each[:cost_size], each[cost_size:]) for each in scratch]

    costing = threading.Lock()

    def run(chunk, buffer):
        rows, col_sets = chunk
        out, work = buffer
        if streamed:
            with costing:
                costs = A.fill(rows, col_sets, out, work)
        else:
            costs = [A[np.ix_(rows, cols)] for cols in col_sets]
        task(rows, col_sets, costs, work)

    if len(buffers) <= 1:
        for chunk in chunks:
            run(chunk, buffers[0])
        return
    pending = iter(chunks)
    lock = threading.Lock()

    def drain(buffer):
        while True:
            with lock:
                chunk = next(pending, None)
            if chunk is None:
                return
            run(chunk, buffer)

    # The calling thread is one of the workers.
    with ThreadPoolExecutor(len(buffers) - 1) as pool:
        helpers = [pool.submit(drain, buffer) for buffer in buffers[1:]]
        drain(buffers[0])
        for helper in helpers:
            helper.result()


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


class _Selection(NamedTuple):
    """Each row's closed-form constants in a cost block.

    Only the constants are kept: a generic row's edges are its at most
    ``k`` costs below ``a[k]``, which :func:`_below` finds from them.
    """

    smallest: np.ndarray  # (rows,) a[0], +inf for a row without candidates
    boundary: np.ndarray  # (rows,) a[k], +inf when the row has at most k finite costs
    denom: np.ndarray  # (rows,) k * a[k] - sum(a[:k]), zero off generic rows


def _closed_form(costs, k, work):
    """Closed-form constants of every row of a cost block, in one pass.

    ``costs`` is a ``(rows, candidates)`` block with ``+inf`` marking the
    excluded candidates; ``work`` is a flat float buffer of at least
    ``costs.size`` entries, which is overwritten.  A copy of the block in
    ``work`` is partitioned in place, which puts each row's ``k + 1``
    smallest costs first; only those are sorted, giving ``a[0]``, the
    boundary ``a[k]`` and the denominator.  A row is generic exactly when
    its ``a[k]`` is finite (it has more than ``k`` finite candidates), and
    ``denom`` is computed on those rows only, so ``denom > DEGENERATE_DENOM``
    marks exactly the rows that :func:`_block_weights` treats generically.
    """
    n_rows, n_cols = costs.shape
    s = min(k + 1, n_cols)
    ranked = np.full((n_rows, 1), np.inf)
    if s:
        copy = work[: costs.size].reshape(costs.shape)
        np.copyto(copy, costs)
        copy.partition(s - 1, axis=1)
        ranked = np.sort(copy[:, :s], axis=1)
    boundary = np.full(n_rows, np.inf)
    denom = np.zeros(n_rows)
    if s > k:
        boundary = ranked[:, k]
        generic = boundary < np.inf
        top = ranked[generic]
        denom[generic] = k * top[:, k] - top[:, :k].sum(axis=1)
    return _Selection(ranked[:, 0], boundary, denom)


def _below(costs, limit, work):
    """Row-major ``(row, col)`` of the ``costs`` strictly below their row's ``limit``.

    The mask is written over the flat float buffer ``work``, which needs
    ``costs.size / 8`` entries.  Each row's columns come out ascending.
    """
    below = work.view(np.bool_)[: costs.size].reshape(costs.shape)
    np.less(costs, limit[:, None], out=below)
    return np.divmod(np.flatnonzero(below), max(costs.shape[1], 1))


def _multipliers(denom, mass):
    """``lam = denom / (2 * mass)`` per row; zero on fallback rows or no mass."""
    lam = np.zeros(denom.shape)
    charged = (denom > DEGENERATE_DENOM) & (mass > 0.0)
    np.divide(denom, 2.0 * mass, out=lam, where=charged)
    return lam


def block_multiplier(costs, k, mass):
    """Implicit quadratic multiplier of one block's row subproblem.

    Returns the ``lam`` under which :func:`_block_weights` is the exact
    minimizer, from the ``denom`` of the one-row :func:`_closed_form`
    selection.  Blocks handled by a uniform fallback, and blocks without
    mass, carry no quadratic charge (``lam = 0``).
    """
    costs = np.asarray(costs, dtype=float).reshape(1, -1)
    denom = _closed_form(costs, k, np.empty(costs.size)).denom
    return float(_multipliers(denom, mass)[0])


def _stable_smallest(costs, rows, s):
    """Columns of the ``s`` smallest costs of each of ``rows``, ascending.

    One stable sort of each whole row ranks its costs, so of several tied
    costs the lower columns come first, as in :func:`_block_weights`.
    """
    return np.sort(np.argsort(costs[rows], axis=1, kind="stable")[:, :s], axis=1)


def _block_edges(costs, k, mass, sel, work):
    """Flat ``(row, col, weight)`` edges of a cost block's rows, scaled by ``mass``.

    ``costs`` is a ``(rows, candidates)`` block (``+inf`` = excluded), ``sel``
    its :func:`_closed_form` and ``work`` a buffer for :func:`_below`.  A
    generic row weighs its costs ``c`` below ``a[k]`` by ``(a[k] - c) /
    denom``; a tie at ``a[k]`` is not selected.  A fallback row spends its
    mass uniformly over the finite costs among its ``k`` smallest by
    :func:`_stable_smallest`, as :func:`_block_weights` does.  Each row's
    columns are ascending; a weight is zero where the mass is.
    """
    generic = sel.denom > DEGENERATE_DENOM
    row, col = _below(costs, np.where(generic, sel.boundary, -np.inf), work)
    weight = mass[row] * ((sel.boundary[row] - costs[row, col]) / sel.denom[row])
    fallback = np.flatnonzero(~generic)
    top = _stable_smallest(costs, fallback, k)
    finite = np.isfinite(costs[fallback[:, None], top])
    share = mass[fallback] * (1.0 / np.maximum(np.count_nonzero(finite, axis=1), 1))
    picked, slot = np.nonzero(finite)
    return (
        np.concatenate([row, fallback[picked]]),
        np.concatenate([col, top[picked, slot]]),
        np.concatenate([weight, share[picked]]),
    )


def build_graph(A, k, delta, source_labels):
    """Assemble an :class:`AffinityGraph` from a cost matrix.

    ``A`` is a dense ``(n, n)`` cost array such as :func:`affinity_cost`
    returns, or a :class:`RowBlockCost`; both are read one block of rows at
    a time, so the fit never holds more than one block of costs.  With
    ``source_labels`` the first ``source_labels.size`` rows, the sources,
    use the class-block / ``delta`` split and the other rows the plain
    update; a source row's source candidates are the other sources of its
    class, whatever ``A`` holds for the other classes, and the graph
    records those labels.  With ``source_labels=None`` every row is treated
    like a target row (unit mass over all finite candidates).  A dense
    ``A`` may hold ``+inf``, which excludes a candidate.

    Each block of rows takes one :func:`_closed_form` per candidate column
    set (:func:`_row_groups`), whose :func:`_block_edges` local columns map
    back through the set; a split row's mass comes from its source block.
    The CSR slots are sized before the pass, ``min(k, size)`` per row and
    column set, so a block allocates nothing that outlives it: it writes its
    rows' multipliers and row-sorted positive edges in place, and rows left
    with empty slots close up after the pass, into new arrays.  The graph
    keeps the ``(n, 2)`` multipliers for :func:`quadratic_charge`:
    ``lam[i, 0]`` charges a source row's source block or any other row
    whole, ``lam[i, 1]`` a source row's target block.

    Raises :class:`ArgumentError` when ``k`` is not an integer of at least
    1, ``delta`` is not in ``[0, 1]`` or a dense ``A`` holds a NaN or
    ``-inf``, and :class:`ShapeError` when ``A`` is not square or there are
    as many source labels as rows or more: a source row's ``1 - delta``
    share needs target rows.
    """
    _check_count("k", k, 1)
    if not 0.0 <= delta <= 1.0:
        raise ArgumentError(f"delta={delta} must lie in [0, 1]")
    if len(A.shape) != 2 or A.shape[0] != A.shape[1]:
        raise ShapeError(f"cost of shape {A.shape} is not square")
    n = A.shape[0]
    labels = None
    if source_labels is not None:
        labels = _as_labels(source_labels)
        _check_cost_inputs(n, None, labels)
        if labels.size == n:
            raise ShapeError("source labels for every row leave no target rows")
    if not isinstance(A, RowBlockCost) and not np.all(A > -np.inf):
        # +inf excludes a candidate; a NaN or -inf cost has no row solution.
        raise ArgumentError("a dense cost must not hold NaN or -inf")
    groups = _row_groups(n, labels)
    lam = np.zeros((n, 2))
    slots = np.zeros(n + 1, dtype=np.intp)  # first slot of each row
    for rows, col_sets in groups:
        slots[rows + 1] = sum(min(k, cols.size) for cols in col_sets)
    np.cumsum(slots, out=slots)
    indptr = np.zeros(n + 1, dtype=np.intp)  # row counts, summed after the pass
    indices, data = np.empty(slots[-1], dtype=np.intp), np.empty(slots[-1])

    def rows_of(rows, col_sets, costs, work):
        sels = [_closed_form(block, k, work) for block in costs]
        if len(costs) == 2:
            # A source row's delta share needs a same-class peer.
            src_mass = np.where(sels[0].smallest < np.inf, float(delta), 0.0)
            masses = [src_mass, 1.0 - src_mass]
        else:
            masses = [np.ones(rows.size)]
        edges = []
        for b, (block, sel, mass, cols) in enumerate(zip(costs, sels, masses, col_sets)):
            lam[rows, b] = _multipliers(sel.denom, mass)
            row, local, weight = _block_edges(block, k, mass, sel, work)
            edges.append((row, cols[local], weight))
        row, col, weight = (np.concatenate(e) for e in zip(*edges))
        keep = weight > 0.0
        row, col, weight = row[keep], col[keep], weight[keep]
        order = np.argsort(row, kind="stable")
        count = np.bincount(row, minlength=rows.size)
        first = slots[rows]
        if _consecutive(rows) and order.size == slots[rows[-1] + 1] - first[0]:
            at = slice(first[0], first[0] + order.size)
        else:  # an edge's slot is its row's first slot plus its rank within the row
            at = np.repeat(first - np.cumsum(count) + count, count) + np.arange(order.size)
        indices[at], data[at] = col[order], weight[order]
        indptr[rows + 1] = count

    _map_row_blocks(A, groups, rows_of)
    np.cumsum(indptr, out=indptr)
    nnz = indptr[-1]
    if nnz < slots[-1]:
        at = np.repeat(slots[:-1] - indptr[:-1], np.diff(indptr)) + np.arange(nnz)
        indices, data = indices[at], data[at]
    rows = scipy.sparse.csr_array((data, indices, indptr), shape=A.shape)
    return AffinityGraph(rows, k, delta, labels, lam)


def init_graph(X, k, delta, source_labels):
    """Initial graph built from raw-feature distances only (no label term)."""
    return build_graph(RowBlockCost(X), k, delta, source_labels)


def gaussian_knn_graph(Z, k, *, width=1.0):
    """Fixed k-nearest-neighbour graph with Gaussian kernel weights.

    Weights are ``exp(-dist^2 / (2 * width^2))`` over each sample's ``k``
    nearest neighbours, normalized to unit row sums.  This is the
    predefined-similarity alternative to the self-learned graph.  The
    neighbours are a row's distances below its :func:`_closed_form`
    ``a[k]`` (:func:`_below`); a row with fewer than ``k`` of them, whose
    ``k``-th and ``k + 1``-th distances tie, is ranked by
    :func:`_stable_smallest`, ties to the lower column.  A row whose kernel
    weights all underflow is uniform.  The graph carries the multipliers of
    the same :func:`_closed_form`, those :func:`build_graph` pins over the
    squared distances with ``k`` and no source labels.  Raises
    :class:`ArgumentError` when ``k`` is not an integer of at least 1,
    ``width`` is not finite and positive, ``Z`` holds a non-finite value, or
    there are fewer than two samples, and :class:`ShapeError` when ``Z`` is
    not 2-D.
    """
    _check_count("k", k, 1)
    if not 0.0 < width < np.inf:
        raise ArgumentError(f"width={width} must be finite and positive")
    dists = RowBlockCost(Z)
    n = dists.shape[0]
    if n < 2:
        raise ArgumentError(f"{n} samples: need at least 2")
    k_eff = min(k, n - 1)
    cols = np.empty((n, k_eff), dtype=np.intp)
    sq = np.empty((n, k_eff))
    lam = np.zeros((n, 2))

    def nearest(rows, col_sets, costs, work):
        (D,) = costs
        sel = _closed_form(D, k_eff, work)
        lam[rows, 0] = _multipliers(sel.denom, 1.0)
        row, col = _below(D, sel.boundary, work)
        tied = np.bincount(row, minlength=rows.size) < k_eff
        near = np.empty((rows.size, k_eff), dtype=np.intp)
        near[~tied] = col[~tied[row]].reshape(-1, k_eff)
        near[tied] = _stable_smallest(D, tied, k_eff)
        cols[rows], sq[rows] = near, np.take_along_axis(D, near, axis=1)

    _map_row_blocks(dists, _row_groups(n, None), nearest)
    weights = np.exp(-sq / (2.0 * width**2))
    total = weights.sum(axis=1)
    vanished = total <= 0.0
    weights /= np.where(vanished, 1.0, total)[:, None]
    weights[vanished] = 1.0 / k_eff
    indptr = np.arange(0, n * k_eff + 1, k_eff)
    rows = scipy.sparse.csr_array((weights.ravel(), cols.ravel(), indptr), shape=(n, n))
    return AffinityGraph(rows, k_eff, 0.0, multipliers=lam)


def laplacian(graph):
    """Symmetrized affinity and its combinatorial Laplacian.

    Parameters
    ----------
    graph : AffinityGraph
        Row-stochastic affinity graph with rows ``S``.

    Returns
    -------
    W : ndarray of shape (n, n)
        ``(S + S.T) / 2``, symmetric with zero diagonal.
    L : ndarray of shape (n, n)
        ``diag(W @ 1) - W``.  Callers that need a scale-free Laplacian can
        divide by ``numpy.linalg.norm(L, 'fro')``.
    """
    S = graph.toarray()
    W = (S + S.T) / 2.0
    L = np.diag(W.sum(axis=1)) - W
    return W, L


def row_laplacian(graph):
    """``D - S`` as a ``csr_array``, the one operator the solver reads a graph through.

    ``D`` holds the degrees of ``W = (S + S.T) / 2``, the row plus column
    sums of ``S`` halved, so the symmetric part ``((D - S) + (D - S).T) / 2``
    is the Laplacian ``D - W`` (:func:`sparse_laplacian`), and
    ``tr(Y.T (D - S) Y) = tr(Y.T L Y)`` for any ``Y``.  It stores only the
    diagonal and the graph's rows, about 60% of the Laplacian's entries.
    """
    S = graph.rows
    degree = (S.sum(axis=1) + S.sum(axis=0)) / 2.0
    return scipy.sparse.diags_array(degree, format="csr") - S


def sparse_laplacian(graph):
    """Laplacian of :func:`laplacian` as a ``csr_array``: the symmetric part of :func:`row_laplacian`.

    ``L = diag(W @ 1) - W`` with ``W = (S + S.T) / 2`` stores only the
    diagonal and the graph's symmetrized edges (about ``2 n k`` entries) and
    never forms an ``n x n`` array.  Entries equal those of the dense
    Laplacian up to the rounding of the degree sums.
    """
    return _symmetric_part(row_laplacian(graph))


def _symmetric_part(R):
    """``(R + R.T) / 2`` of a sparse ``R`` as a ``csr_array``."""
    L = R + R.T
    L.data /= 2.0
    return L


def quadratic_charge(A, graph):
    """Total quadratic regularization ``sum_i sum_b lam_{i,b} * ||row block||^2``.

    With ``A=None`` the multipliers are the graph's own ``multipliers``,
    those of the costs it was built from.  With a cost ``A``, a dense cost
    array or a :class:`RowBlockCost`, they are those the row updates pin
    under ``A``: ``build_graph(A, graph.k, graph.delta,
    graph.source_labels).multipliers``, over the class sets the graph
    records; fallback rows carry ``lam = 0``.  The block sums of squared
    weights come from the graph's flat edge arrays.  Every edge is charged
    under a :class:`RowBlockCost` or the graph's own multipliers; under a
    dense cost only the edges with a finite cost are.  Raises
    :class:`ArgumentError` when ``A`` is ``None`` and the graph carries no
    multipliers, or as :func:`build_graph` does under ``A``, and
    :class:`ShapeError` when ``A`` is not of the graph's ``(n, n)`` shape.
    """
    labels = graph.source_labels
    if A is None:
        if graph.multipliers is None:
            raise ArgumentError("no cost given and the graph carries no multipliers")
        lam = graph.multipliers
    elif A.shape != graph.rows.shape:
        raise ShapeError(f"cost of shape {A.shape} for a graph of shape {graph.rows.shape}")
    else:
        lam = build_graph(A, graph.k, graph.delta, labels).multipliers
    rows, cols, weights = graph.edges()
    n_s = 0 if labels is None else labels.size
    charge = lam[rows, ((rows < n_s) & (cols >= n_s)).astype(int)] * weights**2
    if A is not None and not isinstance(A, RowBlockCost):
        charge = charge[np.isfinite(A[rows, cols])]
    return float(np.sum(charge))


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
