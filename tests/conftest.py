"""Shared builders and independent numerical oracles for the test suite.

The oracle functions deliberately re-derive quantities with the dumbest
possible method (double loops, fixed-point iteration, explicit means) so the
library implementations are checked against independent arithmetic, not
against themselves.
"""

import numpy as np
import pytest

from crossprop import Dataset


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def make_dataset(
    rng,
    n_classes=3,
    per_class_source=6,
    per_class_target=5,
    n_features=5,
    n_labeled_target=0,
    spread=3.0,
):
    """Random labeled blob dataset with every class present in both domains.

    Target samples are drawn around the same class centers with a small
    offset, so propagation problems built on it are well posed but not
    trivial.  Hidden target labels are always populated.
    """
    centers = spread * rng.standard_normal((n_classes, n_features))
    offset = 0.5 * rng.standard_normal(n_features)

    def blobs(per_class, shift):
        cols, labels = [], []
        for c in range(n_classes):
            pts = centers[c] + shift + rng.standard_normal((per_class, n_features))
            cols.append(pts.T)
            labels.extend([c] * per_class)
        return np.hstack(cols), np.array(labels, dtype=int)

    X_s, y_s = blobs(per_class_source, 0.0)
    X_t, y_t = blobs(per_class_target, offset)
    n_t = y_t.size
    return Dataset(
        features=np.hstack([X_s, X_t]),
        n_source=y_s.size,
        n_labeled_target=n_labeled_target,
        n_unlabeled_target=n_t - n_labeled_target,
        source_labels=y_s,
        labeled_target_labels=y_t[:n_labeled_target],
        n_classes=n_classes,
        hidden_target_labels=y_t,
    )


def naive_pairwise_sq(Z):
    """Double-loop squared distances between the columns of ``Z``."""
    Z = np.asarray(Z, dtype=float)
    n = Z.shape[1]
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            diff = Z[:, i] - Z[:, j]
            D[i, j] = float(diff @ diff)
    return D


def random_connected_weights(rng, n, extra_edges=None):
    """Random symmetric nonnegative weight matrix, connected by construction.

    A random spanning path gets weights bounded away from zero, then random
    extra edges are sprinkled on top.
    """
    W = np.zeros((n, n))
    order = rng.permutation(n)
    for a, b in zip(order[:-1], order[1:]):
        w = 0.2 + rng.random()
        W[a, b] = W[b, a] = w
    if extra_edges is None:
        extra_edges = 2 * n
    for _ in range(extra_edges):
        a, b = rng.integers(0, n, size=2)
        if a == b:
            continue
        w = rng.random()
        W[a, b] = W[b, a] = w
    return W


def fixed_point_propagation(W, clamped, tol=1e-12, max_iter=200_000):
    """Iterative label propagation oracle on symmetric weights ``W``.

    Repeats ``F_free <- D_ff^-1 (W_fc F_c + W_ff F_free)`` from zero until
    the update stalls.  Requires every free node to have positive degree.
    """
    W = np.asarray(W, dtype=float)
    clamped = np.asarray(clamped, dtype=float)
    n_c = clamped.shape[0]
    W_ff = W[n_c:, n_c:]
    W_fc = W[n_c:, :n_c]
    degree = W[n_c:].sum(axis=1)
    if np.any(degree <= 0):
        raise ValueError("free node with zero degree")
    drive = W_fc @ clamped
    F = np.zeros((W_ff.shape[0], clamped.shape[1]))
    for _ in range(max_iter):
        F_next = (drive + W_ff @ F) / degree[:, None]
        if np.max(np.abs(F_next - F)) < tol:
            return F_next
        F = F_next
    raise RuntimeError("propagation oracle did not reach its fixed point")


def brute_marginal_gap(Z, n_source):
    """Squared distance between the two domain means of the columns of ``Z``."""
    Z = np.asarray(Z, dtype=float)
    gap = Z[:, :n_source].mean(axis=1) - Z[:, n_source:].mean(axis=1)
    return float(gap @ gap)


def brute_conditional_gap(Z, source_labels, target_labels, n_classes):
    """Sum over classes of squared distances between per-class domain means."""
    Z = np.asarray(Z, dtype=float)
    source_labels = np.asarray(source_labels, dtype=int)
    target_labels = np.asarray(target_labels, dtype=int)
    n_s = source_labels.size
    total = 0.0
    for c in range(n_classes):
        src = np.flatnonzero(source_labels == c)
        tgt = np.flatnonzero(target_labels == c)
        if src.size == 0 or tgt.size == 0:
            continue
        gap = Z[:, src].mean(axis=1) - Z[:, n_s + tgt].mean(axis=1)
        total += float(gap @ gap)
    return total


def graph_row_objective(costs, weights, lam):
    """Value of one row subproblem ``costs @ s + lam * ||s||^2``."""
    return float(costs @ weights + lam * weights @ weights)


def check_structured_graph(graph, source_labels, k, delta, atol=1e-9):
    """Assert every structural invariant of a learned structured graph.

    Checks: entries in [0, 1], unit row sums, zero diagonal, source-block
    mass delta (zero for a source sample with no same-class peer), exact
    zeros on cross-class source pairs, and the per-block sparsity budget.
    """
    assert graph.structured
    S = graph.toarray()
    n = graph.n_samples
    n_s = np.asarray(source_labels).size
    labels = np.asarray(source_labels, dtype=int)
    assert np.all(S >= 0.0)
    assert np.all(S <= 1.0 + atol)
    assert np.all(np.diag(S) == 0.0)
    row_sums = S.sum(axis=1)
    assert np.max(np.abs(row_sums - 1.0)) <= atol
    for i in range(n_s):
        peers = int(np.sum(labels == labels[i])) - 1
        src_mass = delta if peers > 0 else 0.0
        assert abs(S[i, :n_s].sum() - src_mass) <= atol
        assert abs(S[i, n_s:].sum() - (1.0 - src_mass)) <= atol
        cross = S[i, :n_s][labels != labels[i]]
        assert np.all(cross == 0.0)
        assert np.count_nonzero(S[i, :n_s]) <= min(k, peers)
        assert np.count_nonzero(S[i, n_s:]) <= k
    for i in range(n_s, n):
        assert np.count_nonzero(S[i]) <= k


def oracle_graph_row(cost_row, i, n_source, k, delta, structured):
    """Independent dense reconstruction of graph row ``i`` from its costs.

    Splits the row into its candidate blocks, solves each block with the
    iterative simplex solver when it is in the generic regime, and falls
    back to the documented uniform rules on small blocks.  Returns a dense
    length-n weight vector.
    """
    from crossprop import simplex_qp_oracle

    n = cost_row.size
    out = np.zeros(n)

    def solve_block(cands, mass):
        if mass <= 0.0 or cands.size == 0:
            return
        costs = cost_row[cands]
        if cands.size == 1:
            out[cands[0]] = mass
        elif k >= cands.size:
            out[cands] = mass / cands.size
        else:
            out[cands] = simplex_qp_oracle(costs, mass, k)

    if structured and i < n_source:
        src_cands = np.flatnonzero(np.isfinite(cost_row[:n_source]))
        src_mass = delta if src_cands.size else 0.0
        solve_block(src_cands, src_mass)
        solve_block(np.arange(n_source, n), 1.0 - src_mass)
    else:
        solve_block(np.flatnonzero(np.isfinite(cost_row)), 1.0)
    return out


def csr_rows(S):
    """``(columns, weights)`` of every row of a CSR matrix, as array views."""
    return [
        (S.indices[start:stop], S.data[start:stop])
        for start, stop in zip(S.indptr[:-1], S.indptr[1:])
    ]


def rowwise_graph_rows(A, k, delta, source_labels, structured=True):
    """Row-by-row graph step: one :func:`_block_weights` call per row block.

    This is the per-row loop the batched row updates replace; the batched
    rows must equal it bit for bit.
    """
    from crossprop.graph import _block_weights

    n = A.shape[0]
    n_s = np.asarray(source_labels).size if structured else 0

    def collect(cols, weights):
        keep = weights > 0.0
        return cols[keep], weights[keep]

    rows = []
    target_cols = np.arange(n_s, n)
    for i in range(n_s):
        src_cands = np.flatnonzero(np.isfinite(A[i, :n_s]))
        src_weights = _block_weights(A[i, src_cands], k)
        tgt_weights = _block_weights(A[i, target_cols], k)
        src_mass = delta if src_cands.size else 0.0
        rows.append(
            collect(
                np.concatenate([src_cands, target_cols]),
                np.concatenate(
                    [src_mass * src_weights, (1.0 - src_mass) * tgt_weights]
                ),
            )
        )
    for i in range(n_s, n):
        cands = np.flatnonzero(np.isfinite(A[i]))
        rows.append(collect(cands, _block_weights(A[i, cands], k)))
    return rows


def rowwise_quadratic_charge(A, graph):
    """Per-row loop for ``sum_i sum_b lam_{i,b} * ||row block||^2``.

    Each block's multiplier comes from a full sort of its candidate costs
    and each block's weights are picked with ``np.isin``.
    """
    from crossprop.graph import DEGENERATE_DENOM

    k = graph.k
    n_s = graph.n_source if graph.structured else 0
    total = 0.0
    for i, (cols, weights) in enumerate(csr_rows(graph.rows)):
        if i < n_s:
            src_cands = np.flatnonzero(np.isfinite(A[i, :n_s]))
            src_mass = graph.delta if src_cands.size else 0.0
            blocks = [
                (src_cands, src_mass),
                (np.arange(n_s, graph.n_samples), 1.0 - src_mass),
            ]
        else:
            blocks = [(np.flatnonzero(np.isfinite(A[i])), 1.0)]
        for cands, mass in blocks:
            if mass <= 0.0 or cands.size <= k:
                continue
            ranked = np.sort(A[i, cands], kind="stable")
            denom = k * ranked[k] - ranked[:k].sum()
            if denom <= DEGENERATE_DENOM:
                continue
            inside = np.isin(cols, cands)
            total += denom / (2.0 * mass) * float(np.sum(weights[inside] ** 2))
    return total
