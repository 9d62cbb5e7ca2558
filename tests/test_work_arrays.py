"""The dense stages equal their textbook expressions bit for bit.

``discrepancy_matrix``, ``conditional_mmd``, ``laplacian``,
``pairwise_sq_dists`` and the Cholesky solve, with or without the ridge
repair, serve as references for the sparse and blocked stages of a fit.
Their results must be ``np.array_equal`` to the exact expressions below,
not merely close.
"""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import crossprop as cp
import crossprop.linalg
from crossprop.linalg import RIDGE_EPS, pairwise_sq_dists, solve_spd_linear

from conftest import make_dataset


def outer_sum_conditional(source_labels, target_labels, n_classes):
    """Class-conditional matrix as the sum of full ``n x n`` outer products."""
    n_s = source_labels.size
    n = n_s + target_labels.size
    M = np.zeros((n, n))
    for c in range(n_classes):
        src = np.flatnonzero(source_labels == c)
        tgt = np.flatnonzero(target_labels == c)
        if src.size == 0 or tgt.size == 0:
            continue
        e = np.zeros(n)
        e[src] = 1.0 / src.size
        e[n_s + tgt] = -1.0 / tgt.size
        M += np.outer(e, e)
    return M


@st.composite
def label_vectors(draw):
    n_classes = draw(st.integers(1, 4))
    labels = st.integers(0, n_classes - 1)
    src = np.array(draw(st.lists(labels, min_size=1, max_size=12)), dtype=int)
    tgt = np.array(draw(st.lists(labels, min_size=1, max_size=12)), dtype=int)
    return src, tgt, n_classes


@settings(max_examples=200, deadline=None)
@given(label_vectors())
def test_discrepancy_matrices_equal_outer_product_sums(problem):
    src, tgt, n_classes = problem
    Mc = outer_sum_conditional(src, tgt, n_classes)
    assert np.array_equal(cp.conditional_mmd(src, tgt, n_classes), Mc)
    M = cp.marginal_mmd(src.size, tgt.size) + Mc
    norm = np.linalg.norm(M, "fro")
    if norm > 0.0:
        M = M / norm
    assert np.array_equal(cp.discrepancy_matrix(src, tgt, n_classes), M)


@pytest.mark.parametrize("structured", [True, False])
def test_laplacian_of_graph_equals_dense_formula(rng, structured):
    ds = make_dataset(rng)
    graph = cp.init_graph(ds.features, 4, 0.8, ds.source_labels if structured else None)
    S = graph.toarray()
    W_ref = (S + S.T) / 2.0
    L_ref = np.diag(W_ref.sum(axis=1)) - W_ref
    rows_only = cp.AffinityGraph(
        scipy.sparse.csr_array(S), k=4, delta=0.0
    )
    for W, L in (cp.laplacian(graph), cp.laplacian(rows_only)):
        assert np.array_equal(W, W_ref)
        assert np.array_equal(L, L_ref)
        assert np.array_equal(np.signbit(L), np.signbit(L_ref))


def test_pairwise_sq_dists_equals_textbook_form(rng):
    Z = rng.standard_normal((5, 40))
    G = Z.T @ Z
    G = (G + G.T) / 2.0
    sq = np.diag(G)
    D = sq[:, None] + sq[None, :] - 2.0 * G
    np.maximum(D, 0.0, out=D)
    np.fill_diagonal(D, 0.0)
    assert np.array_equal(pairwise_sq_dists(Z), D)


@pytest.mark.parametrize("rank, repaired", [(40, False), (3, True)])
def test_spd_solve_equals_textbook_form_with_or_without_repair(
    monkeypatch, rank, repaired
):
    rng = np.random.default_rng(rank)
    k = 400
    X = rng.standard_normal((k, rank))
    A = X @ X.T + (0.0 if repaired else 1.0) * np.eye(k)
    B = rng.standard_normal((k, 2))
    sym = (A + A.T) / 2.0
    if repaired:
        sym = sym + (RIDGE_EPS * np.trace(sym) / k) * np.eye(k)
    expected = scipy.linalg.cho_solve(scipy.linalg.cho_factor(sym), B)
    repairs = []
    ridge = crossprop.linalg._trace_ridge

    def counted_ridge(M):
        repairs.append(M.shape)
        return ridge(M)

    monkeypatch.setattr(crossprop.linalg, "_trace_ridge", counted_ridge)
    solution = solve_spd_linear(A, B)
    assert len(repairs) == int(repaired)
    assert np.array_equal(solution, expected)
