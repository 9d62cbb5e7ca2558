"""The projection step factors the scatter once per fit and keeps only that factor.

``solve_projection`` builds its left-hand matrix from ``X`` itself, adds the
graph term as a rank-2k update from the rows of ``D - S``, and reduces the
pencil with the per-fit Cholesky factor ``B = R.T R`` of the total scatter.
Each test checks it against LAPACK's generalized eigensolver,
``scipy.linalg.eigh(A, B)``, or checks what a fit factors, repairs, holds and
leaves untouched.
"""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
import scipy.sparse

import crossprop as cp
import crossprop.linalg
from crossprop.solver import ABLATIONS, centered_gram, factor_scatter, solve_projection


def subspace_projector(V):
    Q, _ = np.linalg.qr(V)
    return Q @ Q.T


def random_graph(rng, n, k):
    """Row-stochastic graph with ``k`` random off-diagonal neighbours per row."""
    cols = np.array([rng.choice(np.delete(np.arange(n), i), k, replace=False) for i in range(n)])
    weights = rng.random((n, k))
    weights /= weights.sum(axis=1, keepdims=True)
    rows = scipy.sparse.csr_array(
        (weights.ravel(), cols.ravel(), np.arange(0, n * k + 1, k)), shape=(n, n)
    )
    rows.sort_indices()
    return cp.AffinityGraph(rows, k=k, delta=0.0)


@pytest.mark.parametrize(
    "graph_term, m, n",
    [("dense", 200, 300), ("sparse", 800, 1000), ("none", 400, 900)],
)
def test_matches_the_generalized_eigensolver(graph_term, m, n):
    rng = np.random.default_rng(m + n)
    X = rng.standard_normal((m, n)) + rng.standard_normal((m, 1))
    E = rng.standard_normal((n, 11)) / n
    alpha, gamma, d = 0.7, 0.1, 20
    A = (X @ E) @ (X @ E).T + gamma * np.eye(m)
    L = None
    if graph_term != "none":
        graph = random_graph(rng, n, 10)
        laplacian = cp.sparse_laplacian(graph).toarray()
        A += alpha * (X @ laplacian @ X.T)
        # The dense case passes the Laplacian, the sparse one the rows of D - S.
        L = laplacian if graph_term == "dense" else cp.row_laplacian(graph)
    B = centered_gram(X)
    P = solve_projection(X, E, L, alpha, gamma, d)
    _, reference = scipy.linalg.eigh(A, B, subset_by_index=(0, d - 1))
    gap = subspace_projector(P) - subspace_projector(reference)
    assert np.max(np.abs(gap)) <= 1e-8
    assert np.max(np.abs(P.T @ B @ P - np.eye(d))) <= 1e-10


def test_row_laplacian_has_the_laplacian_as_its_symmetric_part(rng):
    for graph in (random_graph(rng, 40, 4), cp.gaussian_knn_graph(rng.random((3, 30)), 5)):
        H = cp.row_laplacian(graph)
        L = cp.sparse_laplacian(graph)
        assert isinstance(H, scipy.sparse.csr_array)
        npt.assert_array_equal((H + H.T).toarray() / 2.0, L.toarray())
        assert H.nnz < L.nnz
        # The same bits as diag(d) - W built from W = (S + S.T) / 2.
        S = graph.rows
        W = S + S.T
        W.data /= 2.0
        degree = (S.sum(axis=1) + S.sum(axis=0)) / 2.0
        npt.assert_array_equal(L.toarray(), (scipy.sparse.diags_array(degree) - W).toarray())


def shifted_dataset(**kwargs):
    return cp.gen_synthetic_shift(
        0, per_class=40, n_classes=3, rotation_deg=35.0, shift=(2.0, 1.0), **kwargs
    )


@pytest.mark.parametrize("ablation", ABLATIONS)
def test_a_fit_factors_the_scatter_once(monkeypatch, ablation):
    factored, generalized = [], []
    cholesky, eigh = scipy.linalg.cholesky, scipy.linalg.eigh

    def counted_cholesky(a, *args, **kwargs):
        factored.append(np.shape(a))
        return cholesky(a, *args, **kwargs)

    def standard_eigh(a, b=None, *args, **kwargs):
        if b is not None:
            generalized.append(np.shape(a))
        return eigh(a, b, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cholesky", counted_cholesky)
    monkeypatch.setattr(scipy.linalg, "eigh", standard_eigh)
    ds = shifted_dataset(dim=6)
    report = cp.fit(ds, cp.HyperParams(k=5, d=3, iterations=3, ablation=ablation))
    assert report.iterations >= 2
    assert factored == [(6, 6)]
    assert generalized == []


def test_a_rank_deficient_scatter_is_repaired_once_per_fit(monkeypatch):
    repairs = []
    trace_ridge = crossprop.linalg._trace_ridge

    def counted(A):
        repairs.append(A.shape)
        return trace_ridge(A)

    monkeypatch.setattr(crossprop.linalg, "_trace_ridge", counted)
    ds = shifted_dataset(dim=2)
    constant = np.full((1, ds.n_samples), 3.0)
    ds = cp.Dataset(
        features=np.vstack([ds.features, constant]),
        n_source=ds.n_source,
        n_labeled_target=0,
        n_unlabeled_target=ds.n_unlabeled_target,
        source_labels=ds.source_labels,
        n_classes=ds.n_classes,
        hidden_target_labels=ds.hidden_target_labels,
    )
    states = []
    report = cp.fit(ds, cp.HyperParams(k=5, d=2, iterations=3), on_iteration=states.append)
    assert report.iterations >= 2
    assert repairs == [(3, 3)]
    assert all(np.all(np.isfinite(state.P)) for state in states)


@pytest.mark.parametrize("order", ["F", "C"])
def test_fit_leaves_the_features_untouched(order):
    ds = shifted_dataset(dim=8)
    features = np.array(ds.features, order=order)
    ds = cp.Dataset(
        features=features,
        n_source=ds.n_source,
        n_labeled_target=0,
        n_unlabeled_target=ds.n_unlabeled_target,
        source_labels=ds.source_labels,
        n_classes=ds.n_classes,
    )
    before = features.copy(order="A")
    cp.fit(ds, cp.HyperParams(k=5, d=3, iterations=2))
    assert ds.features.base is features  # a read-only view, not a copy
    npt.assert_array_equal(features, before)


def test_factor_whitens_the_scatter(rng):
    X = rng.standard_normal((6, 40))
    R = factor_scatter(X)
    assert R.flags.f_contiguous
    npt.assert_array_equal(np.tril(R, -1), 0.0)
    npt.assert_allclose(R.T @ R, centered_gram(X), rtol=1e-12, atol=1e-12)


def test_a_fit_holds_less_than_the_features_between_iterations():
    # Memory still allocated when each iteration reports: the scatter's
    # factor, the graph, its D - S and the small per-iteration arrays, but
    # no n x m copy of the samples.
    ds = cp.gen_synthetic_shift(0, per_class=100, n_classes=4, dim=300)
    held = []
    tracemalloc.start()
    try:
        cp.fit(ds, on_iteration=lambda state: held.append(tracemalloc.get_traced_memory()[0]))
    finally:
        tracemalloc.stop()
    assert ds.features.shape == (300, 800)
    assert len(held) >= 2
    assert max(held) < ds.features.nbytes


def test_fits_of_c_and_fortran_ordered_features_agree():
    ds = shifted_dataset(dim=6)
    reports = []
    for order in ("C", "F"):
        features = np.array(ds.features, order=order)
        assert features.flags.f_contiguous == (order == "F")
        copy = cp.Dataset(
            features=features,
            n_source=ds.n_source,
            n_labeled_target=0,
            n_unlabeled_target=ds.n_unlabeled_target,
            source_labels=ds.source_labels,
            n_classes=ds.n_classes,
        )
        states = []
        report = cp.fit(copy, cp.HyperParams(k=5, d=3, iterations=4), on_iteration=states.append)
        reports.append((report, [state.target_labels for state in states]))
    (c_report, c_labels), (f_report, f_labels) = reports
    assert c_report.iterations == f_report.iterations >= 2
    assert c_report.objective_trace == f_report.objective_trace
    for c, f in zip(c_labels, f_labels):
        npt.assert_array_equal(c, f)
