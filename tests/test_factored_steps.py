"""The fit's lean forms of the discrepancy matrix and the Laplacian agree with the dense ones.

``fit`` passes ``solve_projection`` and ``objective`` the ``n x r`` factor of
the discrepancy matrix, and ``harmonic_solve`` and ``solve_projection`` a CSR
Laplacian.  Each lean form is checked against the dense public function it
replaces inside the fit.
"""

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse
from hypothesis import given, settings

import crossprop as cp
import crossprop.graph
import crossprop.mmd
import crossprop.solver
from crossprop.solver import _graph_scale, _scatter, _scatter_held, centered_gram
from crossprop.solver import objective, solve_projection

from conftest import make_dataset, random_connected_weights
from test_work_arrays import label_vectors


def subspace_projector(V):
    Q, _ = np.linalg.qr(V)
    return Q @ Q.T


@settings(max_examples=200, deadline=None)
@given(label_vectors())
def test_factor_reproduces_discrepancy_matrix(problem):
    src, tgt, n_classes = problem
    n = src.size + tgt.size
    E = cp.discrepancy_factor(src, tgt, n_classes)
    M = cp.discrepancy_matrix(src, tgt, n_classes)
    assert E.shape[0] == n
    assert E.shape[1] <= n_classes + 1
    assert E.shape[1] < n
    npt.assert_allclose(E @ E.T, M, rtol=1e-12, atol=1e-12 * np.abs(M).max())
    assert np.linalg.norm(E @ E.T, "fro") == pytest.approx(1.0, rel=1e-12)


def test_factor_rejects_labels_out_of_range():
    with pytest.raises(cp.LabelError):
        cp.discrepancy_factor(np.array([0, 3]), np.array([0]), 2)


def graphs(rng):
    """Self-learned graphs of both kinds and kernel graphs with underflowed weights."""
    ds = make_dataset(rng)
    X, y_s = ds.features, ds.source_labels
    yield cp.init_graph(X, 4, 0.8, y_s, structured=True)
    yield cp.init_graph(X, 4, 0.8, y_s, structured=False)
    yield cp.init_graph(X, 4, 1.0, y_s, structured=True)
    yield cp.gaussian_knn_graph(X, 5, ds.n_source)
    yield cp.gaussian_knn_graph(X, 5, ds.n_source, width=0.05)


def test_sparse_laplacian_matches_dense_laplacian(rng):
    for graph in graphs(rng):
        L = cp.sparse_laplacian(graph)
        _, L_dense = cp.laplacian(graph)
        assert isinstance(L, scipy.sparse.csr_array)
        assert np.array_equal(L.toarray() != 0.0, L_dense != 0.0)
        assert np.max(np.abs(L.toarray() - L_dense)) <= 1e-15
        assert _graph_scale(L) == pytest.approx(
            np.linalg.norm(L_dense, "fro"), rel=1e-15
        )


def test_graph_scale_of_an_empty_graph_is_one():
    assert _graph_scale(scipy.sparse.csr_array((3, 3))) == 1.0


def test_harmonic_solve_on_csr_matches_dense():
    rng = np.random.default_rng(303)
    for trial in range(30):
        n = int(rng.integers(6, 41))
        n_c = n if trial == 0 else int(rng.integers(2, min(6, n - 1)))
        n_classes = int(rng.integers(2, 5))
        W = random_connected_weights(rng, n, extra_edges=int(rng.integers(n, 3 * n)))
        L = np.diag(W.sum(axis=1)) - W
        clamped = np.eye(n_classes)[rng.integers(0, n_classes, size=n_c)]
        dense = cp.harmonic_solve(L, clamped)
        sparse = cp.harmonic_solve(scipy.sparse.csr_array(L), clamped)
        assert sparse.shape == dense.shape == (n - n_c, n_classes)
        npt.assert_allclose(sparse, dense, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("n_labeled", [0, 3])
def test_projection_and_objective_agree_for_factor_and_csr(rng, n_labeled):
    ds = make_dataset(rng, per_class_target=6, n_labeled_target=n_labeled)
    X, y_s = ds.features, ds.source_labels
    estimates = np.concatenate(
        [ds.labeled_target_labels, rng.integers(0, ds.n_classes, ds.n_unlabeled_target)]
    )
    E = cp.discrepancy_factor(y_s, estimates, ds.n_classes)
    M = cp.discrepancy_matrix(y_s, estimates, ds.n_classes)
    graph = cp.init_graph(X, 4, 0.8, y_s)
    L = cp.sparse_laplacian(graph)
    _, L_dense = cp.laplacian(graph)
    scale = _graph_scale(L)
    L.data /= scale
    L_dense /= scale
    P = solve_projection(X, E, L, 1.0, 0.1, 3)
    P_dense = solve_projection(X, M, L_dense, 1.0, 0.1, 3)
    gap = subspace_projector(P) - subspace_projector(P_dense)
    assert np.max(np.abs(gap)) <= 1e-10

    clamp = cp.one_hot(np.concatenate([y_s, ds.labeled_target_labels]), ds.n_classes)
    F = np.vstack([clamp, cp.harmonic_solve(L, clamp)])
    args = (P, graph, F, X)
    rest = (1.0, 0.1, 0.1)
    kwargs = dict(source_labels=y_s, graph_scale=scale)
    assert objective(*args, E, *rest, **kwargs) == pytest.approx(
        objective(*args, M, *rest, **kwargs), rel=1e-12
    )


def test_fit_builds_no_dense_discrepancy_matrix_or_laplacian(rng, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("fit built a dense n x n matrix")

    for module in (crossprop.mmd, crossprop.graph, crossprop.solver):
        for name in ("discrepancy_matrix", "marginal_mmd", "laplacian"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    ds = make_dataset(rng)
    for ablation in ("full", "sp"):
        report = cp.fit(ds, cp.HyperParams(k=4, d=3, iterations=2, ablation=ablation))
        assert report.iterations >= 1


def test_scatter_is_reused_only_for_the_held_matrix(rng):
    X = rng.standard_normal((4, 12))
    with _scatter_held(X):
        held = _scatter(X)
        assert _scatter(X) is held
        assert _scatter(X.copy()) is not held
    assert _scatter(X) is not held
    X[0] += 1.0
    npt.assert_array_equal(_scatter(X), centered_gram(X))
