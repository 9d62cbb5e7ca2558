"""The fit's lean forms of the discrepancy matrix and the Laplacian agree with the dense ones.

``fit`` passes ``solve_projection`` and ``objective`` the ``n x r`` factor of
the discrepancy matrix, ``harmonic_solve`` a CSR Laplacian and
``solve_projection`` the CSR rows of ``D - S``, whose symmetric part is that
Laplacian.  Each lean form is checked against the dense public function it
replaces inside the fit.
"""

import sys

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse
from hypothesis import given, settings

import crossprop as cp
import crossprop.graph
import crossprop.solver
from crossprop.solver import ABLATIONS, _graph_scale, centered_gram, factor_scatter
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
    yield cp.init_graph(X, 4, 0.8, y_s)
    yield cp.init_graph(X, 4, 0.8, None)
    yield cp.init_graph(X, 4, 1.0, y_s)
    yield cp.gaussian_knn_graph(X, 5)
    yield cp.gaussian_knn_graph(X, 5, width=0.05)


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
    kwargs = dict(graph_scale=scale)
    assert objective(*args, E, *rest, **kwargs) == pytest.approx(
        objective(*args, M, *rest, **kwargs), rel=1e-12
    )


def test_fit_builds_no_dense_discrepancy_matrix_or_laplacian(rng, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("fit called a dense n x n stage")

    dense = (
        "discrepancy_matrix",
        "marginal_mmd",
        "conditional_mmd",
        "laplacian",
        "affinity_cost",
        "pairwise_sq_dists",
        "solve_spd_linear",
    )
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "crossprop"]
    for module in modules:
        for name in dense:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    ds = make_dataset(rng)
    for ablation in ABLATIONS:
        report = cp.fit(ds, cp.HyperParams(k=4, d=3, iterations=2, ablation=ablation))
        assert report.iterations >= 1


@pytest.mark.parametrize("ablation", ["full", "sp"])
def test_fit_computes_the_scatter_once(monkeypatch, ablation):
    calls = []

    def counted(X):
        calls.append(X)
        return centered_gram(X)

    monkeypatch.setattr(crossprop.solver, "centered_gram", counted)
    ds = cp.gen_synthetic_shift(
        0, per_class=40, n_classes=3, rotation_deg=35.0, shift=(2.0, 1.0)
    )
    report = cp.fit(ds, cp.HyperParams(k=5, d=3, iterations=3, ablation=ablation))
    assert report.iterations >= 2
    assert len(calls) == 1 and calls[0] is ds.features


@pytest.mark.parametrize("ablation", ["full", "sp"])
def test_fit_reads_each_graph_through_one_row_laplacian(monkeypatch, ablation):
    built = []
    row_laplacian = crossprop.solver.row_laplacian

    def counted(graph):
        built.append(graph)
        return row_laplacian(graph)

    def refuse(graph):
        raise AssertionError("fit built a second operator for a graph")

    monkeypatch.setattr(crossprop.solver, "row_laplacian", counted)
    monkeypatch.setattr(crossprop.graph, "sparse_laplacian", refuse)
    monkeypatch.setattr(crossprop.solver, "sparse_laplacian", refuse, raising=False)
    ds = cp.gen_synthetic_shift(
        0, per_class=40, n_classes=3, rotation_deg=35.0, shift=(2.0, 1.0)
    )
    states = []
    params = cp.HyperParams(k=5, d=3, iterations=3, ablation=ablation)
    report = cp.fit(ds, params, on_iteration=states.append)
    assert report.iterations >= 2
    # The initial graph, then each iteration's graph, once each.
    assert len(built) == report.iterations + 1
    assert all(graph is state.graph for graph, state in zip(built[1:], states))


def test_a_passed_scatter_equals_the_computed_one(rng):
    ds = make_dataset(rng)
    X = ds.features
    E = cp.discrepancy_factor(ds.source_labels, ds.hidden_target_labels, ds.n_classes)
    L = scipy.sparse.csr_array(np.diag(np.arange(X.shape[1], dtype=float)))
    npt.assert_array_equal(
        solve_projection(X, E, L, 1.0, 0.1, 3, factor_scatter(X)),
        solve_projection(X, E, L, 1.0, 0.1, 3),
    )
