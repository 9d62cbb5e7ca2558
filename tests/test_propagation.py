"""Harmonic label propagation on clamped graphs."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse

import crossprop as cp
import crossprop.linalg
import crossprop.propagation

from conftest import fixed_point_propagation, random_connected_weights

ROOT = Path(__file__).resolve().parent.parent


def laplacian_of(W):
    return np.diag(W.sum(axis=1)) - W


def path_laplacian(n):
    """Laplacian of the unit-weight path 0-1-...-(n-1), ends ordered first."""
    order = np.r_[0, n - 1, 1 : n - 1]
    W = np.zeros((n, n))
    i = np.arange(n - 1)
    W[i, i + 1] = W[i + 1, i] = 1.0
    return laplacian_of(W[np.ix_(order, order)])


class TestHarmonicSolve:
    def test_single_edge_copies_the_clamp(self):
        W = np.array([[0.0, 1.0], [1.0, 0.0]])
        clamped = np.array([[1.0, 0.0]])
        F = cp.harmonic_solve(laplacian_of(W), clamped)
        npt.assert_allclose(F, [[1.0, 0.0]], atol=1e-12)

    def test_equidistant_node_averages_two_clamps(self):
        # Node 2 is linked equally to a class-0 clamp and a class-1 clamp.
        W = np.zeros((3, 3))
        W[0, 2] = W[2, 0] = 1.0
        W[1, 2] = W[2, 1] = 1.0
        clamped = np.eye(2)
        F = cp.harmonic_solve(laplacian_of(W), clamped)
        npt.assert_allclose(F, [[0.5, 0.5]], atol=1e-12)

    def test_chain_interpolates_linearly(self):
        # Path 0-1-2-3 with ends clamped to opposite classes: interior
        # scores follow the resistive-divider profile 2/3, 1/3.
        W = np.zeros((4, 4))
        for i in range(3):
            W[i, i + 1] = W[i + 1, i] = 1.0
        perm = [0, 3, 1, 2]  # clamped nodes first
        Wp = W[np.ix_(perm, perm)]
        clamped = np.eye(2)
        F = cp.harmonic_solve(laplacian_of(Wp), clamped)
        npt.assert_allclose(F, [[2.0 / 3.0, 1.0 / 3.0], [1.0 / 3.0, 2.0 / 3.0]], atol=1e-10)

    def test_agrees_with_fixed_point_iteration(self, rng):
        for _ in range(8):
            n = int(rng.integers(6, 14))
            n_c = int(rng.integers(2, 4))
            W = random_connected_weights(rng, n, extra_edges=n)
            clamped = np.eye(3)[rng.integers(0, 3, size=n_c)]
            L = laplacian_of(W)
            F = cp.harmonic_solve(L, clamped)
            F_iter = fixed_point_propagation(W, clamped)
            assert np.max(np.abs(F - F_iter)) <= 1e-8

    def test_scores_form_row_distributions(self, rng):
        for _ in range(5):
            n = int(rng.integers(8, 16))
            W = random_connected_weights(rng, n, extra_edges=2 * n)
            clamped = np.eye(3)[rng.integers(0, 3, size=4)]
            F = cp.harmonic_solve(laplacian_of(W), clamped)
            npt.assert_allclose(F.sum(axis=1), 1.0, atol=1e-8)
            assert np.all(F >= -1e-10)
            assert np.all(F <= 1.0 + 1e-10)

    def test_solution_minimizes_dirichlet_energy(self, rng):
        W = random_connected_weights(rng, 10, extra_edges=12)
        L = laplacian_of(W)
        clamped = np.eye(2)[np.array([0, 1, 0])]
        F = cp.harmonic_solve(L, clamped)
        full = np.vstack([clamped, F])

        def energy(G):
            return float(np.trace(G.T @ L @ G))

        base = energy(full)
        for _ in range(20):
            bump = np.zeros_like(full)
            i = int(rng.integers(3, 10))
            j = int(rng.integers(0, 2))
            bump[i, j] = rng.choice([-1e-3, 1e-3])
            assert energy(full + bump) >= base - 1e-10

    def test_disconnected_free_node_degrades_to_zero_scores(self):
        # A free node with no edges has no path to a clamped node: its
        # preconditioner is 0 and its scores stay exactly zero.
        W = np.zeros((3, 3))
        W[0, 1] = W[1, 0] = 1.0  # node 2 floats free
        F = cp.harmonic_solve(laplacian_of(W), np.array([[1.0, 0.0]]))
        npt.assert_allclose(F[0], [1.0, 0.0], atol=1e-12)
        npt.assert_array_equal(F[1], [0.0, 0.0])

    @pytest.mark.parametrize(
        "L, clamped",
        [
            (np.zeros((3, 4)), np.ones((1, 2))),  # raised scipy's ValueError
            (np.eye(3), np.ones(2)),  # raised IndexError
            (np.eye(3), np.ones((4, 2))),  # returned an empty (0, 2) array
        ],
        ids=["non-square-laplacian", "1-d-clamped", "more-clamped-than-samples"],
    )
    def test_inconsistent_shapes_raise(self, L, clamped):
        with pytest.raises(cp.ShapeError):
            cp.harmonic_solve(L, clamped)

    def test_long_path_matches_the_linear_interpolation(self):
        # 498 free nodes between a class-0 end and a class-1 end: the exact
        # answer is the resistive divider, linear in the distance to an end.
        n = 500
        F = cp.harmonic_solve(scipy.sparse.csr_array(path_laplacian(n)), np.eye(2))
        t = np.arange(1, n - 1) / (n - 1)
        npt.assert_allclose(F, np.column_stack([1.0 - t, t]), rtol=0.0, atol=1e-10)

    def test_exhausted_step_budget_raises(self, monkeypatch):
        # CG needs a step per free node to carry a label down the path, so
        # half a step per free row cannot converge.
        monkeypatch.setattr(crossprop.propagation, "CG_STEPS_PER_ROW", 0.5)
        with pytest.raises(cp.ConvergenceError):
            cp.harmonic_solve(path_laplacian(50), np.eye(2))
        monkeypatch.setattr(crossprop.propagation, "CG_STEPS_PER_ROW", 1)
        F = cp.harmonic_solve(path_laplacian(50), np.eye(2))
        npt.assert_allclose(F.sum(axis=1), 1.0, rtol=0.0, atol=1e-10)

    def test_class_without_a_clamped_row_gets_an_exact_zero_column(self, rng):
        # Class 1 has no clamped row: its right-hand side is zero, so its
        # column takes 0 / 0 steps that must not turn into NaN.
        n_classes = 3
        present = np.setdiff1d(np.arange(n_classes), [1])
        for n in (12, 60):
            W = random_connected_weights(rng, n, extra_edges=n)
            clamped = np.eye(n_classes)[rng.choice(present, size=present.size + 2)]
            clamped[: present.size] = np.eye(n_classes)[present]
            n_c = clamped.shape[0]
            L = laplacian_of(W)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                F = cp.harmonic_solve(scipy.sparse.csr_array(L), clamped)
            npt.assert_array_equal(F[:, 1], 0.0)
            B = -L[n_c:, :n_c] @ clamped
            residual = np.linalg.norm(L[n_c:, n_c:] @ F - B, axis=0)
            target = crossprop.propagation.CG_RTOL * np.linalg.norm(B, axis=0)
            assert np.all(residual[present] <= target[present])
            npt.assert_allclose(F.sum(axis=1), 1.0, rtol=0.0, atol=1e-8)

    def test_no_sparse_solver_module_is_imported(self):
        script = (
            "import sys, crossprop as cp\n"
            "ds = cp.gen_synthetic_shift(0, per_class=10, n_classes=2)\n"
            "cp.fit(ds, cp.HyperParams(k=5, iterations=2, d=2))\n"
            "print(sorted(m for m in ('scipy.sparse.linalg', 'scipy.sparse.csgraph')"
            " if m in sys.modules))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_every_row_clamped_leaves_no_free_row(self):
        L = laplacian_of(np.ones((3, 3)) - np.eye(3))
        F = cp.harmonic_solve(L, np.eye(3)[:, :2])
        assert F.shape == (0, 2)


def split_graph(rng):
    """Weights of 2 clamped nodes, 5 reachable free nodes and a clamp-free path.

    Nodes 0-6 are connected.  The free nodes 7-9 form a path of unit
    weights, whose Laplacian block has a Cholesky pivot of exactly zero.
    Returns ``(W, reachable)``, the mask over the free nodes 2-9.
    """
    W = np.zeros((10, 10))
    W[:7, :7] = random_connected_weights(rng, 7, extra_edges=4)
    W[7, 8] = W[8, 7] = W[8, 9] = W[9, 8] = 1.0
    return W, np.arange(2, 10) < 7


def dense_reachable_solve(L, clamped, reachable):
    """Exact dense harmonic solution on the reachable free rows only."""
    free = np.flatnonzero(reachable) + clamped.shape[0]
    L_ff = L[np.ix_(free, free)]
    L_fc = L[np.ix_(free, np.arange(clamped.shape[0]))]
    return np.linalg.solve(L_ff, -L_fc @ clamped)


def far_cluster_dataset(rng):
    """Two source classes, targets near them, and 12 targets far from everything.

    With ``k = 4`` no edge reaches the far cluster, so its 12 rows have no
    path to a source sample.
    """
    def blob(center, size):
        return rng.normal(np.array(center, dtype=float)[:, None], 0.3, (3, size))

    features = np.hstack(
        [
            blob([0, 0, 0], 10),
            blob([3, 0, 0], 10),
            blob([0.2, 0.5, 0], 8),
            blob([3.2, 0.5, 0], 8),
            blob([50, 50, 50], 12),
        ]
    )
    return cp.Dataset(
        features=features,
        n_source=20,
        n_labeled_target=0,
        n_unlabeled_target=28,
        source_labels=np.repeat([0, 1], 10),
        n_classes=2,
        hidden_target_labels=np.r_[np.repeat([0, 1], 8), np.ones(12, dtype=int)],
    )


class TestUnreachableRows:
    def test_clamp_free_component_is_left_out_of_the_solve(self, rng):
        clamped = np.eye(2)
        for _ in range(5):
            W, reachable = split_graph(rng)
            L = laplacian_of(W)
            for form in (L, scipy.sparse.csr_array(L)):
                F = cp.harmonic_solve(form, clamped)
                expected = dense_reachable_solve(L, clamped, reachable)
                npt.assert_allclose(F[reachable], expected, rtol=0.0, atol=1e-12)
                npt.assert_allclose(F[reachable].sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
                assert np.all(F[~reachable] == 0.0)

    def test_a_stored_zero_weight_is_no_edge(self, rng):
        # The only link from the path to the rest underflowed to a weight
        # of zero that the sparse Laplacian still stores.
        clamped = np.eye(2)
        W, reachable = split_graph(rng)
        L = scipy.sparse.coo_array(laplacian_of(W))
        L = scipy.sparse.csr_array(
            (np.r_[L.data, 0.0, 0.0], (np.r_[L.row, 2, 7], np.r_[L.col, 7, 2])),
            shape=L.shape,
        )
        assert np.count_nonzero(L.data == 0.0) == 2
        F = cp.harmonic_solve(L, clamped)
        expected = dense_reachable_solve(L.toarray(), clamped, reachable)
        npt.assert_allclose(F[reachable], expected, rtol=0.0, atol=1e-12)
        assert np.all(F[~reachable] == 0.0)

    def test_no_clamped_row_gives_all_zero_scores(self, rng):
        W, _ = split_graph(rng)
        F = cp.harmonic_solve(laplacian_of(W), np.zeros((0, 3)))
        npt.assert_array_equal(F, np.zeros((10, 3)))

    def test_non_finite_laplacian_raises(self):
        L = laplacian_of(np.array([[0.0, 1.0], [1.0, 0.0]]))
        L[1, 1] = np.nan
        with pytest.raises(cp.SingularMatrix):
            cp.harmonic_solve(L, np.array([[1.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_clamped_rows_raise(self, bad):
        # A NaN clamped row gave NaN soft labels in every free row.
        L = laplacian_of(np.ones((3, 3)) - np.eye(3))
        with pytest.raises(cp.ArgumentError):
            cp.harmonic_solve(L, np.array([[1.0, 0.0], [bad, 1.0]]))

    def test_fit_counts_unreachable_rows_without_a_dense_solve(self, monkeypatch, rng):
        def refuse(*args, **kwargs):
            raise AssertionError("the fit called the dense SPD solve")

        monkeypatch.setattr(crossprop.linalg, "solve_spd_linear", refuse)
        monkeypatch.setattr(crossprop.linalg, "_trace_ridge", refuse)
        monkeypatch.setattr(
            crossprop.propagation, "solve_spd_linear", refuse, raising=False
        )
        ds = far_cluster_dataset(rng)
        states = []
        params = cp.HyperParams(k=4, iterations=3, d=2)
        report = cp.fit(ds, params, on_iteration=states.append)
        assert report.iterations == len(states) >= 1
        for state in states:
            zero_rows = np.count_nonzero(~state.F[ds.n_source :].any(axis=1))
            assert state.unreachable_rows == zero_rows == 12


class TestDecideLabels:
    def test_argmax_per_row(self):
        F = np.array([[0.2, 0.8], [0.9, 0.1], [0.4, 0.6]])
        npt.assert_array_equal(cp.decide_labels(F), [1, 0, 1])

    def test_tie_takes_lowest_index(self):
        F = np.array([[0.5, 0.5], [0.3, 0.3]])
        npt.assert_array_equal(cp.decide_labels(F), [0, 0])

    def test_empty_input(self):
        assert cp.decide_labels(np.zeros((0, 3))).size == 0
