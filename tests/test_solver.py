"""Joint solver: projection step, objective bookkeeping, fit loop plumbing."""

import io

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

import crossprop as cp
from crossprop.exceptions import ConfigError, DimensionError
from crossprop.graph import quadratic_charge
from crossprop.linalg import pairwise_sq_dists
from crossprop.solver import (
    ABLATIONS,
    centered_gram,
    factor_scatter,
    objective,
    solve_projection,
)

from conftest import make_dataset


def subspace_projector(V):
    Q, _ = np.linalg.qr(V)
    return Q @ Q.T


class TestCenteredGram:
    def test_matches_manual_centering(self, rng):
        X = rng.standard_normal((4, 9))
        Xc = X - X.mean(axis=1, keepdims=True)
        npt.assert_allclose(centered_gram(X), Xc @ Xc.T, rtol=1e-12)

    def test_constant_feature_contributes_nothing(self):
        X = np.vstack([np.full(6, 3.5), np.arange(6.0)])
        B = centered_gram(X)
        assert B[0, 0] == pytest.approx(0.0, abs=1e-12)


class TestSolveProjection:
    def test_pure_ridge_recovers_principal_subspace(self, rng):
        # With no discrepancy or graph terms the problem minimizes
        # gamma * ||P||^2 subject to unit projected scatter, which picks
        # the directions of largest variance.
        scales = np.array([5.0, 3.0, 1.0, 0.5, 0.1])
        X = scales[:, None] * rng.standard_normal((5, 200))
        M = np.zeros((200, 200))
        P = solve_projection(X, M, None, alpha=1.0, gamma=0.1, d=2)
        B = centered_gram(X)
        _, top = scipy.linalg.eigh(B, subset_by_index=(3, 4))
        gap = subspace_projector(P) - subspace_projector(top)
        assert np.max(np.abs(gap)) <= 1e-6

    def test_projected_scatter_is_identity(self, rng):
        ds = make_dataset(rng)
        M = np.eye(ds.n_samples) / ds.n_samples
        graph = cp.init_graph(ds.features, 4, 0.8, ds.source_labels)
        _, L = cp.laplacian(graph)
        P = solve_projection(ds.features, M, L, alpha=1.0, gamma=0.1, d=3)
        B = centered_gram(ds.features)
        npt.assert_allclose(P.T @ B @ P, np.eye(3), atol=1e-8)

    def test_satisfies_the_pencil_equations(self, rng):
        ds = make_dataset(rng)
        M = np.eye(ds.n_samples) / ds.n_samples
        graph = cp.init_graph(ds.features, 4, 0.8, ds.source_labels)
        _, L = cp.laplacian(graph)
        alpha, gamma, d = 1.0, 0.1, 3
        X = ds.features
        P = solve_projection(X, M, L, alpha, gamma, d)
        A = X @ M @ X.T + alpha * (X @ L @ X.T) + gamma * np.eye(X.shape[0])
        B = centered_gram(X)
        theta = P.T @ A @ P
        # Stationarity: A P = B P Theta with Theta diagonal.
        off = theta - np.diag(np.diag(theta))
        assert np.max(np.abs(off)) <= 1e-8
        residual = A @ P - B @ P @ theta
        assert np.max(np.abs(residual)) <= 1e-6 * np.linalg.norm(A)

    def test_minimizes_among_feasible_competitors(self, rng):
        # Any other scatter-normalized frame must score at least as high
        # on the quadratic objective the eigenvectors minimize.
        ds = make_dataset(rng)
        n = ds.n_samples
        M = np.eye(n) / n
        graph = cp.init_graph(ds.features, 4, 0.8, ds.source_labels)
        _, L = cp.laplacian(graph)
        X = ds.features
        alpha, gamma, d = 1.0, 0.1, 2
        A = X @ M @ X.T + alpha * (X @ L @ X.T) + gamma * np.eye(X.shape[0])
        B = centered_gram(X)
        P = solve_projection(X, M, L, alpha, gamma, d)
        best = float(np.trace(P.T @ A @ P))
        for _ in range(10):
            Q = rng.standard_normal((X.shape[0], d))
            R = scipy.linalg.cholesky(Q.T @ B @ Q)
            Q = Q @ np.linalg.inv(R)
            assert float(np.trace(Q.T @ A @ Q)) >= best - 1e-9

    @pytest.mark.parametrize("d", [0, 6])
    def test_a_dimension_outside_one_to_m_is_rejected(self, rng, d):
        # fit's own checks raise ConfigError first; a direct caller reaches this one.
        X = rng.standard_normal((5, 12))
        with pytest.raises(DimensionError, match=f"requested {d} projection directions in 5"):
            solve_projection(X, np.eye(12), None, alpha=1.0, gamma=0.1, d=d)

    def test_a_factor_of_other_features_is_rejected(self, rng):
        X = rng.standard_normal((6, 40))
        E = rng.standard_normal((40, 3))
        with pytest.raises(DimensionError, match=r"scatter factor of shape \(5, 5\) for 6"):
            solve_projection(X, E, None, 1.0, 0.1, 3, factor_scatter(X[:5]))


class TestObjective:
    def _state(self, rng, beta):
        ds = make_dataset(rng)
        graph = cp.init_graph(ds.features, 4, 0.8, ds.source_labels)
        _, L = cp.laplacian(graph)
        clamp = np.eye(ds.n_classes)[ds.source_labels]
        F_free = cp.harmonic_solve(L, clamp)
        F = np.vstack([clamp, F_free])
        P = rng.standard_normal((ds.n_features, 3))
        M = rng.standard_normal((ds.n_samples, ds.n_samples))
        M = (M + M.T) / 2.0
        return ds, graph, L, F, P, M

    def test_matches_term_by_term_oracle(self, rng):
        alpha, beta, gamma = 1.0, 0.3, 0.2
        ds, graph, L, F, P, M = self._state(rng, beta)
        scale = 1.7
        Z = P.T @ ds.features
        S = graph.toarray()
        dz = pairwise_sq_dists(Z)
        df = pairwise_sq_dists(F.T)
        cost = dz + beta * df
        labels = ds.source_labels
        cross = labels[:, None] != labels[None, :]
        cost[: labels.size, : labels.size][cross] = np.inf
        np.fill_diagonal(cost, np.inf)
        # The graph was built from the raw features, so its own multipliers
        # are not those of this evaluation point's cost.
        got = objective(
            P, graph, F, ds.features, M, alpha, beta, gamma,
            graph_scale=scale, cost_matrix=cost,
        )
        expected = (
            float(np.trace(Z @ M @ Z.T))
            + (
                alpha * (float(np.sum(S * dz)) + quadratic_charge(cost, graph)) / 2.0
                + beta * float(np.sum(S * df)) / 2.0
            )
            / scale
            + gamma * float(np.sum(P * P))
        )
        assert got == pytest.approx(expected, rel=1e-10)

    def test_graph_energy_equals_laplacian_trace(self, rng):
        # The S-weighted distance sum halves into the symmetrized
        # Laplacian quadratic form used by the projection step.
        ds, graph, L, F, P, M = self._state(rng, 0.0)
        Z = P.T @ ds.features
        S = graph.toarray()
        dz = pairwise_sq_dists(Z)
        assert float(np.trace(Z @ L @ Z.T)) == pytest.approx(
            float(np.sum(S * dz)) / 2.0, rel=1e-9
        )

    def test_frozen_cost_matrix_controls_the_charge(self, rng):
        alpha, beta, gamma = 1.0, 0.0, 0.1
        ds, graph, L, F, P, M = self._state(rng, beta)
        frozen = cp.affinity_cost(
            rng.standard_normal((3, ds.n_samples)), None, 0.0, ds.source_labels
        )
        Z = P.T @ ds.features
        live = cp.affinity_cost(Z, None, 0.0, ds.source_labels)
        base = objective(
            P, graph, None, ds.features, M, alpha, beta, gamma,
            cost_matrix=live,
        )
        with_frozen = objective(
            P, graph, None, ds.features, M, alpha, beta, gamma,
            cost_matrix=frozen,
        )
        delta = (
            alpha
            * (quadratic_charge(frozen, graph) - quadratic_charge(live, graph))
            / 2.0
        )
        assert with_frozen - base == pytest.approx(delta, rel=1e-9, abs=1e-12)

    def test_zero_projection_leaves_ridge_and_charge(self, rng):
        ds, graph, L, F, P, M = self._state(rng, 0.0)
        P0 = np.zeros_like(P)
        frozen = cp.affinity_cost(
            P0.T @ ds.features, F, 0.5, ds.source_labels
        )
        got = objective(
            P0, graph, None, ds.features, M, 2.0, 0.0, 0.7,
            cost_matrix=frozen,
        )
        assert got == pytest.approx(
            2.0 * quadratic_charge(frozen, graph) / 2.0, rel=1e-12
        )


class TestValidation:
    def _fit(self, ds, **overrides):
        return cp.fit(ds, cp.HyperParams(**overrides))

    def test_rejects_unknown_mode_and_ablation(self, rng):
        ds = make_dataset(rng)
        with pytest.raises(ConfigError):
            self._fit(ds, mode="transductive")
        with pytest.raises(ConfigError):
            self._fit(ds, ablation="none")

    def test_mode_must_match_labeled_targets(self, rng):
        uda = make_dataset(rng)
        with pytest.raises(ConfigError):
            self._fit(uda, mode="sda")
        sda = cp.with_labeled_targets(make_dataset(rng), 1)
        with pytest.raises(ConfigError):
            self._fit(sda, mode="uda")

    def test_rejects_out_of_range_dimensions(self, rng):
        ds = make_dataset(rng)  # 5 features, 33 samples
        with pytest.raises(ConfigError):
            self._fit(ds, d=6)
        with pytest.raises(ConfigError):
            self._fit(ds, d=0, k=3)
        with pytest.raises(ConfigError):
            self._fit(ds, k=0)
        with pytest.raises(ConfigError):
            self._fit(ds, k=ds.n_samples)
        with pytest.raises(ConfigError):
            self._fit(ds, delta=1.5)
        with pytest.raises(ConfigError):
            self._fit(ds, delta=-0.1)
        with pytest.raises(ConfigError):
            self._fit(ds, iterations=0)

    def test_rejects_non_positive_weights(self, rng):
        ds = make_dataset(rng)
        with pytest.raises(ConfigError):
            self._fit(ds, alpha=0.0)
        with pytest.raises(ConfigError):
            self._fit(ds, gamma=0.0)
        with pytest.raises(ConfigError):
            self._fit(ds, beta=-0.5)

    @pytest.mark.parametrize("name", ["alpha", "beta", "gamma"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_weights(self, rng, name, value):
        with pytest.raises(ConfigError, match=name):
            self._fit(make_dataset(rng), **{name: value})

    @pytest.mark.parametrize("name", ["d", "k", "iterations"])
    @pytest.mark.parametrize("value", [2.5, True])
    def test_rejects_non_integer_counts(self, rng, name, value):
        with pytest.raises(ConfigError, match=name):
            self._fit(make_dataset(rng), **{name: value})

    def test_accepts_numpy_integer_counts(self, rng):
        ds = make_dataset(rng)
        report = self._fit(ds, d=np.int64(4), k=np.int32(4), iterations=np.int64(2))
        assert report.iterations <= 2


class TestFit:
    def _params(self, **overrides):
        base = dict(k=4, d=4, iterations=6)
        base.update(overrides)
        return cp.HyperParams(**base)

    def test_recovers_labels_without_domain_shift(self):
        ds = cp.gen_synthetic_shift(
            seed=7, per_class=25, rotation_deg=0.0, shift=(0.0, 0.0)
        )
        report = cp.fit(ds, cp.HyperParams(k=10, iterations=8))
        assert report.accuracy >= 0.95

    def test_identical_runs_are_identical(self, rng):
        ds = make_dataset(rng)
        a = cp.fit(ds, self._params())
        b = cp.fit(ds, self._params())
        npt.assert_array_equal(a.target_labels, b.target_labels)
        assert a.objective_trace == b.objective_trace
        assert a.label_change_trace == b.label_change_trace
        assert a.iterations == b.iterations

    def test_log_sink_emits_csv(self, rng):
        ds = make_dataset(rng)
        sink = io.StringIO()
        report = cp.fit(ds, self._params(), log_sink=sink)
        lines = sink.getvalue().splitlines()
        assert lines[0] == "iter,objective,label_change,accuracy"
        assert len(lines) == 1 + report.iterations
        first = lines[1].split(",")
        assert first[0] == "1"
        float(first[1])
        float(first[2])
        assert float(first[3]) == pytest.approx(report.accuracy_trace[0])

    def test_iteration_callback_sees_consistent_states(self, rng):
        ds = make_dataset(rng)
        states = []
        report = cp.fit(ds, self._params(), on_iteration=states.append)
        assert [s.iteration for s in states] == list(
            range(1, report.iterations + 1)
        )
        assert [s.objective for s in states] == report.objective_trace
        assert [s.label_change for s in states] == report.label_change_trace
        last = states[-1]
        npt.assert_array_equal(last.target_labels, report.target_labels)
        assert last.P.shape == (ds.n_features, 4)
        assert last.F.shape == (ds.n_samples, ds.n_classes)
        npt.assert_allclose(
            last.graph.toarray().sum(axis=1), 1.0, atol=1e-8
        )

    def test_report_shapes_and_ranges(self, rng):
        ds = make_dataset(rng)
        report = cp.fit(ds, self._params())
        assert report.target_labels.shape == (ds.n_unlabeled_target,)
        assert set(np.unique(report.target_labels)) <= set(range(ds.n_classes))
        assert 0.0 <= report.accuracy <= 1.0
        assert len(report.objective_trace) == report.iterations
        assert all(np.isfinite(v) for v in report.objective_trace)
        assert report.objective_final == report.objective_trace[-1]

    def test_no_ground_truth_means_no_accuracy(self, rng):
        ds = make_dataset(rng)
        stripped = cp.Dataset(
            features=ds.features,
            n_source=ds.n_source,
            n_labeled_target=0,
            n_unlabeled_target=ds.n_unlabeled_target,
            source_labels=ds.source_labels,
            n_classes=ds.n_classes,
        )
        report = cp.fit(stripped, self._params())
        assert report.accuracy is None
        assert report.accuracy_trace is None

    def test_supervised_mode_passes_labels_through(self, rng):
        ds = cp.with_labeled_targets(make_dataset(rng, per_class_target=6), 2)
        report = cp.fit(ds, self._params(mode="sda"))
        npt.assert_array_equal(
            report.target_labels[: ds.n_labeled_target], ds.labeled_target_labels
        )
        assert report.target_labels.shape == (
            ds.n_labeled_target + ds.n_unlabeled_target,
        )

    def test_label_change_counts_unlabeled_targets_only(self):
        # Overlapping classes keep pseudo-labels moving for several
        # iterations; with 6 labeled of 36 targets, a change taken over the
        # whole target array would read 30/36 of the true fraction.
        ds = cp.with_labeled_targets(
            make_dataset(
                np.random.default_rng(4),
                per_class_source=10,
                per_class_target=12,
                spread=0.5,
            ),
            2,
        )
        n_l = ds.n_labeled_target
        states = []
        report = cp.fit(
            ds, self._params(k=5, d=3, iterations=8, mode="sda"),
            on_iteration=states.append,
        )
        assert len(states) >= 3
        assert any(s.label_change > 0.0 for s in states[1:])
        for prev, state in zip(states, states[1:]):
            assert state.label_change == np.mean(
                state.target_labels[n_l:] != prev.target_labels[n_l:]
            )
        npt.assert_array_equal(report.target_labels, states[-1].target_labels)
        assert report.accuracy == report.accuracy_trace[-1]

    def test_single_target_sample_runs(self, rng):
        ds = make_dataset(rng, per_class_source=6, per_class_target=4)
        keep = ds.n_source + 1
        tiny = cp.Dataset(
            features=ds.features[:, :keep],
            n_source=ds.n_source,
            n_labeled_target=0,
            n_unlabeled_target=1,
            source_labels=ds.source_labels,
            n_classes=ds.n_classes,
            hidden_target_labels=ds.hidden_target_labels[:1],
        )
        report = cp.fit(tiny, self._params(k=3))
        assert report.target_labels.shape == (1,)

    def test_all_ablations_run_and_are_reported(self, rng):
        ds = make_dataset(rng)
        for ablation in ABLATIONS:
            report = cp.fit(ds, self._params(ablation=ablation))
            assert report.iterations >= 1
            assert np.isfinite(report.objective_final)

    def test_decoupled_baseline_trails_joint_solver_on_shift(self):
        ds = cp.gen_synthetic_shift(seed=3, per_class=40)
        full = cp.fit(ds, cp.HyperParams(iterations=8))
        sp = cp.fit(ds, cp.HyperParams(iterations=8, ablation="sp"))
        assert full.accuracy >= sp.accuracy - 0.01
