"""Adaptive graph construction: costs, closed-form rows, Laplacian."""

import io
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse

import crossprop as cp
from crossprop.exceptions import ArgumentError, ShapeError
from crossprop.graph import RowBlockCost, block_multiplier, cost_space, quadratic_charge

from conftest import (
    check_structured_graph,
    csr_rows,
    graph_row_objective,
    make_dataset,
    naive_pairwise_sq,
    oracle_graph_row,
)


def target_rows(A, k, n_source):
    """The rows from ``n_source`` on of the unstructured graph over ``A``.

    Unstructured rows all take the target-row update, which does not depend
    on the other rows.
    """
    return cp.build_graph(A, k, 0.0, None).rows[n_source:]


def source_rows(A, k, delta, source_labels):
    """The source rows of the structured graph over ``A``."""
    return cp.build_graph(A, k, delta, source_labels).rows[: len(source_labels)]


class TestAffinityCost:
    def test_beta_zero_is_feature_distance_plus_mask(self, rng):
        Z = rng.standard_normal((3, 6))
        F = rng.random((6, 2))
        labels = np.array([0, 1, 0])
        A = cp.affinity_cost(Z, F, 0.0, labels)
        D = naive_pairwise_sq(Z)
        finite = np.isfinite(A)
        npt.assert_allclose(A[finite], D[finite], rtol=1e-10)
        assert A[0, 1] == np.inf and A[1, 0] == np.inf
        assert A[0, 2] != np.inf
        assert np.all(np.diag(A) == np.inf)

    def test_identical_samples_and_labels_give_zero_cost(self):
        Z = np.ones((2, 4))
        F = np.tile([0.5, 0.5], (4, 1))
        A = cp.affinity_cost(Z, F, 2.0, None)
        off_diag = A[~np.eye(4, dtype=bool)]
        npt.assert_array_equal(off_diag, np.zeros(12))

    def test_matches_two_term_double_loop(self, rng):
        Z = rng.standard_normal((4, 6))
        F = rng.random((6, 3))
        beta = 0.7
        A = cp.affinity_cost(Z, F, beta, None)
        expected = naive_pairwise_sq(Z) + beta * naive_pairwise_sq(F.T)
        off = ~np.eye(6, dtype=bool)
        npt.assert_allclose(A[off], expected[off], rtol=1e-10)

    def test_label_rows_must_match_samples(self, rng):
        with pytest.raises(ShapeError):
            cp.affinity_cost(rng.standard_normal((2, 5)), rng.random((4, 2)), 1.0)


class TestTargetRowUpdate:
    def test_hand_computed_weights(self):
        A = np.full((5, 5), np.inf)
        A[4, :4] = [1.0, 2.0, 3.0, 100.0]
        rows = target_rows(A, k=2, n_source=4)
        cols, weights = csr_rows(rows)[0]
        npt.assert_array_equal(cols, [0, 1])
        npt.assert_allclose(weights, [2.0 / 3.0, 1.0 / 3.0])

    def test_degenerate_ties_fall_back_to_uniform(self):
        A = np.full((5, 5), np.inf)
        A[4, :4] = [5.0, 5.0, 5.0, 5.0]
        rows = target_rows(A, k=3, n_source=4)
        cols, weights = csr_rows(rows)[0]
        npt.assert_array_equal(cols, [0, 1, 2])
        npt.assert_allclose(weights, [1.0 / 3.0] * 3)

    def test_matches_iterative_simplex_solver(self, rng):
        k = 5
        for _ in range(10):
            costs = rng.random(12) * 3.0
            A = np.full((13, 13), np.inf)
            A[12, :12] = costs
            rows = target_rows(A, k=k, n_source=12)
            cols, weights = csr_rows(rows)[0]
            dense = np.zeros(13)
            dense[cols] = weights
            oracle = cp.simplex_qp_oracle(costs, 1.0, k)
            assert np.max(np.abs(dense[:12] - oracle)) <= 1e-6

    def test_exactly_k_nonzeros_generically(self, rng):
        A = np.full((10, 10), np.inf)
        A[9, :9] = rng.random(9)
        rows = target_rows(A, k=4, n_source=9)
        cols, weights = csr_rows(rows)[0]
        assert cols.size == 4
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_decreasing_a_near_cost_never_decreases_its_weight(self, rng):
        k = 5
        for _ in range(10):
            costs = rng.random(12) * 2.0
            order = np.argsort(costs)
            j = order[int(rng.integers(0, k))]

            def weight_of(c, j=j):
                A = np.full((13, 13), np.inf)
                A[12, :12] = c
                rows = target_rows(A, k=k, n_source=12)
                cols, weights = csr_rows(rows)[0]
                dense = np.zeros(12)
                dense[cols[cols < 12]] = weights[cols < 12]
                return dense[j]

            before = weight_of(costs)
            lowered = costs.copy()
            lowered[j] = costs[j] - 0.5 * (costs[j] - costs.min())
            after = weight_of(lowered)
            assert after >= before - 1e-12


class TestSourceRowUpdate:
    def _cost(self, rng, labels, n_target):
        n_s = labels.size
        n = n_s + n_target
        Z = rng.standard_normal((3, n))
        return cp.affinity_cost(Z, None, 0.0, labels)

    def test_delta_one_keeps_row_in_source_block(self, rng):
        labels = np.array([0, 0, 0, 1, 1, 1])
        A = self._cost(rng, labels, 4)
        rows = source_rows(A, k=2, delta=1.0, source_labels=labels)
        for i, (cols, weights) in enumerate(csr_rows(rows)):
            assert np.all(cols < 6)
            assert weights.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(labels[cols] == labels[i])

    def test_delta_zero_keeps_row_in_target_block(self, rng):
        labels = np.array([0, 0, 0, 1, 1, 1])
        A = self._cost(rng, labels, 4)
        rows = source_rows(A, k=2, delta=0.0, source_labels=labels)
        for cols, weights in csr_rows(rows):
            assert np.all(cols >= 6)
            assert weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_blocks_match_iterative_solver_at_standard_delta(self, rng):
        labels = np.repeat([0, 1, 2], 8)
        delta, k = 0.8, 3
        A = self._cost(rng, labels, 15)
        rows = source_rows(A, k=k, delta=delta, source_labels=labels)
        n_s = labels.size
        for i, (cols, weights) in enumerate(csr_rows(rows)):
            dense = np.zeros(A.shape[0])
            dense[cols] = weights
            expected = oracle_graph_row(A[i], i, n_s, k, delta, structured=True)
            assert np.max(np.abs(dense - expected)) <= 1e-6

    def test_oracle_takes_only_finite_target_candidates(self):
        # Row 0's only target cost is infinite, so its 1 - delta share has
        # no candidate and stays unassigned, in the oracle as in build_graph.
        A = np.array([[np.inf, 0.5, np.inf], [0.5, np.inf, 0.2], [0.3, 0.4, np.inf]])
        labels = np.array([0, 0])
        S = cp.build_graph(A, 1, 0.8, labels).toarray()
        npt.assert_array_equal(S[0], [0.0, 0.8, 0.0])
        for i in range(3):
            expected = oracle_graph_row(A[i], i, 2, 1, 0.8, structured=True)
            npt.assert_allclose(S[i], expected, rtol=0.0, atol=1e-6)

    def test_lonely_class_moves_mass_to_targets(self, rng):
        labels = np.array([0, 1, 1, 1])
        A = self._cost(rng, labels, 3)
        rows = source_rows(A, k=2, delta=0.8, source_labels=labels)
        cols, weights = csr_rows(rows)[0]
        assert np.all(cols >= 4)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)


class TestBuildAndInitGraph:
    def test_structured_invariants_on_random_data(self, rng):
        for _ in range(5):
            ds = make_dataset(rng)
            graph = cp.init_graph(ds.features, 4, 0.75, ds.source_labels)
            check_structured_graph(graph, ds.source_labels, 4, 0.75)

    def test_identical_source_pair_connects_within_class_mass(self):
        X = np.array([[0.0, 0.0, 5.0], [0.0, 0.0, 5.0]])
        labels = np.array([0, 0])
        graph = cp.init_graph(X, 1, 0.6, labels)
        S = graph.toarray()
        assert S[0, 1] == pytest.approx(0.6, abs=1e-12)
        assert S[1, 0] == pytest.approx(0.6, abs=1e-12)
        assert S[0, 2] == pytest.approx(0.4, abs=1e-12)

    def test_rows_match_generic_row_oracle(self, rng):
        ds = make_dataset(rng, per_class_source=8, per_class_target=6)
        k, delta = 3, 0.8
        A = cp.affinity_cost(ds.features, None, 0.0, ds.source_labels)
        graph = cp.init_graph(ds.features, k, delta, ds.source_labels)
        S = graph.toarray()
        for i in range(ds.n_samples):
            expected = oracle_graph_row(
                A[i], i, ds.n_source, k, delta, structured=True
            )
            assert np.max(np.abs(S[i] - expected)) <= 1e-6

    def test_unstructured_rows_spread_unit_mass(self, rng):
        ds = make_dataset(rng)
        graph = cp.init_graph(ds.features, 4, 0.8, None)
        assert graph.source_labels is None
        S = graph.toarray()
        npt.assert_allclose(S.sum(axis=1), 1.0, atol=1e-9)
        assert all(np.count_nonzero(S[i]) <= 4 for i in range(ds.n_samples))

    def test_closed_form_update_never_increases_row_objective(self, rng):
        # Replacing any feasible graph by the closed-form update must not
        # increase the graph objective evaluated at the same frozen costs.
        ds = make_dataset(rng)
        k, delta = 4, 0.7
        other = rng.standard_normal(ds.features.shape)
        stale = cp.init_graph(other, k, delta, ds.source_labels)
        A = cp.affinity_cost(ds.features, None, 0.0, ds.source_labels)
        fresh = cp.build_graph(A, k, delta, ds.source_labels)

        def value(graph):
            S = graph.toarray()
            linear = float(np.sum(np.where(np.isfinite(A), A, 0.0) * S))
            return linear + quadratic_charge(A, graph)

        assert value(fresh) <= value(stale) + 1e-12


class TestGaussianKnnGraph:
    def test_rows_are_normalized_kernels(self, rng):
        Z = rng.standard_normal((3, 12))
        graph = cp.gaussian_knn_graph(Z, 4)
        S = graph.toarray()
        npt.assert_allclose(S.sum(axis=1), 1.0, atol=1e-12)
        assert all(np.count_nonzero(S[i]) == 4 for i in range(12))

    def test_closer_neighbors_get_larger_weight(self):
        Z = np.array([[0.0, 1.0, 3.0, 10.0]])
        graph = cp.gaussian_knn_graph(Z, 2)
        cols, weights = csr_rows(graph.rows)[0]
        npt.assert_array_equal(cols, [1, 2])
        assert weights[0] > weights[1]

    def test_small_sample_count_clamps_k(self, rng):
        Z = rng.standard_normal((2, 3))
        graph = cp.gaussian_knn_graph(Z, 10)
        assert graph.k == 2


@pytest.mark.parametrize(
    "builder, k, n",
    [
        ("build_graph", 0, 5),
        ("build_graph", -2, 5),
        ("gaussian_knn_graph", 0, 5),
        ("gaussian_knn_graph", -2, 5),
        ("gaussian_knn_graph", 1, 1),
        ("build_graph", 2.5, 5),
        ("build_graph", True, 5),
        ("init_graph", 2.5, 5),
        ("init_graph", True, 5),
        ("gaussian_knn_graph", 2.5, 5),
        ("gaussian_knn_graph", True, 5),
    ],
)
def test_graph_builders_reject_k_below_one_or_a_single_sample(rng, builder, k, n):
    Z = rng.standard_normal((2, n))
    with pytest.raises(ArgumentError):
        if builder == "build_graph":
            cp.build_graph(cp.affinity_cost(Z, None, 0.0), k, 0.5, None)
        elif builder == "init_graph":
            cp.init_graph(Z, k, 0.5, np.array([0, 1]))
        else:
            cp.gaussian_knn_graph(Z, k)


@pytest.mark.parametrize("shape", [(5, 4), (4, 5), (5,)])
def test_build_graph_rejects_a_cost_that_is_not_square(shape):
    # A 5 x 4 cost raised an IndexError from the row blocks.
    with pytest.raises(ShapeError):
        cp.build_graph(np.ones(shape), 2, 0.5, None)


@pytest.mark.parametrize("width", [0.0, -1.0, np.nan, np.inf])
def test_gaussian_graph_rejects_a_width_that_is_not_finite_and_positive(width):
    # A zero width gave NaN weights on the duplicate samples' rows, a NaN
    # width NaN weights everywhere.
    Z = np.array([[0.0, 0.0, 1.0, 2.0, 3.0]])
    with pytest.raises(ArgumentError):
        cp.gaussian_knn_graph(Z, 2, width=width)


def test_gaussian_graph_takes_its_width_by_keyword_only():
    # A third positional argument used to be a sample count, not the width.
    with pytest.raises(TypeError):
        cp.gaussian_knn_graph(np.array([[0.0, 1.0, 2.0, 3.0]]), 2, 1.0)


@pytest.mark.parametrize("beta", [-0.1, np.nan, np.inf])
def test_costs_reject_a_beta_that_is_not_finite_and_non_negative(rng, beta):
    # A NaN beta made every cost NaN, so the graph step kept no edge and
    # the graph's rows summed to 0.
    Z = rng.standard_normal((2, 6))
    F = rng.dirichlet(np.ones(2), size=6)
    with pytest.raises(ArgumentError):
        cp.affinity_cost(Z, F, beta)
    with pytest.raises(ArgumentError):
        cost_space(Z, F, beta)


def _row_block_cost(Z, F, beta):
    return RowBlockCost(cost_space(Z, F, beta))


COST_ENTRIES = pytest.mark.parametrize(
    "build",
    [cp.affinity_cost, cost_space, _row_block_cost],
    ids=["affinity_cost", "cost_space", "RowBlockCost"],
)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@COST_ENTRIES
def test_costs_reject_coordinates_or_soft_labels_that_are_not_finite(rng, bad, build):
    # A NaN or infinite coordinate gave NaN or infinite costs, which no
    # graph row is defined over.
    Z = rng.standard_normal((2, 6))
    F = rng.dirichlet(np.ones(2), size=6)
    Z_bad, F_bad = Z.copy(), F.copy()
    Z_bad[1, 3] = F_bad[2, 0] = bad
    with pytest.raises(ArgumentError):
        build(Z_bad, F, 0.5)
    with pytest.raises(ArgumentError):
        build(Z, F_bad, 0.5)


@COST_ENTRIES
def test_costs_reject_coordinates_or_soft_labels_that_are_not_2d(build):
    # A 1-D Z raised an IndexError; a 1-D F raised a ValueError or an
    # IndexError, or was read as one label column by cost_space.
    with pytest.raises(ShapeError):
        build(np.arange(4.0), None, 0.0)
    with pytest.raises(ShapeError):
        build(np.ones((2, 4)), np.arange(4.0), 0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_row_block_cost_checks_its_own_coordinates(bad):
    U = np.ones((2, 4))
    U[1, 2] = bad
    with pytest.raises(ArgumentError):
        RowBlockCost(U)
    with pytest.raises(ShapeError):
        RowBlockCost(np.arange(4.0))


def test_init_graph_rejects_an_infinite_coordinate():
    # Row 3 of this graph was left empty.
    with pytest.raises(ArgumentError):
        cp.init_graph([[0.0, 1.0, 2.0, np.inf]], 1, 0.5, None)


def test_gaussian_graph_rejects_a_nan_coordinate():
    # The NaN column's row got a self-loop of weight 1.
    with pytest.raises(ArgumentError):
        cp.gaussian_knn_graph(np.array([[0.0, 1.0, np.nan, 3.0, 4.0]]), 2)


class TestLaplacian:
    def test_symmetric_input_passes_through(self, rng):
        S = rng.random((5, 5))
        S = (S + S.T) / 2.0
        np.fill_diagonal(S, 0.0)
        graph = cp.AffinityGraph(
            scipy.sparse.csr_array(S), k=4, delta=0.0
        )
        W, L = cp.laplacian(graph)
        npt.assert_allclose(W, S, atol=1e-15)

    def test_null_vector(self, rng):
        ds = make_dataset(rng)
        graph = cp.init_graph(ds.features, 4, 0.8, ds.source_labels)
        _, L = cp.laplacian(graph)
        assert np.max(np.abs(L @ np.ones(ds.n_samples))) <= 1e-10

    def test_quadratic_form_identity(self, rng):
        ds = make_dataset(rng)
        graph = cp.init_graph(ds.features, 4, 0.8, ds.source_labels)
        W, L = cp.laplacian(graph)
        n = ds.n_samples
        for _ in range(5):
            x = rng.standard_normal(n)
            form = float(x @ L @ x)
            naive = 0.5 * float(
                np.sum(W * (x[:, None] - x[None, :]) ** 2)
            )
            assert form == pytest.approx(naive, rel=1e-9, abs=1e-9)


class TestQuadraticCharge:
    def test_matches_manual_blockwise_sum(self, rng):
        ds = make_dataset(rng, per_class_source=8, per_class_target=6)
        k, delta = 3, 0.8
        A = cp.affinity_cost(ds.features, None, 0.0, ds.source_labels)
        graph = cp.build_graph(A, k, delta, ds.source_labels)
        S = graph.toarray()
        n_s = ds.n_source
        total = 0.0
        for i in range(ds.n_samples):
            if i < n_s:
                src = np.flatnonzero(np.isfinite(A[i, :n_s]))
                blocks = [(src, delta), (np.arange(n_s, ds.n_samples), 1.0 - delta)]
            else:
                blocks = [(np.flatnonzero(np.isfinite(A[i])), 1.0)]
            for cands, mass in blocks:
                lam = block_multiplier(A[i, cands], k, mass)
                total += lam * float(np.sum(S[i, cands] ** 2))
        assert quadratic_charge(A, graph) == pytest.approx(total, rel=1e-12)

    def test_multiplier_scaling_with_mass(self, rng):
        costs = np.sort(rng.random(10))
        lam_unit = block_multiplier(costs, 4, 1.0)
        lam_half = block_multiplier(costs, 4, 0.5)
        assert lam_half == pytest.approx(2.0 * lam_unit, rel=1e-12)
        assert lam_unit > 0.0

    def test_small_blocks_carry_no_charge(self, rng):
        costs = rng.random(3)
        assert block_multiplier(costs, 5, 1.0) == 0.0
        assert block_multiplier(costs[:1], 5, 1.0) == 0.0


class TestWriteEdges:
    def test_stream_output_sorted_and_formatted(self):
        # Entries listed out of column order; the CSR rows come out sorted.
        rows = np.array([0, 0, 1, 2, 2])
        cols = np.array([2, 1, 0, 0, 1])
        weights = np.array([0.25, 0.75, 1.0, 0.5, 0.5])
        graph = cp.AffinityGraph(
            rows=scipy.sparse.coo_array((weights, (rows, cols)), shape=(3, 3)).tocsr(),
            k=2,
            delta=0.8,
        )
        sink = io.StringIO()
        cp.write_edges(graph, sink)
        lines = sink.getvalue().splitlines()
        assert lines == ["0 1 0.75", "0 2 0.25", "1 0 1", "2 0 0.5", "2 1 0.5"]

    @pytest.mark.parametrize("as_path", [str, Path], ids=["str", "Path"])
    def test_path_output(self, rng, tmp_path, as_path):
        ds = make_dataset(rng)
        graph = cp.init_graph(ds.features, 3, 0.8, ds.source_labels)
        path = tmp_path / "edges.txt"
        cp.write_edges(graph, as_path(path))
        lines = path.read_text().splitlines()
        assert len(lines) == graph.rows.nnz
        first = lines[0].split()
        assert len(first) == 3
        float(first[2])
