"""Nearest-neighbor baseline and the iterative simplex-QP reference solver."""

import numpy as np
import numpy.testing as npt
import pytest

import crossprop as cp
from crossprop.baselines import project_simplex
from crossprop.exceptions import ArgumentError, ShapeError


class TestNearestNeighbor:
    def test_exact_match_wins(self):
        train = np.array([[0.0, 10.0], [0.0, 10.0]])
        labels = np.array([0, 1])
        test = np.array([[10.0], [10.0]])
        npt.assert_array_equal(cp.nearest_neighbor(train, labels, test), [1])

    def test_single_training_sample_labels_everything(self, rng):
        train = rng.standard_normal((4, 1))
        test = rng.standard_normal((4, 7))
        npt.assert_array_equal(
            cp.nearest_neighbor(train, np.array([2]), test), [2] * 7
        )

    def test_hand_geometry(self):
        # Columns on a line at 0, 1, 10, 11 with labels 0 0 1 1.
        train = np.array([[0.0, 1.0, 10.0, 11.0]])
        labels = np.array([0, 0, 1, 1])
        test = np.array([[0.4, 5.4, 10.6]])
        npt.assert_array_equal(
            cp.nearest_neighbor(train, labels, test), [0, 0, 1]
        )

    def test_distance_tie_takes_first_column(self):
        train = np.array([[-1.0, 1.0]])
        labels = np.array([3, 7])
        npt.assert_array_equal(
            cp.nearest_neighbor(train, labels, np.array([[0.0]])), [3]
        )

    def test_shape_mismatches_rejected(self, rng):
        train = rng.standard_normal((3, 4))
        labels = np.arange(4)
        with pytest.raises(ShapeError):
            cp.nearest_neighbor(train, np.arange(3), rng.standard_normal((3, 2)))
        with pytest.raises(ShapeError):
            cp.nearest_neighbor(train, labels, rng.standard_normal((2, 2)))
        with pytest.raises(ShapeError):
            cp.nearest_neighbor(
                train[:, :0], np.array([], dtype=int), rng.standard_normal((3, 2))
            )


    @pytest.mark.parametrize(
        "train, labels",
        [(np.ones(4), [0, 1, 0, 1]), (np.ones((2, 4)), [[0, 1, 0, 1]])],
        ids=["1-d-train-features", "2-d-train-labels"],
    )
    def test_wrong_dimensionality_rejected(self, train, labels):
        # The first raised IndexError; the second returned a (3, 4) array.
        with pytest.raises(ShapeError):
            cp.nearest_neighbor(train, labels, np.ones((2, 3)))

    @pytest.mark.parametrize("side", ["train", "test"])
    def test_non_finite_features_rejected(self, side):
        # A NaN test sample was predicted class 0.
        train = np.array([[0.0, 1.0, 5.0]])
        test = np.array([[4.0, 0.5]])
        {"train": train, "test": test}[side][0, 1] = np.nan
        with pytest.raises(ArgumentError):
            cp.nearest_neighbor(train, [1, 0, 1], test)

class TestProjectSimplex:
    def test_interior_point_unchanged(self):
        v = np.array([0.2, 0.3, 0.5])
        npt.assert_allclose(project_simplex(v), v, atol=1e-12)

    def test_dominant_coordinate_saturates(self):
        npt.assert_allclose(
            project_simplex(np.array([10.0, 0.0, 0.0])), [1.0, 0.0, 0.0]
        )

    def test_symmetric_input_splits_evenly(self):
        npt.assert_allclose(
            project_simplex(np.array([4.0, 4.0])), [0.5, 0.5], atol=1e-12
        )

    def test_scaled_mass(self):
        out = project_simplex(np.array([1.0, 0.0]), mass=0.6)
        assert out.sum() == pytest.approx(0.6, abs=1e-12)
        assert np.all(out >= 0.0)

    def test_projection_is_euclidean_optimal(self, rng):
        # No random feasible point may be closer to v than the projection.
        for _ in range(20):
            v = rng.standard_normal(6) * 2.0
            p = project_simplex(v)
            assert p.sum() == pytest.approx(1.0, abs=1e-10)
            assert np.all(p >= -1e-12)
            w = rng.random(6)
            w = w / w.sum()
            assert np.sum((p - v) ** 2) <= np.sum((w - v) ** 2) + 1e-10


class TestSimplexQpOracle:
    def test_two_equal_costs_split_mass(self):
        out = cp.simplex_qp_oracle(np.array([1.0, 1.0, 5.0, 9.0]), 1.0, 2)
        npt.assert_allclose(out, [0.5, 0.5, 0.0, 0.0], atol=1e-8)

    def test_rejects_bad_mass_and_support(self):
        costs = np.array([1.0, 2.0, 3.0])
        with pytest.raises(ArgumentError):
            cp.simplex_qp_oracle(costs, 0.0, 2)
        with pytest.raises(ArgumentError):
            cp.simplex_qp_oracle(costs, -1.0, 2)
        with pytest.raises(ArgumentError):
            cp.simplex_qp_oracle(costs, 1.0, 0)
        with pytest.raises(ArgumentError):
            cp.simplex_qp_oracle(costs, 1.0, 3)
        with pytest.raises(ArgumentError):
            cp.simplex_qp_oracle(np.array([1.0, np.inf, 2.0]), 1.0, 2)

    def test_matches_hand_closed_form(self):
        # costs [1, 2, 3, 100], support 2: multiplier lambda = (2*3-3)/2,
        # weights (3-1)/3 and (3-2)/3.
        out = cp.simplex_qp_oracle(np.array([1.0, 2.0, 3.0, 100.0]), 1.0, 2)
        npt.assert_allclose(out, [2.0 / 3.0, 1.0 / 3.0, 0.0, 0.0], atol=1e-7)

    def test_scaled_mass_scales_solution(self, rng):
        costs = np.sort(rng.random(8))
        full = cp.simplex_qp_oracle(costs, 1.0, 3)
        frac = cp.simplex_qp_oracle(costs, 0.25, 3)
        npt.assert_allclose(frac, 0.25 * full, atol=1e-7)

    def test_feasibility_on_random_inputs(self, rng):
        for _ in range(10):
            q = int(rng.integers(6, 15))
            k = int(rng.integers(2, q - 1))
            costs = rng.random(q) * 4.0
            out = cp.simplex_qp_oracle(costs, 1.0, k)
            assert out.sum() == pytest.approx(1.0, abs=1e-8)
            assert np.all(out >= -1e-10)
            assert np.count_nonzero(out > 1e-8) <= k + 1
